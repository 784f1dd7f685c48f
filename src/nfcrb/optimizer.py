"""Constellation evaluation, sweeps and before/after comparison.

``evaluate_constellations`` computes the det(R_x), received powers, information
matrix (``fim_rank_one``; a lone scenario's the trace form) and bounds of K
constellations, one stacked pass each, and re-evaluates a failing batch in halves
(``batch_or_each``, the fallback search scoring uses too); ``evaluate_constellation``
is its K = 1 case.  Run reports, CSV rows, sweep rows and comparisons all read
that one ``ConstellationEvaluation``.
``sweep`` re-evaluates a scenario over a frequency or velocity grid,
optionally repositioning per point, a chunk of rows at a time; each chunk
reaches the evaluation as stacked arrays.  Reposition rows are planned in one
array pass per window of whole chunks: one steering pass picks their strongest
elements, one ``reposition.plan_moves`` call their moves and one
``geometry.refit_axes`` call the polar axes of the rewritten tables.  Only
each rewritten table's x ``lstsq`` stays per row: one multi-right-hand-side
solve rounds the fit, and so the residual notes, differently in the last bits.
``compare_report`` gives the before/after ratios of two evaluations.
``grid_search`` runs the exhaustive scan of ``reposition`` over a
displacement grid or a 2-D box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, batch_or_each, kept
from .fim_crb import (PHASE_CHUNK_VALUES, CrbReport, FimMatrix, batch_chunk, crb_reports, fim_for_scenario,
                      fim_rank_one)
from .geometry import delay_geometry, native_delays, pairwise_form, polar_axes, refit_axes
from .reposition import RepositionPlan, _check_axis, _scan, plan_moves
from .signal_model import covariances, frequency_vector, received_power, steering_matrix


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description: vary a source frequency or the velocity."""

    vary: str
    start: float
    stop: float
    steps: int
    source: int | None = None
    modes: tuple[str, ...] = ("primary",)

    def __post_init__(self) -> None:
        if self.vary not in ("frequency", "velocity"):
            raise ValidationError(f"vary must be 'frequency' or 'velocity', got {self.vary!r}")
        if self.vary == "frequency" and self.source is None:
            raise ValidationError("frequency sweeps need a source index")
        _check_axis("sweep", self)
        if not (0 < self.start < self.stop):
            raise ValidationError(f"sweep bounds must satisfy 0 < start < stop, got [{self.start}, {self.stop}]")
        if self.steps < 2:
            raise ValidationError(f"sweep needs at least 2 steps, got {self.steps}")
        if not self.modes:
            raise ValidationError("at least one sweep mode is required")
        for mode in self.modes:
            if mode not in ("primary", "reposition"):
                raise ValidationError(f"unknown sweep mode {mode!r}")
        if len(set(self.modes)) < len(self.modes):
            raise ValidationError(f"sweep modes repeat: {','.join(self.modes)}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, mode) result."""

    point: float
    mode: str
    det: float
    crb_theta_total: float
    crb_r_total: float
    diagnostics: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    """Before/after ratios; a ratio below 1 means the quantity got worse."""

    det_ratio: float
    crb_theta_ratio: float
    crb_r_ratio: float
    worsened: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ConstellationEvaluation:
    """One constellation's det, received powers, information matrix and bounds.

    det and powers use the scenario's native delays, the bounds its polar form;
    ``residual`` is the reconstruction residual in meters, None for polar input.
    """

    det: float
    received_powers: np.ndarray
    strongest_element: int
    residual: float | None
    fim: FimMatrix
    crb: CrbReport


def _native_powers(scn) -> tuple[np.ndarray, int]:
    """Per-element received powers at the scenario's native delays, and the strongest element."""
    A = steering_matrix(native_delays(scn), frequency_vector(scn.signals))
    return received_power(A, scn.signals)


@dataclass(frozen=True, eq=False)
class _Rows:
    """K constellations as ``_evaluate`` reads them: a scenario with their amplitudes, noise and
    snapshots; (K, M, N) native delays and the kernel's (K, ...) axes; residuals (None for polar
    input); per row the ValidationError held to fail it, or None.  A slice is a sub-batch."""

    scenario: object
    arrays: tuple
    residuals: list
    held: list

    def __len__(self) -> int:
        return len(self.held)

    def __getitem__(self, part: slice) -> "_Rows":
        return _Rows(self.scenario, tuple(a[part] for a in self.arrays), self.residuals[part], self.held[part])


def _rows_of(scenarios) -> _Rows:
    """The ``_Rows`` of scenarios sharing M, N, amplitudes, noise and snapshots."""
    axes, residuals = zip(*map(polar_axes, scenarios))
    per_row = [(native_delays(s), *a, frequency_vector(s.signals), s.velocity_mps) for s, a in zip(scenarios, axes)]
    return _Rows(scenarios[0], tuple(map(np.array, zip(*per_row))), list(residuals), [None] * len(scenarios))


def _evaluate(targets) -> list[ConstellationEvaluation]:
    """Evaluations of constellations (scenarios or ``_Rows``) sharing M, N, amplitudes, noise and
    snapshots: one stacked steering pass for powers and dets, one kernel and one SVD call."""
    rows = targets if isinstance(targets, _Rows) else _rows_of(targets)
    if held := next(filter(None, rows.held), None):  # a held conversion error, or a sweep row it failed
        raise held.with_traceback(None)
    first, (delays, *axes) = rows.scenario, rows.arrays
    A = steering_matrix(delays, axes[4])
    powers, strongest = received_power(A, first.signals)
    with np.errstate(over="ignore"):  # a determinant beyond the float range reads inf
        det = np.linalg.det(covariances(A, first.signals, first.noise_variance).array_cov)
    # a lone scenario keeps fim_for_scenario's spans for the benchmark's harness; ROADMAP item 6 deletes this branch
    if rows is not targets and len(rows) == 1:
        fims = [fim_for_scenario(first)]
        F = fims[0].entries[None]
    else:
        F, cond = fim_rank_one(first, *axes)
        fims = [FimMatrix(f, first.snapshots, c) for f, c in zip(F, cond.tolist())]
    crbs = crb_reports(F, first.num_sources)
    moduli = np.hypot(det.real, det.imag).tolist()  # Python's abs(complex), as the det scorer takes it
    return [ConstellationEvaluation(*row) for row in zip(moduli, powers, strongest, rows.residuals, fims, crbs)]


def evaluate_constellations(targets) -> list:
    """Per target, its ConstellationEvaluation or the ValidationError that rejected it, from
    one ``_evaluate`` batch of targets sharing M, N, amplitudes, noise and snapshots (keep
    it within ``batch_chunk``); a failing batch is evaluated again in halves."""
    return batch_or_each(_evaluate, targets)


def evaluate_constellation(scn) -> ConstellationEvaluation:
    """|det R_x|, per-element received powers, information matrix and bounds of a scenario."""
    return _evaluate([scn])[0]


def _notes(ev: ConstellationEvaluation) -> list[str]:
    """Sweep-row notes: the reconstruction residual of pairwise input and rank deficiency."""
    notes = [] if ev.residual is None else [f"reconstruction residual {ev.residual:.6e} m"]
    if ev.crb.rank_deficient:
        notes.append(f"information matrix rank deficient ({ev.crb.rank}/{ev.crb.size})")
    return notes


def constellation_metrics(scn) -> tuple[ConstellationEvaluation, tuple[str, ...]]:
    """The evaluation of a polar or pairwise scenario, with its notes for a sweep row."""
    ev = evaluate_constellation(scn)
    return ev, tuple(_notes(ev))


def grid_search(scn, element: int, objective: str, region) -> RepositionPlan:
    """Exhaustive search over a displacement grid or a 2-D box of positions.

    Returns the global grid minimizer (ties to the lowest candidate in scan
    order).  Unlike the line search, the original position competes only if
    the region contains it, so a single-point grid returns that point.
    """
    return _scan(scn, element, objective, region, "grid")


def _planned_chunks(scn, spec: SweepSpec, step: int):
    """Per chunk of ``step`` rows in sweep order: its (point, mode) rows, their ``_Rows`` and each
    row's notes so far.  Only one frequency or the velocity varies, so the polar axes, pairwise form
    and delay geometry are converted once (a failure is held to fail each row that needs it); the
    reposition rows of as many whole chunks as one PHASE_CHUNK_VALUES steering pass holds are planned together."""
    polar, pws, delays_at = (kept(convert, scn) for convert in (polar_axes, pairwise_form, delay_geometry))
    M, N = scn.num_sensors, scn.num_sources
    failed = next((exc for exc in (delays_at, polar) if isinstance(exc, ValidationError)), None)
    base, residual = ((np.zeros(M), np.zeros(M), np.zeros(N), np.zeros(N)), None) if failed else polar
    rows = [(point, mode) for point in spec.grid().tolist() for mode in spec.modes]
    frequencies, velocities = np.tile(frequency_vector(scn.signals), (len(rows), 1)), np.array([p for p, _ in rows])
    if spec.vary == "frequency":
        if not 0 <= spec.source < N:
            raise ValidationError(f"source index {spec.source} outside 0..{N - 1}")
        frequencies[:, spec.source], velocities = velocities, np.full(len(rows), scn.velocity_mps)
    window = step * max(1, PHASE_CHUNK_VALUES // (step * M * N))
    for lo in range(0, len(rows), window):
        chunk, c, f = rows[lo : lo + window], velocities[lo : lo + window], frequencies[lo : lo + window]
        K, notes = len(chunk), [[] for _ in chunk]
        delays = np.zeros((K, M, N)) if failed is delays_at else delays_at(c[:, None, None])
        arrays = (delays, *(np.repeat(a[None], K, axis=0) for a in base), f, c)
        residuals, held = [residual] * K, [failed] * K
        moved = [i for i, (_, mode) in enumerate(chunk) if mode == "reposition"]
        if moved and failed is delays_at:
            for i in moved:
                notes[i].append(f"reposition skipped: {failed}")
        elif moved:
            strongest = received_power(steering_matrix(delays[moved], f[moved]), scn.signals)[1]
            errors, infeasible = [pws] * len(moved), [0] * len(moved)
            if not isinstance(pws, ValidationError):
                plans = plan_moves(pws.geometry, strongest, f[moved], c[moved])
                errors, infeasible = plans.errors, (~(plans.arguments <= 1.0)).sum(axis=1).tolist()
                planned = [i for i, exc in zip(moved, errors) if exc is None]
                axes, fits, conversions = refit_axes(pws.geometry, plans.tables)
                # the native delays of each rewritten table, then its kernel axes
                parts = (pws.geometry.vertical_m / (c[planned, None, None] * np.sin(plans.tables)), *axes)
                for whole, part in zip(arrays, parts):
                    whole[planned] = part
                for i, fit, exc in zip(planned, fits, conversions):
                    residuals[i], held[i] = fit, exc
            for i, element, exc, count in zip(moved, strongest, errors, infeasible):
                notes[i].append(f"strongest element {element + 1}")
                if exc or count:
                    notes[i].append(f"reposition skipped: {exc}" if exc else f"{count} source target(s) infeasible")
        batch = _Rows(scn, arrays, residuals, held)
        for at in range(0, K, step):
            yield chunk[at : at + step], batch[at : at + step], notes[at : at + step]


def sweep(scn, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate det and CRB totals over the grid, per requested mode.

    Reposition rows re-select the strongest element at each point and apply a
    fresh analytic plan; points where that fails keep the primary constellation
    and say why in the diagnostics.  Rows are ordered by grid point, then in the
    order of ``spec.modes``, and planned and evaluated ``batch_chunk(N)`` at
    a time, so memory does not grow with the grid; a row whose evaluation fails
    reads NaN and says why.
    """
    rows: list[SweepRow] = []
    # overflowing inputs give non-finite numbers that fail their rows with a reason, not warnings
    with np.errstate(all="ignore"):
        for chunk, targets, notes in _planned_chunks(scn, spec, batch_chunk(scn.num_sources)):
            for (point, mode), row_notes, ev in zip(chunk, notes, evaluate_constellations(targets)):
                if isinstance(ev, ValidationError):
                    row_notes.append(f"evaluation failed: {ev}")
                    values = (float("nan"),) * 3
                else:
                    row_notes.extend(_notes(ev))
                    values = (ev.det, ev.crb.crb_theta_total, ev.crb.crb_r_total)
                rows.append(SweepRow(point, mode, *values, "; ".join(row_notes)))
    return rows


def compare_report(before: ConstellationEvaluation, after: ConstellationEvaluation) -> ComparisonReport:
    """Ratios before/after for the headline quantities, by IEEE division (x/0 is inf, 0/0 is nan);
    ratios < 1 are flagged."""
    pairs = {"det": (before.det, after.det), "crb_theta": (before.crb.crb_theta_total, after.crb.crb_theta_total),
             "crb_r": (before.crb.crb_r_total, after.crb.crb_r_total)}
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {name: float(np.divide(b, a)) for name, (b, a) in pairs.items()}
    return ComparisonReport(*ratios.values(), tuple(name for name, ratio in ratios.items() if ratio < 1.0))
