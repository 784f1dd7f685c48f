"""Constellation evaluation, sweeps and before/after comparison.

``evaluate_constellations`` computes the det(R_x), received powers, information
matrix (``fim_rank_one``; a lone scenario's the trace form) and bounds of K
constellations, one stacked pass each, and re-evaluates a failing batch in halves
(``batch_or_each``, the fallback search scoring uses too); ``constellation_metrics``
is its K = 1 case.  Each constellation gets one record, a tuple of the scalars a
sweep row reads and the pass's arrays; a report wraps its record as a
``ConstellationEvaluation`` (its information matrix an array, so only a lone
report's trace form builds a ``FimMatrix``), which run reports, CSV rows and
comparisons read.
``sweep`` re-evaluates a scenario over a frequency or velocity grid,
optionally repositioning per point, a chunk of rows at a time; each chunk
reaches the evaluation as stacked arrays (two chunks at once on two CPUs,
through ``errors.map_on_cpus``).  Reposition rows are planned in one array
pass per window of whole chunks: one steering pass picks their strongest
elements, one ``reposition.plan_moves`` call their moves and one
``geometry.refit_axes`` call the polar axes of the rewritten tables, whose x
fits are one stacked ``geometry._solve`` call of one right-hand side per table
(one multi-right-hand-side solve would round the residual notes differently).
``compare_report`` gives the before/after ratios of two evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError, batch_or_each, kept, map_on_cpus
from .fim_crb import (PHASE_CHUNK_VALUES, CrbReport, _steering_columns, batch_chunk, crb_bounds, fim_for_scenario,
                      fim_rank_one)
from .geometry import refit_axes
from .reposition import _check_axis, plan_moves
from .signal_model import det_modulus, frequency_vector, received_power, steering_matrix


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
    """One constellation's det, received powers, (P, P) information matrix, cond(R_x) and bounds.

    det and powers use the scenario's native delays, the bounds its polar form;
    ``residual`` is the reconstruction residual in meters, None for polar input.
    """

    det: float
    received_powers: np.ndarray
    strongest_element: int
    residual: float | None
    fim: np.ndarray
    array_cov_condition: float
    crb: CrbReport

    @classmethod
    def from_record(cls, record) -> "ConstellationEvaluation":
        """The evaluation of an ``_evaluate`` record, read off its pass's arrays: a report's."""
        det, _, _, residual, rank, size, i, (powers, strongest, F, cond, bounds) = record
        crb = CrbReport(*(column[i] for column in bounds), size, rank < size)
        return cls(det, powers[i], strongest[i], residual, F[i], float(cond[i]), crb)


def _native_powers(scn) -> tuple[np.ndarray, int]:
    """Per-element received powers at the scenario's native delays, and the strongest element."""
    A = steering_matrix(scn.geometry.delay_geometry()(scn.velocity_mps), frequency_vector(scn.signals))
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
    axes = [s.geometry.axes for s in scenarios]  # every fit, then every delay
    per_row = [(s.geometry.delay_geometry()(s.velocity_mps), *a, frequency_vector(s.signals), s.velocity_mps)
               for s, a in zip(scenarios, axes)]
    residuals = [s.geometry.residual for s in scenarios]
    return _Rows(scenarios[0], tuple(map(np.array, zip(*per_row))), residuals, [None] * len(scenarios))


def _evaluate(targets) -> list[tuple]:
    """Per constellation (scenarios or ``_Rows`` sharing M, N, amplitudes, noise and snapshots) a record: det, bound
    totals, residual, FIM rank and size, its index into the pass's arrays and those arrays (which
    ``ConstellationEvaluation.from_record`` reads), from one steering pass for powers and dets, one kernel, one SVD."""
    rows = targets if isinstance(targets, _Rows) else _rows_of(targets)
    if held := next(filter(None, rows.held), None):  # a held conversion error, or a sweep row it failed
        raise held.with_traceback(None)
    first, (delays, *axes) = rows.scenario, rows.arrays
    A = steering_matrix(delays, axes[4])
    powers, strongest = received_power(A, first.signals)
    moduli = det_modulus(A, first.signals, first.noise_variance).tolist()
    # a lone scenario keeps fim_for_scenario's spans for the benchmark's harness; ROADMAP item 6 deletes this branch
    if rows is not targets and len(rows) == 1:
        fim = fim_for_scenario(first)
        F, cond = fim.entries[None], [fim.array_cov_condition]
    else:
        F, cond = fim_rank_one(first, *_steering_columns(*axes))
    theta, r, *scalars = crb_bounds(F, first.num_sources)
    bounds = (theta, r, *(a.tolist() for a in scalars))
    arrays = repeat((powers, strongest, F, cond, bounds))
    return list(zip(moduli, *bounds[2:4], rows.residuals, bounds[5], repeat(F.shape[-1]), range(len(rows)), arrays))


def evaluate_constellations(targets) -> list:
    """Per target, its ``_evaluate`` record or the ValidationError that rejected it, from
    one ``_evaluate`` batch of targets sharing M, N, amplitudes, noise and snapshots (keep
    it within ``batch_chunk``); a failing batch is evaluated again in halves."""
    return batch_or_each(_evaluate, targets)


def _notes(residual: float | None, rank: int, size: int) -> list[str]:
    """Sweep-row notes: the reconstruction residual of pairwise input and rank deficiency."""
    notes = [] if residual is None else [f"reconstruction residual {residual:.6e} m"]
    if rank < size:
        notes.append(f"information matrix rank deficient ({rank}/{size})")
    return notes


def constellation_metrics(scn) -> tuple[ConstellationEvaluation, tuple[str, ...]]:
    """|det R_x|, per-element received powers, information matrix and bounds of a polar or pairwise
    scenario (``_evaluate`` at K = 1), with its notes for a sweep row."""
    ev = ConstellationEvaluation.from_record(_evaluate([scn])[0])
    return ev, tuple(_notes(ev.residual, ev.crb.rank, ev.crb.size))


def _planned_chunks(scn, spec: SweepSpec, step: int):
    """Per chunk of ``step`` rows in sweep order: its (point, mode) rows, their ``_Rows`` and each
    row's notes so far.  Only one frequency or the velocity varies, so the polar axes, pairwise table
    and delay geometry are converted once (a failure is held to fail each row that needs it); the
    reposition rows of as many whole chunks as one PHASE_CHUNK_VALUES steering pass holds are planned together."""
    geometry = scn.geometry
    axes, table, delays_at = kept(getattr, geometry, "axes"), kept(geometry.pairwise), kept(geometry.delay_geometry)
    M, N = scn.num_sensors, scn.num_sources
    failed = next((exc for exc in (delays_at, axes) if isinstance(exc, ValidationError)), None)
    base = (np.zeros(M), np.zeros(M), np.zeros(N), np.zeros(N)) if failed else axes
    residual = None if failed else geometry.residual
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
            errors, infeasible = [table] * len(moved), [0] * len(moved)
            if not isinstance(table, ValidationError):
                plans = plan_moves(table, strongest, f[moved], c[moved])
                errors, infeasible = plans.errors, (~(plans.arguments <= 1.0)).sum(axis=1).tolist()
                planned = [i for i, exc in zip(moved, errors) if exc is None]
                refits, fits, conversions = refit_axes(table, plans.tables)
                # the native delays of each rewritten table, then its kernel axes
                parts = (table.vertical_m / (c[planned, None, None] * np.sin(plans.tables)), *refits)
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
    reads NaN and says why.  With two usable CPUs two threads evaluate the chunks, bit for bit.
    """
    def evaluated(planned) -> list[SweepRow]:  # a chunk's rows: its evaluations are not held until the join
        (chunk, targets, notes), rows = planned, []
        for (point, mode), row_notes, ev in zip(chunk, notes, evaluate_constellations(targets)):
            if isinstance(ev, ValidationError):
                row_notes.append(f"evaluation failed: {ev}")
                values = (float("nan"),) * 3
            else:  # a record: det, the two bound totals, then the residual, rank and size its notes read
                row_notes.extend(_notes(*ev[3:6]))
                values = ev[:3]
            rows.append(SweepRow(point, mode, *values, "; ".join(row_notes)))
        return rows

    with np.errstate(all="ignore"):  # in both threads: overflows fail their rows with a reason, not warnings
        chunks = map_on_cpus(evaluated, _planned_chunks(scn, spec, batch_chunk(scn.num_sources)))
    return [row for rows in chunks for row in rows]


def compare_report(before: ConstellationEvaluation, after: ConstellationEvaluation) -> ComparisonReport:
    """Ratios before/after for the headline quantities, by IEEE division (x/0 is inf, 0/0 is nan);
    ratios < 1 are flagged."""
    pairs = {"det": (before.det, after.det), "crb_theta": (before.crb.crb_theta_total, after.crb.crb_theta_total),
             "crb_r": (before.crb.crb_r_total, after.crb.crb_r_total)}
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {name: float(np.divide(b, a)) for name, (b, a) in pairs.items()}
    return ComparisonReport(*ratios.values(), tuple(name for name, ratio in ratios.items() if ratio < 1.0))
