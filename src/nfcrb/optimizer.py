"""Constellation evaluation, sweeps and before/after comparison.

``evaluate_constellations`` computes the det(R_x), received powers,
information matrix and bounds of K constellations, one stacked pass each, and
re-evaluates a failing batch in halves (``batch_or_each``, the fallback search
scoring uses too); ``evaluate_constellation`` is its K = 1 case.  Run reports,
CSV rows, sweep rows and comparisons all read that one ``ConstellationEvaluation``.
``sweep`` re-evaluates a scenario over a frequency or velocity grid,
optionally repositioning per point, one chunk of rows per batch, and produces
rows ready for CSV reporting.  Primary and reposition rows alike reach the
evaluation as arrays: a chunk's reposition rows are planned from one stacked
steering pass, and each rewritten table refits only its x coordinates.
``compare_report`` gives the before/after ratios of two evaluations.
``grid_search`` runs the exhaustive scan of ``reposition`` over a
displacement grid or a 2-D box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .errors import ValidationError, batch_or_each
from .fim_crb import CrbReport, FimMatrix, batch_chunk, crb_reports, fim_for_scenario, fim_for_scenarios
from .geometry import axes_from_positions, delay_geometry, native_delays, pairwise_form, polar_axes, refit_positions
from .reposition import RepositionPlan, _analytic_targets, _check_axis, _rewritten_arrivals, _scan
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


def _row(target) -> tuple:
    """A constellation as ``_evaluate`` reads it: (a scenario with its amplitudes, noise and
    snapshots, native delays, the (M,) radii and azimuths, (N,) ranges, bearings and frequencies
    and velocity of its polar form, residual); sweeps hand their rows over as such tuples."""
    if isinstance(target := _take(target), tuple):
        return target
    (axes, residual), freqs = polar_axes(target), frequency_vector(target.signals)
    return target, native_delays(target), (*axes, freqs, target.velocity_mps), residual


def _evaluate(targets) -> list[ConstellationEvaluation]:
    """Evaluations of constellations (scenarios or ``_row`` tuples) sharing M, N, amplitudes, noise
    and snapshots: one stacked steering pass for powers and dets, one kernel and one SVD call."""
    scenarios, delays, axes, residuals = zip(*map(_row, targets))
    first = scenarios[0]
    axes = [np.array(a) for a in zip(*axes)]
    A = steering_matrix(np.array(delays), axes[4])
    powers, strongest = received_power(A, first.signals)
    det = np.linalg.det(covariances(A, first.signals, first.noise_variance).array_cov)
    # a lone scenario takes fim_for_scenario (the kernel at K = 1), so reports keep its trace spans
    if len(targets) == 1 and not isinstance(targets[0], tuple):
        fims = [fim_for_scenario(first)]
    else:
        F, cond = fim_for_scenarios(first, *axes)
        fims = [FimMatrix(f, first.snapshots, c) for f, c in zip(F, cond.tolist())]
    crbs = crb_reports(np.array([fim.entries for fim in fims]), first.num_sources)
    rows = zip(det.tolist(), powers, strongest, residuals, fims, crbs)
    return [ConstellationEvaluation(abs(d), *row) for d, *row in rows]


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


def _at_point(scn, spec: SweepSpec, point: float) -> tuple[float, tuple]:
    """The velocity and signals of the scenario at one grid point, without building a scenario."""
    if spec.vary == "velocity":
        return point, scn.signals
    signals = list(scn.signals)
    idx = int(spec.source)
    if not 0 <= idx < len(signals):
        raise ValidationError(f"source index {idx} outside 0..{len(signals) - 1}")
    signals[idx] = replace(signals[idx], freq_hz=point)
    return scn.velocity_mps, tuple(signals)


def _kept(convert, *args):
    """``convert(*args)``, or the ValidationError it raised, which ``_take`` raises again."""
    try:
        return convert(*args)
    except ValidationError as exc:
        return exc


def _take(kept):
    if isinstance(kept, ValidationError):  # a held conversion error, or a sweep row it failed
        raise kept.with_traceback(None)
    return kept


def _moved(scn, table, arrival, f, c) -> tuple:
    """The ``_row`` of the table with rewritten arrival angles, from arrays: only x is refitted."""
    sensors_xy, sources_xy, residual = refit_positions(table, arrival)
    delays = table.vertical_m / (c * np.sin(arrival))  # native_delays of the rewritten table
    return scn, delays, (*axes_from_positions(sensors_xy, sources_xy), f, c), residual


def _planned_chunks(scn, spec: SweepSpec, step: int):
    """Per chunk of ``step`` rows in sweep order, per row its grid point, mode, ``_row`` tuple (or
    the held error that fails its evaluation) and notes so far.

    One frequency or the velocity varies along a sweep, so the polar axes, pairwise form and delay
    geometry are converted once, and a failed conversion is held to fail each row that needs it.
    A chunk's reposition rows take their strongest elements from one stacked steering pass, and
    each plan's rewritten table refits x alone: the move keeps every vertical distance.
    """
    polar, pws, delays_at = (_kept(convert, scn) for convert in (polar_axes, pairwise_form, delay_geometry))

    def at(point):
        c, signals = _at_point(scn, spec, point)
        f, delays = frequency_vector(signals), _kept(lambda: _take(delays_at)(c))
        return point, c, f, delays, _kept(lambda: (scn, _take(delays), (*_take(polar)[0], f, c), _take(polar)[1]))

    rows = ((at_point, mode) for at_point in map(at, spec.grid().tolist()) for mode in spec.modes)
    while chunk := list(islice(rows, step)):
        moved = [at_point for at_point, mode in chunk if mode == "reposition"]
        strongest = repeat(delays_at)  # a held delay error fails every plan
        if moved and not isinstance(delays_at, ValidationError):
            delays = np.array([delays for _, _, _, delays, _ in moved])
            A = steering_matrix(delays, np.array([f for _, _, f, _, _ in moved]))
            strongest = iter(received_power(A, scn.signals)[1])
        planned = []
        for (point, c, f, _, primary), mode in chunk:
            notes, target = [], primary
            if mode == "reposition":
                try:
                    element = _take(next(strongest))
                    notes.append(f"strongest element {element + 1}")
                    table = _take(pws).geometry
                    angles, targets = _analytic_targets(table.vertical_m[element], table.arrival_rad[element], f, c)
                    target = _kept(_moved, scn, table, _rewritten_arrivals(table.arrival_rad, element, angles), f, c)
                    if infeasible := sum(arg is None or arg > 1.0 for _, arg, _ in targets):
                        notes.append(f"{infeasible} source target(s) infeasible")
                except ValidationError as exc:
                    notes.append(f"reposition skipped: {exc}")
            planned.append((point, mode, target, notes))
        yield planned


def sweep(scn, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate det and CRB totals over the grid, per requested mode.

    Reposition rows re-select the strongest element at each point and apply a
    fresh analytic plan; points where that fails keep the primary constellation
    and say why in the diagnostics.  Rows are ordered by grid point, then in the
    order of ``spec.modes``, and planned and evaluated ``batch_chunk(M, N)`` at
    a time, so memory does not grow with the grid; a row whose evaluation fails
    reads NaN and says why.
    """
    rows: list[SweepRow] = []
    for chunk in _planned_chunks(scn, spec, batch_chunk(scn.num_sensors, scn.num_sources)):
        for (point, mode, _, notes), ev in zip(chunk, evaluate_constellations([row[2] for row in chunk])):
            if isinstance(ev, ValidationError):
                notes.append(f"evaluation failed: {ev}")
                values = (float("nan"),) * 3
            else:
                notes.extend(_notes(ev))
                values = (ev.det, ev.crb.crb_theta_total, ev.crb.crb_r_total)
            rows.append(SweepRow(point, mode, *values, "; ".join(notes)))
    return rows


def compare_report(before: ConstellationEvaluation, after: ConstellationEvaluation) -> ComparisonReport:
    """Ratios before/after for the headline quantities; ratios < 1 are flagged."""
    det_ratio = before.det / after.det
    crb_theta_ratio = before.crb.crb_theta_total / after.crb.crb_theta_total
    crb_r_ratio = before.crb.crb_r_total / after.crb.crb_r_total
    worsened = tuple(
        name
        for name, ratio in (
            ("det", det_ratio),
            ("crb_theta", crb_theta_ratio),
            ("crb_r", crb_r_ratio),
        )
        if ratio < 1.0
    )
    return ComparisonReport(det_ratio, crb_theta_ratio, crb_r_ratio, worsened)
