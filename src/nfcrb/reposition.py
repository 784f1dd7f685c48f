"""Single-element repositioning of a planar array.

One chosen element slides along the reference axis, which preserves its
vertical distance to every source while changing each arrival angle.  Three
realizations are provided:

* an analytic mode that assigns per-source phase targets alternating between
  a small value (pi / m) and a right angle, solving each target back to an
  arrival angle when the resulting sine stays within [0, 1]; ``plan_moves``
  plans K such moves in one array pass (a sweep's window of chunks, or
  K = 1), the arcsines as the scalar ``math.asin`` over a flat list
  (``np.arcsin`` rounds about 8 % of arguments differently in the last bit);
* one search scan behind ``line_search_reposition`` and ``grid_search``: it
  scores the element at every position of a ``DisplacementGrid`` or
  ``BoxGrid`` in one batch with its current position, in chunks of array
  passes that give float arrays (a bound scan's on two threads of
  ``errors.map_on_cpus`` if two CPUs are usable), and keeps the first minimum,
  found with array operations (a line search always includes the current position);
  a chunk computes only the moved element's distances, and ``det`` writes
  its steering row (a bound scan its steering and derivative columns) into
  the fixed elements' rows, steered once per search;
  ``gf`` scores a chunk with ``gf_objective`` and ``det`` with
  ``signal_model.det_modulus``, the forms the analytic plan and reports read;
* plan application, which rewrites the chosen element's pairwise row.

The analytic targets set each phase term independently, so the N solved
angles are generally not realizable by one physical displacement; the plan
records them as-is and the line-search mode is the physically realizable
counterpart.  Both arcsine branches of a solved target share the same sine,
hence the same phase objective; the acute branch is kept unless a caller
asks for the obtuse one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularGeometryError, ValidationError, batch_or_each, kept, map_on_cpus
from .fim_crb import PHASE_CHUNK_VALUES, _steering_columns, batch_chunk, crb_bounds, fim_rank_one
from .geometry import PairwiseGeometry, Scenario, axes_from_positions, distances
from .signal_model import det_modulus, frequency_vector, received_power, steering_matrix

OBJECTIVES = ("gf", "power", "det", "crb_theta", "crb_r")
BOUND_OBJECTIVES = ("crb_theta", "crb_r")


@dataclass(frozen=True, eq=False)
class RepositionPlan:
    """Outcome of a reposition computation for one element.

    ``new_arrival_rad`` holds the element's arrival angle per source after the
    move; ``displacement_m`` is the signed slide along the reference axis
    (None in analytic mode, where the per-source angles need not be jointly
    realizable); ``new_position_m`` is set only by two-dimensional searches,
    which give up vertical-distance invariance.
    """

    element: int
    mode: str
    new_arrival_rad: np.ndarray
    displacement_m: float | None
    objective: str
    objective_before: float
    objective_after: float
    source_notes: tuple[str, ...]
    new_position_m: tuple[float, float] | None = None


def _check_axis(label: str, grid, prefix: str = "") -> None:
    """Reject non-finite bounds, a step count that is not a positive integer, reversed bounds and
    bounds whose span overflows (its grid would hold non-finite values)."""
    start, stop, steps = (getattr(grid, prefix + name) for name in ("start", "stop", "steps"))
    for name, value in (("start", start), ("stop", stop)):
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValidationError(f"{label} {prefix}{name} must be a finite number, got {value!r}")
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValidationError(f"{label} {prefix}steps must be a positive integer, got {steps!r}")
    if stop < start:
        raise ValidationError(f"{label} bounds reversed: [{start}, {stop}]")
    if not math.isfinite(stop - start):
        raise ValidationError(f"{label} {prefix}stop - {prefix}start overflows: [{start}, {stop}]")


@dataclass(frozen=True)
class DisplacementGrid:
    """Evenly spaced displacements along the reference axis."""

    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        _check_axis("grid", self)

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([0.5 * self.start + 0.5 * self.stop])  # halves first: no overflow
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class BoxGrid:
    """Rectangular grid of candidate element positions (x, y)."""

    x_start: float
    x_stop: float
    x_steps: int
    y_start: float
    y_stop: float
    y_steps: int

    def __post_init__(self) -> None:
        _check_axis("box grid", self, "x_")
        _check_axis("box grid", self, "y_")

    def points(self) -> np.ndarray:
        """(K, 2) candidate positions, x-major; one step on an axis sits at its midpoint."""
        xs = DisplacementGrid(self.x_start, self.x_stop, self.x_steps).values()
        ys = DisplacementGrid(self.y_start, self.y_stop, self.y_steps).values()
        return np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs))])


def _check_element(element: int, num_sensors: int) -> None:
    if not 0 <= element < num_sensors:
        raise ValidationError(f"element {element} outside 0..{num_sensors - 1}")


def phase_terms(table: PairwiseGeometry, element: int, freqs: np.ndarray, c: float) -> np.ndarray:
    """(N,) steering phases of the given element of a pairwise table toward each source, at
    frequencies ``freqs`` and velocity ``c``.

    term_n = 2 pi f_n H_n / (c sin(arrival_n)), which equals 2 pi f_n times
    the propagation delay of that pair.
    """
    _check_element(element, table.num_sensors)
    H, s = table.vertical_m[element], np.sin(table.arrival_rad[element])
    if np.any(s <= 0):
        raise SingularGeometryError("arrival angle at 0 or pi has no finite phase term")
    return 2.0 * np.pi * freqs * H / c / s


def gf_objective(terms) -> np.ndarray:
    """Squared coherent sum of unit phasors: (sum cos T)^2 + (sum sin T)^2 over the last axis.

    ``terms`` is an array of angles T, (N,) or a (..., N) stack.  Equals |sum_n exp(j T_n)|^2
    and is bounded by N^2.  float_power squares through libm pow, as Python's float ** 2 does;
    an array's ** 2 is x * x, which rounds differently in the last bit.
    """
    T = np.asarray(terms, dtype=float)
    if T.ndim < 1 or T.shape[-1] < 1:
        raise ValidationError("at least one phase term is required")
    return np.float_power(np.cos(T).sum(axis=-1), 2) + np.float_power(np.sin(T).sum(axis=-1), 2)


_OUTSIDE = "planned arrival angles must lie strictly inside (0, pi)"


@dataclass(frozen=True, eq=False)
class MovePlans:
    """K analytic moves of elements of one pairwise table (``plan_moves``): per move, the element's
    (N,) new arrival angles (kept where infeasible), each source's divisor (NaN for a right-angle
    target or without a valid divisor) and arcsine argument (NaN without a divisor; infeasible if
    NaN or > 1), and the ValidationError that rejects the plan, or None; and the (M, N) arrival
    tables of the accepted moves, stacked in order, each the table with its element's row rewritten."""

    arrival: np.ndarray
    divisors: np.ndarray
    arguments: np.ndarray
    errors: list
    tables: np.ndarray


def plan_moves(table: PairwiseGeometry, elements, freqs, c, m: int | str = "auto", branches=None) -> MovePlans:
    """``analytic_reposition``'s plans for K moves of one table in one array pass (the chunk
    planner): move k slides element ``elements[k]`` (a valid index) at frequencies ``freqs[k]`` and
    velocity ``c[k]``.  No table is refitted here: a sweep fits ``tables``, an analytic reposition
    needs no positions."""
    H0, A0 = table.vertical_m, table.arrival_rad
    M, N = H0.shape
    branches = ["acute"] * N if branches is None else [branch or "acute" for branch in branches]
    if len(branches) != N:
        raise ValidationError(f"{len(branches)} branch choices for {N} sources")
    if m != "auto" and (m := int(m)) < 1:
        raise ValidationError(f"phase divisor must be a positive integer, got {m}")
    elements, freqs, c = np.asarray(elements), np.asarray(freqs, dtype=float), np.asarray(c, dtype=float)[:, None]
    H, new_arrival = H0[elements], A0[elements]
    # sources alternate small-phase targets (even indices, which need a divisor) and right-angle targets
    divisors, small = np.full(H.shape, np.nan), slice(0, N, 2)
    with np.errstate(all="ignore"):  # a divisor that overflows is rejected below
        ratio = c / (2.0 * freqs * H) if m == "auto" else np.full(H.shape, float(m))
        divisors[:, small] = np.where(np.floor(ratio[:, small]) >= 1, np.floor(ratio[:, small]), np.nan)
        arguments = 4.0 * freqs * H / c
        arguments[:, small] = 2.0 * divisors[:, small] * freqs[:, small] * H[:, small] / c
    feasible = arguments <= 1.0
    ks, ns = feasible.nonzero()  # the acute branch unless the obtuse one is asked for
    new_arrival[ks, ns] = [math.pi - math.asin(arg) if branches[n] == "obtuse" else math.asin(arg)
                           for arg, n in zip(arguments[ks, ns].tolist(), ns.tolist())]

    bad = feasible & [branch not in ("acute", "obtuse") for branch in branches]
    bad[:, small] |= ~np.isfinite(ratio[:, small])
    outside = ((new_arrival <= 0) | (new_arrival >= math.pi)).any(axis=1)
    errors = [None] * len(elements)
    for k in np.flatnonzero(bad.any(axis=1) | ~feasible.any(axis=1) | outside).tolist():
        n = int(np.argmax(bad[k]))
        if bad[k, n]:
            errors[k] = ValidationError(f"branch must be 'acute' or 'obtuse', got {branches[n]!r}" if feasible[k, n]
                                        else f"source {n + 1}: phase divisor c / (2 f H) = {ratio[k, n]} is not finite")
        else:
            errors[k] = ValidationError(_OUTSIDE if feasible[k].any() else
                                        "no source admits an analytic target here; use the line-search mode instead")
    accepted = [k for k, exc in enumerate(errors) if exc is None]
    tables = np.repeat(A0[None], len(accepted), axis=0)
    tables[np.arange(len(accepted)), elements[accepted]] = new_arrival[accepted]
    return MovePlans(new_arrival, divisors, arguments, errors, tables)


def analytic_reposition(scn, element: int, m: int | str = "auto", branches=None) -> RepositionPlan:
    """Assign per-source arrival-angle targets for the chosen element.

    Sources alternate between the small-phase target (solve
    sin(arrival) = 2 m f H / c, with m the requested integer or, for 'auto',
    the largest integer keeping the argument <= 1) and the right-angle target
    (sin(arrival) = 4 f H / c), starting with the small-phase target.  A
    source whose argument exceeds 1 is marked infeasible and keeps its
    arrival angle.  ``branches`` may force 'acute' or 'obtuse' per source;
    both give the same phase objective, so the default is acute.  This is
    ``plan_moves`` at K = 1, and raises the error that rejects its plan.
    """
    table = scn.geometry.pairwise()
    _check_element(element, table.num_sensors)
    freqs, c = frequency_vector(scn.signals), scn.velocity_mps
    plans = plan_moves(table, [element], freqs[None], [c], m, branches)
    if plans.errors[0]:
        raise plans.errors[0]
    new_arrival, notes = plans.arrival[0], []
    for n, (m_n, arg) in enumerate(zip(plans.divisors[0].tolist(), plans.arguments[0].tolist())):
        label = "right-angle target" if n % 2 else f"small-phase target (divisor {m_n:.0f})"
        if math.isnan(arg):
            note = "small-phase target infeasible (no valid divisor); angle kept"
        elif arg > 1.0:
            note = f"{label} infeasible (argument {arg:.4f} > 1); angle kept"
        else:
            branch = (None if branches is None else branches[n]) or "acute"
            note = f"{label}, {branch} branch, arrival {math.degrees(new_arrival[n]):.3f} deg"
        notes.append(f"source {n + 1}: {note}")

    moved = 2.0 * np.pi * freqs * table.vertical_m[element] / (c * np.sin(new_arrival))
    before, after = gf_objective([phase_terms(table, element, freqs, c), moved]).tolist()
    return RepositionPlan(element, "analytic", new_arrival, None, "gf", before, after, tuple(notes))


def _chunk_scorer(objective, element, sensors_xy, sources_xy, scn):
    """A function scoring a (K, 2) chunk of element positions in one array pass, and its K.

    The function gives a (K,) float array or raises ValidationError if any position of the
    chunk fails.  The fixed sensors' distances (and det's steering rows, the bounds' polar axes and columns)
    run once here; a chunk adds the moved element's and raises a failure of either as its whole layouts name it.
    """
    num_sensors, num_sources = len(sensors_xy), len(sources_xy)
    freqs = frequency_vector(scn.signals)
    # a NaN row never reads as zero, so the fixed sensors' distances keep their own numbers
    fixed_xy = sensors_xy.copy()
    fixed_xy[element] = np.nan
    fixed = kept(distances, fixed_xy, sources_xy)

    def moved_distances(chunk):
        """(K, N) distances of the moved element; rejects a layout with a sensor on a source."""
        try:
            if not isinstance(fixed, ValidationError):
                return distances(chunk, sources_xy)
        except ValidationError:
            pass
        # a sensor sits on a source: the whole moved layout names the first one
        moved = np.repeat(sensors_xy[None], len(chunk), axis=0)
        moved[:, element] = chunk
        return distances(moved, sources_xy)[:, element]

    if objective in BOUND_OBJECTIVES:
        axes = kept(axes_from_positions, sensors_xy, sources_xy)

        def steered(radii, azimuths):  # (K, M', N) steering matrices and derivative columns of (K, M') sensors
            return _steering_columns(radii, azimuths, *axes[2:], freqs, scn.velocity_mps)

        if not isinstance(axes, ValidationError):  # every candidate's fixed elements, steered once (the moved one NaN)
            radii, azimuths = (np.where(np.arange(num_sensors) == element, np.nan, a)[None] for a in axes[:2])
            fixed_columns = kept(steered, radii, azimuths)

        def bound_totals(chunk):
            moved_distances(chunk)  # rejects a sensor on a source
            if isinstance(axes, ValidationError):
                raise axes
            radii, azimuths, *_ = axes_from_positions(chunk, sources_xy)
            moved = kept(steered, radii[:, None], azimuths[:, None])  # a chunk steers only the moved element
            if isinstance(fixed_columns, ValidationError) or isinstance(moved, ValidationError):
                # a sensor on a source of the polar form: steering the whole layouts raises, naming the first one
                layouts = [np.repeat(a[None], len(chunk), axis=0) for a in axes[:2]]
                layouts[0][:, element], layouts[1][:, element] = radii, azimuths
                steered(*layouts)
            columns = [np.repeat(f, len(chunk), axis=0) for f in fixed_columns]
            for whole, part in zip(columns, moved):
                whole[:, element] = part[:, 0]
            F, _ = fim_rank_one(scn, *columns)
            return crb_bounds(F, num_sources)[2 + BOUND_OBJECTIVES.index(objective)]  # an array: see ``scored``

        return bound_totals, batch_chunk(num_sources)

    if objective == "det":
        # every candidate shares the fixed elements' steering rows; a chunk steers only the moved one
        fixed_rows = None if isinstance(fixed, ValidationError) else steering_matrix(fixed / scn.velocity_mps, freqs)

        def determinants(chunk):
            row = steering_matrix(moved_distances(chunk) / scn.velocity_mps, freqs)  # raises if fixed_rows is None
            A = np.repeat(fixed_rows[None], len(chunk), axis=0)
            A[:, element] = row
            return det_modulus(A, scn.signals, scn.noise_variance)

        per_candidate = num_sensors * max(num_sensors, num_sources)
        return determinants, max(1, PHASE_CHUNK_VALUES // per_candidate)

    # gf and power see only the moved element's delays
    def element_values(chunk):
        tau = moved_distances(chunk) / scn.velocity_mps
        if objective == "power":
            # numpy would take a one-row product through its dot kernel, which
            # rounds differently from the matrix kernel of an (M, N) product
            A = steering_matrix(np.repeat(tau, 2, axis=0) if len(tau) == 1 else tau, freqs)
            return received_power(A, scn.signals)[0][: len(tau)]
        return gf_objective(2.0 * np.pi * freqs * tau)

    return element_values, max(1, PHASE_CHUNK_VALUES // num_sources)


def score_candidates(objective, element, sensors_xy, sources_xy, scn, positions) -> tuple[np.ndarray, dict]:
    """The objective with the element at each (x, y) row of ``positions``.

    Returns the values (NaN where a candidate failed) and, by row in scan order, the
    ValidationError that rejected each failed candidate.  Candidates are scored a chunk
    per array pass: bound totals through the rank-one kernel ``fim_rank_one`` and the
    pseudo-inverse SVD (each layout as the polar axes ``axes_from_positions`` gives, with the
    sources shared, and no Scenario; ``batch_chunk`` layouts a pass) from the fixed elements'
    steering and derivative columns, steered once, and the moved element's, gf and power from the
    moved element's delays alone, det from covariances of the fixed elements' steering rows,
    steered once, and the moved element's row.  A chunk in which any candidate fails is scored
    again in halves, down to the failing candidates, through the same function, so only they
    are rejected, each with its own reason; a NaN or infinite score then fails its candidate too.
    A bound scan's chunks go through ``map_on_cpus`` (their kernel and SVD release the GIL; a phase chunk is too
    short to share), so two usable CPUs score them on two threads; values and reasons are one thread's, bit for bit.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    values, errors = np.empty(len(positions)), {}

    def scored(lo):
        chunk = batch_or_each(score, positions[lo : lo + step])
        if isinstance(chunk, list):  # a row failed, so each row was scored alone
            errors.update((lo + i, v) for i, v in enumerate(chunk) if isinstance(v, ValidationError))
            chunk = [math.nan if isinstance(v, ValidationError) else v for v in chunk]
        values[lo : lo + len(chunk)] = chunk

    with np.errstate(all="ignore"):  # the worker's too; overflows fail their candidates instead of warning
        score, step = _chunk_scorer(objective, element, sensors_xy, sources_xy, scn)
        list((map_on_cpus if objective in BOUND_OBJECTIVES else map)(scored, range(0, len(positions), step)))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():  # a NaN or infinite score fails too
        if i not in errors:
            errors[i] = ValidationError(f"objective {objective} is not finite ({values[i]})")
            values[i] = math.nan
    return values, dict(sorted(errors.items()))


def _scan(scn, element: int, objective: str, region, mode: str) -> RepositionPlan:
    """Score the element at each candidate position of the region; the first minimum wins.

    A DisplacementGrid slides it along the axis over its ascending distinct displacements
    (a line search adds zero), a BoxGrid moves it to its points in scan order.  The current
    position, scored in the same batch, is the baseline (NaN, with a note, if unscorable).
    Failing candidates are skipped and noted; the scan fails only if all of them do.
    """
    sensors_xy, sources_xy, _ = scn.geometry.positions
    _check_element(element, len(sensors_xy))
    x0, y0 = sensors_xy[element]
    if isinstance(region, DisplacementGrid):
        disps = np.unique(np.append(region.values(), 0.0) if mode == "linesearch" else region.values())
        positions = np.column_stack([x0 + disps, np.full_like(disps, y0)])
    elif isinstance(region, BoxGrid) and mode == "grid":
        positions, disps = region.points(), None
    else:
        raise ValidationError(f"mode {mode!r} cannot search a {type(region).__name__}")

    candidates = np.vstack([sensors_xy[element], positions])
    values, errors = score_candidates(objective, element, sensors_xy, sources_xy, scn, candidates)
    notes = [f"original position not evaluable: {errors.pop(0)}"] if 0 in errors else []
    for i, exc in errors.items():
        x, y = candidates[i]
        where = f"position ({x:.6g}, {y:.6g})" if disps is None else f"displacement {disps[i - 1]:+.6g} m"
        notes.append(f"{where} skipped: {exc}")
    first = next((i for i in range(1, len(values)) if i not in errors), None)
    if first is None:
        raise ValidationError("objective evaluation failed at every grid point")
    best = first + int(np.nanargmin(values[first:]))  # every scored value is finite
    if values[best] > values[0]:
        notes.append("grid minimizer is worse than the original position")

    x, y = candidates[best]
    vertical = sources_xy[:, 1] - y
    if disps is not None and np.any(vertical <= 0):
        raise SingularGeometryError(
            "chosen displacement puts a source on or below the element's horizontal line"
        )
    return RepositionPlan(
        element=element,
        mode=mode,
        new_arrival_rad=np.arctan2(vertical, sources_xy[:, 0] - x),
        displacement_m=None if disps is None else float(disps[best - 1]),
        objective=objective,
        objective_before=float(values[0]),
        objective_after=float(values[best]),
        source_notes=tuple(notes),
        new_position_m=(float(x), float(y)) if disps is None else None,
    )


def line_search_reposition(scn, element: int, objective: str, grid: DisplacementGrid) -> RepositionPlan:
    """Slide the element along the reference axis and keep the best objective.

    Vertical distances are invariant under the slide.  Displacement zero is
    always a candidate, so objective_after <= objective_before.
    """
    return _scan(scn, element, objective, grid, "linesearch")


def grid_search(scn, element: int, objective: str, region) -> RepositionPlan:
    """Exhaustive search over a displacement grid or a 2-D box of positions.

    Returns the global grid minimizer (ties to the lowest candidate in scan
    order).  Unlike the line search, the original position competes only if
    the region contains it, so a single-point grid returns that point.
    """
    return _scan(scn, element, objective, region, "grid")


def apply_reposition(scn, plan: RepositionPlan) -> Scenario:
    """Rewrite the planned element's pairwise row; all other rows are untouched.

    Axis-preserving plans keep the row's vertical distances and replace its
    arrival angles.  Two-dimensional plans (with ``new_position_m``) recompute
    the row's vertical distances as well, from reconstructed positions.
    """
    table = scn.geometry.pairwise()
    _check_element(plan.element, table.num_sensors)
    vertical, arrival = table.vertical_m.copy(), table.arrival_rad.copy()
    if plan.new_position_m is None:
        angles = np.asarray(plan.new_arrival_rad, dtype=float)
        if angles.shape != arrival.shape[1:]:
            raise ValidationError(f"plan carries {angles.shape} arrival angles for {arrival.shape[1]} sources")
        if np.any(angles <= 0) or np.any(angles >= math.pi):
            raise ValidationError(_OUTSIDE)
        arrival[plan.element] = angles
    else:
        _, sources_xy, _ = table.positions
        x, y = plan.new_position_m
        v = sources_xy[:, 1] - y
        if np.any(v <= 0):
            raise SingularGeometryError("planned position puts a source on or below the element's horizontal line")
        vertical[plan.element], arrival[plan.element] = v, np.arctan2(v, sources_xy[:, 0] - x)
    return replace(scn, geometry=PairwiseGeometry(vertical, arrival))
