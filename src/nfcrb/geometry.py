"""Planar source/sensor geometry.

Two interchangeable representations are supported:

* polar: every sensor (radius, azimuth) and every source (range, bearing)
  about a common origin;
* pairwise: per (sensor, source) pair, the vertical distance H (the y-offset
  of the source above the horizontal line through the sensor) and the arrival
  angle (measured from the +x reference axis to the sensor-to-source line of
  sight, in (0, pi)).

Frame convention used throughout: sensor 1 sits at the origin of the
reconstruction frame and the reference axis is the x-axis.  The pairwise form
therefore requires every source to lie strictly above every sensor's
horizontal line.  Pairwise tables over-determine a planar layout, so
recovering positions is a least-squares fit, one coordinate at a time, whose
root-mean-square inconsistency (meters) is always reported.  The y half reads
H alone, so tables differing only in arrival angles share it (``refit_positions``).

This module is the only one that branches on the encoding: ``polar_axes``, ``pairwise_form``,
``delay_geometry`` and ``scenario_positions`` take either, ``distances`` is the one
sensor-to-source distance kernel, ``polar_to_cartesian`` the one polar-to-Cartesian
conversion and ``axes_from_positions`` (behind ``polar_axes``) gives the kernel's polar axes
of Cartesian points.  No polar Scenario is built from positions: the kernel and the
finite-difference oracles read a pairwise table's fitted positions as those axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateGeometryError, SingularGeometryError, ValidationError
from .signal_model import SourceSignal

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SourceGeom:
    """Emitter position: range in meters, bearing in radians (normalized to [0, 2 pi))."""

    range_m: float
    bearing_rad: float

    def __post_init__(self) -> None:
        if not self.range_m > 0:
            raise ValidationError(f"source range must be positive, got {self.range_m}")
        object.__setattr__(self, "range_m", float(self.range_m))
        object.__setattr__(self, "bearing_rad", float(self.bearing_rad) % TWO_PI)


@dataclass(frozen=True)
class SensorGeom:
    """Array element position: radius in meters (>= 0), azimuth in radians."""

    radius_m: float
    azimuth_rad: float

    def __post_init__(self) -> None:
        if self.radius_m < 0:
            raise ValidationError(f"sensor radius must be nonnegative, got {self.radius_m}")
        object.__setattr__(self, "radius_m", float(self.radius_m))
        object.__setattr__(self, "azimuth_rad", float(self.azimuth_rad) % TWO_PI)


def _check_instance(scn) -> None:
    """Checks both encodings share: 0 < N < M, one signal per source, positive c and eta, K >= 1."""
    M, N = scn.num_sensors, scn.num_sources
    if N < 1:
        raise ValidationError("scenario needs at least one source")
    if N >= M:
        raise ValidationError(f"{M} sensors can separate at most {M - 1} sources; got {N}")
    if len(scn.signals) != N:
        raise ValidationError(f"{len(scn.signals)} signals for {N} sources")
    if not scn.velocity_mps > 0:
        raise ValidationError(f"propagation velocity must be positive, got {scn.velocity_mps}")
    if not scn.noise_variance > 0:
        raise ValidationError(f"noise variance must be positive, got {scn.noise_variance}")
    if scn.snapshots < 1:
        raise ValidationError(f"snapshot count must be >= 1, got {scn.snapshots}")


@dataclass(frozen=True)
class Scenario:
    """Complete polar-form problem instance.

    An array of M sensors can separate at most M - 1 sources, so N < M is
    enforced here.
    """

    sources: tuple[SourceGeom, ...]
    sensors: tuple[SensorGeom, ...]
    velocity_mps: float
    signals: tuple[SourceSignal, ...]
    noise_variance: float
    snapshots: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "signals", tuple(self.signals))
        _check_instance(self)

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def source_ranges(self) -> np.ndarray:
        return np.array([s.range_m for s in self.sources])

    def source_bearings(self) -> np.ndarray:
        return np.array([s.bearing_rad for s in self.sources])

    def sensor_radii(self) -> np.ndarray:
        return np.array([s.radius_m for s in self.sensors])

    def sensor_azimuths(self) -> np.ndarray:
        return np.array([s.azimuth_rad for s in self.sensors])


@dataclass(frozen=True, eq=False)
class PairwiseGeometry:
    """Per-pair vertical distances (m) and arrival angles (rad), both (M, N)."""

    vertical_m: np.ndarray
    arrival_rad: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vertical_m, dtype=float)
        a = np.array(self.arrival_rad, dtype=float)
        if v.ndim != 2 or v.shape != a.shape:
            raise ValidationError(
                f"vertical {v.shape} and arrival {a.shape} matrices must share an (M, N) shape"
            )
        if np.any(v <= 0):
            raise ValidationError("vertical distances must be positive")
        if np.any(a <= 0) or np.any(a >= math.pi):
            raise ValidationError("arrival angles must lie strictly inside (0, pi)")
        v.flags.writeable = a.flags.writeable = False  # so the cached fit cannot go stale
        object.__setattr__(self, "vertical_m", v)
        object.__setattr__(self, "arrival_rad", a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairwiseGeometry):
            return NotImplemented
        return np.array_equal(self.vertical_m, other.vertical_m) and np.array_equal(
            self.arrival_rad, other.arrival_rad
        )

    @property
    def num_sensors(self) -> int:
        return self.vertical_m.shape[0]

    @property
    def num_sources(self) -> int:
        return self.vertical_m.shape[1]

    @cached_property
    def vertical_fit(self) -> tuple[np.ndarray, np.ndarray]:
        """The y half of ``reconstruct_positions``: solution and squared residual terms of H, read-only."""
        solution, squares = _solve(_incidence(self.num_sensors, self.num_sources), self.vertical_m.ravel())
        solution.flags.writeable = squares.flags.writeable = False
        return solution, squares

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``reconstruct_positions`` of this table, fitted once; the arrays are read-only."""
        sensors, sources, residual = reconstruct_positions(self)
        sensors.flags.writeable = sources.flags.writeable = False
        return sensors, sources, residual

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """``axes_from_positions`` of the fitted positions, converted once; the arrays are read-only."""
        axes = axes_from_positions(*self.positions[:2])
        for a in axes:
            a.flags.writeable = False
        return axes


@dataclass(frozen=True)
class PairwiseScenario:
    """Problem instance whose geometry is given pairwise (as loaded from tables)."""

    geometry: PairwiseGeometry
    velocity_mps: float
    signals: tuple[SourceSignal, ...]
    noise_variance: float
    snapshots: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        _check_instance(self)

    @property
    def num_sensors(self) -> int:
        return self.geometry.num_sensors

    @property
    def num_sources(self) -> int:
        return self.geometry.num_sources


def polar_to_cartesian(radii: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(..., 2) Cartesian coordinates of points at the given radii and angles."""
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)


def sensor_positions(scenario: Scenario) -> np.ndarray:
    """Cartesian (M, 2) sensor coordinates."""
    return polar_to_cartesian(scenario.sensor_radii(), scenario.sensor_azimuths())


def source_positions(scenario: Scenario) -> np.ndarray:
    """Cartesian (N, 2) source coordinates."""
    return polar_to_cartesian(scenario.source_ranges(), scenario.source_bearings())


def _polar_coordinates(sensors_xy, sources_xy) -> tuple:
    """(..., M) radii and azimuths of (..., M, 2) Cartesian sensors and (..., N) ranges and bearings
    of (..., N, 2) sources, from the scalar math.hypot and math.atan2 over one flat list of points:
    the one Cartesian-to-polar conversion, so every polar value made from Cartesian coordinates
    agrees bit for bit (np.hypot and np.arctan2 round differently on 0.6 % and 7 % of random
    points).  Angles are atan2's own: ``axes_from_positions`` and ``refit_axes`` reduce each once.
    Last, per layout: the DegenerateGeometryError of a source at the origin, or None."""
    points = np.concatenate([np.asarray(sensors_xy, dtype=float), np.asarray(sources_xy, dtype=float)], axis=-2)
    xy = points.reshape(-1, 2).tolist()
    radii = np.array([math.hypot(x, y) for x, y in xy]).reshape(points.shape[:-1])
    angles = np.array([math.atan2(y, x) for x, y in xy]).reshape(points.shape[:-1])
    M = np.shape(sensors_xy)[-2]
    errors = [DegenerateGeometryError("a source coincides with the frame origin") if bad else None
              for bad in (radii[..., M:] <= 0).any(axis=-1).reshape(-1).tolist()]
    return radii[..., :M], angles[..., :M], radii[..., M:], angles[..., M:], errors


def axes_from_positions(sensors_xy, sources_xy) -> tuple[np.ndarray, ...]:
    """(M,) radii and azimuths of (M, 2) Cartesian sensors and (N,) ranges and bearings of (N, 2)
    sources, as the kernel takes them: angles reduced % TWO_PI once, as SensorGeom and SourceGeom
    reduce them, so a polar Scenario of these points would hold the same values bit for bit.  A
    source at the frame origin is rejected."""
    radii, azimuths, ranges, bearings, at_origin = _polar_coordinates(sensors_xy, sources_xy)
    if at_origin[0]:
        raise at_origin[0]
    return radii, azimuths % TWO_PI, ranges, bearings % TWO_PI


def distances(sensors_xy: np.ndarray, sources_xy: np.ndarray) -> np.ndarray:
    """(..., M, N) sensor-to-source distances of (..., M, 2) sensors and (..., N, 2) sources: sqrt(dx dx + dy dy)
    of the coordinate differences, np.linalg.norm's bit for bit without its difference array, conjugate copy and
    reduction.  Raises SingularGeometryError naming the first (1-based) sensor that coincides with a source."""
    dx, dy = (sources_xy[..., None, :, i] - sensors_xy[..., :, None, i] for i in (0, 1))
    d = np.sqrt(dx * dx + dy * dy)
    if not d.all():  # a zero distance; NaN entries count as nonzero
        *_, k, n = np.argwhere(d == 0)[0]
        raise SingularGeometryError(f"sensor {k + 1} coincides with source {n + 1}")
    return d


@cache
def _incidence(M: int, N: int) -> np.ndarray:
    """Read-only (M N, M - 1 + N) least-squares system of ``reconstruct_positions``: row
    k N + n says source n minus sensor k (sensor 1 pinned at the origin)."""
    rows = np.zeros((M * N, M - 1 + N))
    k, n = np.divmod(np.arange(M * N), N)
    rows[np.arange(M * N), M - 1 + n] = 1.0
    rows[np.arange(N, M * N), k[N:] - 1] = -1.0
    if (rank := np.linalg.matrix_rank(rows)) < M - 1 + N:
        raise DegenerateGeometryError(
            f"pairwise system is rank deficient ({rank} < {M - 1 + N}); positions undetermined"
        )
    rows.flags.writeable = False
    return rows


def _solve(rows: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One coordinate of the fit: its least-squares solution and squared residual terms."""
    solution, *_ = np.linalg.lstsq(rows, b, rcond=None)
    return solution, (rows @ solution - b) ** 2


def reconstruct_positions(pairwise: PairwiseGeometry) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares positions consistent with pairwise data.

    Sensor 1 is pinned at the origin with the x-axis as reference.  Each pair
    contributes two linear equations (source minus sensor equals the offset
    implied by H and the arrival angle); the stacked system is solved per
    coordinate.  Returns (sensors_xy, sources_xy, rms residual in meters); a
    single-sensor table is reproduced exactly with zero residual.
    """
    return refit_positions(pairwise, pairwise.arrival_rad)


def refit_positions(pairwise: PairwiseGeometry, arrival_rad: np.ndarray):
    """``reconstruct_positions`` of the table with its (M, N) arrival angles replaced, bit for bit,
    or of each of a (K, M, N) stack (then (K, M, 2) sensors, (K, N, 2) sources and K residuals).
    The y equations read H alone, so the table's y half (``vertical_fit``, solved once) is reused
    and x is solved alone, one ``lstsq`` per table: a move along the reference axis keeps every H."""
    H = pairwise.vertical_m
    M, N = H.shape
    s = np.sin(arrival_rad)
    if (s <= 0).any():
        raise SingularGeometryError("arrival angles at 0 or pi cannot place a source")
    soly, ry = pairwise.vertical_fit
    fits = [_solve(_incidence(M, N), b) for b in (H * np.cos(arrival_rad) / s).reshape(-1, M * N)]
    xy = np.zeros((len(fits), M + N, 2))  # sensor 1 stays at the origin
    xy[:, 1:, 0], xy[:, 1:, 1] = np.reshape([x for x, _ in fits], (len(fits), M + N - 1)), soly
    residuals = np.sqrt((np.reshape([r for _, r in fits], (len(fits), M * N)) + ry).mean(axis=1)).tolist()
    if np.ndim(arrival_rad) == 2:
        return xy[0, :M], xy[0, M:], residuals[0]
    return xy[:, :M], xy[:, M:], residuals


def refit_axes(pairwise: PairwiseGeometry, arrival_rad: np.ndarray) -> tuple[tuple[np.ndarray, ...], list, list]:
    """``axes_from_positions`` of ``refit_positions`` for each of a (K, M, N) stack of arrival tables,
    from one ``_polar_coordinates`` call: (K, M) radii and azimuths, (K, N) ranges and bearings,
    the K residuals and, per table, the DegenerateGeometryError of a source at the origin, or None."""
    sensors, sources, residuals = refit_positions(pairwise, arrival_rad)
    radii, azimuths, ranges, bearings, at_origin = _polar_coordinates(sensors, sources)
    return (radii, azimuths % TWO_PI, ranges, bearings % TWO_PI), residuals, at_origin


def _require_scenario(scn) -> None:
    if not isinstance(scn, (Scenario, PairwiseScenario)):
        raise ValidationError(f"expected a scenario, got {type(scn).__name__}")


def polar_axes(scn) -> tuple[tuple[np.ndarray, ...], float | None]:
    """(M,) sensor radii and azimuths and (N,) source ranges and bearings of a scenario's polar
    form, and its reconstruction residual in meters (None for polar input): a polar scenario's
    own values, or a pairwise table's ``PairwiseGeometry.axes``, converted once per table."""
    _require_scenario(scn)
    if isinstance(scn, Scenario):
        return (scn.sensor_radii(), scn.sensor_azimuths(), scn.source_ranges(), scn.source_bearings()), None
    return scn.geometry.axes, scn.geometry.positions[2]


def pairwise_form(scn) -> PairwiseScenario:
    """Pairwise form of a scenario; polar input converts exactly.

    Requires every source strictly above every sensor's horizontal line;
    otherwise the positive-vertical representation does not exist.
    """
    _require_scenario(scn)
    if isinstance(scn, PairwiseScenario):
        return scn
    sx = sensor_positions(scn)
    px = source_positions(scn)
    vertical = px[None, :, 1] - sx[:, None, 1]
    horizontal = px[None, :, 0] - sx[:, None, 0]
    if np.any(vertical <= 0):
        k, n = np.argwhere(vertical <= 0)[0]
        raise SingularGeometryError(
            f"source {n + 1} is not strictly above the horizontal line through sensor "
            f"{k + 1}; the pairwise form requires positive vertical offsets"
        )
    geometry = PairwiseGeometry(vertical, np.arctan2(vertical, horizontal))
    return PairwiseScenario(
        geometry, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )


def delay_geometry(scn):
    """The scenario's native delays as a function of the velocity c, with the velocity-free
    part computed once: H / (c sin(arrival)) for a pairwise table, distance / c for polar input."""
    _require_scenario(scn)
    if isinstance(scn, PairwiseScenario):
        vertical, sines = scn.geometry.vertical_m, np.sin(scn.geometry.arrival_rad)
        return lambda c: vertical / (c * sines)
    d = distances(sensor_positions(scn), source_positions(scn))
    return lambda c: d / c


def native_delays(scn) -> np.ndarray:
    """(M, N) delays in the scenario's own encoding (see ``delay_geometry``)."""
    return delay_geometry(scn)(scn.velocity_mps)


def scenario_positions(scn) -> tuple[np.ndarray, np.ndarray, float]:
    """Cartesian sensors/sources of a polar or pairwise scenario.

    Polar input converts exactly (residual 0); pairwise input goes through the
    least-squares reconstruction, fitted once per table, and reports its
    residual (its arrays are then read-only).
    """
    _require_scenario(scn)
    if isinstance(scn, Scenario):
        return sensor_positions(scn), source_positions(scn), 0.0
    return scn.geometry.positions

