"""Planar source/sensor geometry.

A ``Scenario`` holds its constellation in one of two encodings, its ``geometry`` field:

* ``PolarGeometry``: every sensor (radius, azimuth) and every source (range, bearing)
  about a common origin, as four read-only arrays;
* ``PairwiseGeometry``: per (sensor, source) pair, the vertical distance H (the y-offset
  of the source above the horizontal line through the sensor) and the arrival
  angle (measured from the +x reference axis to the sensor-to-source line of
  sight, in (0, pi)).

Frame convention used throughout: sensor 1 sits at the origin of the
reconstruction frame and the reference axis is the x-axis.  The pairwise form
therefore requires every source to lie strictly above every sensor's
horizontal line.  Pairwise tables over-determine a planar layout, so
recovering positions is a least-squares fit, one coordinate at a time, whose
root-mean-square inconsistency (meters) is always reported.  ``refit_positions`` is
the one fit, of a stack of arrival tables: the y half reads H alone, so tables
differing only in arrival angles share it, and a table's own fit is the stack of one.

Each encoding answers for itself, so callers read ``scn.geometry`` and none branches on it:
``axes`` and ``residual`` (its kernel polar axes and fit residual), ``positions`` (its read-only
Cartesian points), ``delay_geometry()`` (its delays as a function of the velocity) and
``pairwise()`` (its pairwise table).  Both reject non-finite entries.
``distances`` is the one sensor-to-source distance kernel, ``polar_to_cartesian`` the one
polar-to-Cartesian conversion and ``axes_from_positions`` gives the kernel's polar axes of
Cartesian points.  Only scenario files build a ``PolarGeometry``: the kernel and the
finite-difference oracles read a pairwise table's fitted positions as those axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DegenerateGeometryError, SingularGeometryError, ValidationError
from .signal_model import SourceSignal

TWO_PI = 2.0 * math.pi


def _same_arrays(self, other) -> bool:
    """``__eq__`` of a geometry: the same class and bit-equal arrays."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class PolarGeometry:
    """(M,) sensor radii (m, >= 0) and azimuths (rad) and (N,) source ranges (m, > 0) and bearings
    (rad) about one origin, read-only; the angles are reduced % TWO_PI here, once."""

    radii_m: np.ndarray
    azimuths_rad: np.ndarray
    ranges_m: np.ndarray
    bearings_rad: np.ndarray

    def __post_init__(self) -> None:
        radii, azimuths, ranges, bearings = (np.array(a, dtype=float) for a in self.axes)
        if radii.ndim != 1 or azimuths.shape != radii.shape or ranges.ndim != 1 or bearings.shape != ranges.shape:
            raise ValidationError(f"sensor radii {radii.shape} and azimuths {azimuths.shape}, source ranges "
                                  f"{ranges.shape} and bearings {bearings.shape} must be vectors of matching lengths")
        if (radii < 0).any():
            raise ValidationError(f"sensor radius must be nonnegative, got {radii[radii < 0][0]}")
        if not (ranges > 0).all():
            raise ValidationError(f"source range must be positive, got {ranges[~(ranges > 0)][0]}")
        for name, a in zip(("sensor radius", "sensor azimuth", "source range", "source bearing"),
                           (radii, azimuths, ranges, bearings)):
            if not np.isfinite(a).all():
                raise ValidationError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")
        for f, a in zip(fields(self), (radii, azimuths % TWO_PI, ranges, bearings % TWO_PI)):
            a.flags.writeable = False
            object.__setattr__(self, f.name, a)

    __eq__ = _same_arrays

    @property
    def num_sensors(self) -> int:
        return len(self.radii_m)

    @property
    def num_sources(self) -> int:
        return len(self.ranges_m)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """The kernel's polar axes: the four arrays themselves."""
        return self.radii_m, self.azimuths_rad, self.ranges_m, self.bearings_rad

    residual = None  # polar input is exact

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Cartesian (M, 2) sensors and (N, 2) sources, converted once (read-only), and residual 0."""
        sensors, sources = polar_to_cartesian(*self.axes[:2]), polar_to_cartesian(*self.axes[2:])
        sensors.flags.writeable = sources.flags.writeable = False
        return sensors, sources, 0.0

    def delay_geometry(self):
        """The delays as a function of the velocity c: distance / c, the distances taken once."""
        d = distances(*self.positions[:2])
        return lambda c: d / c

    def pairwise(self) -> PairwiseGeometry:
        """The pairwise table of these points, exact; every source must lie strictly above every
        sensor's horizontal line, or the positive-vertical table does not exist."""
        sx, px, _ = self.positions
        horizontal, vertical = (px[None, :, i] - sx[:, None, i] for i in (0, 1))
        if np.any(vertical <= 0):
            k, n = np.argwhere(vertical <= 0)[0]
            raise SingularGeometryError(f"source {n + 1} is not strictly above the horizontal line through sensor "
                                        f"{k + 1}; the pairwise form requires positive vertical offsets")
        return PairwiseGeometry(vertical, np.arctan2(vertical, horizontal))


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
        for name, m in (("vertical distances", v), ("arrival angles", a)):
            if not np.isfinite(m).all():
                raise ValidationError(f"{name} must be finite, got {m[~np.isfinite(m)][0]}")
        v.flags.writeable = a.flags.writeable = False  # so the cached fit cannot go stale
        object.__setattr__(self, "vertical_m", v)
        object.__setattr__(self, "arrival_rad", a)

    __eq__ = _same_arrays

    @property
    def num_sensors(self) -> int:
        return self.vertical_m.shape[0]

    @property
    def num_sources(self) -> int:
        return self.vertical_m.shape[1]

    @cached_property
    def vertical_fit(self) -> tuple[np.ndarray, np.ndarray]:
        """The y half of every fit of this table: solution and squared residual terms of H, read-only."""
        solution, squares = _solve(_incidence(self.num_sensors, self.num_sources), self.vertical_m.ravel())
        solution.flags.writeable = squares.flags.writeable = False
        return solution, squares

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``refit_positions`` of this table alone, fitted once; the arrays are read-only."""
        (sensors,), (sources,), (residual,) = refit_positions(self, self.arrival_rad[None])
        sensors.flags.writeable = sources.flags.writeable = False
        return sensors, sources, residual

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """``axes_from_positions`` of the fitted positions, converted once; the arrays are read-only."""
        axes = axes_from_positions(*self.positions[:2])
        for a in axes:
            a.flags.writeable = False
        return axes

    @property
    def residual(self) -> float:
        """The fit's root-mean-square inconsistency in meters."""
        return self.positions[2]

    def delay_geometry(self):
        """The delays as a function of the velocity c: H / (c sin(arrival)), the sines taken once."""
        vertical, sines = self.vertical_m, np.sin(self.arrival_rad)
        return lambda c: vertical / (c * sines)

    def pairwise(self) -> PairwiseGeometry:
        return self


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance: a constellation in either encoding, its propagation velocity, one
    signal per source, noise variance and snapshot count.  An array of M sensors can separate at
    most M - 1 sources, so N < M is enforced here."""

    geometry: PolarGeometry | PairwiseGeometry
    velocity_mps: float
    signals: tuple[SourceSignal, ...]
    noise_variance: float
    snapshots: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        M, N = self.num_sensors, self.num_sources
        if N < 1:
            raise ValidationError("scenario needs at least one source")
        if N >= M:
            raise ValidationError(f"{M} sensors can separate at most {M - 1} sources; got {N}")
        if len(self.signals) != N:
            raise ValidationError(f"{len(self.signals)} signals for {N} sources")
        if not self.velocity_mps > 0:
            raise ValidationError(f"propagation velocity must be positive, got {self.velocity_mps}")
        if not self.noise_variance > 0:
            raise ValidationError(f"noise variance must be positive, got {self.noise_variance}")
        if self.snapshots < 1:
            raise ValidationError(f"snapshot count must be >= 1, got {self.snapshots}")

    @property
    def num_sensors(self) -> int:
        return self.geometry.num_sensors

    @property
    def num_sources(self) -> int:
        return self.geometry.num_sources


def polar_to_cartesian(radii: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(..., 2) Cartesian coordinates of points at the given radii and angles."""
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)


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
    sources, as the kernel takes them: angles reduced % TWO_PI once, as ``PolarGeometry`` reduces
    them, so a PolarGeometry of these points would hold the same values bit for bit.  A
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
    """Read-only (M N, M - 1 + N) least-squares system of ``refit_positions``: row
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


def _no_convergence(*_) -> None:
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _solve(rows: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one least-squares call: for (..., m) right-hand sides b, the (..., n) solutions and
    (..., m) squared residual terms of ``rows @ x - b``.  Each b is its own nrhs = 1 column of one call of
    the gufunc ``np.linalg.lstsq`` itself calls (one LAPACK gelsd per b, ``rows`` broadcast at stride 0), with
    its rcond and errstate, so every row equals ``np.linalg.lstsq(rows, b, rcond=None)`` bit for bit."""
    m, n = rows.shape
    with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(rows, b[..., None], np.finfo(float).eps * max(m, n), signature="ddd->ddid")[0]
    return x[..., 0], ((rows @ x)[..., 0] - b) ** 2


def refit_positions(pairwise: PairwiseGeometry, arrival_rad: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Least-squares positions of the table with its arrival angles replaced by each of a (K, M, N) stack: (K, M, 2)
    sensors, (K, N, 2) sources and the K rms residuals (m).  Sensor 1 is pinned at the origin, the x-axis the reference;
    each pair gives two linear equations (source minus sensor is the offset H and the arrival angle imply), solved per
    coordinate, so a single-sensor table is reproduced exactly.  The y equations read H alone, so the table's y half
    (``vertical_fit``, solved once) is reused and x is solved alone, every table in one stacked ``_solve``."""
    H = pairwise.vertical_m
    M, N = H.shape
    s = np.sin(arrival_rad)
    if (s <= 0).any():
        raise SingularGeometryError("arrival angles at 0 or pi cannot place a source")
    soly, ry = pairwise.vertical_fit
    solx, rx = _solve(_incidence(M, N), (H * np.cos(arrival_rad) / s).reshape(-1, M * N))
    xy = np.zeros((len(solx), M + N, 2))  # sensor 1 stays at the origin
    xy[:, 1:, 0], xy[:, 1:, 1] = solx, soly
    return xy[:, :M], xy[:, M:], np.sqrt((rx + ry).mean(axis=1)).tolist()


def refit_axes(pairwise: PairwiseGeometry, arrival_rad: np.ndarray) -> tuple[tuple[np.ndarray, ...], list, list]:
    """``axes_from_positions`` of ``refit_positions`` for each of a (K, M, N) stack of arrival tables,
    from one ``_polar_coordinates`` call: (K, M) radii and azimuths, (K, N) ranges and bearings,
    the K residuals and, per table, the DegenerateGeometryError of a source at the origin, or None."""
    sensors, sources, residuals = refit_positions(pairwise, arrival_rad)
    radii, azimuths, ranges, bearings, at_origin = _polar_coordinates(sensors, sources)
    return (radii, azimuths % TWO_PI, ranges, bearings % TWO_PI), residuals, at_origin
