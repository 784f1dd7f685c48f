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
recovering positions is a least-squares fit whose root-mean-square
inconsistency (meters) is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, SingularGeometryError, ValidationError
from .signal_model import SourceSignal, amplitude_vector, frequency_vector

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
        if not self.sources:
            raise ValidationError("scenario needs at least one source")
        if len(self.sources) >= len(self.sensors):
            raise ValidationError(
                f"{len(self.sensors)} sensors can separate at most "
                f"{len(self.sensors) - 1} sources; got {len(self.sources)}"
            )
        if len(self.signals) != len(self.sources):
            raise ValidationError(
                f"{len(self.signals)} signals for {len(self.sources)} sources"
            )
        if not self.velocity_mps > 0:
            raise ValidationError(f"propagation velocity must be positive, got {self.velocity_mps}")
        if not self.noise_variance > 0:
            raise ValidationError(f"noise variance must be positive, got {self.noise_variance}")
        if self.snapshots < 1:
            raise ValidationError(f"snapshot count must be >= 1, got {self.snapshots}")

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

    def frequencies(self) -> np.ndarray:
        return frequency_vector(self.signals)

    def amplitudes(self) -> np.ndarray:
        return amplitude_vector(self.signals)


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
        if self.geometry.num_sources >= self.geometry.num_sensors:
            raise ValidationError(
                f"{self.geometry.num_sensors} sensors can separate at most "
                f"{self.geometry.num_sensors - 1} sources; got {self.geometry.num_sources}"
            )
        if len(self.signals) != self.geometry.num_sources:
            raise ValidationError(
                f"{len(self.signals)} signals for {self.geometry.num_sources} sources"
            )
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


def sensor_positions(scenario: Scenario) -> np.ndarray:
    """Cartesian (M, 2) sensor coordinates."""
    rho = scenario.sensor_radii()
    az = scenario.sensor_azimuths()
    return np.stack([rho * np.cos(az), rho * np.sin(az)], axis=1)


def source_positions(scenario: Scenario) -> np.ndarray:
    """Cartesian (N, 2) source coordinates."""
    r = scenario.source_ranges()
    th = scenario.source_bearings()
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def scenario_from_positions(
    sensors_xy: np.ndarray,
    sources_xy: np.ndarray,
    velocity_mps: float,
    signals,
    noise_variance: float,
    snapshots: int,
) -> Scenario:
    """Build a polar Scenario from Cartesian coordinates."""
    sensors_xy = np.asarray(sensors_xy, dtype=float)
    sources_xy = np.asarray(sources_xy, dtype=float)
    sensors = tuple(
        SensorGeom(math.hypot(x, y), math.atan2(y, x)) for x, y in sensors_xy
    )
    ranges = np.hypot(sources_xy[:, 0], sources_xy[:, 1])
    if np.any(ranges <= 0):
        raise DegenerateGeometryError("a source coincides with the frame origin")
    sources = tuple(
        SourceGeom(math.hypot(x, y), math.atan2(y, x)) for x, y in sources_xy
    )
    return Scenario(sources, sensors, velocity_mps, signals, noise_variance, snapshots)


def delay(sensor: SensorGeom, source: SourceGeom, velocity_mps: float) -> float:
    """Propagation delay in seconds between one sensor and one source.

    Law of cosines on the polar coordinates; always between |r - rho| / c
    and (r + rho) / c.
    """
    if not velocity_mps > 0:
        raise ValidationError(f"propagation velocity must be positive, got {velocity_mps}")
    if not source.range_m > 0:
        raise ValidationError(f"source range must be positive, got {source.range_m}")
    r = source.range_m
    rho = sensor.radius_m
    d2 = r * r + rho * rho - 2.0 * rho * r * math.cos(source.bearing_rad - sensor.azimuth_rad)
    return math.sqrt(max(d2, 0.0)) / velocity_mps


def delay_matrix(scenario: Scenario) -> np.ndarray:
    """(M, N) delay matrix from the polar form."""
    d = np.linalg.norm(
        source_positions(scenario)[None, :, :] - sensor_positions(scenario)[:, None, :], axis=2
    )
    return d / scenario.velocity_mps


def delay_from_pairwise(vertical_m, arrival_rad, velocity_mps: float):
    """Delay H / (c sin(arrival)); accepts scalars or matching arrays."""
    if not velocity_mps > 0:
        raise ValidationError(f"propagation velocity must be positive, got {velocity_mps}")
    vertical = np.asarray(vertical_m, dtype=float)
    arrival = np.asarray(arrival_rad, dtype=float)
    if np.any(vertical <= 0):
        raise ValidationError("vertical distances must be positive")
    s = np.sin(arrival)
    if np.any((arrival <= 0) | (arrival >= math.pi)) or np.any(s <= 0):
        raise SingularGeometryError(
            "arrival angle at 0 or pi has no line-of-sight delay (sin is zero)"
        )
    out = vertical / (velocity_mps * s)
    return float(out) if out.ndim == 0 else out


def pairwise_delay_matrix(pws: PairwiseScenario) -> np.ndarray:
    """(M, N) delay matrix straight from the pairwise tables."""
    return delay_from_pairwise(
        pws.geometry.vertical_m, pws.geometry.arrival_rad, pws.velocity_mps
    )


def pairwise_from_polar(scenario: Scenario) -> PairwiseGeometry:
    """Pairwise (vertical, arrival) form of a polar scenario.

    Requires every source strictly above every sensor's horizontal line;
    otherwise the positive-vertical representation does not exist.
    """
    sx = sensor_positions(scenario)
    px = source_positions(scenario)
    vertical = px[None, :, 1] - sx[:, None, 1]
    horizontal = px[None, :, 0] - sx[:, None, 0]
    if np.any(vertical <= 0):
        k, n = np.argwhere(vertical <= 0)[0]
        raise SingularGeometryError(
            f"source {n + 1} is not strictly above the horizontal line through sensor "
            f"{k + 1}; the pairwise form requires positive vertical offsets"
        )
    arrival = np.arctan2(vertical, horizontal)
    return PairwiseGeometry(vertical, arrival)


def to_pairwise(scenario: Scenario) -> PairwiseScenario:
    """Repackage a polar scenario with pairwise geometry."""
    return PairwiseScenario(
        pairwise_from_polar(scenario),
        scenario.velocity_mps,
        scenario.signals,
        scenario.noise_variance,
        scenario.snapshots,
    )


def reconstruct_positions(pairwise: PairwiseGeometry) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares positions consistent with pairwise data.

    Sensor 1 is pinned at the origin with the x-axis as reference.  Each pair
    contributes two linear equations (source minus sensor equals the offset
    implied by H and the arrival angle); the stacked system is solved per
    coordinate.  Returns (sensors_xy, sources_xy, rms residual in meters); a
    single-sensor table is reproduced exactly with zero residual.
    """
    H = pairwise.vertical_m
    ang = pairwise.arrival_rad
    M, N = H.shape
    s = np.sin(ang)
    if np.any(s <= 0):
        raise SingularGeometryError("arrival angles at 0 or pi cannot place a source")
    horizontal = H * np.cos(ang) / s

    n_unknown = (M - 1) + N
    rows = np.zeros((M * N, n_unknown))
    bx = np.empty(M * N)
    by = np.empty(M * N)
    i = 0
    for k in range(M):
        for n in range(N):
            if k > 0:
                rows[i, k - 1] = -1.0
            rows[i, M - 1 + n] = 1.0
            bx[i] = horizontal[k, n]
            by[i] = H[k, n]
            i += 1
    solx, _, rank, _ = np.linalg.lstsq(rows, bx, rcond=None)
    soly, *_ = np.linalg.lstsq(rows, by, rcond=None)
    if rank < n_unknown:
        raise DegenerateGeometryError(
            f"pairwise system is rank deficient ({rank} < {n_unknown}); positions undetermined"
        )
    sensors = np.zeros((M, 2))
    sensors[1:, 0] = solx[: M - 1]
    sensors[1:, 1] = soly[: M - 1]
    sources = np.stack([solx[M - 1 :], soly[M - 1 :]], axis=1)
    ex = rows @ solx - bx
    ey = rows @ soly - by
    residual = float(np.sqrt(np.mean(ex**2 + ey**2)))
    return sensors, sources, residual


def reconstruct_polar(
    pairwise: PairwiseGeometry,
    velocity_mps: float,
    signals,
    noise_variance: float,
    snapshots: int,
) -> tuple[Scenario, float]:
    """Polar scenario recovered from pairwise data plus the fit residual."""
    sensors_xy, sources_xy, residual = reconstruct_positions(pairwise)
    scenario = scenario_from_positions(
        sensors_xy, sources_xy, velocity_mps, signals, noise_variance, snapshots
    )
    return scenario, residual


def to_polar(pws: PairwiseScenario) -> tuple[Scenario, float]:
    """Reconstruct the polar form of a pairwise scenario; returns (scenario, residual)."""
    return reconstruct_polar(
        pws.geometry, pws.velocity_mps, pws.signals, pws.noise_variance, pws.snapshots
    )


def native_delays(scn) -> np.ndarray:
    """(M, N) delays in the scenario's own encoding: pairwise tables or polar coordinates."""
    if isinstance(scn, PairwiseScenario):
        return pairwise_delay_matrix(scn)
    if isinstance(scn, Scenario):
        return delay_matrix(scn)
    raise ValidationError(f"expected a scenario, got {type(scn).__name__}")


def polar_form(scn) -> tuple[Scenario, float | None]:
    """Polar form of a scenario and its reconstruction residual in meters (None for polar input)."""
    if isinstance(scn, PairwiseScenario):
        return to_polar(scn)
    if isinstance(scn, Scenario):
        return scn, None
    raise ValidationError(f"expected a scenario, got {type(scn).__name__}")


def scenario_positions(scn) -> tuple[np.ndarray, np.ndarray, float]:
    """Cartesian sensors/sources of a polar or pairwise scenario.

    Polar input converts exactly (residual 0); pairwise input goes through the
    least-squares reconstruction and reports its residual.
    """
    if isinstance(scn, Scenario):
        return sensor_positions(scn), source_positions(scn), 0.0
    if isinstance(scn, PairwiseScenario):
        return reconstruct_positions(scn.geometry)
    raise ValidationError(f"expected a scenario, got {type(scn).__name__}")


def far_field_radius(aperture_wavelengths: float, departure_wavelengths: float) -> float:
    """Range beyond which a wavefront departs from planar by at most the given
    fraction, both measured in wavelengths: D^2 / (8 l)."""
    if not aperture_wavelengths > 0:
        raise ValidationError(f"aperture must be positive, got {aperture_wavelengths}")
    if not departure_wavelengths > 0:
        raise ValidationError(f"departure must be positive, got {departure_wavelengths}")
    return aperture_wavelengths * aperture_wavelengths / (8.0 * departure_wavelengths)
