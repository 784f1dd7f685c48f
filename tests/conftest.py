"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from nfcrb import ValidationError, geometry, load_scenario, optimizer, runtime_scenario
from nfcrb.signal_model import SourceSignal, amplitude_vector, covariances, frequency_vector, steering_matrix
from nfcrb.geometry import PairwiseGeometry, PolarGeometry, Scenario
from nfcrb.fim_crb import CrbReport, FimMatrix, ParameterIndex, crb_bounds, linearize


def scenario_from_positions(sensors_xy, sources_xy, velocity_mps: float, signals, noise_variance: float,
                            snapshots: int) -> Scenario:
    """Build a polar Scenario from (M, 2) Cartesian sensors and (N, 2) sources."""
    *axes, at_origin = geometry._polar_coordinates(sensors_xy, sources_xy)
    if at_origin[0]:
        raise at_origin[0]
    return Scenario(PolarGeometry(*axes), velocity_mps, signals, noise_variance, snapshots)


def polar_form(scn) -> tuple[Scenario, float | None]:
    """Polar form of a scenario and its reconstruction residual in meters (None for polar input):
    the Scenario whose values ``geometry.PairwiseGeometry.axes`` gives as arrays."""
    if isinstance(scn.geometry, PolarGeometry):
        return scn, None
    sensors_xy, sources_xy, residual = scn.geometry.positions
    polar = scenario_from_positions(
        sensors_xy, sources_xy, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )
    return polar, residual


def pairwise_of(scn) -> Scenario:
    """The scenario with its pairwise table as its geometry; polar input converts exactly."""
    return replace(scn, geometry=scn.geometry.pairwise())


def reducing_to(angles: np.ndarray) -> np.ndarray:
    """Angles that a PolarGeometry stores as ``angles`` bit for bit.  Its % TWO_PI leaves every
    stored angle as it is but 2 pi (the reduction of a tiny negative angle), which it maps to 0,
    so a stored 2 pi is passed as a tiny negative angle."""
    return np.where(angles == geometry.TWO_PI, -5e-324, angles)


def with_polar(scn, **arrays) -> Scenario:
    """The polar scenario with the named PolarGeometry arrays replaced (reduced as PolarGeometry
    reduces them) and its other arrays kept bit for bit."""
    g = scn.geometry
    kept = dict(radii_m=g.radii_m, azimuths_rad=reducing_to(g.azimuths_rad), ranges_m=g.ranges_m,
                bearings_rad=reducing_to(g.bearings_rad))
    return replace(scn, geometry=PolarGeometry(**{**kept, **arrays}))


def hadamard_bound(matrix) -> float:
    """Determinant bound (max |entry|)^M * M^(M/2) for a square M x M matrix."""
    X = np.asarray(matrix, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValidationError(f"matrix must be square, got {X.shape}")
    m = X.shape[0]
    if m == 0:
        return 1.0
    return float(np.abs(X).max() ** m * m ** (m / 2.0))


def random_scenario(rng: np.random.Generator, m: int | None = None, n: int | None = None) -> Scenario:
    """Non-degenerate polar scenario: sensors within 50 m, sources 100..400 m out."""
    if m is None:
        m = int(rng.integers(3, 7))
    if n is None:
        n = int(rng.integers(1, min(m, 4)))
    sensors = [(float(rng.uniform(2.0, 50.0)), float(rng.uniform(0.0, 2.0 * np.pi))) for _ in range(m)]
    sources = [(float(rng.uniform(100.0, 400.0)), float(rng.uniform(0.0, 2.0 * np.pi))) for _ in range(n)]
    signals = tuple(
        SourceSignal(
            float(rng.uniform(1e5, 2e6)),
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        )
        for _ in range(n)
    )
    return Scenario(
        geometry=PolarGeometry(*zip(*sensors), *zip(*sources)),
        velocity_mps=3e8,
        signals=signals,
        noise_variance=float(rng.uniform(0.5, 2.0)),
        snapshots=int(rng.integers(1, 5)),
    )


def random_upper_half_scenario(
    rng: np.random.Generator, m: int | None = None, n: int | None = None
) -> Scenario:
    """Scenario whose sources sit well above every sensor, so a pairwise form exists."""
    if m is None:
        m = int(rng.integers(3, 6))
    if n is None:
        n = int(rng.integers(1, min(m, 4)))
    sensor_xy = rng.uniform(-40.0, 40.0, size=(m, 2))
    sensor_xy[:, 1] = rng.uniform(-10.0, 10.0, size=m)
    source_xy = np.stack(
        [rng.uniform(-150.0, 150.0, size=n), rng.uniform(100.0, 400.0, size=n)], axis=1
    )
    signals = tuple(
        SourceSignal(
            float(rng.uniform(1e5, 2e6)),
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        )
        for _ in range(n)
    )
    sensors = [(float(np.hypot(x, y)), float(np.arctan2(y, x))) for x, y in sensor_xy]
    sources = [(float(np.hypot(x, y)), float(np.arctan2(y, x))) for x, y in source_xy]
    return Scenario(PolarGeometry(*zip(*sensors), *zip(*sources)), 3e8, signals, 1.0, 1)


def pairwise_scenario(vertical, arrival_rad, freqs, amps, velocity=3e8, eta=1.0, snapshots=1) -> Scenario:
    signals = tuple(SourceSignal(f, a) for f, a in zip(freqs, amps))
    return Scenario(
        PairwiseGeometry(np.asarray(vertical, float), np.asarray(arrival_rad, float)),
        velocity,
        signals,
        eta,
        snapshots,
    )


def trace_loop_fim(scn: Scenario) -> np.ndarray:
    """Reference information matrix: dense derivative products and one trace per entry."""
    A = steering_matrix(scn.geometry.delay_geometry()(scn.velocity_mps), frequency_vector(scn.signals))
    s = amplitude_vector(scn.signals)
    Rs, Ah = np.outer(s, s.conj()), A.conj().T
    lin, derivs = linearize(scn), []
    for cols in (lin.bearing_cols, lin.range_cols):
        for n in range(scn.num_sources):
            D = np.zeros_like(cols)  # source n's steering derivative: its column, zeros elsewhere
            D[:, n] = cols[:, n]
            derivs.append(D @ Rs @ Ah + A @ Rs @ D.conj().T)
    derivs += [A @ E @ Ah for E in ParameterIndex(scn.num_sources).cov_entry_bases()]
    derivs.append(np.eye(scn.num_sensors, dtype=complex))
    Rinv = np.linalg.inv(covariances(A, scn.signals, scn.noise_variance))
    half = [Rinv @ D for D in derivs]
    F = np.array([[np.real(np.trace(a @ b)) for b in half] for a in half])
    return scn.snapshots * F


def cpus(count: int):
    """Patches the CPUs the process may run on to ``count``: on two, bound scans and sweeps share their chunks
    with a worker thread (``errors.map_on_cpus``)."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)))


@contextlib.contextmanager
def counted_report_objects():
    """Counts, by class name, the FimMatrix, CrbReport and ConstellationEvaluation objects built inside."""
    classes = (FimMatrix, CrbReport, optimizer.ConstellationEvaluation)
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)

    def counted(init):
        def built(self, *args, **kwargs):
            counts[type(self).__name__] += 1
            init(self, *args, **kwargs)
        return built

    with contextlib.ExitStack() as stack:
        for cls in classes:
            stack.enter_context(mock.patch.object(cls, "__init__", counted(cls.__init__)))
        yield counts


def pinv_totals(F: np.ndarray, n_sources: int) -> tuple[float, float]:
    """Reference bearing and range bound totals from np.linalg.pinv."""
    diag = np.diag(np.linalg.pinv(F, rtol=1e-12))
    return float(diag[:n_sources].sum()), float(diag[n_sources : 2 * n_sources].sum())


def crb_report(entries: np.ndarray, n_sources: int) -> CrbReport:
    """The bounds of the first matrix of a (K, P, P) stack as a report holds them, from its ``crb_bounds`` arrays."""
    theta, r, *scalars = crb_bounds(entries, n_sources)
    theta_total, r_total, cond, rank = (a.tolist()[0] for a in scalars)
    return CrbReport(theta[0], r[0], theta_total, r_total, cond, rank, entries.shape[-1], rank < entries.shape[-1])


@pytest.fixture(scope="session")
def scenario_a() -> Scenario:
    scn, _ = runtime_scenario(load_scenario("scenario_a"))
    return scn


@pytest.fixture(scope="session")
def scenario_b() -> Scenario:
    scn, _ = runtime_scenario(load_scenario("scenario_b"))
    return scn
