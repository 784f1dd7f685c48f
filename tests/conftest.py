"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from nfcrb import (
    PairwiseGeometry,
    PairwiseScenario,
    ParameterIndex,
    Scenario,
    SensorGeom,
    SourceGeom,
    SourceSignal,
    covariances,
    load_scenario,
    native_delays,
    runtime_scenario,
    steering_derivatives,
    steering_matrix,
)


def random_scenario(rng: np.random.Generator, m: int | None = None, n: int | None = None) -> Scenario:
    """Non-degenerate polar scenario: sensors within 50 m, sources 100..400 m out."""
    if m is None:
        m = int(rng.integers(3, 7))
    if n is None:
        n = int(rng.integers(1, min(m, 4)))
    sensors = tuple(
        SensorGeom(float(rng.uniform(2.0, 50.0)), float(rng.uniform(0.0, 2.0 * np.pi)))
        for _ in range(m)
    )
    sources = tuple(
        SourceGeom(float(rng.uniform(100.0, 400.0)), float(rng.uniform(0.0, 2.0 * np.pi)))
        for _ in range(n)
    )
    signals = tuple(
        SourceSignal(
            float(rng.uniform(1e5, 2e6)),
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        )
        for _ in range(n)
    )
    return Scenario(
        sources=sources,
        sensors=sensors,
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
    sensors = tuple(SensorGeom(float(np.hypot(x, y)), float(np.arctan2(y, x))) for x, y in sensor_xy)
    sources = tuple(SourceGeom(float(np.hypot(x, y)), float(np.arctan2(y, x))) for x, y in source_xy)
    signals = tuple(
        SourceSignal(
            float(rng.uniform(1e5, 2e6)),
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        )
        for _ in range(n)
    )
    return Scenario(sources, sensors, 3e8, signals, 1.0, 1)


def pairwise_scenario(vertical, arrival_rad, freqs, amps, velocity=3e8, eta=1.0, snapshots=1) -> PairwiseScenario:
    signals = tuple(SourceSignal(f, a) for f, a in zip(freqs, amps))
    return PairwiseScenario(
        PairwiseGeometry(np.asarray(vertical, float), np.asarray(arrival_rad, float)),
        velocity,
        signals,
        eta,
        snapshots,
    )


def trace_loop_fim(scn: Scenario) -> np.ndarray:
    """Reference information matrix: dense derivative products and one trace per entry."""
    A = steering_matrix(native_delays(scn), scn.frequencies())
    covset = covariances(A, scn.signals, scn.noise_variance)
    Rs, Ah = covset.source_cov, A.conj().T
    derivs = [
        D @ Rs @ Ah + A @ Rs @ D.conj().T
        for axis in ("bearing", "range")
        for D in steering_derivatives(scn, axis)
    ]
    derivs += [A @ E @ Ah for E in ParameterIndex(scn.num_sources).cov_entry_bases()]
    derivs.append(np.eye(scn.num_sensors, dtype=complex))
    Rinv = np.linalg.inv(covset.array_cov)
    half = [Rinv @ D for D in derivs]
    F = np.array([[np.real(np.trace(a @ b)) for b in half] for a in half])
    return scn.snapshots * F


def pinv_totals(F: np.ndarray, n_sources: int) -> tuple[float, float]:
    """Reference bearing and range bound totals from np.linalg.pinv."""
    diag = np.diag(np.linalg.pinv(F, rtol=1e-12))
    return float(diag[:n_sources].sum()), float(diag[n_sources : 2 * n_sources].sum())


@pytest.fixture(scope="session")
def scenario_a() -> PairwiseScenario:
    scn, _ = runtime_scenario(load_scenario("scenario_a"))
    return scn


@pytest.fixture(scope="session")
def scenario_b() -> PairwiseScenario:
    scn, _ = runtime_scenario(load_scenario("scenario_b"))
    return scn
