"""Frequency-domain narrowband signal model.

Steering phases, source/noise/array covariances, snapshot synthesis, the
sample covariance estimator, and per-element received power with
strongest-element selection.

Source amplitudes are deterministic complex constants, identical across
snapshots, so the source covariance is the rank-one outer product of the
amplitude vector (coherent sources).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SourceSignal:
    """One emitter's narrowband description: center frequency and complex amplitude."""

    freq_hz: float
    amplitude: complex

    def __post_init__(self) -> None:
        if not self.freq_hz > 0:
            raise ValidationError(f"source frequency must be positive, got {self.freq_hz}")
        object.__setattr__(self, "freq_hz", float(self.freq_hz))
        object.__setattr__(self, "amplitude", complex(self.amplitude))


def amplitude_vector(signals) -> np.ndarray:
    return np.array([sig.amplitude for sig in signals], dtype=complex)


def frequency_vector(signals) -> np.ndarray:
    return np.array([sig.freq_hz for sig in signals], dtype=float)


def steering_matrix(delays, freqs) -> np.ndarray:
    """Unit-modulus phase matrix exp(-j 2 pi f_n tau_mn), shape (M, N).

    ``delays`` is the (M, N) propagation-delay matrix in seconds, or a
    (K, M, N) stack of them, and ``freqs`` the length-N vector of source
    frequencies in Hz, or for a stack a (K, N) array of them.
    """
    delays = np.asarray(delays, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if not 1 <= freqs.ndim < delays.ndim <= 3 or freqs.shape[-1] != delays.shape[-1]:
        raise ValidationError(
            f"delay matrix {delays.shape} does not match {freqs.shape[-1]} frequencies"
        )
    return np.exp(-2j * np.pi * freqs[..., None, :] * delays)


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Source covariance (N x N), noise variance, and array covariance (M x M, or K x M x M)."""

    source_cov: np.ndarray
    noise_variance: float
    array_cov: np.ndarray


def covariances(A: np.ndarray, signals, noise_variance: float) -> CovarianceSet:
    """Covariance structure for deterministic amplitudes and white noise.

    The source covariance is s s^H (rank one); the array covariance is
    A s s^H A^H + noise_variance * I, one per steering matrix when ``A`` is a
    (K, M, N) stack.
    """
    if not noise_variance > 0:
        raise ValidationError(f"noise variance must be positive, got {noise_variance}")
    A = np.asarray(A, dtype=complex)
    s = amplitude_vector(signals)
    if A.ndim not in (2, 3) or A.shape[-1] != s.shape[0]:
        raise ValidationError(f"steering matrix {A.shape} does not match {s.shape[0]} signals")
    source_cov = np.outer(s, s.conj())
    array_cov = A @ source_cov @ A.conj().swapaxes(-1, -2) + noise_variance * np.eye(A.shape[-2])
    return CovarianceSet(source_cov, float(noise_variance), array_cov)


@dataclass(frozen=True, eq=False)
class SnapshotBatch:
    """Synthesized observations, one row per snapshot, plus the seed that made them."""

    snapshots: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.snapshots.ndim != 2 or self.snapshots.shape[0] < 1:
            raise ValidationError("snapshot batch must hold at least one observation vector")


def synthesize_snapshots(A, signals, noise_variance: float, count: int, seed: int) -> SnapshotBatch:
    """Draw ``count`` observation vectors A s + v with circular complex Gaussian noise.

    Noise components are independent across snapshots and sensors with variance
    ``noise_variance`` per complex component. Zero noise variance is allowed and
    yields the deterministic mean. Identical seeds give identical batches.
    """
    if count < 1:
        raise ValidationError(f"snapshot count must be >= 1, got {count}")
    if noise_variance < 0:
        raise ValidationError(f"noise variance must be nonnegative, got {noise_variance}")
    A = np.asarray(A, dtype=complex)
    mean = A @ amplitude_vector(signals)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(noise_variance / 2.0)
    noise = scale * (
        rng.standard_normal((count, A.shape[0])) + 1j * rng.standard_normal((count, A.shape[0]))
    )
    return SnapshotBatch(mean[None, :] + noise, int(seed))


def sample_covariance(batch: SnapshotBatch) -> np.ndarray:
    """Mean outer product of the snapshots: (1/count) sum_j X(j) X(j)^H."""
    X = batch.snapshots
    if X.shape[0] < 1:
        raise ValidationError("empty snapshot batch")
    return np.einsum("jm,jn->mn", X, X.conj()) / X.shape[0]


def received_power(A, signals) -> tuple[np.ndarray, int]:
    """Noiseless per-element power |sum_n s_n A_mn|^2 and the strongest element.

    Returns (powers, index of the maximum); ties resolve to the lowest index.
    A (K, M, N) stack of steering matrices gives (K, M) powers and K indices.
    """
    A = np.asarray(A, dtype=complex)
    x = A @ amplitude_vector(signals)
    powers = np.abs(x) ** 2
    return powers, np.argmax(powers, axis=-1).tolist()
