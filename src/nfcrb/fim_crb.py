"""Fisher information and Cramer-Rao bounds for joint (bearing, range) estimation.

The estimated parameter vector is ordered

    [bearing_1..bearing_N, range_1..range_N, cov-entry params (N^2), noise variance]

where the source-covariance entries are parameterized by N real diagonal
values followed, for each upper-triangle pair (p < q) in row-major order, by
the real part then the imaginary part.

Three routes to the information matrix are provided.  The generic trace form
(one trace of R^-1 dR R^-1 dR per entry, scaled by the snapshot count) is the
oracle of the others and the path of a lone report (``fim_for_scenario``).
``fim_rank_one``, the kernel of every batch (sweep rows, a reposition's two
reports, bound searches), reads every trace off one (3N+1)^2 Gram matrix per
layout, as R = eta I + a a^H.  A closed-form block assembly, whose
covariance-entry blocks read the same basis table as the other two, is kept as
a cross-check of a given generic matrix (run by ``validate`` and the tests, not
by reports) that reports its per-block deviation.  Finite-difference oracles
for the steering and covariance derivatives back them: ``rx_derivatives_fd``
takes a polar or pairwise scenario as given, steps the polar axes ``linearize``
steers (``geometry.polar_axes``, converted once per pairwise table), and reads
both oracles off one stacked steering pass of every stepped constellation.

``fim_rank_one`` takes a leading batch axis of K constellations:
per-constellation sensors (K, M), sources and frequencies (K, N) and
velocity (K,), or sources, frequencies and velocity shared by all K, with
shared amplitudes, noise and snapshots; ``batch_chunk`` sizes its batches.  The
trace form's stacked pass (``_covariance_stack``: the steering, the rank-two
covariance derivatives, then all traces as one matmul) runs at K = 1 in
``linearize``: one scenario's steering matrix, derivative columns, covariances
and dR stack.  Everything about a single constellation reads that pass:
``fim_for_scenario`` hands its covariance and dR stack to ``fim_generic``, and
``validate`` checks its columns and dR stack against the finite-difference
oracles and hands it, with the generic matrix, to ``fim_closed_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SingularCovarianceError, ValidationError
from .geometry import TWO_PI, distances, polar_axes, polar_to_cartesian
from .signal_model import amplitude_vector, covariances, frequency_vector, steering_matrix


@dataclass(frozen=True)
class ParameterIndex:
    """Bijective map between flat parameter indices and (block, position)."""

    n_sources: int

    def __post_init__(self) -> None:
        if self.n_sources < 0:
            raise ValidationError("source count must be nonnegative")

    @property
    def size(self) -> int:
        n = self.n_sources
        return 2 * n + n * n + 1

    @property
    def bearing(self) -> slice:
        return slice(0, self.n_sources)

    @property
    def range(self) -> slice:
        return slice(self.n_sources, 2 * self.n_sources)

    @property
    def cov_entries(self) -> slice:
        n = self.n_sources
        return slice(2 * n, 2 * n + n * n)

    @property
    def noise(self) -> int:
        return self.size - 1

    def upper_pairs(self) -> list[tuple[int, int]]:
        """Row-major upper-triangle pairs (p, q) with p < q, zero-based."""
        n = self.n_sources
        return [(p, q) for p in range(n) for q in range(p + 1, n)]

    @cache
    def cov_entry_bases(self) -> np.ndarray:
        """Read-only (N^2, N, N) Hermitian basis matrices of the source-covariance parameterization."""
        n = self.n_sources

        def basis(*entries) -> np.ndarray:
            E = np.zeros((n, n), dtype=complex)
            for i, j, value in entries:
                E[i, j] = value
            return E

        bases = [basis((d, d, 1.0)) for d in range(n)]
        for p, q in self.upper_pairs():
            bases += [basis((p, q, 1.0), (q, p, 1.0)), basis((p, q, 1j), (q, p, -1j))]
        bases = np.array(bases)
        bases.flags.writeable = False
        return bases


@dataclass(frozen=True, eq=False)
class FimMatrix:
    """Real symmetric information matrix over a ParameterIndex ordering."""

    entries: np.ndarray
    snapshots: int
    array_cov_condition: float = float("nan")
    factored: tuple[np.ndarray, np.ndarray] | None = None  # R and R^-1 as ``fim_generic`` checked and inverted them


@dataclass(frozen=True, eq=False)
class CrbReport:
    """Diagonal Cramer-Rao bounds split into bearing (rad^2) and range (m^2) blocks."""

    crb_theta: np.ndarray
    crb_r: np.ndarray
    crb_theta_total: float
    crb_r_total: float
    condition_number: float
    rank: int
    size: int
    rank_deficient: bool


DR_CHUNK_VALUES = 8192
"""Most values one batch's (K, P, P) information matrices may hold (K P^2 <= 8192, 64 KB): the
batch size of sweep rows and bound searches, ``batch_chunk``."""

PHASE_CHUNK_VALUES = 4096
"""Most complex values the largest array of one batched gf/power/det pass may hold: 64 KB.

That is K x N steering entries for gf and power, K x M x max(M, N) for det and K x M x N for the
steering pass that picks the strongest elements of a sweep's planned rows; no value depends on it.
"""


def batch_chunk(num_sources: int) -> int:
    """Constellations per ``fim_rank_one`` call whose (K, P, P) stack stays within DR_CHUNK_VALUES."""
    return max(1, DR_CHUNK_VALUES // ParameterIndex(num_sources).size ** 2)


def _kernel_axes(scenario) -> list[np.ndarray]:
    """The kernel's axes of one scenario's polar form, with a batch axis of one: sensor radii
    and azimuths (1, M), source ranges, bearings and frequencies (1, N), and velocity (1,)."""
    (radii, azimuths, ranges, bearings), _ = polar_axes(scenario)
    axes = radii, azimuths, ranges, bearings, frequency_vector(scenario.signals), scenario.velocity_mps
    return [np.asarray(a, dtype=float)[None] for a in axes]


def _steering_columns(radii, azimuths, ranges, bearings, freqs, velocity) -> tuple[np.ndarray, ...]:
    """(K, M, N) distances d, delay gradients, steering matrices and derivative columns.

    Takes the axes of ``_kernel_axes``, stacked over K; sources, frequencies and velocity may
    instead be (N,) arrays and a scalar shared by all K constellations.  The
    law-of-cosines distance gives d tau / d bearing = rho r sin(bearing -
    azimuth) / (c d) and d tau / d range = (r - rho cos(bearing - azimuth)) /
    (c d); column n of a derivative matrix is -j 2 pi f_n (d tau / d axis) A[:, n].
    """
    d = distances(polar_to_cartesian(radii, azimuths), polar_to_cartesian(ranges, bearings))
    rho, r, c = radii[..., None], ranges[..., None, :], np.asarray(velocity)[..., None, None]
    diff = bearings[..., None, :] - azimuths[..., None]
    dtau_b, dtau_r = rho * r * np.sin(diff) / (c * d), (r - rho * np.cos(diff)) / (c * d)
    A = steering_matrix(d / c, freqs)
    w = 2.0 * np.pi * freqs[..., None, :]
    return d, dtau_b, dtau_r, A, -1j * w * dtau_b * A, -1j * w * dtau_r * A


def _covariance_derivatives(
    A: np.ndarray, cols_b: np.ndarray, cols_r: np.ndarray, source_cov: np.ndarray
) -> np.ndarray:
    """(K, P, M, M) stack of array-covariance derivatives, ordered per ParameterIndex.

    With b_n the n-th column of A Rs, the bearing or range derivative of
    source n is the rank-two col_n b_n^H + b_n col_n^H; for Rs = s s^H that is
    u a^H + a u^H with a = A s and u = s_n col_n.  The covariance-entry
    derivatives are A E A^H for the basis matrices E, and the noise
    derivative is the identity.
    """
    K, M, N = A.shape
    index = ParameterIndex(N)
    dR = np.empty((K, index.size, M, M), dtype=complex)
    b_conj = (A @ source_cov).conj()
    for block, cols in ((index.bearing, cols_b), (index.range, cols_r)):
        half = cols.swapaxes(1, 2)[:, :, :, None] * b_conj.swapaxes(1, 2)[:, :, None, :]
        dR[:, block] = half + half.conj().swapaxes(2, 3)
    At = A.swapaxes(1, 2)
    dR[:, index.cov_entries.start : index.cov_entries.start + N] = (
        At[:, :, :, None] * At.conj()[:, :, None, :]
    )
    pairs = index.upper_pairs()
    if pairs:
        p, q = np.array(pairs).T
        G = At[:, p, :, None] * At[:, q].conj()[:, :, None, :]
        Gh = G.conj().swapaxes(2, 3)
        first = index.cov_entries.start + N
        dR[:, first : index.noise : 2] = G + Gh
        dR[:, first + 1 : index.noise : 2] = 1j * (G - Gh)
    dR[:, index.noise] = np.eye(M)
    return dR


def _eigenvalues(array_cov: np.ndarray) -> np.ndarray:
    """(K, M) ascending eigenvalues of (K, M, M) array covariances; raises
    SingularCovarianceError if any covariance is not finite or numerically singular."""
    if not np.isfinite(array_cov).all():
        raise SingularCovarianceError("array covariance has non-finite entries")
    w = np.linalg.eigvalsh(array_cov)
    singular = (w[:, 0] <= 0) | (w[:, 0] < 1e-15 * w[:, -1])
    if np.any(singular):
        raise SingularCovarianceError(
            "array covariance is numerically singular; smallest eigenvalue "
            f"{w[np.argmax(singular), 0]:.6e}"
        )
    return w


def _trace_form(array_cov: np.ndarray, derivs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re tr(R^-1 dR_a R^-1 dR_b) for (K, M, M) covariances and (K, P, M, M) derivatives.

    tr(X_a X_b) is the dot product of X_a's rows with X_b's columns, so with
    X = R^-1 dR every table is one matmul of the flattened X against the
    flattened transposes.  Returns the (K, P, P) tables, symmetrized, the
    (K,) condition numbers of the covariances and their (K, M, M) inverses.
    """
    w = _eigenvalues(array_cov)
    X = (Rinv := np.linalg.inv(array_cov))[:, None] @ derivs
    K, P, M, _ = X.shape
    rows = X.reshape(K, P, M * M)
    cols = X.swapaxes(2, 3).reshape(K, P, M * M)
    F = (rows @ cols.swapaxes(1, 2)).real
    if not np.isfinite(F).all():
        raise ValidationError("information matrix has non-finite entries")
    return 0.5 * (F + F.swapaxes(1, 2)), w[:, -1] / w[:, 0], Rinv


def fim_generic(array_cov: np.ndarray, derivs, snapshots: int) -> FimMatrix:
    """Information matrix from the trace form, scaled linearly by the snapshot count.

    Entry (a, b) is snapshots * Re tr(R^-1 dR_a R^-1 dR_b); symmetric and
    positive semidefinite by construction for Hermitian inputs.
    """
    if snapshots < 1:
        raise ValidationError(f"snapshot count must be >= 1, got {snapshots}")
    R = np.asarray(array_cov, dtype=complex)
    D = np.asarray(derivs, dtype=complex).reshape(-1, *R.shape)
    F, cond, Rinv = _trace_form(R[None], D[None])
    return FimMatrix(snapshots * F[0], int(snapshots), float(cond[0]), (R, Rinv[0]))


def _covariance_stack(scenario, *constellations) -> tuple[np.ndarray, ...]:
    """The trace form's stacked pass: (K, M, N) steering matrices and bearing and range derivative
    columns, the covariances and the (K, P, M, M) derivative stacks of K constellations, given as
    ``_steering_columns`` takes them; amplitudes and noise from ``scenario``."""
    *_, A, cols_b, cols_r = _steering_columns(*constellations)
    covset = covariances(A, scenario.signals, scenario.noise_variance)
    return A, cols_b, cols_r, covset, _covariance_derivatives(A, cols_b, cols_r, covset.source_cov)


@dataclass(frozen=True, eq=False)
class Linearization:
    """One constellation as the kernel sees it: the (M, N) steering matrix A and its bearing and
    range derivative columns, the (N, N) source and (M, M) array covariances, and the
    (P, M, M) array-covariance derivatives ordered per ParameterIndex."""

    steering: np.ndarray
    bearing_cols: np.ndarray
    range_cols: np.ndarray
    source_cov: np.ndarray
    array_cov: np.ndarray
    derivs: np.ndarray


def linearize(scenario) -> Linearization:
    """The kernel at K = 1 on one polar or pairwise scenario (its polar form)."""
    A, cols_b, cols_r, covset, dR = _covariance_stack(scenario, *_kernel_axes(scenario))
    return Linearization(A[0], cols_b[0], cols_r[0], covset.source_cov, covset.array_cov[0], dR[0])


def steering_derivatives(lin: Linearization, axis: str) -> np.ndarray:
    """Analytic steering derivatives of a ``linearize`` pass, one (M, N) matrix per source, as an (N, M, N) stack.

    The matrix for source n is zero except in column n, which equals
    -j 2 pi f_n (d tau / d axis) A[:, n].
    """
    if axis not in ("bearing", "range"):
        raise ValidationError(f"axis must be 'bearing' or 'range', got {axis!r}")
    cols = lin.bearing_cols if axis == "bearing" else lin.range_cols
    n = np.arange(cols.shape[1])
    out = np.zeros((len(n), *cols.shape), dtype=complex)
    out[n, :, n] = cols.T
    return out


def fim_for_scenario(scenario) -> FimMatrix:
    """The information matrix of one polar or pairwise scenario: ``fim_generic`` of its ``linearize`` pass."""
    lin = linearize(scenario)
    return fim_generic(lin.array_cov, lin.derivs, scenario.snapshots)


def fim_rank_one(scenario, *axes) -> tuple[np.ndarray, np.ndarray]:
    """The (K, P, P) information matrices and (K,) condition numbers of R of K constellations, as ``_steering_columns``
    takes them, with the scenario's amplitudes, noise and snapshots, in one call (keep K within ``batch_chunk``): the
    trace form's, to rounding, with no M x M matrix.  R = eta I + a a^H (a = A s) has eigenvalues eta and eta + |a|^2,
    R^-1 = (I - d a a^H) / eta and R^-2 = (I - d^2 (2 eta + |a|^2) a a^H) / eta^2, d = 1 / (eta + |a|^2), so every
    trace comes from the Gram matrix of Z = [A, U, a], where U holds the u = s_n dA/d(axis)_n of the source-axis
    derivatives u a^H + a u^H.  Blocks: 2 Re(alpha alpha^T) + 2 gamma Re(U^H R^-1 U) (alpha = a^H R^-1 U, gamma =
    a^H R^-1 a); 2 Re(beta^H E xi) (beta = A^H R^-1 U, xi = A^H R^-1 a) and Re tr(E Gamma E' Gamma) (Gamma = A^H R^-1 A)
    over the bases E; tr(R^-2 dR) for the noise.  Raises as the trace form does, but names eta as the least
    eigenvalue of a singular R (eta < 1e-15 (eta + |a|^2))."""
    *_, A, cols_b, cols_r = _steering_columns(*axes)
    eta, s = np.float64(scenario.noise_variance), amplitude_vector(scenario.signals)
    with np.errstate(over="ignore"):  # an eta**2 beyond the float range reads inf, so R^-2 reads 0
        eta2 = eta**2
    K, M, N = A.shape
    Z = np.concatenate([A, s * cols_b, s * cols_r, A @ s[:, None]], axis=2)
    H = Z.conj().swapaxes(1, 2) @ Z
    power = H[:, -1:, -1:].real
    if not np.isfinite(power).all():
        raise SingularCovarianceError("array covariance has non-finite entries")
    if np.any(eta < 1e-15 * (eta + power)):
        raise SingularCovarianceError(f"array covariance is numerically singular; smallest eigenvalue {eta:.6e}")
    d, outer = 1.0 / (eta + power), H[:, :, -1:] * H[:, -1:, :]  # Z^H a a^H Z
    G, G2 = (H - d * outer) / eta, (H - d**2 * (2.0 * eta + power) * outer) / eta2
    Gamma, U, alpha = G[:, :N, :N], slice(N, 3 * N), G[:, -1:, N : 3 * N]
    bases = ParameterIndex(N).cov_entry_bases().reshape(N * N, -1).T  # sum(E * T) = T_flat @ bases
    axes_axes = 2.0 * (alpha.swapaxes(1, 2) * alpha).real + 2.0 * G[:, -1:, -1:].real * G[:, U, U].real
    axes_cov = 2.0 * ((G[:, U, :N, None] * G[:, None, None, :N, -1]).reshape(K, 2 * N, -1) @ bases).real
    X = Gamma[:, None, :, :, None] * Gamma.swapaxes(1, 2)[:, :, None, None, :]  # Gamma[q, r] Gamma[t, p]
    cov_cov = (bases.T @ X.reshape(K, N * N, N * N) @ bases).real
    axes_noise = 2.0 * G2[:, U, -1:].real
    cov_noise = (G2[:, :N, :N].swapaxes(1, 2).reshape(K, 1, -1) @ bases).real.swapaxes(1, 2)
    blocks = ([axes_axes, axes_cov, axes_noise], [axes_cov.swapaxes(1, 2), cov_cov, cov_noise],
              [axes_noise.swapaxes(1, 2), cov_noise.swapaxes(1, 2), (M - 1) / eta2 + d**2])
    F = np.concatenate([np.concatenate(row, axis=2) for row in blocks], axis=1)
    if not np.isfinite(F).all():
        raise ValidationError("information matrix has non-finite entries")
    return scenario.snapshots * (0.5 * (F + F.swapaxes(1, 2))), ((eta + power) / eta)[:, 0, 0]


def fim_closed_form(lin: Linearization, generic: FimMatrix) -> tuple[FimMatrix, dict[str, float]]:
    """Block-assembled information matrix plus per-block deviation from ``generic``.

    ``generic`` is the trace-form matrix of the same ``linearize`` pass; its snapshot
    count, check and inverse of R serve the closed form too.  The bearing/range blocks
    combine Hadamard products of source-covariance and derivative cross
    terms; blocks coupled to the covariance-entry parameters take tr(E_i X)
    over the ParameterIndex basis matrices E_i as one product with their table.
    The generic trace form remains authoritative: the returned dict reports
    max |closed - generic| per block, relative to the block magnitude floored
    at 1e-6 of the whole matrix so that blocks that are numerically zero
    report their absolute noise instead of 0/0.
    """
    A, Rs, R = lin.steering, lin.source_cov, lin.array_cov
    N = A.shape[1]
    snapshots = generic.snapshots
    index = ParameterIndex(N)
    checked, Rinv = generic.factored or (None, None)
    if not np.array_equal(checked, R):  # ``generic`` was made of another covariance (or none)
        _eigenvalues(R[None])
        Rinv = np.linalg.inv(R)
    Rinv2 = Rinv @ Rinv
    cols = {"bearing": lin.bearing_cols, "range": lin.range_cols}
    Ah = A.conj().T

    gram = Ah @ Rinv @ A                      # N x N
    phi = Rs @ gram @ Rs
    U = {ax: Rs @ Ah @ Rinv @ cols[ax] for ax in cols}

    def block_axes(alpha: str, beta: str) -> np.ndarray:
        psi = cols[beta].conj().T @ Rinv @ cols[alpha]
        return 2.0 * snapshots * np.real(U[beta] * U[alpha].T + phi * psi.T)

    # row i is basis E_i flattened row-major, so T @ vec_F(X) lists tr(E_i X) in ParameterIndex order
    T = index.cov_entry_bases().reshape(N * N, N * N)
    Th = T.conj().T

    def block_axis_cov(alpha: str) -> np.ndarray:  # rows i (N + 1) of kron(X, Y): X[i, j] Y[i, l] over (j, l)
        X, Y = (gram @ Rs).T, cols[alpha].conj().T @ Rinv @ A
        return 2.0 * snapshots * np.real((X[:, :, None] * Y[:, None, :]).reshape(N, N * N) @ Th)

    def block_axis_noise(alpha: str) -> np.ndarray:
        return 2.0 * snapshots * np.real(np.diag(Rs @ Ah @ Rinv2 @ cols[alpha]))

    kron = (gram.conj()[:, None, :, None] * gram[None, :, None, :]).reshape(N * N, N * N)  # kron(gram*, gram)
    cov_cov = snapshots * np.real(T @ kron @ Th)
    cov_noise = snapshots * np.real(T @ (Ah @ Rinv2 @ A).flatten(order="F"))
    noise_noise = snapshots * float(np.real(np.trace(Rinv2)))

    # each coupled block once; its mirror is the transpose (a diagonal block is symmetrized below)
    at = {"bearing": index.bearing, "range": index.range, "cov": index.cov_entries, "noise": index.noise}
    upper = {
        "bearing-bearing": block_axes("bearing", "bearing"),
        "bearing-range": block_axes("bearing", "range"),
        "range-range": block_axes("range", "range"),
        "bearing-cov": block_axis_cov("bearing"),
        "range-cov": block_axis_cov("range"),
        "bearing-noise": block_axis_noise("bearing"),
        "range-noise": block_axis_noise("range"),
        "cov-cov": cov_cov,
        "cov-noise": cov_noise,
        "noise-noise": noise_noise,
    }
    F = np.zeros((index.size, index.size))
    blocks = {name: tuple(at[axis] for axis in name.split("-")) for name in upper}
    for name, (ra, ca) in blocks.items():
        F[ra, ca] = upper[name]
        F[ca, ra] = np.transpose(upper[name])
    F = 0.5 * (F + F.T)

    diff, size = np.abs(F - generic.entries), np.abs(generic.entries)
    floor = max(1e-6 * float(size.max()), 1e-300)
    deviations = {name: float(diff[ra, ca].max() / max(float(size[ra, ca].max()), floor))
                  for name, (ra, ca) in blocks.items()}

    return FimMatrix(F, int(snapshots), generic.array_cov_condition), deviations


PINV_RTOL = 1e-12
"""Singular values at or below this fraction of the largest are treated as zero."""


def _pinv_diagonals(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pseudo-inverse diagonals, ranks and condition numbers of a (K, P, P) stack.

    One SVD per matrix serves all three.  As in np.linalg.pinv, a singular
    value counts (toward the rank, and inverted in the pseudo-inverse) only if
    it is strictly greater than PINV_RTOL times the largest; diag(V S^+ U^T)
    is the row sum of U * V weighted by the inverted singular values.
    Rank-deficient and empty matrices get an infinite condition number.
    """
    u, s, vt = np.linalg.svd(F)
    kept = s > PINV_RTOL * s.max(axis=-1, keepdims=True, initial=0.0)
    with np.errstate(over="ignore"):  # a subnormal singular value inverts to inf: an inf bound, not a warning
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    diag = ((u * vt.swapaxes(-1, -2)) @ inv[..., None])[..., 0]
    rank = kept.sum(axis=-1)
    cond = np.full(s.shape[:-1], np.inf)
    if F.shape[-1]:
        full = rank == F.shape[-1]
        cond[full] = s[full, 0] / s[full, -1]
    return diag, rank, cond


def crb_totals(entries: np.ndarray, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Bearing and range bound totals of a (K, P, P) stack of information matrices."""
    diag, _, _ = _pinv_diagonals(np.asarray(entries, dtype=float))
    return diag[:, :n_sources].sum(axis=1), diag[:, n_sources : 2 * n_sources].sum(axis=1)


def crb_reports(entries: np.ndarray, n_sources: int) -> list[CrbReport]:
    """Diagonal bounds of each matrix of a (K, P, P) stack from its pseudo-inverse, one batched SVD.

    Rank deficiency (singular values at or below PINV_RTOL of the largest) is
    flagged, not raised; the pseudo-inverse is used either way.  Totals are
    the sums of the per-source diagonal entries of each block.
    """
    diag, rank, cond = _pinv_diagonals(entries)
    size = entries.shape[-1]
    theta, r = diag[:, :n_sources].copy(), diag[:, n_sources : 2 * n_sources].copy()
    rows = zip(theta, r, theta.sum(axis=1).tolist(), r.sum(axis=1).tolist(), cond.tolist(), rank.tolist())
    return [CrbReport(*row, k, size, k < size) for *row, k in rows]


def _stepped_steering(scenario, rel_step: float) -> tuple[np.ndarray, np.ndarray]:
    """(4N + 1, M, N) steering matrices of a polar or pairwise scenario's polar axes (``polar_axes``,
    which ``linearize`` steers) from one stacked pass, and the (2, N) bearing and range steps:
    ``rel_step`` radians and ``rel_step`` of each range.  Rows 0..2N step each source up, then down,
    along bearing, rows 2N..4N the same along range, and the last row is the unstepped constellation.

    A stepped source's bearing is reduced % TWO_PI as ``SourceGeom`` reduces it, so a step across 0
    wraps, and every value equals that of the stepped polar Scenario bit for bit.
    """
    (radii, azimuths, ranges, bearings), _ = polar_axes(scenario)
    N = len(ranges)
    h = np.stack([np.full(N, rel_step), rel_step * ranges])
    ranges, bearings = (np.tile(a, (4 * N + 1, 1)) for a in (ranges, bearings))
    rows, n = np.arange(4 * N), np.tile(np.arange(N), 4)
    bearings[rows[: 2 * N], n[: 2 * N]] += np.concatenate([h[0], -h[0]])
    ranges[rows[2 * N :], n[2 * N :]] += np.concatenate([h[1], -h[1]])
    bearings[rows, n] %= TWO_PI
    d = distances(polar_to_cartesian(radii, azimuths), polar_to_cartesian(ranges, bearings))
    return steering_matrix(d / scenario.velocity_mps, frequency_vector(scenario.signals)), h


def steering_derivatives_fd(scenario, axis: str, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the steering matrix of a polar or pairwise scenario, one
    (M, N) matrix per source, as an (N, M, N) stack: those ``rx_derivatives_fd`` reads off its pass.

    Steps are 1e-6 radians for bearings and 1e-6 of each range for ranges.
    """
    if axis not in ("bearing", "range"):
        raise ValidationError(f"axis must be 'bearing' or 'range', got {axis!r}")
    return rx_derivatives_fd(scenario, rel_step)[0][int(axis == "range")]


def rx_derivatives_fd(scenario, rel_step: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of a polar or pairwise scenario's steering matrix along each
    source's bearing and range, a (2, N, M, N) stack, and of its array covariance over the full
    parameter vector, a (P, M, M) stack.

    Both read one steering pass (``_stepped_steering``).  Every stepped covariance
    A (s s^H + shift) A^H + eta I, up and down, is one slice of one stacked product: the bearing
    and range steps take their stepped steering matrices, and the covariance-entry and noise
    steps share the unstepped one.
    """
    M, N = scenario.num_sensors, scenario.num_sources
    s, eta0 = amplitude_vector(scenario.signals), scenario.noise_variance
    base_rs, bases = np.outer(s, s.conj()), ParameterIndex(N).cov_entry_bases()
    h_cov, h_eta = rel_step * max(float(np.abs(s).max()) ** 2, 1.0), rel_step * eta0
    A_all, h_axes = _stepped_steering(scenario, rel_step)
    up, down = A_all[:-1].reshape(2, 2, N, M, N).swapaxes(0, 1)  # (bearing, range) each
    A0 = np.repeat(A_all[-1:], N * N + 1, axis=0)
    A = np.concatenate([*up, A0, *down, A0])
    zeros = np.zeros((2 * N, N, N))
    shifts = np.concatenate([zeros, h_cov * bases, zeros[:1], zeros, -h_cov * bases, zeros[:1]])
    eta = np.array([eta0] * (2 * N + N * N) + [eta0 + h_eta] + [eta0] * (2 * N + N * N) + [eta0 - h_eta])
    R = A @ (base_rs + shifts) @ A.conj().swapaxes(1, 2) + eta[:, None, None] * np.eye(M)
    h = np.concatenate([h_axes.ravel(), np.full(N * N, h_cov), [h_eta]])
    with np.errstate(divide="ignore", invalid="ignore"):  # a step that underflowed to 0 reads nan or inf
        derivs = (R[: len(h)] - R[len(h) :]) / (2.0 * h)[:, None, None]
        steering = (up - down) / (2.0 * h_axes)[..., None, None]
    return steering, derivs
