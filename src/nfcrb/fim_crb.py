"""Fisher information and Cramer-Rao bounds for joint (bearing, range) estimation.

The estimated parameter vector is ordered

    [bearing_1..bearing_N, range_1..range_N, cov-entry params (N^2), noise variance]

where the source-covariance entries are parameterized by N real diagonal
values followed, for each upper-triangle pair (p < q) in row-major order, by
the real part then the imaginary part.

Two routes to the information matrix are provided: the generic trace form
(one trace of R^-1 dR R^-1 dR per entry, scaled by the snapshot count), which
is the authoritative path, and a closed-form block assembly built from
index-selection matrices, kept as a cross-check of a given generic matrix
(run by ``validate`` and the tests, not by reports) that reports its
per-block deviation; its index tables are built once per N.  Finite-difference
oracles for the steering and covariance derivatives back both; each steers all
its stepped constellations in stacked array passes.

The trace form is one kernel over a leading batch axis of K constellations:
per-constellation sensors (K, M), sources and frequencies (K, N) and
velocity (K,), or sources, frequencies and velocity shared by all K, with
shared amplitudes, noise and snapshots.  One array pass gives the steering,
the rank-two covariance derivatives and all traces as one matmul.
``fim_for_scenarios`` is the one batched entry (a sweep's or a report
batch's chunk, or a search's chunk of sensor layouts around shared sources).
``linearize`` is the kernel at K = 1: one scenario's steering matrix,
derivative columns, covariances and dR stack, from one pass.  Everything
about a single constellation reads that pass: ``fim_for_scenario`` hands its
covariance and dR stack to ``fim_generic``, and ``validate`` checks its
columns and dR stack against the finite-difference oracles and hands it, with
the generic matrix, to ``fim_closed_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SingularCovarianceError, ValidationError
from .geometry import (TWO_PI, Scenario, distances, native_delays, polar_axes, polar_to_cartesian,
                       sensor_positions)
from .signal_model import covariances, frequency_vector, steering_matrix


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

    def cov_entry_bases(self) -> list[np.ndarray]:
        """Hermitian basis matrices of the source-covariance parameterization."""
        n = self.n_sources

        def basis(*entries) -> np.ndarray:
            E = np.zeros((n, n), dtype=complex)
            for i, j, value in entries:
                E[i, j] = value
            return E

        bases = [basis((d, d, 1.0)) for d in range(n)]
        for p, q in self.upper_pairs():
            bases += [basis((p, q, 1.0), (q, p, 1.0)), basis((p, q, 1j), (q, p, -1j))]
        return bases


@dataclass(frozen=True, eq=False)
class FimMatrix:
    """Real symmetric information matrix over a ParameterIndex ordering."""

    entries: np.ndarray
    snapshots: int
    array_cov_condition: float = float("nan")


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
"""Most complex values one batched (K, P, M, M) dR stack may hold: 128 KB."""

PHASE_CHUNK_VALUES = 4096
"""Most complex values the largest array of one batched gf/power/det pass may hold: 64 KB.

That is K x N steering entries for gf and power, K x M x max(M, N) for det and K x M x N for the
steering pass that picks the strongest elements of a sweep's planned rows; no value depends on it.
"""


def batch_chunk(num_sensors: int, num_sources: int) -> int:
    """Constellations per batched call whose dR stack stays within DR_CHUNK_VALUES."""
    per_layout = ParameterIndex(num_sources).size * num_sensors * num_sensors
    return max(1, DR_CHUNK_VALUES // per_layout)


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


def _trace_form(array_cov: np.ndarray, derivs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re tr(R^-1 dR_a R^-1 dR_b) for (K, M, M) covariances and (K, P, M, M) derivatives.

    tr(X_a X_b) is the dot product of X_a's rows with X_b's columns, so with
    X = R^-1 dR every table is one matmul of the flattened X against the
    flattened transposes.  Returns the (K, P, P) tables, symmetrized, and the
    (K,) condition numbers of the covariances.
    """
    w = _eigenvalues(array_cov)
    X = np.linalg.inv(array_cov)[:, None] @ derivs
    K, P, M, _ = X.shape
    rows = X.reshape(K, P, M * M)
    cols = X.swapaxes(2, 3).reshape(K, P, M * M)
    F = (rows @ cols.swapaxes(1, 2)).real
    if not np.isfinite(F).all():
        raise ValidationError("information matrix has non-finite entries")
    return 0.5 * (F + F.swapaxes(1, 2)), w[:, -1] / w[:, 0]


def fim_generic(array_cov: np.ndarray, derivs, snapshots: int) -> FimMatrix:
    """Information matrix from the trace form, scaled linearly by the snapshot count.

    Entry (a, b) is snapshots * Re tr(R^-1 dR_a R^-1 dR_b); symmetric and
    positive semidefinite by construction for Hermitian inputs.
    """
    if snapshots < 1:
        raise ValidationError(f"snapshot count must be >= 1, got {snapshots}")
    R = np.asarray(array_cov, dtype=complex)
    D = np.asarray(derivs, dtype=complex).reshape(-1, *R.shape)
    F, cond = _trace_form(R[None], D[None])
    return FimMatrix(snapshots * F[0], int(snapshots), float(cond[0]))


def _covariance_stack(scenario: Scenario, *constellations) -> tuple[np.ndarray, ...]:
    """The kernel: (K, M, N) steering matrices and bearing and range derivative columns, the
    covariances and the (K, P, M, M) derivative stacks of K constellations, given as
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


def steering_derivatives(lin: Linearization, axis: str) -> list[np.ndarray]:
    """Analytic steering derivatives of a ``linearize`` pass, one (M, N) matrix per source.

    The matrix for source n is zero except in column n, which equals
    -j 2 pi f_n (d tau / d axis) A[:, n].
    """
    if axis not in ("bearing", "range"):
        raise ValidationError(f"axis must be 'bearing' or 'range', got {axis!r}")
    cols = lin.bearing_cols if axis == "bearing" else lin.range_cols
    n = np.arange(cols.shape[1])
    out = np.zeros((len(n), *cols.shape), dtype=complex)
    out[n, :, n] = cols.T
    return list(out)


def fim_for_scenario(scenario) -> FimMatrix:
    """The information matrix of one polar or pairwise scenario: ``fim_generic`` of its ``linearize`` pass."""
    lin = linearize(scenario)
    return fim_generic(lin.array_cov, lin.derivs, scenario.snapshots)


def fim_for_scenarios(scenario, *axes) -> tuple[np.ndarray, np.ndarray]:
    """The (K, P, P) information matrices and (K,) array-covariance condition numbers of K
    constellations, given as ``_steering_columns`` takes them (sources, frequencies and velocity
    may be shared), with the scenario's amplitudes, noise and snapshots.  One kernel call, which
    any failing constellation fails; keep K within ``batch_chunk`` to bound memory."""
    *_, covset, dR = _covariance_stack(scenario, *axes)
    F, cond = _trace_form(covset.array_cov, dR)
    return scenario.snapshots * F, cond


@dataclass(frozen=True, eq=False)
class SelectionMatrices:
    """Index-built selection machinery for the closed-form blocks.

    Both matrices act on column-major vectorizations of N x N matrices.
    ``hermitian_to_real`` maps a vectorized Hermitian matrix to the real
    listing [diagonals and doubled real parts of the lower triangle,
    column-major; doubled negated imaginary parts of the strictly-lower
    entries]: a symmetric fold (sum of mirrored entries) stacked on a skew
    fold (their difference times -j).  ``diag_selector`` extracts the
    diagonal of a vectorized matrix.
    """

    hermitian_to_real: np.ndarray
    diag_selector: np.ndarray


def _ones_at(rows, cols, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)] = 1.0
    return out


@cache
def selection_matrices(n_sources: int) -> SelectionMatrices:
    """The selection matrices for N sources, built once per N; the arrays are read-only."""
    N = n_sources
    if N < 1:
        raise ValidationError(f"source count must be >= 1, got {N}")
    n2 = N * N
    # zero-based column-major position of entry (row, col) is col * N + row
    strict_lower = [p * N + q for p in range(N) for q in range(p + 1, N)]
    mirror_upper = [q * N + p for p in range(N) for q in range(p + 1, N)]
    lower_diag = [p * N + q for p in range(N) for q in range(p, N)]
    diag = [p * N + p for p in range(N)]

    fold_add = np.eye(n2) + _ones_at(strict_lower, mirror_upper, (n2, n2))
    fold_sub = np.eye(n2) - _ones_at(strict_lower, mirror_upper, (n2, n2))
    lower_selector = _ones_at(range(len(lower_diag)), lower_diag, (len(lower_diag), n2))
    strict_lower_selector = _ones_at(
        range(len(strict_lower)), strict_lower, (len(strict_lower), n2)
    )
    sym_fold = lower_selector @ fold_add
    skew_fold = -1j * (strict_lower_selector @ fold_sub)
    hermitian_to_real = np.vstack([sym_fold.astype(complex), skew_fold])
    diag_selector = _ones_at(range(N), diag, (N, n2))
    hermitian_to_real.flags.writeable = diag_selector.flags.writeable = False
    return SelectionMatrices(hermitian_to_real=hermitian_to_real, diag_selector=diag_selector)


@cache
def _folded_basis_alignment(n_sources: int) -> np.ndarray:
    """Read-only signed permutation from the folded real parameterization to ParameterIndex order.

    The folded listing interleaves diagonals among doubled real parts in
    column-major lower-triangle order and then carries negated imaginary
    parts; ParameterIndex wants diagonals first and (re, im) per upper pair.
    Returns S with S[index_pos, folded_pos] = +/-1 so that
    F_index = S F_folded S^T.  Built once per N.
    """
    N = n_sources
    n2 = N * N

    def pair_offset(p: int, q: int) -> int:
        return p * (2 * N - p - 1) // 2 + (q - p - 1)

    S = np.zeros((n2, n2))
    w = 0
    for p in range(N):
        for q in range(p, N):
            if q == p:
                S[p, w] = 1.0
            else:
                S[N + 2 * pair_offset(p, q), w] = 1.0
            w += 1
    for p in range(N):
        for q in range(p + 1, N):
            S[N + 2 * pair_offset(p, q) + 1, w] = -1.0
            w += 1
    S.flags.writeable = False
    return S


def _vec(M: np.ndarray) -> np.ndarray:
    return M.flatten(order="F")


def fim_closed_form(lin: Linearization, generic: FimMatrix) -> tuple[FimMatrix, dict[str, float]]:
    """Block-assembled information matrix plus per-block deviation from ``generic``.

    ``generic`` is the trace-form matrix of the same ``linearize`` pass; its
    snapshot count scales the closed form too.  The bearing/range blocks
    combine Hadamard products of source-covariance and derivative cross
    terms; blocks coupled to the covariance-entry parameters go through the
    selection matrices and are then realigned to the ParameterIndex ordering.
    The generic trace form remains authoritative: the returned dict reports
    max |closed - generic| per block, relative to the block magnitude floored
    at 1e-6 of the whole matrix so that blocks that are numerically zero
    report their absolute noise instead of 0/0.
    """
    A, Rs, R = lin.steering, lin.source_cov, lin.array_cov
    N = A.shape[1]
    snapshots = generic.snapshots
    index = ParameterIndex(N)
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

    sel = selection_matrices(N)
    fold_h = sel.hermitian_to_real.conj().T
    align = _folded_basis_alignment(N)

    def block_axis_cov(alpha: str) -> np.ndarray:
        kron = np.kron((gram @ Rs).T, cols[alpha].conj().T @ Rinv @ A)
        folded = 2.0 * snapshots * np.real(sel.diag_selector @ kron @ fold_h)
        return folded @ align.T

    def block_axis_noise(alpha: str) -> np.ndarray:
        return 2.0 * snapshots * np.real(np.diag(Rs @ Ah @ Rinv2 @ cols[alpha]))

    cov_cov = align @ (snapshots * np.real(sel.hermitian_to_real @ np.kron(gram.conj(), gram) @ fold_h)) @ align.T
    cov_noise = align @ (snapshots * np.real(sel.hermitian_to_real @ _vec(Ah @ Rinv2 @ A)))
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

    G = generic.entries
    deviations = {}
    overall = float(np.abs(G).max())
    for name, (ra, ca) in blocks.items():
        gb = np.atleast_2d(G[ra, ca])
        cb = np.atleast_2d(F[ra, ca])
        scale = max(float(np.abs(gb).max()), 1e-6 * overall, 1e-300)
        deviations[name] = float(np.abs(cb - gb).max() / scale)

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


def _stepped_steering(scenario: Scenario, axis: str, rel_step: float) -> tuple[np.ndarray, np.ndarray]:
    """(2N, M, N) steering matrices of the scenario with each source stepped up (the first N) and
    down (the last N) along ``axis``, from one stacked pass, and the N steps: ``rel_step`` radians
    for bearings, ``rel_step`` of each range for ranges.

    A stepped source's bearing is reduced % TWO_PI as ``SourceGeom`` reduces it, so a step across 0
    wraps, and every value equals that of the stepped Scenario bit for bit.
    """
    if axis not in ("bearing", "range"):
        raise ValidationError(f"axis must be 'bearing' or 'range', got {axis!r}")
    N = scenario.num_sources
    ranges, bearings = (np.tile(a, (2 * N, 1)) for a in (scenario.source_ranges(), scenario.source_bearings()))
    h = np.full(N, rel_step) if axis == "bearing" else rel_step * ranges[0]
    rows, n = np.arange(2 * N), np.tile(np.arange(N), 2)
    (bearings if axis == "bearing" else ranges)[rows, n] += np.concatenate([h, -h])
    bearings[rows, n] %= TWO_PI
    d = distances(sensor_positions(scenario), polar_to_cartesian(ranges, bearings))
    return steering_matrix(d / scenario.velocity_mps, scenario.frequencies()), h


def steering_derivatives_fd(
    scenario: Scenario, axis: str, rel_step: float = 1e-6
) -> list[np.ndarray]:
    """Central finite differences of the steering matrix, one (M, N) matrix per source.

    Steps are 1e-6 radians for bearings and 1e-6 of each range for ranges.
    """
    A, h = _stepped_steering(scenario, axis, rel_step)
    return list((A[: len(h)] - A[len(h) :]) / (2.0 * h)[:, None, None])


def rx_derivatives_fd(scenario: Scenario, rel_step: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of the array covariance over the full parameter vector.

    Every stepped covariance A (s s^H + shift) A^H + eta I, up and down, is one slice of one
    stacked product: the bearing and range steps steer their stepped sources (``_stepped_steering``),
    and the covariance-entry and noise steps share the unchanged scenario's steering matrix.
    """
    M, N = scenario.num_sensors, scenario.num_sources
    s, eta0 = scenario.amplitudes(), scenario.noise_variance
    base_rs, bases = np.outer(s, s.conj()), np.array(ParameterIndex(N).cov_entry_bases())
    h_cov, h_eta = rel_step * max(float(np.abs(s).max()) ** 2, 1.0), rel_step * eta0
    (A_b, h_b), (A_r, h_r) = (_stepped_steering(scenario, axis, rel_step) for axis in ("bearing", "range"))
    A0 = np.repeat(steering_matrix(native_delays(scenario), scenario.frequencies())[None], N * N + 1, axis=0)
    A = np.concatenate([A_b[:N], A_r[:N], A0, A_b[N:], A_r[N:], A0])
    zeros = np.zeros((2 * N, N, N))
    shifts = np.concatenate([zeros, h_cov * bases, zeros[:1], zeros, -h_cov * bases, zeros[:1]])
    eta = np.array([eta0] * (2 * N + N * N) + [eta0 + h_eta] + [eta0] * (2 * N + N * N) + [eta0 - h_eta])
    R = A @ (base_rs + shifts) @ A.conj().swapaxes(1, 2) + eta[:, None, None] * np.eye(M)
    h = np.concatenate([h_b, h_r, np.full(N * N, h_cov), [h_eta]])
    return list((R[: len(h)] - R[len(h) :]) / (2.0 * h)[:, None, None])
