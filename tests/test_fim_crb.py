import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import SingularCovarianceError, SingularGeometryError, ValidationError
from nfcrb import fim_crb, geometry, reposition
from nfcrb.cli import main
from nfcrb.errors import kept
from nfcrb.signal_model import SourceSignal, amplitude_vector, frequency_vector, steering_matrix
from nfcrb.geometry import PairwiseGeometry, PolarGeometry, Scenario, native_delays, pairwise_form, scenario_positions
from nfcrb.fim_crb import (
    DR_CHUNK_VALUES,
    ParameterIndex,
    batch_chunk,
    crb_bounds,
    fim_closed_form,
    fim_for_scenario,
    fim_generic,
    linearize,
    rx_derivatives_fd,
)
from conftest import (crb_report, pinv_totals, polar_form, random_scenario, random_upper_half_scenario, reducing_to,
                      trace_loop_fim, with_polar)


def _own_layout(scn):
    return scn.geometry.radii_m[None], scn.geometry.azimuths_rad[None]


def _with_layout(scn, radii, azimuths):
    return with_polar(scn, radii_m=radii, azimuths_rad=azimuths)


def layout_fims(scn, radii, azimuths):
    """The trace form of (K, M) sensor layouts around the scenario's own sources: the (K, P, P)
    matrices of its stacked pass (``linearize``'s at K = 1) and the (K,) condition numbers."""
    sources = scn.geometry.ranges_m, scn.geometry.bearings_rad, frequency_vector(scn.signals), scn.velocity_mps
    *_, R, dR = fim_crb._covariance_stack(scn, np.asarray(radii, float), np.asarray(azimuths, float), *sources)
    F, cond, _ = fim_crb._trace_form(R, dR)
    return scn.snapshots * F, cond


def _layouts(rng, scn, k):
    """The scenario's own sensor layout followed by k - 1 perturbed copies."""
    m = scn.num_sensors
    radii = scn.geometry.radii_m + np.vstack([np.zeros(m), rng.uniform(0, 5, (k - 1, m))])
    turns = np.vstack([np.zeros(m), rng.uniform(-0.3, 0.3, (k - 1, m))])
    return radii, (scn.geometry.azimuths_rad + turns) % (2 * np.pi)


def _max_rel(analytic, numeric):
    """Largest relative error per item (matrix or column); nan if any is nan, so a nan oracle cannot pass."""
    return float(np.max([
        float(np.abs(a - f).max() / max(np.abs(a).max(), 1e-300))
        for a, f in zip(analytic, numeric)
    ]))


def _stepped_scenarios(scn, axis, rel_step=1e-6):
    """Per source, the scenario with that source stepped up and down, each a Scenario, and the step.
    The stepped source is set anew, so its bearing is reduced again; the others are kept bit for bit."""
    g = scn.geometry
    for n, r in enumerate(g.ranges_m.tolist()):
        h = rel_step if axis == "bearing" else rel_step * r
        stepped = []
        for step in (h, -h):
            ranges, bearings = g.ranges_m.copy(), reducing_to(g.bearings_rad)
            if axis == "bearing":
                bearings[n] = g.bearings_rad[n] + step
            else:
                ranges[n], bearings[n] = g.ranges_m[n] + step, g.bearings_rad[n]
            stepped.append(with_polar(scn, ranges_m=ranges, bearings_rad=bearings))
        yield *stepped, h


def steering_fd_reference(scn, axis):
    """Per source, the central difference of the whole (M, N) steering matrix along one axis, steering
    one stepped Scenario at a time: ``rx_derivatives_fd``'s columns are column n of the n-th."""
    freqs = frequency_vector(scn.signals)
    return [(steering_matrix(native_delays(hi), freqs) - steering_matrix(native_delays(lo), freqs)) / (2.0 * h)
            for hi, lo, h in _stepped_scenarios(scn, axis)]


def rx_fd_reference(scn, rel_step=1e-6):
    """``rx_derivatives_fd`` one stepped Scenario and one covariance at a time."""
    freqs, s = frequency_vector(scn.signals), amplitude_vector(scn.signals)
    base_rs = np.outer(s, s.conj())

    def rx_at(stepped, rs_shift, eta):
        A = steering_matrix(native_delays(stepped), freqs)
        return A @ (base_rs + rs_shift) @ A.conj().T + eta * np.eye(scn.num_sensors)

    zero, eta0 = np.zeros_like(base_rs), scn.noise_variance
    out = [(rx_at(hi, zero, eta0) - rx_at(lo, zero, eta0)) / (2.0 * h)
           for axis in ("bearing", "range") for hi, lo, h in _stepped_scenarios(scn, axis)]
    h = rel_step * max(float(np.abs(s).max()) ** 2, 1.0)
    out += [(rx_at(scn, h * E, eta0) - rx_at(scn, -h * E, eta0)) / (2.0 * h)
            for E in ParameterIndex(scn.num_sources).cov_entry_bases()]
    h = rel_step * eta0
    out.append((rx_at(scn, zero, eta0 + h) - rx_at(scn, zero, eta0 - h)) / (2.0 * h))
    return out


@st.composite
def polar_scenarios(draw):
    """Random polar scenarios of one to four sources; when drawn so, the first source's bearing lies
    within 1e-6 of 0, so that a bearing step wraps across 2 pi."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, min(m - 1, 4)))
    scn = random_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n)
    near_zero = draw(st.none() | st.floats(-1e-6, 1e-6))
    if near_zero is not None:
        scn = with_polar(scn, bearings_rad=[near_zero, *scn.geometry.bearings_rad[1:]])
    return scn


@st.composite
def pairwise_scenarios(draw):
    """Pairwise tables of random constellations of one to four sources above the sensors, their
    arrival angles jittered by up to 1e-3 rad so that the fit leaves a residual."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, min(m - 1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pws = pairwise_form(random_upper_half_scenario(rng, m, n))
    arrival = pws.geometry.arrival_rad + rng.uniform(-1e-3, 1e-3, (m, n))
    return replace(pws, geometry=PairwiseGeometry(pws.geometry.vertical_m, arrival))


class TestParameterIndex:
    def test_size_and_blocks(self):
        idx = ParameterIndex(3)
        assert idx.size == 16
        assert idx.bearing == slice(0, 3)
        assert idx.range == slice(3, 6)
        assert idx.cov_entries == slice(6, 15)
        assert idx.noise == 15

    def test_bases_are_hermitian(self):
        for E in ParameterIndex(3).cov_entry_bases():
            assert np.allclose(E, E.conj().T)


class TestSteeringDerivatives:
    def test_aligned_pair_has_zero_bearing_sensitivity(self):
        # source bearing equal to a sensor azimuth zeroes that entry
        scn = Scenario(
            geometry=PolarGeometry(radii_m=[10.0, 20.0], azimuths_rad=[0.8, 2.0], ranges_m=[200.0], bearings_rad=[0.8]),
            velocity_mps=3e8,
            signals=(SourceSignal(1e6, 1 + 1j),),
            noise_variance=1.0,
            snapshots=1,
        )
        cols = linearize(scn).bearing_cols
        assert abs(cols[0, 0]) < 1e-25
        assert abs(cols[1, 0]) > 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            scn = random_scenario(rng)
            lin = linearize(scn)
            for cols, fd in zip((lin.bearing_cols, lin.range_cols), rx_derivatives_fd(scn)[0]):
                err = _max_rel(cols.T, fd.T)  # per source
                assert err < 1e-6


def test_max_rel_propagates_nan():
    # a nan error anywhere, not only first, fails every tolerance
    good, nan = np.eye(2), np.full((2, 2), np.nan)
    assert math.isnan(_max_rel([good, good], [good, nan]))


class TestRxDerivatives:
    def test_noise_derivative_is_identity(self):
        rng = np.random.default_rng(12)
        scn = random_scenario(rng, m=4, n=2)
        assert np.allclose(linearize(scn).derivs[-1], np.eye(4))

    def test_diagonal_entry_derivative_is_column_outer_product(self):
        rng = np.random.default_rng(13)
        scn = random_scenario(rng, m=4, n=2)
        lin = linearize(scn)
        A, derivs = lin.steering, lin.derivs
        idx = ParameterIndex(2)
        for n in range(2):
            expected = np.outer(A[:, n], A[:, n].conj())
            assert np.allclose(derivs[idx.cov_entries][n], expected, atol=1e-14)

    def test_all_hermitian(self):
        rng = np.random.default_rng(14)
        scn = random_scenario(rng)
        for D in linearize(scn).derivs:
            assert np.abs(D - D.conj().T).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            scn = random_scenario(rng)
            err = _max_rel(linearize(scn).derivs, rx_derivatives_fd(scn)[1])
            assert err < 1e-5

    def test_finite_differences_steer_the_unchanged_scenario_once(self, scenario_a, monkeypatch, capsys):
        shapes, real = [], fim_crb.steering_matrix

        def counted(delays, freqs):
            shapes.append(np.shape(delays))
            return real(delays, freqs)

        monkeypatch.setattr(fim_crb, "steering_matrix", counted)
        assert main(["validate", "--scenario", "scenario_a"]) == 0
        M, N = scenario_a.num_sensors, scenario_a.num_sources
        # the kernel pass, and one stacked pass of every stepped constellation and the unchanged one
        # that all finite differences read
        assert shapes == [(1, M, N), (4 * N + 1, M, N)]

    def test_pairwise_validate_converts_its_fit_to_polar_axes_once(self, monkeypatch, capsys):
        calls, real = [], geometry.axes_from_positions

        def counted(sensors_xy, sources_xy):
            calls.append(np.shape(sensors_xy))
            return real(sensors_xy, sources_xy)

        monkeypatch.setattr(geometry, "axes_from_positions", counted)
        assert main(["validate", "--scenario", "scenario_a"]) == 0
        # linearize, the stepped pass and the encoding test share one
        assert calls == [(4, 2)]


class TestFiniteDifferenceOracles:
    @settings(max_examples=60, deadline=None)
    @given(scn=polar_scenarios() | pairwise_scenarios())
    def test_equal_one_stepped_scenario_at_a_time(self, scn):
        # a pairwise table's reference steps its polar form, whose values its polar axes are
        polar, _ = polar_form(scn)
        cols, derivs = rx_derivatives_fd(scn)
        n = np.arange(scn.num_sources)
        for axis, fd in zip(("bearing", "range"), cols):
            reference = np.array(steering_fd_reference(polar, axis))
            assert np.array_equal(fd, reference[n, :, n].T)  # column n of source n's difference
            reference[n, :, n] = 0
            assert not reference.any()  # the other columns do not move
        assert np.array_equal(derivs, rx_fd_reference(polar))

    @settings(max_examples=60, deadline=None)
    @given(pws=pairwise_scenarios())
    def test_pairwise_input_equals_its_polar_form(self, pws):
        # the oracles step a pairwise table's polar axes, which are its polar form's values
        polar, _ = polar_form(pws)
        for pairwise, own in zip(rx_derivatives_fd(pws), rx_derivatives_fd(polar)):
            assert np.array_equal(pairwise, own)


class TestFimGeneric:
    def test_pure_noise_parameter(self):
        # R = nu I with only the noise parameter: F = snapshots * M / nu^2
        F = fim_generic(np.eye(4, dtype=complex), [np.eye(4, dtype=complex)], 1)
        assert F.entries.shape == (1, 1)
        assert F.entries[0, 0] == pytest.approx(4.0, rel=1e-12)
        F2 = fim_generic(2.0 * np.eye(3, dtype=complex), [np.eye(3, dtype=complex)], 5)
        assert F2.entries[0, 0] == pytest.approx(5 * 3 / 4.0, rel=1e-12)

    def test_linear_in_snapshots(self):
        rng = np.random.default_rng(16)
        lin = linearize(random_scenario(rng, m=4, n=2))
        F1 = fim_generic(lin.array_cov, lin.derivs, 3)
        F2 = fim_generic(lin.array_cov, lin.derivs, 6)
        assert np.array_equal(F2.entries, 2.0 * F1.entries)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            scn = random_scenario(rng)
            F = fim_for_scenario(scn).entries
            norm = np.abs(F).max()
            assert np.abs(F - F.T).max() < 1e-8 * norm
            w = np.linalg.eigvalsh(0.5 * (F + F.T))
            assert w.min() > -1e-8 * norm

    def test_singular_covariance_is_reported(self):
        R = np.diag([1.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(SingularCovarianceError, match="eigenvalue"):
            fim_generic(R, [np.eye(3, dtype=complex)], 1)


class TestFimBatch:
    def _check_stack(self, rng, scn, k=4):
        radii, azimuths = _layouts(rng, scn, k)
        F, _ = layout_fims(scn, radii, azimuths)
        size = ParameterIndex(scn.num_sources).size
        assert F.shape == (k, size, size)
        for i in range(k):
            ref = trace_loop_fim(_with_layout(scn, radii[i], azimuths[i]))
            assert np.abs(F[i] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_matches_trace_loop_on_bundled(self, fixture, request):
        polar, _ = polar_form(request.getfixturevalue(fixture))
        self._check_stack(np.random.default_rng(51), polar)

    def test_matches_trace_loop_on_random_scenarios(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            self._check_stack(rng, random_scenario(rng))

    def test_single_layout_equals_fim_for_scenario(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            scn = random_scenario(rng)
            F, cond = layout_fims(scn, *_own_layout(scn))
            fim = fim_for_scenario(scn)
            assert np.array_equal(F[0], fim.entries)
            assert cond[0] == fim.array_cov_condition

    def test_chunk_bound(self):
        # a batch holds as many (P, P) information matrices as fit the budget, at least one
        for n in range(1, 12):
            k = batch_chunk(n)
            per_layout = ((n + 1) ** 2) ** 2
            assert k >= 1
            assert k * per_layout <= DR_CHUNK_VALUES or k == 1
            assert (k + 1) * per_layout > DR_CHUNK_VALUES

    def test_failing_layout_fails_the_call(self):
        scn = Scenario(
            geometry=PolarGeometry(radii_m=[10.0, 20.0], azimuths_rad=[0.0, 1.0], ranges_m=[100.0], bearings_rad=[0.0]),
            velocity_mps=3e8,
            signals=(SourceSignal(1e6, 1 + 1j),),
            noise_variance=1.0,
            snapshots=1,
        )
        radii = np.array([[10.0, 20.0], [100.0, 20.0]])
        azimuths = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(SingularGeometryError, match="sensor 1 coincides with source 1"):
            layout_fims(scn, radii, azimuths)


class TestKernelProperties:
    """Invariants of the batched information matrix over random scenarios."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        F, _ = layout_fims(scn, *_layouts(rng, scn, 3))
        assert np.array_equal(F, F.swapaxes(1, 2))
        for Fk in F:
            assert np.linalg.eigvalsh(Fk).min() >= -1e-9 * np.abs(Fk).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), snapshots=st.integers(1, 64))
    def test_linear_in_snapshots(self, seed, snapshots):
        rng = np.random.default_rng(seed)
        scn = replace(random_scenario(rng), snapshots=1)
        layouts = _layouts(rng, scn, 3)
        F1, _ = layout_fims(scn, *layouts)
        Fk, _ = layout_fims(replace(scn, snapshots=snapshots), *layouts)
        assert np.array_equal(Fk, snapshots * F1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-2 * np.pi, 2 * np.pi))
    def test_rotation_invariant(self, seed, angle):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        g = scn.geometry
        turned = with_polar(scn, azimuths_rad=g.azimuths_rad + angle, bearings_rad=g.bearings_rad + angle)
        F = layout_fims(scn, *_own_layout(scn))[0][0]
        G = layout_fims(turned, *_own_layout(turned))[0][0]
        assert np.abs(F - G).max() <= 1e-9 * np.abs(F).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_independent_of_chunk_size(self, seed, k):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        radii, azimuths = _layouts(rng, scn, k)
        F, cond = layout_fims(scn, radii, azimuths)
        singles = [layout_fims(scn, radii[i : i + 1], azimuths[i : i + 1]) for i in range(k)]
        assert np.array_equal(F, np.concatenate([f for f, _ in singles]))
        assert np.array_equal(cond, np.concatenate([c for _, c in singles]))


def rank_one_fims(scn, radii, azimuths, cond=False):
    """``fim_rank_one`` of (K, M) sensor layouts around the scenario's own sources: its (K, P, P)
    matrices, and with ``cond`` its (K,) condition numbers too."""
    sources = scn.geometry.ranges_m, scn.geometry.bearings_rad, frequency_vector(scn.signals), scn.velocity_mps
    columns = fim_crb._steering_columns(np.asarray(radii, float), np.asarray(azimuths, float), *sources)
    F, conds = fim_crb.fim_rank_one(scn, *columns)
    return (F, conds) if cond else F


class TestRankOneKernel:
    """The bound searches' kernel against the trace form, which stays the oracle."""

    # the (M, N) strata of the benchmark's search_bound and sweep workloads
    @pytest.mark.parametrize("m, n", [(3, 1), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (5, 3), (6, 3), (7, 3),
                                      (5, 4), (6, 4), (7, 4), (8, 5)])
    def test_chunk_transient_memory(self, m, n):
        # the traced peak of one kernel call on batch_chunk(N) layouts and of its bounds, in units of its (K, P, P)
        # stack: 6.14 is reached at N = 1, whose (K, M, 4) Z and (K, 4, 4) Gram matrix outweigh its P^2 = 16
        # values a layout, and at most 4.46 at N >= 2; each ceiling leaves about 6 % over that
        rng = np.random.default_rng(10 * m + n)
        scn = random_upper_half_scenario(rng, m, n)
        sources = scn.geometry.ranges_m, scn.geometry.bearings_rad, frequency_vector(scn.signals), scn.velocity_mps
        columns = fim_crb._steering_columns(*_layouts(rng, scn, batch_chunk(n)), *sources)
        fim_crb.fim_rank_one(scn, *columns)  # caches the basis table
        tracemalloc.start()
        try:
            F, _ = fim_crb.fim_rank_one(scn, *columns)
            crb_bounds(F, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.shape[0] == batch_chunk(n) and peak <= (6.5 if n == 1 else 4.75) * F.nbytes

    @settings(max_examples=40, deadline=None)
    @given(scn=polar_scenarios(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_trace_loop(self, scn, seed):
        radii, azimuths = _layouts(np.random.default_rng(seed), scn, 3)
        F = rank_one_fims(scn, radii, azimuths)
        for i in range(3):
            ref = trace_loop_fim(_with_layout(scn, radii[i], azimuths[i]))
            assert np.abs(F[i] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_equals_the_trace_loop_on_bundled(self, fixture, request):
        polar, _ = polar_form(request.getfixturevalue(fixture))
        F = rank_one_fims(polar, *_own_layout(polar))[0]
        ref = trace_loop_fim(polar)
        assert np.abs(F - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        F = rank_one_fims(scn, *_layouts(rng, scn, 3))
        assert np.array_equal(F, F.swapaxes(1, 2))
        for Fk in F:
            assert np.linalg.eigvalsh(Fk).min() >= -1e-9 * np.abs(Fk).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), chunk=st.integers(1, 12))
    def test_independent_of_chunk_size(self, seed, k, chunk):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        radii, azimuths = _layouts(rng, scn, k)
        parts = [rank_one_fims(scn, radii[lo : lo + chunk], azimuths[lo : lo + chunk], cond=True)
                 for lo in range(0, k, chunk)]
        F, cond = rank_one_fims(scn, radii, azimuths, cond=True)
        assert np.array_equal(F, np.concatenate([f for f, _ in parts]))
        assert np.array_equal(cond, np.concatenate([c for _, c in parts]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), snapshots=st.integers(1, 64))
    def test_linear_in_snapshots(self, seed, snapshots):
        rng = np.random.default_rng(seed)
        scn = replace(random_scenario(rng), snapshots=1)
        layouts = _layouts(rng, scn, 3)
        F1 = rank_one_fims(scn, *layouts)
        assert np.array_equal(rank_one_fims(replace(scn, snapshots=snapshots), *layouts), snapshots * F1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fault=st.sampled_from(["nan radius", "inf radius", "sensor on a source", "tiny noise"]),
    )
    def test_rejects_what_the_trace_form_rejects(self, seed, fault):
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng)
        radii, azimuths = _layouts(rng, scn, 4)
        k, m = int(rng.integers(4)), int(rng.integers(scn.num_sensors))
        if fault == "tiny noise":
            scn = replace(scn, noise_variance=float(rng.choice([1e-17, 1e-30])))
        elif fault == "sensor on a source":
            n = int(rng.integers(scn.num_sources))
            radii[k, m], azimuths[k, m] = scn.geometry.ranges_m[n], scn.geometry.bearings_rad[n]
        else:
            radii[k, m] = math.nan if fault == "nan radius" else math.inf
        with np.errstate(all="ignore"):
            got, trace = (kept(run, scn, radii, azimuths) for run in (rank_one_fims, layout_fims))
        assert isinstance(trace, ValidationError) and type(got) is type(trace)
        if fault == "tiny noise":
            # the trace form names its eigvalsh's smallest eigenvalue, a rounding error; this kernel eta
            assert type(got) is SingularCovarianceError
            assert str(got) == f"array covariance is numerically singular; smallest eigenvalue {scn.noise_variance:.6e}"
            assert str(trace).startswith("array covariance is numerically singular; smallest eigenvalue ")
        else:
            assert str(got) == str(trace)

    def test_search_chunk_bound(self):
        # a bound search scores as many layouts per call as keep its (K, P, P) stacks within the budget
        for n in range(1, 8):
            scn = random_upper_half_scenario(np.random.default_rng(n), n + 3, n)
            sensors_xy, sources_xy, _ = scenario_positions(scn)
            _, k = reposition._chunk_scorer("crb_theta", 0, sensors_xy, sources_xy, scn)
            per_layout = ParameterIndex(n).size ** 2
            assert k >= 1
            assert k * per_layout <= DR_CHUNK_VALUES or k == 1
            assert (k + 1) * per_layout > DR_CHUNK_VALUES


class TestFimClosedForm:
    def test_noise_noise_entry(self):
        rng = np.random.default_rng(22)
        scn = random_scenario(rng, m=4, n=2)
        lin = linearize(scn)
        generic = fim_generic(lin.array_cov, lin.derivs, scn.snapshots)
        F, _ = fim_closed_form(lin, generic)
        Rinv = np.linalg.inv(lin.array_cov)
        expected = scn.snapshots * np.real(np.trace(Rinv @ Rinv))
        assert F.entries[-1, -1] == pytest.approx(expected, rel=1e-12)

    def test_bearing_noise_block_zero_for_aligned_geometry(self):
        # all sensors on the reference ray and the source on it too: every
        # bearing sensitivity vanishes, so the bearing/noise coupling is zero
        scn = Scenario(
            geometry=PolarGeometry(radii_m=[5.0, 15.0, 30.0], azimuths_rad=[0.0, 0.0, 0.0], ranges_m=[300.0],
                                   bearings_rad=[0.0]),
            velocity_mps=3e8,
            signals=(SourceSignal(1e6, 2 + 1j),),
            noise_variance=1.0,
            snapshots=1,
        )
        lin = linearize(scn)
        F, _ = fim_closed_form(lin, fim_generic(lin.array_cov, lin.derivs, 1))
        idx = ParameterIndex(1)
        assert np.allclose(F.entries[idx.bearing, idx.noise], 0.0, atol=1e-20)

    def test_agrees_with_generic_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        # N = 4 and 5 order 6 and 10 upper pairs through the basis table
        sizes = [(None, 2)] * 5 + [(m, n) for n in (4, 5) for m in range(n + 1, 9)]
        for m, n in sizes:
            scn = random_scenario(rng, m, n)
            lin = linearize(scn)
            F, dev = fim_closed_form(lin, fim_generic(lin.array_cov, lin.derivs, scn.snapshots))
            for block in ("bearing-bearing", "bearing-range", "range-range", "noise-noise"):
                assert dev[block] < 1e-8
            # entry-parameter blocks reconcile too; pinned well below the gate
            for block, value in dev.items():
                assert value < 1e-9, f"{block} deviated by {value}"

    def test_reused_inverse_equals_its_own_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for m, n in [(None, 2)] * 5 + [(6, 4), (7, 5)]:
            scn = random_scenario(rng, m, n)
            lin = linearize(scn)
            generic = fim_generic(lin.array_cov, lin.derivs, scn.snapshots)
            F, dev = fim_closed_form(lin, generic)
            own_F, own_dev = fim_closed_form(lin, replace(generic, factored=None))
            assert F.entries.tobytes() == own_F.entries.tobytes() and dev == own_dev

    def test_singular_covariance_is_reported(self):
        lin = linearize(random_scenario(np.random.default_rng(24), m=4, n=2))
        singular = replace(lin, array_cov=np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))
        with pytest.raises(SingularCovarianceError, match="smallest eigenvalue 0.000000e"):
            fim_closed_form(singular, fim_generic(lin.array_cov, lin.derivs, 1))

    def test_scenario_a_deviations_pinned(self, scenario_a):
        polar, _ = polar_form(scenario_a)
        lin = linearize(polar)
        _, dev = fim_closed_form(lin, fim_generic(lin.array_cov, lin.derivs, 1))
        assert max(dev.values()) < 1e-9


class TestCrbFromFim:
    """Bounds from the pseudo-inverse of an information matrix: ``crb_bounds`` of a one-matrix stack,
    as a report holds them."""

    def test_two_parameter_diagonal(self):
        report = crb_report(np.diag([4.0, 8.0])[None], 1)
        assert report.crb_theta[0] == pytest.approx(0.25, rel=1e-12)
        assert report.crb_r[0] == pytest.approx(0.125, rel=1e-12)
        assert not report.rank_deficient

    def test_rank_deficiency_flagged_not_raised(self):
        report = crb_report(np.diag([4.0, 0.0, 1.0, 1.0])[None], 1)
        assert report.rank_deficient
        assert report.rank == 3
        assert report.crb_theta[0] == pytest.approx(0.25, rel=1e-12)

    def test_scenario_a_headline_pinned(self, scenario_a):
        # coherent (rank-one) sources leave the information matrix rank
        # deficient; the pseudo-inverse totals are pinned as regression values
        polar, _ = polar_form(scenario_a)
        report = crb_report(fim_for_scenario(polar).entries[None], 3)
        assert report.rank_deficient
        assert report.rank == 12 and report.size == 16
        assert report.crb_theta_total == pytest.approx(1372.1902563655324, rel=1e-6)
        assert report.crb_r_total == pytest.approx(11864.617489266817, rel=1e-6)

    def test_cutoff_is_strict_like_pinv(self):
        # a singular value exactly at 1e-12 of the largest is dropped, as in pinv
        at = crb_report(np.diag([1.0, 1e-12])[None], 1)
        assert at.rank == 1 and at.rank_deficient
        assert at.crb_r[0] == 0.0
        above = crb_report(np.diag([1.0, 1.5e-12])[None], 1)
        assert above.rank == 2 and not above.rank_deficient
        assert above.condition_number == pytest.approx(1 / 1.5e-12, rel=1e-12)

    def test_matches_pinv_and_singular_values(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            scn = random_scenario(rng)
            fim = fim_for_scenario(scn)
            report = crb_report(fim.entries[None], scn.num_sources)
            sv = np.linalg.svd(fim.entries, compute_uv=False)
            assert report.rank == int(np.sum(sv > 1e-12 * sv[0]))
            theta, r = pinv_totals(fim.entries, scn.num_sources)
            assert report.crb_theta_total == pytest.approx(theta, rel=1e-9)
            assert report.crb_r_total == pytest.approx(r, rel=1e-9)

    def test_batched_totals_equal_single_reports(self):
        rng = np.random.default_rng(55)
        scn = random_scenario(rng, m=5, n=3)
        radii, azimuths = _layouts(rng, scn, 6)
        F, _ = layout_fims(scn, radii, azimuths)
        theta, r = crb_bounds(F, 3)[2:4]
        for k in range(6):
            report = crb_report(F[k : k + 1], 3)
            assert theta[k] == report.crb_theta_total
            assert r[k] == report.crb_r_total

    def test_empty_matrix(self):
        report = crb_report(fim_generic(np.eye(3, dtype=complex), [], 1).entries[None], 0)
        assert report.size == 0 and report.rank == 0 and not report.rank_deficient
        assert report.crb_theta_total == 0.0 and report.condition_number == np.inf

    def test_snapshot_scaling_halves_bounds(self):
        rng = np.random.default_rng(29)
        lin = linearize(random_scenario(rng, m=5, n=2))
        r1, r2 = (crb_report(fim_generic(lin.array_cov, lin.derivs, k).entries[None], 2) for k in (2, 4))
        assert np.allclose(r2.crb_theta, 0.5 * r1.crb_theta, rtol=1e-12)
        assert np.allclose(r2.crb_r, 0.5 * r1.crb_r, rtol=1e-12)
