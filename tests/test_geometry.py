import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import DegenerateGeometryError, SingularGeometryError, ValidationError, geometry
from nfcrb.signal_model import SourceSignal
from nfcrb.geometry import TWO_PI, PairwiseGeometry, PolarGeometry, Scenario, distances, refit_positions
from conftest import pairwise_of, polar_form, random_upper_half_scenario

C = 3e8


def polar_delay(sensor: tuple, source: tuple, velocity_mps: float = C) -> float:
    """Delay of one sensor (radius, azimuth) and source (range, bearing) pair; a second sensor at
    the origin makes the scenario valid."""
    geometry = PolarGeometry([sensor[0], 0.0], [sensor[1], 0.0], [source[0]], [source[1]])
    scn = Scenario(geometry, velocity_mps, (SourceSignal(1e5, 1),), 1.0, 1)
    return scn.geometry.delay_geometry()(scn.velocity_mps)[0, 0]


def pairwise_delay(vertical_m: float, arrival_rad: float, velocity_mps: float = C) -> float:
    """Delay of one pairwise table entry, duplicated into a two-sensor table."""
    geometry = PairwiseGeometry(np.full((2, 1), vertical_m), np.full((2, 1), arrival_rad))
    pws = Scenario(geometry, velocity_mps, (SourceSignal(1e5, 1),), 1.0, 1)
    return pws.geometry.delay_geometry()(pws.velocity_mps)[0, 0]


class TestDelay:
    def test_sensor_at_origin(self):
        # tau = r / c when the sensor sits at the origin
        t = polar_delay((0.0, 0.0), (300.0, 1.2))
        assert t == pytest.approx(1e-6, rel=1e-12)

    def test_collinear(self):
        # same bearing and azimuth: tau = (r - rho) / c
        t = polar_delay((40.0, 0.7), (100.0, 0.7))
        assert t == pytest.approx(2e-7, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            polar_delay((1.0, 0.0), (10.0, 0.0), 0.0)
        with pytest.raises(ValidationError):
            polar_delay((1.0, 0.0), (-5.0, 0.0))

    def test_triangle_inequality_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rho = rng.uniform(0.0, 200.0)
            r = rng.uniform(1e-3, 500.0)
            sensor = rho, rng.uniform(0, 2 * np.pi)
            source = r, rng.uniform(0, 2 * np.pi)
            t = polar_delay(sensor, source)
            assert abs(r - rho) / C - 1e-18 <= t <= (r + rho) / C + 1e-18

    def test_full_matrix_cross_evaluation_scenario_a(self, scenario_a):
        # reconstruct positions, then the polar-form delays must equal the
        # delays recomputed from the round-tripped pairwise form
        polar, _ = polar_form(scenario_a)
        tau_polar = polar.geometry.delay_geometry()(polar.velocity_mps)
        tau_pw = polar.geometry.pairwise().delay_geometry()(polar.velocity_mps)
        assert np.max(np.abs(tau_pw - tau_polar) / tau_polar) < 1e-12


class TestDistances:
    def test_batched_shape_and_values(self):
        sensors = np.array([[[0.0, 0.0], [3.0, 0.0]], [[0.0, 4.0], [6.0, 8.0]]])
        sources = np.array([[0.0, 4.0 + 1e-9], [3.0, 4.0]])
        d = distances(sensors, sources)
        assert d.shape == (2, 2, 2)
        assert d[0].ravel().tolist() == pytest.approx([4.0, 5.0, 5.0, 4.0], rel=1e-9)
        assert d[1, 1].tolist() == pytest.approx([np.hypot(6.0, 4.0), 5.0], rel=1e-9)

    def test_coincidence_names_sensor_and_source(self):
        sensors = np.array([[0.0, 0.0], [1.0, 1.0], [7.0, 2.0]])
        sources = np.array([[5.0, 5.0], [7.0, 2.0]])
        with pytest.raises(SingularGeometryError, match="^sensor 3 coincides with source 2$"):
            distances(sensors, sources)
        with pytest.raises(SingularGeometryError, match="^sensor 3 coincides with source 2$"):
            distances(np.stack([sensors + 1.0, sensors]), sources)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 5), nan_row=st.booleans(),
           batches=st.sampled_from([((), ()), ((1,), ()), ((5,), ()), ((2, 3), ()), ((), (4,)), ((4,), (4,))]),
           coincide=st.booleans())
    def test_equals_numpy_norm_bit_for_bit(self, seed, m, n, nan_row, batches, coincide):
        # coordinates of either sign from 1e-150 to 1e150, batch axes on either side, the scorers' NaN moved
        # row, and a coincidence whose error names the first zero in the same order
        rng = np.random.default_rng(seed)

        def points(shape):
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)

        sensors, sources = points((*batches[0], m, 2)), points((*batches[1], n, 2))
        if nan_row:
            sensors[..., rng.integers(m), :] = np.nan
        if coincide:
            sources[..., rng.integers(n), :] = sensors.reshape(-1, m, 2)[-1, rng.integers(m)]
        norm = np.linalg.norm(sources[..., None, :, :] - sensors[..., :, None, :], axis=-1)
        if not norm.all():
            *_, k, j = np.argwhere(norm == 0)[0]
            with pytest.raises(SingularGeometryError, match=f"^sensor {k + 1} coincides with source {j + 1}$"):
                distances(sensors, sources)
        else:
            d = distances(sensors, sources)
            assert d.shape == norm.shape and np.array_equal(d, norm, equal_nan=True)
            assert [v.hex() for v in d.ravel().tolist()] == [v.hex() for v in norm.ravel().tolist()]


class TestDelayFromPairwise:
    def test_table_entry(self):
        # direct arithmetic oracle on the bundled element-3/source-1 pair
        expected = 62.0 / (C * math.sin(math.radians(66.0)))
        got = pairwise_delay(62.0, math.radians(66.0))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(2.2622483089124965e-07, rel=1e-12)

    def test_right_angle(self):
        assert pairwise_delay(C, math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_half_sine(self):
        assert pairwise_delay(1.0, math.pi / 6, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_singular_angles(self):
        # an arrival angle at 0 or pi has no line-of-sight delay; the table
        # rejects it before any delay is formed
        for bad in (0.0, math.pi):
            with pytest.raises(ValidationError, match=r"strictly inside \(0, pi\)"):
                pairwise_delay(1.0, bad)

    def test_matches_polar_delay_for_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scn = random_upper_half_scenario(rng)
            tau_pw = scn.geometry.pairwise().delay_geometry()(scn.velocity_mps)
            tau = scn.geometry.delay_geometry()(scn.velocity_mps)
            assert np.max(np.abs(tau_pw - tau) / tau) < 1e-12


class TestPairwiseFromPolar:
    def _one_sensor_scn(self, src_xy):
        # second sensor far below so every vertical offset stays positive
        return Scenario(
            geometry=PolarGeometry(radii_m=[0.0, 1000.0], azimuths_rad=[0.0, -np.pi / 2], ranges_m=[np.hypot(*src_xy)],
                                   bearings_rad=[np.arctan2(src_xy[1], src_xy[0])]),
            velocity_mps=C,
            signals=(SourceSignal(1e5, 1 + 1j),),
            noise_variance=1.0,
            snapshots=1,
        )

    def test_source_straight_up(self):
        pw = pairwise_of(self._one_sensor_scn((0.0, 50.0))).geometry
        assert pw.vertical_m[0, 0] == pytest.approx(50.0)
        assert pw.arrival_rad[0, 0] == pytest.approx(math.pi / 2)

    def test_source_diagonal(self):
        pw = pairwise_of(self._one_sensor_scn((50.0, 50.0))).geometry
        assert pw.vertical_m[0, 0] == pytest.approx(50.0)
        assert pw.arrival_rad[0, 0] == pytest.approx(math.pi / 4)

    def test_collinear_source_rejected(self):
        scn = Scenario(  # the source on the x-axis through sensor 1
            geometry=PolarGeometry(radii_m=[0.0, 5.0], azimuths_rad=[0.0, np.pi / 2], ranges_m=[50.0], bearings_rad=[0.0]),
            velocity_mps=C,
            signals=(SourceSignal(1e5, 1 + 0j),),
            noise_variance=1.0,
            snapshots=1,
        )
        with pytest.raises(SingularGeometryError):
            pairwise_of(scn)

    def test_round_trip_positions_up_to_translation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scn = random_upper_half_scenario(rng)
            pws = pairwise_of(scn)
            rec, residual = polar_form(pws)
            assert residual < 1e-9
            orig_sens, orig_srcs, _ = scn.geometry.positions
            rec_sens, rec_srcs, _ = rec.geometry.positions
            shift = orig_sens[0] - rec_sens[0]
            assert np.allclose(rec_sens + shift, orig_sens, atol=1e-8)
            assert np.allclose(rec_srcs + shift, orig_srcs, atol=1e-8)


class TestReconstruct:
    def test_round_trip_delays(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            scn = random_upper_half_scenario(rng)
            rec, residual = polar_form(pairwise_of(scn))
            assert residual < 1e-9
            tau0 = scn.geometry.delay_geometry()(scn.velocity_mps)
            tau1 = rec.geometry.delay_geometry()(rec.velocity_mps)
            assert np.max(np.abs(tau1 - tau0) / tau0) < 1e-10

    def test_residual_translation_invariant(self):
        rng = np.random.default_rng(34)
        scn = random_upper_half_scenario(rng, m=4, n=2)
        pw = pairwise_of(scn).geometry
        _, _, res0 = pw.positions
        # shifting the generating frame leaves H and the arrival angles alone,
        # so the residual cannot change; check via a rebuilt shifted scenario
        sens, srcs, _ = scn.geometry.positions
        radii, angles = zip(*[(np.hypot(x + 30, y + 40), np.arctan2(y + 40, x + 30)) for x, y in (*sens, *srcs)])
        M = len(sens)
        shifted = replace(scn, geometry=PolarGeometry(radii[:M], angles[:M], radii[M:], angles[M:]))
        _, _, res1 = pairwise_of(shifted).geometry.positions
        assert res1 == pytest.approx(res0, abs=1e-9)

    def test_single_sensor_exact(self):
        pw = PairwiseGeometry(
            np.array([[50.0, 80.0]]), np.array([[math.pi / 3, math.pi / 4]])
        )
        sens, srcs, residual = pw.positions
        assert residual == 0.0
        assert np.allclose(sens, [[0.0, 0.0]])
        assert np.allclose(srcs[:, 1], [50.0, 80.0])

    def test_scenario_a_residual_pinned(self, scenario_a):
        # the bundled tables are integers, hence mutually inconsistent; the
        # least-squares misfit is stable and pinned as a regression value
        _, _, residual = scenario_a.geometry.positions
        assert residual == pytest.approx(0.5116517825356056, rel=1e-9)

    def test_scenario_b_residual_pinned(self, scenario_b):
        _, _, residual = scenario_b.geometry.positions
        assert residual == pytest.approx(0.3400631190147472, rel=1e-9)

    def test_pairwise_table_is_fitted_once(self):
        pws = pairwise_of(random_upper_half_scenario(np.random.default_rng(35)))
        with mock.patch.object(geometry, "refit_positions", wraps=refit_positions) as fit:
            _, residual = polar_form(pws)
            sens, srcs, residual_again = pws.geometry.positions
            polar_form(replace(pws, velocity_mps=2e8))  # same table, other speed
            assert fit.call_count == 1
        (ref_sens,), (ref_srcs,), (ref_residual,) = refit_positions(pws.geometry, pws.geometry.arrival_rad[None])
        assert np.array_equal(sens, ref_sens) and np.array_equal(srcs, ref_srcs)
        assert residual == residual_again == ref_residual
        assert not sens.flags.writeable and not srcs.flags.writeable
        # the table itself is read-only too, so the cached fit cannot go stale
        assert not pws.geometry.vertical_m.flags.writeable and not pws.geometry.arrival_rad.flags.writeable
        with pytest.raises(ValueError):
            sens[0, 0] = 1.0
        # the public fit stays uncached and returns fresh, writable arrays
        assert ref_sens.flags.writeable
        assert refit_positions(pws.geometry, pws.geometry.arrival_rad[None])[0][0] is not ref_sens

    def test_polar_form_rebuilds_scenario(self, scenario_a):
        rec, residual = polar_form(scenario_a)
        assert rec.num_sensors == 4 and rec.num_sources == 3
        assert residual > 0
        assert rec.geometry.radii_m[0] == 0.0


def _same_fit(got, want) -> bool:
    """Bit-for-bit equality of two (sensors_xy, sources_xy, residual) fits."""
    arrays = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got[:2], want[:2]))
    return arrays and got[2].hex() == want[2].hex()


class TestRefit:
    """A move along the reference axis keeps every vertical distance, so refitting x alone, a stack
    of tables in one call, must give each rewritten table's own fit (its ``positions``) bit for bit."""

    angle = st.floats(1e-6, math.pi - 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 7), n=st.integers(1, 5), fitted_first=st.booleans())
    def test_refit_equals_the_rewritten_table_fit(self, data, m, n, fitted_first):
        H = np.array(data.draw(st.lists(st.floats(1e-3, 1e4), min_size=m * n, max_size=m * n))).reshape(m, n)
        arrival = np.array(data.draw(st.lists(self.angle, min_size=m * n, max_size=m * n))).reshape(m, n)
        table = PairwiseGeometry(H, arrival)
        if fitted_first:
            assert _same_fit(table.positions, PairwiseGeometry(H, arrival).positions)
        rewritten = np.repeat(arrival[None], m, axis=0)
        for element in range(m):
            rewritten[element, element] = data.draw(st.lists(self.angle, min_size=n, max_size=n))
        sensors, sources, residuals = refit_positions(table, rewritten)
        for k in range(m):
            assert _same_fit((sensors[k], sources[k], residuals[k]), PairwiseGeometry(H, rewritten[k]).positions)

    def test_refit_rejects_an_angle_at_zero(self, scenario_b):
        arrival = scenario_b.geometry.arrival_rad.copy()
        arrival[1, 0] = 0.0
        with pytest.raises(SingularGeometryError, match="arrival angles at 0 or pi cannot place a source"):
            refit_positions(scenario_b.geometry, arrival[None])


class TestSolve:
    """``_solve`` stacks single-right-hand-side solves in one call: each row must equal
    ``np.linalg.lstsq`` of its right-hand side alone, bit for bit."""

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 9) for n in range(1, 6)])  # _incidence takes each
    def test_stacked_rows_equal_per_table_lstsq(self, m, n):
        rows = geometry._incidence(m, n)
        for k in (0, 1, 2, 37):
            b = np.random.default_rng([m, n, k]).standard_normal((k, m * n)) * np.logspace(-3, 6, k)[:, None]
            solutions, squares = geometry._solve(rows, b)
            assert solutions.shape == (k, m - 1 + n) and squares.shape == (k, m * n)
            for x, r, rhs in zip(solutions, squares, b):
                want = np.linalg.lstsq(rows, rhs, rcond=None)[0]
                assert x.tobytes() == want.tobytes()
                assert r.tobytes() == ((rows @ want - rhs) ** 2).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_nan_or_inf_right_hand_side_reads_nan_alone(self, bad):
        rows, b = geometry._incidence(4, 3), np.random.default_rng(7).standard_normal((3, 12))
        clean = geometry._solve(rows, b)
        b[1, 5] = bad
        with np.errstate(all="raise"):  # as np.linalg.lstsq, the solve sets its own errstate
            solutions, squares = geometry._solve(rows, b)
        assert np.isnan(squares[1]).all()
        assert np.isnan(solutions[1]).all() and np.isnan(np.linalg.lstsq(rows, b[1], rcond=None)[0]).all()
        for got, kept in zip((solutions, squares), clean):
            assert got[[0, 2]].tobytes() == kept[[0, 2]].tobytes()

    def test_a_solve_that_fails_raises_inside_an_ignoring_errstate(self, monkeypatch):
        # LAPACK's non-convergence reaches numpy as the invalid flag; a sweep ignores every flag
        failing = SimpleNamespace(lstsq=lambda *_, **__: (np.subtract(np.inf, np.inf),))
        monkeypatch.setattr(geometry, "_umath_linalg", failing)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            geometry._solve(geometry._incidence(2, 1), np.ones((3, 2)))


class TestPolarAxes:
    """An encoding's ``axes`` must give what the Scenario of ``polar_form`` holds, bit for bit."""

    @staticmethod
    def _scenario_axes(polar):
        g = polar.geometry
        return g.radii_m, g.azimuths_rad, g.ranges_m, g.bearings_rad

    def test_pairwise_tables_match_polar_form(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            pws = pairwise_of(random_upper_half_scenario(rng, m=int(rng.integers(3, 9))))
            axes, residual = pws.geometry.axes, pws.geometry.residual
            polar, polar_residual = polar_form(pws)
            assert residual == polar_residual
            for got, want in zip(axes, self._scenario_axes(polar)):
                assert got.tobytes() == want.tobytes()

    def test_sensors_on_the_reference_axis(self):
        # a linear array along x: fitted y coordinates are rounding noise of either
        # sign, so an azimuth just below zero maps to 2 pi once, as PolarGeometry does
        xs = np.array([0.0, 3.0, 7.5, 12.0, 20.0])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            src = np.column_stack([rng.uniform(-80, 80, 2), rng.uniform(50, 300, 2)])
            vertical = src[None, :, 1] - np.zeros((len(xs), 1))
            arrival = np.arctan2(vertical, src[None, :, 0] - xs[:, None])
            pws = Scenario(PairwiseGeometry(vertical, arrival), C, (SourceSignal(1e6, 1), SourceSignal(2e6, 1j)), 1.0, 1)
            for got, want in zip(pws.geometry.axes, self._scenario_axes(polar_form(pws)[0])):
                assert got.tobytes() == want.tobytes()

    def test_polar_input_is_its_own_polar_form(self, scenario_a):
        polar = polar_form(scenario_a)[0]
        axes, residual = polar.geometry.axes, polar.geometry.residual
        assert residual is None
        for got, want in zip(axes, self._scenario_axes(polar)):
            assert got.tobytes() == want.tobytes()

    def test_source_at_the_origin_is_rejected_alike(self):
        pws = pairwise_of(random_upper_half_scenario(np.random.default_rng(4), 4, 2))
        sensors_xy, sources_xy, residual = pws.geometry.positions
        moved = sources_xy.copy()
        moved[1] = 0.0
        pws.geometry.__dict__["positions"] = (sensors_xy, moved, residual)  # the cached fit
        with pytest.raises(DegenerateGeometryError, match="a source coincides with the frame origin"):
            pws.geometry.axes
        with pytest.raises(DegenerateGeometryError, match="a source coincides with the frame origin"):
            polar_form(pws)

    def test_delay_geometry_finishes_as_native_delays(self, scenario_a, scenario_b):
        for scn in (scenario_a, scenario_b, polar_form(scenario_a)[0]):
            for c in (1e8, 3e8, 123456789.0):
                if isinstance(scn.geometry, PolarGeometry):
                    want = distances(*scn.geometry.positions[:2]) / c
                else:
                    want = scn.geometry.vertical_m / (c * np.sin(scn.geometry.arrival_rad))
                assert scn.geometry.delay_geometry()(c).tobytes() == want.tobytes()


class TestScenarioValidation:
    def test_too_many_sources(self):
        with pytest.raises(ValidationError):
            Scenario(
                geometry=PolarGeometry(radii_m=[1, 2], azimuths_rad=[0, 0], ranges_m=[100, 120], bearings_rad=[0.1, 0.2]),
                velocity_mps=C,
                signals=(SourceSignal(1e5, 1), SourceSignal(1e5, 1)),
                noise_variance=1.0,
                snapshots=1,
            )

    def test_both_encodings_need_a_source(self):
        with pytest.raises(ValidationError, match="scenario needs at least one source"):
            Scenario(PolarGeometry([1, 2], [0, 0], [], []), C, (), 1.0, 1)
        with pytest.raises(ValidationError, match="scenario needs at least one source"):
            Scenario(PairwiseGeometry(np.ones((2, 0)), np.ones((2, 0))), C, (), 1.0, 1)

    def test_pairwise_type_rejects_bad_angles(self):
        with pytest.raises(ValidationError):
            PairwiseGeometry(np.ones((2, 1)), np.array([[0.0], [1.0]]))
        with pytest.raises(ValidationError):
            PairwiseGeometry(np.array([[1.0], [-1.0]]), np.full((2, 1), 1.0))

    def test_rank_deficiency_guard_exists(self):
        # the pinned-sensor bipartite system is always full rank for valid
        # shapes, so the guard is only reachable through malformed internals;
        # here we just confirm valid input does not trip it
        pw = PairwiseGeometry(np.full((2, 1), 50.0), np.full((2, 1), math.pi / 2))
        sens, srcs, residual = pw.positions
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert isinstance(DegenerateGeometryError(), ValidationError)


class TestPolarGeometry:
    angles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, TWO_PI, -TWO_PI, math.pi, 1e300, -1e300]
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 5))
    def test_stores_each_angle_reduced_as_a_python_float(self, data, m, n):
        azimuths = data.draw(st.lists(self.angles, min_size=m, max_size=m))
        bearings = data.draw(st.lists(self.angles, min_size=n, max_size=n))
        g = PolarGeometry([1.0] * m, azimuths, [100.0] * n, bearings)
        for stored, given_angles in ((g.azimuths_rad, azimuths), (g.bearings_rad, bearings)):
            assert [v.hex() for v in stored.tolist()] == [(float(x) % TWO_PI).hex() for x in given_angles]
        assert all(a.dtype == float and not a.flags.writeable for a in g.axes)
        with pytest.raises(ValueError):
            g.bearings_rad[0] = 0.0

    def test_copies_its_inputs(self):
        radii = np.array([0.0, 5.0])
        g = PolarGeometry(radii, [0.0, 1.0], [50.0], [0.5])
        radii[1] = 7.0
        assert g.radii_m.tolist() == [0.0, 5.0] and radii.flags.writeable

    def test_rejects_bad_radii_ranges_and_shapes(self):
        with pytest.raises(ValidationError, match="sensor radius must be nonnegative, got -1.0"):
            PolarGeometry([0.0, -1.0], [0.0, 1.0], [50.0], [0.5])
        for bad in (0.0, -5.0, math.nan):
            with pytest.raises(ValidationError, match="source range must be positive"):
                PolarGeometry([0.0, 1.0], [0.0, 1.0], [50.0, bad], [0.5, 1.0])
        with pytest.raises(ValidationError, match="must be vectors of matching lengths"):
            PolarGeometry([0.0, 1.0], [0.0], [50.0], [0.5])
        with pytest.raises(ValidationError, match="must be vectors of matching lengths"):
            PolarGeometry([[0.0, 1.0]], [[0.0, 1.0]], [50.0], [0.5])

    def test_equality_reads_the_arrays(self):
        g = PolarGeometry([0.0, 1.0], [0.0, 1.0], [50.0], [0.5])
        assert g == PolarGeometry([0.0, 1.0], [0.0, 1.0], [50.0], [0.5])
        assert g != PolarGeometry([0.0, 1.0], [0.0, 1.0], [50.0], [0.6])
        assert g != PairwiseGeometry(np.full((2, 1), 50.0), np.full((2, 1), 1.0))

    def test_positions_are_converted_once_and_read_only(self, scenario_b):
        polar = polar_form(scenario_b)[0]
        sensors, sources, residual = polar.geometry.positions
        assert polar.geometry.positions[0] is sensors and residual == 0.0
        assert not sensors.flags.writeable and not sources.flags.writeable
        g = polar.geometry
        assert np.array_equal(sensors, geometry.polar_to_cartesian(g.radii_m, g.azimuths_rad))
        assert np.array_equal(sources, geometry.polar_to_cartesian(g.ranges_m, g.bearings_rad))
