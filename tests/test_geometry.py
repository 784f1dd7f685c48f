import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import DegenerateGeometryError, SingularGeometryError, ValidationError, geometry
from nfcrb.signal_model import SourceSignal
from nfcrb.geometry import (
    PairwiseGeometry,
    PairwiseScenario,
    Scenario,
    SensorGeom,
    SourceGeom,
    delay_geometry,
    distances,
    native_delays,
    pairwise_form,
    polar_axes,
    polar_form,
    reconstruct_positions,
    refit_positions,
    scenario_positions,
)
from conftest import random_upper_half_scenario

C = 3e8


def polar_delay(sensor: SensorGeom, source: SourceGeom, velocity_mps: float = C) -> float:
    """Delay of one sensor/source pair; a second sensor at the origin makes the scenario valid."""
    scn = Scenario((source,), (sensor, SensorGeom(0.0, 0.0)), velocity_mps, (SourceSignal(1e5, 1),), 1.0, 1)
    return native_delays(scn)[0, 0]


def pairwise_delay(vertical_m: float, arrival_rad: float, velocity_mps: float = C) -> float:
    """Delay of one pairwise table entry, duplicated into a two-sensor table."""
    geometry = PairwiseGeometry(np.full((2, 1), vertical_m), np.full((2, 1), arrival_rad))
    pws = PairwiseScenario(geometry, velocity_mps, (SourceSignal(1e5, 1),), 1.0, 1)
    return native_delays(pws)[0, 0]


class TestDelay:
    def test_sensor_at_origin(self):
        # tau = r / c when the sensor sits at the origin
        t = polar_delay(SensorGeom(0.0, 0.0), SourceGeom(300.0, 1.2))
        assert t == pytest.approx(1e-6, rel=1e-12)

    def test_collinear(self):
        # same bearing and azimuth: tau = (r - rho) / c
        t = polar_delay(SensorGeom(40.0, 0.7), SourceGeom(100.0, 0.7))
        assert t == pytest.approx(2e-7, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            polar_delay(SensorGeom(1.0, 0.0), SourceGeom(10.0, 0.0), 0.0)
        with pytest.raises(ValidationError):
            SourceGeom(-5.0, 0.0)
        with pytest.raises(ValidationError, match="expected a scenario, got str"):
            native_delays("scenario_a")

    def test_triangle_inequality_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rho = rng.uniform(0.0, 200.0)
            r = rng.uniform(1e-3, 500.0)
            sensor = SensorGeom(rho, rng.uniform(0, 2 * np.pi))
            source = SourceGeom(r, rng.uniform(0, 2 * np.pi))
            t = polar_delay(sensor, source)
            assert abs(r - rho) / C - 1e-18 <= t <= (r + rho) / C + 1e-18

    def test_full_matrix_cross_evaluation_scenario_a(self, scenario_a):
        # reconstruct positions, then the polar-form delays must equal the
        # delays recomputed from the round-tripped pairwise form
        polar, _ = polar_form(scenario_a)
        tau_polar = native_delays(polar)
        tau_pw = native_delays(pairwise_form(polar))
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
            tau_pw = native_delays(pairwise_form(scn))
            tau = native_delays(scn)
            assert np.max(np.abs(tau_pw - tau) / tau) < 1e-12


class TestPairwiseFromPolar:
    def _one_sensor_scn(self, src_xy):
        # second sensor far below so every vertical offset stays positive
        return Scenario(
            sources=(SourceGeom(np.hypot(*src_xy), np.arctan2(src_xy[1], src_xy[0])),),
            sensors=(SensorGeom(0.0, 0.0), SensorGeom(1000.0, -np.pi / 2)),
            velocity_mps=C,
            signals=(SourceSignal(1e5, 1 + 1j),),
            noise_variance=1.0,
            snapshots=1,
        )

    def test_source_straight_up(self):
        pw = pairwise_form(self._one_sensor_scn((0.0, 50.0))).geometry
        assert pw.vertical_m[0, 0] == pytest.approx(50.0)
        assert pw.arrival_rad[0, 0] == pytest.approx(math.pi / 2)

    def test_source_diagonal(self):
        pw = pairwise_form(self._one_sensor_scn((50.0, 50.0))).geometry
        assert pw.vertical_m[0, 0] == pytest.approx(50.0)
        assert pw.arrival_rad[0, 0] == pytest.approx(math.pi / 4)

    def test_collinear_source_rejected(self):
        scn = Scenario(
            sources=(SourceGeom(50.0, 0.0),),  # on the x-axis through sensor 1
            sensors=(SensorGeom(0.0, 0.0), SensorGeom(5.0, np.pi / 2)),
            velocity_mps=C,
            signals=(SourceSignal(1e5, 1 + 0j),),
            noise_variance=1.0,
            snapshots=1,
        )
        with pytest.raises(SingularGeometryError):
            pairwise_form(scn)

    def test_round_trip_positions_up_to_translation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scn = random_upper_half_scenario(rng)
            pws = pairwise_form(scn)
            rec, residual = polar_form(pws)
            assert residual < 1e-9
            orig_sens, orig_srcs, _ = scenario_positions(scn)
            rec_sens, rec_srcs, _ = scenario_positions(rec)
            shift = orig_sens[0] - rec_sens[0]
            assert np.allclose(rec_sens + shift, orig_sens, atol=1e-8)
            assert np.allclose(rec_srcs + shift, orig_srcs, atol=1e-8)


class TestReconstruct:
    def test_round_trip_delays(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            scn = random_upper_half_scenario(rng)
            rec, residual = polar_form(pairwise_form(scn))
            assert residual < 1e-9
            tau0 = native_delays(scn)
            tau1 = native_delays(rec)
            assert np.max(np.abs(tau1 - tau0) / tau0) < 1e-10

    def test_residual_translation_invariant(self):
        rng = np.random.default_rng(34)
        scn = random_upper_half_scenario(rng, m=4, n=2)
        pw = pairwise_form(scn).geometry
        _, _, res0 = reconstruct_positions(pw)
        # shifting the generating frame leaves H and the arrival angles alone,
        # so the residual cannot change; check via a rebuilt shifted scenario
        sens, srcs, _ = scenario_positions(scn)
        shifted = Scenario(
            sources=tuple(
                SourceGeom(np.hypot(x + 30, y + 40), np.arctan2(y + 40, x + 30)) for x, y in srcs
            ),
            sensors=tuple(
                SensorGeom(np.hypot(x + 30, y + 40), np.arctan2(y + 40, x + 30)) for x, y in sens
            ),
            velocity_mps=scn.velocity_mps,
            signals=scn.signals,
            noise_variance=scn.noise_variance,
            snapshots=scn.snapshots,
        )
        _, _, res1 = reconstruct_positions(pairwise_form(shifted).geometry)
        assert res1 == pytest.approx(res0, abs=1e-9)

    def test_single_sensor_exact(self):
        pw = PairwiseGeometry(
            np.array([[50.0, 80.0]]), np.array([[math.pi / 3, math.pi / 4]])
        )
        sens, srcs, residual = reconstruct_positions(pw)
        assert residual == 0.0
        assert np.allclose(sens, [[0.0, 0.0]])
        assert np.allclose(srcs[:, 1], [50.0, 80.0])

    def test_scenario_a_residual_pinned(self, scenario_a):
        # the bundled tables are integers, hence mutually inconsistent; the
        # least-squares misfit is stable and pinned as a regression value
        _, _, residual = reconstruct_positions(scenario_a.geometry)
        assert residual == pytest.approx(0.5116517825356056, rel=1e-9)

    def test_scenario_b_residual_pinned(self, scenario_b):
        _, _, residual = reconstruct_positions(scenario_b.geometry)
        assert residual == pytest.approx(0.3400631190147472, rel=1e-9)

    def test_pairwise_table_is_fitted_once(self):
        pws = pairwise_form(random_upper_half_scenario(np.random.default_rng(35)))
        with mock.patch.object(geometry, "reconstruct_positions", wraps=reconstruct_positions) as fit:
            _, residual = polar_form(pws)
            sens, srcs, residual_again = scenario_positions(pws)
            polar_form(replace(pws, velocity_mps=2e8))  # same table, other speed
            assert fit.call_count == 1
        ref_sens, ref_srcs, ref_residual = reconstruct_positions(pws.geometry)
        assert np.array_equal(sens, ref_sens) and np.array_equal(srcs, ref_srcs)
        assert residual == residual_again == ref_residual
        assert not sens.flags.writeable and not srcs.flags.writeable
        # the table itself is read-only too, so the cached fit cannot go stale
        assert not pws.geometry.vertical_m.flags.writeable and not pws.geometry.arrival_rad.flags.writeable
        with pytest.raises(ValueError):
            sens[0, 0] = 1.0
        # the public fit stays uncached and returns fresh, writable arrays
        assert ref_sens.flags.writeable and reconstruct_positions(pws.geometry)[0] is not ref_sens

    def test_polar_form_rebuilds_scenario(self, scenario_a):
        rec, residual = polar_form(scenario_a)
        assert rec.num_sensors == 4 and rec.num_sources == 3
        assert residual > 0
        assert rec.sensors[0].radius_m == 0.0


def _same_fit(got, want) -> bool:
    """Bit-for-bit equality of two (sensors_xy, sources_xy, residual) fits."""
    arrays = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got[:2], want[:2]))
    return arrays and got[2].hex() == want[2].hex()


class TestRefit:
    """A move along the reference axis keeps every vertical distance, so refitting x alone
    must give ``reconstruct_positions`` of the rewritten table bit for bit."""

    angle = st.floats(1e-6, math.pi - 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 7), n=st.integers(1, 5), fitted_first=st.booleans())
    def test_refit_equals_the_rewritten_table_fit(self, data, m, n, fitted_first):
        H = np.array(data.draw(st.lists(st.floats(1e-3, 1e4), min_size=m * n, max_size=m * n))).reshape(m, n)
        arrival = np.array(data.draw(st.lists(self.angle, min_size=m * n, max_size=m * n))).reshape(m, n)
        table = PairwiseGeometry(H, arrival)
        if fitted_first:
            assert _same_fit(table.positions, reconstruct_positions(PairwiseGeometry(H, arrival)))
        for element in range(m):
            rewritten = arrival.copy()
            rewritten[element] = data.draw(st.lists(self.angle, min_size=n, max_size=n))
            want = reconstruct_positions(PairwiseGeometry(H, rewritten))
            assert _same_fit(refit_positions(table, rewritten), want)

    def test_refit_rejects_an_angle_at_zero(self, scenario_b):
        arrival = scenario_b.geometry.arrival_rad.copy()
        arrival[1, 0] = 0.0
        with pytest.raises(SingularGeometryError, match="arrival angles at 0 or pi cannot place a source"):
            refit_positions(scenario_b.geometry, arrival)


class TestPolarAxes:
    """``polar_axes`` must give what the Scenario of ``polar_form`` holds, bit for bit."""

    @staticmethod
    def _scenario_axes(polar):
        return polar.sensor_radii(), polar.sensor_azimuths(), polar.source_ranges(), polar.source_bearings()

    def test_pairwise_tables_match_polar_form(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            pws = pairwise_form(random_upper_half_scenario(rng, m=int(rng.integers(3, 9))))
            axes, residual = polar_axes(pws)
            polar, polar_residual = polar_form(pws)
            assert residual == polar_residual
            for got, want in zip(axes, self._scenario_axes(polar)):
                assert got.tobytes() == want.tobytes()

    def test_sensors_on_the_reference_axis(self):
        # a linear array along x: fitted y coordinates are rounding noise of either
        # sign, so an azimuth just below zero maps to 2 pi once, as SensorGeom does
        xs = np.array([0.0, 3.0, 7.5, 12.0, 20.0])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            src = np.column_stack([rng.uniform(-80, 80, 2), rng.uniform(50, 300, 2)])
            vertical = src[None, :, 1] - np.zeros((len(xs), 1))
            arrival = np.arctan2(vertical, src[None, :, 0] - xs[:, None])
            pws = PairwiseScenario(PairwiseGeometry(vertical, arrival), C, (SourceSignal(1e6, 1), SourceSignal(2e6, 1j)), 1.0, 1)
            for got, want in zip(polar_axes(pws)[0], self._scenario_axes(polar_form(pws)[0])):
                assert got.tobytes() == want.tobytes()

    def test_polar_input_is_its_own_polar_form(self, scenario_a):
        polar = polar_form(scenario_a)[0]
        axes, residual = polar_axes(polar)
        assert residual is None
        for got, want in zip(axes, self._scenario_axes(polar)):
            assert got.tobytes() == want.tobytes()

    def test_source_at_the_origin_is_rejected_alike(self):
        pws = pairwise_form(random_upper_half_scenario(np.random.default_rng(4), 4, 2))
        sensors_xy, sources_xy, residual = pws.geometry.positions
        moved = sources_xy.copy()
        moved[1] = 0.0
        pws.geometry.__dict__["positions"] = (sensors_xy, moved, residual)  # the cached fit
        with pytest.raises(DegenerateGeometryError, match="a source coincides with the frame origin"):
            polar_axes(pws)
        with pytest.raises(DegenerateGeometryError, match="a source coincides with the frame origin"):
            polar_form(pws)

    def test_delay_geometry_finishes_as_native_delays(self, scenario_a, scenario_b):
        for scn in (scenario_a, scenario_b, polar_form(scenario_a)[0]):
            for c in (1e8, 3e8, 123456789.0):
                moved = replace(scn, velocity_mps=c)
                assert delay_geometry(scn)(c).tobytes() == native_delays(moved).tobytes()


class TestScenarioValidation:
    def test_too_many_sources(self):
        with pytest.raises(ValidationError):
            Scenario(
                sources=(SourceGeom(100, 0.1), SourceGeom(120, 0.2)),
                sensors=(SensorGeom(1, 0), SensorGeom(2, 0)),
                velocity_mps=C,
                signals=(SourceSignal(1e5, 1), SourceSignal(1e5, 1)),
                noise_variance=1.0,
                snapshots=1,
            )

    def test_both_encodings_need_a_source(self):
        with pytest.raises(ValidationError, match="scenario needs at least one source"):
            Scenario((), (SensorGeom(1, 0), SensorGeom(2, 0)), C, (), 1.0, 1)
        with pytest.raises(ValidationError, match="scenario needs at least one source"):
            PairwiseScenario(PairwiseGeometry(np.ones((2, 0)), np.ones((2, 0))), C, (), 1.0, 1)

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
        sens, srcs, residual = reconstruct_positions(pw)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert isinstance(DegenerateGeometryError(), ValidationError)
