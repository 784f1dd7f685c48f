import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (
    BoxGrid,
    DisplacementGrid,
    SingularGeometryError,
    ValidationError,
    apply_reposition,
    grid_search,
    line_search_reposition,
)
from nfcrb.signal_model import SourceSignal, covariances, received_power, steering_matrix
from nfcrb.geometry import (
    Scenario,
    SensorGeom,
    SourceGeom,
    distances,
    native_delays,
    pairwise_form,
    scenario_from_positions,
    scenario_positions,
)
from nfcrb.fim_crb import crb_reports, fim_for_scenario
from nfcrb import reposition
from nfcrb.reposition import (
    OBJECTIVES,
    RepositionPlan,
    analytic_reposition,
    gf_objective,
    hadamard_bound,
    phase_terms,
    score_candidates,
)
from nfcrb.cli import main as cli_main
from conftest import pairwise_scenario, pinv_totals, random_upper_half_scenario, trace_loop_fim


def objective_alone(objective, element, sensors_xy, sources_xy, scn) -> float:
    """Reference objective of one candidate layout, from the one-constellation public pieces."""
    tau = distances(sensors_xy, sources_xy) / scn.velocity_mps
    freqs = np.array([signal.freq_hz for signal in scn.signals])
    if objective == "gf":
        return gf_objective(2.0 * np.pi * freqs * tau[element])
    A = steering_matrix(tau, freqs)
    if objective == "power":
        powers, _ = received_power(A, scn.signals)
        return float(powers[element])
    if objective == "det":
        return float(abs(np.linalg.det(covariances(A, scn.signals, scn.noise_variance).array_cov)))
    polar = scenario_from_positions(
        sensors_xy, sources_xy, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )
    report = crb_reports(fim_for_scenario(polar).entries[None], polar.num_sources)[0]
    return report.crb_theta_total if objective == "crb_theta" else report.crb_r_total


def scored(objective, element, sensors_xy, sources_xy, scn, positions) -> list:
    """``score_candidates`` as one entry per candidate: its value, or the ValidationError that rejected it."""
    values, errors = score_candidates(objective, element, sensors_xy, sources_xy, scn, positions)
    return [errors.get(i, v) for i, v in enumerate(values.tolist())]


def reference_plan_a():
    return RepositionPlan(
        element=2,
        mode="analytic",
        new_arrival_rad=np.radians([103.0, 90.0, 66.0]),
        displacement_m=None,
        objective="gf",
        objective_before=float("nan"),
        objective_after=float("nan"),
        source_notes=(),
    )


class TestHadamardBound:
    def test_identity(self):
        assert hadamard_bound(np.eye(2)) == pytest.approx(2.0, rel=1e-15)

    def test_diagonal(self):
        assert hadamard_bound(np.diag([1.0, 2.0])) == pytest.approx(8.0, rel=1e-15)

    def test_dominates_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            # the 1x1 case is an equality, so allow rounding of the determinant
            assert hadamard_bound(X) >= abs(np.linalg.det(X)) * (1 - 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hadamard_bound(np.ones((2, 3)))


class TestPhaseTerms:
    def test_quarter_turn(self):
        # H / (c sin 90deg) = 2.5e-5 s at 1e4 Hz is a quarter turn
        pws = pairwise_scenario(
            [[7500.0], [7500.0]], [[math.pi / 2], [math.pi / 2]], [1e4], [1 + 0j]
        )
        terms = phase_terms(pws, 0)
        assert terms[0] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_scenario_a_element3_source1(self, scenario_a):
        terms = phase_terms(scenario_a, 2)
        expected = 2 * math.pi * 1.1787e6 * (62.0 / (3e8 * math.sin(math.radians(66.0))))
        assert terms[0] == pytest.approx(expected, rel=1e-12)
        assert terms[0] == pytest.approx(1.6754189533249544, rel=1e-10)

    def test_equals_frequency_times_delay(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            pws = pairwise_form(random_upper_half_scenario(rng))
            tau = native_delays(pws)
            freqs = np.array([s.freq_hz for s in pws.signals])
            for k in range(pws.num_sensors):
                terms = phase_terms(pws, k)
                assert np.allclose(terms, 2 * np.pi * freqs * tau[k], rtol=1e-12)


class TestGfObjective:
    def test_single_term_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert gf_objective(np.array([rng.uniform(-10, 10)])) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_pair(self):
        assert gf_objective(np.array([0.0, math.pi / 2])) == pytest.approx(2.0, rel=1e-12)

    def test_aligned_pair(self):
        assert gf_objective(np.array([0.0, 0.0])) == pytest.approx(4.0, rel=1e-12)

    def test_equals_coherent_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            T = rng.uniform(-10, 10, size=rng.integers(1, 6))
            assert gf_objective(T) == pytest.approx(
                abs(np.exp(1j * T).sum()) ** 2, rel=1e-12, abs=1e-12
            )

    def test_bounded_by_squared_count(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            T = rng.uniform(-10, 10, size=4)
            assert gf_objective(T) <= 16.0 + 1e-9
        aligned = np.full(4, 1.3) + 2 * np.pi * np.arange(4)
        assert gf_objective(aligned) == pytest.approx(16.0, rel=1e-9)


class TestAnalyticReposition:
    def test_scenario_b_source2_angle(self, scenario_b):
        plan = analytic_reposition(scenario_b, 2)
        assert math.degrees(plan.new_arrival_rad[1]) == pytest.approx(41.30, abs=0.1)

    def test_scenario_a_source3_angle(self, scenario_a):
        plan = analytic_reposition(scenario_a, 2)
        assert math.degrees(plan.new_arrival_rad[2]) == pytest.approx(66.0, abs=0.5)

    def test_scenario_a_source1_obtuse(self, scenario_a):
        plan = analytic_reposition(scenario_a, 2, m=2, branches=["obtuse", None, None])
        assert math.degrees(plan.new_arrival_rad[0]) == pytest.approx(103.0, abs=0.5)

    def test_branches_share_objective(self, scenario_a):
        acute = analytic_reposition(scenario_a, 2)
        obtuse = analytic_reposition(scenario_a, 2, branches=["obtuse", "obtuse", "obtuse"])
        assert acute.objective_after == pytest.approx(obtuse.objective_after, rel=1e-12)

    def test_infeasible_source_keeps_angle(self):
        # second source's right-angle target needs sin > 1, so it is kept
        pws = pairwise_scenario(
            [[60.0, 60.0], [70.0, 70.0], [80.0, 80.0]],
            np.radians([[70.0, 60.0], [75.0, 65.0], [80.0, 72.0]]),
            [1e5, 5e6],
            [1 + 1j, 2 - 1j],
        )
        plan = analytic_reposition(pws, 0)
        assert plan.new_arrival_rad[1] == pytest.approx(math.radians(60.0), rel=1e-12)
        assert any("infeasible" in note for note in plan.source_notes)

    def test_all_infeasible_raises(self):
        pws = pairwise_scenario(
            [[60.0, 60.0], [70.0, 70.0], [80.0, 80.0]],
            np.radians([[70.0, 60.0], [75.0, 65.0], [80.0, 72.0]]),
            [1e8, 5e7],
            [1 + 1j, 2 - 1j],
        )
        with pytest.raises(ValidationError, match="line-search"):
            analytic_reposition(pws, 0)

    def test_explicit_divisor_controls_target(self, scenario_b):
        # divisor 1 aims at a full half-turn phase; the solved sine halves
        plan1 = analytic_reposition(scenario_b, 2, m=1)
        plan2 = analytic_reposition(scenario_b, 2, m=2)
        s1 = math.sin(plan1.new_arrival_rad[0])
        # with divisor 2 the first source's argument exceeds 1 -> kept angle
        assert math.degrees(plan1.new_arrival_rad[0]) == pytest.approx(38.32, abs=0.05)
        assert any("infeasible" in n for n in plan2.source_notes)
        assert s1 == pytest.approx(0.62, abs=1e-3)

    def test_angles_independent_of_noise(self, scenario_a):
        from dataclasses import replace

        noisy = replace(scenario_a, noise_variance=2.0)
        p1 = analytic_reposition(scenario_a, 2)
        p2 = analytic_reposition(noisy, 2)
        assert np.array_equal(p1.new_arrival_rad, p2.new_arrival_rad)

    def test_fits_no_positions(self, scenario_a, scenario_b):
        # a plan rewrites arrival angles only; refitting the rewritten table is a sweep's work
        polar = scenario_from_positions(*scenario_positions(scenario_b)[:2], 3e8, scenario_b.signals, 1.0, 1)
        with mock.patch("numpy.linalg.lstsq", side_effect=AssertionError("least-squares fit")):
            for scn in (scenario_a, scenario_b, polar):
                analytic_reposition(scn, 2)


class TestLineSearch:
    def test_single_source_gf_is_flat(self):
        pws = pairwise_scenario(
            [[100.0], [120.0]], [[1.2], [1.0]], [5e5], [1 + 2j]
        )
        plan = line_search_reposition(pws, 0, "gf", DisplacementGrid(-50, 50, 21))
        assert plan.displacement_m == pytest.approx(-50.0)  # flat objective: lowest wins
        assert plan.objective_before == pytest.approx(1.0, rel=1e-12)
        assert plan.objective_after == pytest.approx(1.0, rel=1e-12)

    def test_zero_only_grid(self, scenario_a):
        plan = line_search_reposition(scenario_a, 2, "det", DisplacementGrid(0.0, 0.0, 1))
        assert plan.displacement_m == 0.0
        assert plan.objective_after == plan.objective_before

    def test_never_worse_than_standing_still(self):
        rng = np.random.default_rng(47)
        for objective in ("gf", "power", "det"):
            scn = random_upper_half_scenario(rng, m=4, n=2)
            plan = line_search_reposition(scn, 1, objective, DisplacementGrid(-30, 30, 31))
            assert plan.objective_after <= plan.objective_before + 1e-12

    def test_scenario_a_det_improves(self, scenario_a):
        plan = line_search_reposition(scenario_a, 2, "det", DisplacementGrid(-200, 200, 401))
        assert plan.objective_after < plan.objective_before
        assert plan.mode == "linesearch"


def per_candidate_bounds(scn, element, displacements) -> dict[float, tuple[float, float]]:
    """Bearing and range bound totals at each displacement, one rebuilt scenario per candidate."""
    sensors_xy, sources_xy, _ = scenario_positions(scn)
    out = {}
    for disp in displacements:
        moved = sensors_xy.copy()
        moved[element, 0] += disp
        polar = scenario_from_positions(
            moved, sources_xy, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
        )
        out[float(disp)] = pinv_totals(trace_loop_fim(polar), scn.num_sources)
    return out


# float.hex of the first, middle and last of the 401 bound totals of element 3 on a
# -200..200 m line, then the first minimizer's row and value, as the bound scorer gave
# them while it still built a polar Scenario per search
PINNED_LINE_SCANS = {
    ("scenario_a", "crb_theta"): ("0x1.e8a6b4cddfcd7p+9", "0x1.570c2d2904cafp+10", "0x1.00719f54e0ebep+7", 298, "0x1.08c1caa4eac5dp+6"),
    ("scenario_a", "crb_r"): ("0x1.0c360a9c84ecep+9", "0x1.72c4f09e35e8bp+13", "0x1.55108e76fc544p+10", 30, "0x1.a2631a877b0dbp+8"),
    ("scenario_b", "crb_theta"): ("0x1.2a9f3cb6e3b00p+1", "0x1.61e2301baf4cep+1", "0x1.e011a765c7d28p+0", 152, "0x1.284ad18fe495ap-2"),
    ("scenario_b", "crb_r"): ("0x1.4c44110886a0cp+15", "0x1.73763e8bd9490p+15", "0x1.c60cc1a092f3cp+14", 298, "0x1.224c9ce8a6840p+13"),
}


class TestBatchedBoundSearch:
    GRID = DisplacementGrid(-200.0, 200.0, 201)

    @pytest.mark.parametrize("fixture, objective", sorted(PINNED_LINE_SCANS))
    def test_line_scan_bits_are_pinned(self, fixture, objective, request):
        scn = request.getfixturevalue(fixture)
        sensors_xy, sources_xy, _ = scenario_positions(scn)
        x0, y0 = sensors_xy[2]
        disps = DisplacementGrid(-200.0, 200.0, 401).values()
        positions = np.column_stack([x0 + disps, np.full_like(disps, y0)])
        values, errors = score_candidates(objective, 2, sensors_xy, sources_xy, scn, positions)
        assert errors == {}
        best = int(np.argmin(values))
        got = (values[0].hex(), values[200].hex(), values[400].hex(), best, values[best].hex())
        assert got == PINNED_LINE_SCANS[fixture, objective]

    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_matches_per_candidate_loop(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        grid_points = np.unique(self.GRID.values())
        line_points = np.unique(np.concatenate([grid_points, [0.0]]))
        reference = per_candidate_bounds(scn, 2, line_points)
        for which, objective in enumerate(("crb_theta", "crb_r")):
            for points, plan in (
                (grid_points, grid_search(scn, 2, objective, self.GRID)),
                (line_points, line_search_reposition(scn, 2, objective, self.GRID)),
            ):
                values = [reference[float(d)][which] for d in points]
                best = int(np.argmin(values))  # first minimum, ascending displacements
                assert plan.displacement_m == points[best]
                assert plan.objective_after == pytest.approx(values[best], rel=1e-9)
                assert plan.objective_before == pytest.approx(reference[0.0][which], rel=1e-9)

    @staticmethod
    def _coinciding_scenario() -> Scenario:
        # the element sits at (10, 0) and source 1 at (110, 0): a candidate
        # at (110, 0) puts them on top of each other
        return Scenario(
            sources=(SourceGeom(110.0, 0.0), SourceGeom(150.0, 1.2)),
            sensors=(SensorGeom(0.0, 0.0), SensorGeom(10.0, 0.0), SensorGeom(30.0, 2.0)),
            velocity_mps=3e8,
            signals=(SourceSignal(1e6, 1 + 1j), SourceSignal(2e6, 0.5 - 1j)),
            noise_variance=1.0,
            snapshots=1,
        )

    def test_coinciding_candidate_alone_is_skipped(self):
        scn = self._coinciding_scenario()
        sensors_xy, sources_xy, _ = scenario_positions(scn)
        disps = np.linspace(60.0, 140.0, 81)
        positions = np.column_stack([sensors_xy[1, 0] + disps, np.full_like(disps, sensors_xy[1, 1])])
        values = scored("crb_r", 1, sensors_xy, sources_xy, scn, positions)
        failed = [d for d, v in zip(disps, values) if isinstance(v, ValidationError)]
        assert failed == [100.0]
        assert str(values[40]) == "sensor 2 coincides with source 1"
        reference = per_candidate_bounds(scn, 1, np.delete(disps, 40))
        for disp, value in zip(disps, values):
            if disp != 100.0:
                assert value == pytest.approx(reference[float(disp)][1], rel=1e-9)

    def test_box_search_skips_only_the_coinciding_candidate(self):
        scn = self._coinciding_scenario()
        box = BoxGrid(90.0, 130.0, 21, -10.0, 10.0, 3)
        plan = grid_search(scn, 1, "crb_r", box)
        assert [n for n in plan.source_notes if "skipped" in n] == [
            "position (110, 0) skipped: sensor 2 coincides with source 1"
        ]
        sensors_xy, sources_xy, _ = scenario_positions(scn)

        def objective_at(x, y):
            moved = sensors_xy.copy()
            moved[1] = (x, y)
            return objective_alone("crb_r", 1, moved, sources_xy, scn)

        points = [(x, y) for x, y in box.points() if (x, y) != (110.0, 0.0)]
        values = [objective_at(x, y) for x, y in points]
        best = int(np.argmin(values))  # first minimum in scan order
        assert plan.new_position_m == points[best]
        assert plan.objective_after == values[best]
        assert plan.objective_before == objective_at(*sensors_xy[1])


PHASE_OBJECTIVES = ("gf", "power", "det")


def per_candidate_values(objective, scn, element, positions) -> list:
    """The objective at each position, one ``objective_alone`` call per candidate."""
    sensors_xy, sources_xy, _ = scenario_positions(scn)
    out = []
    for position in positions:
        moved = sensors_xy.copy()
        moved[element] = position
        try:
            out.append(objective_alone(objective, element, moved, sources_xy, scn))
        except ValidationError as exc:
            out.append(str(exc))
    return out


def candidate_positions(scn, element, grid: DisplacementGrid, box_half: float, box_steps: int):
    """Line positions of a displacement grid (plus the origin) and a box around the element."""
    sensors_xy, _, _ = scenario_positions(scn)
    x0, y0 = sensors_xy[element]
    disps = np.unique(np.concatenate([grid.values(), [0.0]]))
    line = np.column_stack([x0 + disps, np.full_like(disps, y0)])
    box = BoxGrid(x0 - box_half, x0 + box_half, box_steps, y0 - box_half, y0 + box_half, box_steps)
    return line, np.vstack([sensors_xy[element], box.points()])


def batched_values(objective, scn, element, positions) -> list:
    sensors_xy, sources_xy, _ = scenario_positions(scn)
    values = scored(objective, element, sensors_xy, sources_xy, scn, positions)
    return [str(v) if isinstance(v, ValidationError) else v for v in values]


class TestBatchedPhaseSearch:
    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_bundled_equal_per_candidate_loop(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        for element in range(scn.num_sensors):
            for positions in candidate_positions(scn, element, DisplacementGrid(-200, 200, 401), 100.0, 21):
                for objective in PHASE_OBJECTIVES:
                    assert batched_values(objective, scn, element, positions) == per_candidate_values(
                        objective, scn, element, positions
                    )

    def test_random_equal_per_candidate_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            scn = random_upper_half_scenario(rng)
            element = int(rng.integers(scn.num_sensors))
            for positions in candidate_positions(scn, element, DisplacementGrid(-80, 80, 41), 60.0, 7):
                for objective in PHASE_OBJECTIVES:
                    assert batched_values(objective, scn, element, positions) == per_candidate_values(
                        objective, scn, element, positions
                    )

    @pytest.mark.parametrize("objective", PHASE_OBJECTIVES)
    def test_coinciding_candidate_alone_is_skipped(self, objective):
        scn = TestBatchedBoundSearch._coinciding_scenario()
        line, _ = candidate_positions(scn, 1, DisplacementGrid(60.0, 140.0, 81), 0.0, 1)
        values = batched_values(objective, scn, 1, line)
        assert values == per_candidate_values(objective, scn, 1, line)
        assert [v for v in values if isinstance(v, str)] == ["sensor 2 coincides with source 1"]
        plan = grid_search(scn, 1, objective, BoxGrid(90.0, 130.0, 21, -10.0, 10.0, 3))
        assert [n for n in plan.source_notes if "skipped" in n] == [
            "position (110, 0) skipped: sensor 2 coincides with source 1"
        ]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_fixed_sensor_on_a_source_fails_every_candidate(self, objective):
        scn = TestBatchedBoundSearch._coinciding_scenario()
        sensors_xy, sources_xy, _ = scenario_positions(scn)
        sensors_xy[0] = sources_xy[0]
        positions = np.column_stack([np.linspace(5.0, 15.0, 11), np.ones(11)])
        values = scored(objective, 1, sensors_xy, sources_xy, scn, positions)
        assert [str(v) for v in values] == ["sensor 1 coincides with source 1"] * 11

    @pytest.mark.parametrize("fixture, displacement", [("scenario_a", 155.4), ("scenario_b", -194.0)])
    def test_det_and_power_pick_the_same_move(self, fixture, displacement, request):
        # with a rank-one source covariance det R grows with the moved element's power
        scn = request.getfixturevalue(fixture)
        grid = DisplacementGrid(-200, 200, 2001)
        det, power = (grid_search(scn, 2, objective, grid) for objective in ("det", "power"))
        assert det.displacement_m == power.displacement_m == pytest.approx(displacement)
        x0, y0 = scenario_positions(scn)[0][2]
        box = BoxGrid(x0 - 100, x0 + 100, 41, y0 - 20, y0 + 20, 41)
        det, power = (grid_search(scn, 2, objective, box) for objective in ("det", "power"))
        assert det.new_position_m == power.new_position_m

    def test_clean_searches_make_no_per_candidate_call(self, scenario_a):
        grid = DisplacementGrid(-200, 200, 2001)
        x0, y0 = scenario_positions(scenario_a)[0][2]
        box = BoxGrid(x0 - 100, x0 + 100, 41, y0 - 20, y0 + 20, 41)
        line_count = len(np.unique(np.append(grid.values(), 0.0)))
        searches = [
            (line_search_reposition, "gf", grid, line_count),
            (grid_search, "gf", grid, 2001),
            (line_search_reposition, "det", grid, line_count),
            (grid_search, "det", grid, 2001),
            (grid_search, "power", box, 41 * 41),
        ]
        for search, objective, region, count in searches:
            steps, calls = [], []
            with mock.patch.object(reposition, "_chunk_scorer", counting_scorer(steps, calls)):
                search(scenario_a, 2, objective, region)
            (step,) = steps
            k = count + 1  # the current position is scored in the same batch
            assert 1 < step < k
            assert calls == [step] * (k // step) + [k % step] * (k % step > 0)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_failing_chunk_is_scored_again_one_row_at_a_time(self, objective):
        scn = TestBatchedBoundSearch._coinciding_scenario()
        steps, calls = [], []
        # 64 candidates in chunks of 10: the current position, then 63 box points,
        # of which (110, 0) (candidate 32, in the fourth chunk) lands on source 1;
        # the failing chunk is split in halves down to that one candidate, scored
        # alone: 10 (fails), 5 (fails), 3 (fails), 2, 1 (fails), 2, 5
        with mock.patch.object(reposition, "_chunk_scorer", counting_scorer(steps, calls, step=10)):
            plan = grid_search(scn, 1, objective, BoxGrid(90.0, 130.0, 21, -10.0, 10.0, 3))
        assert calls == [10] * 4 + [5, 3, 2, 1, 2, 5] + [10] * 2 + [4]
        assert [n for n in plan.source_notes if "skipped" in n] == [
            "position (110, 0) skipped: sensor 2 coincides with source 1"
        ]

    @pytest.mark.parametrize("search", ["linesearch", "grid", "box"])
    def test_unknown_objective_fails_before_scoring(self, search, scenario_a):
        calls = []
        with mock.patch.object(reposition, "_chunk_scorer", lambda *a: calls.append(a)):
            with pytest.raises(ValidationError, match=r"objective must be one of \(.*\), got 'crb'"):
                if search == "linesearch":
                    line_search_reposition(scenario_a, 0, "crb", DisplacementGrid(-10, 10, 5))
                elif search == "grid":
                    grid_search(scenario_a, 0, "crb", DisplacementGrid(-10, 10, 5))
                else:
                    grid_search(scenario_a, 0, "crb", BoxGrid(0, 10, 3, 0, 10, 3))
        assert calls == []


def test_coincidence_names_the_sensor_and_the_source(tmp_path, capsys):
    # one distance kernel names the 1-based sensor and source on every route
    doc = {
        "velocity_mps": 3e8,
        "signals": [{"freq_hz": 1e6, "amplitude": [1.0, 1.0]}, {"freq_hz": 2e6, "amplitude": [0.5, -1.0]}],
        "noise_variance": 1.0,
        "snapshots": 1,
        "geometry": {"polar": {
            "sources": [{"range_m": 110.0, "bearing_deg": 0.0}, {"range_m": 150.0, "bearing_deg": 70.0}],
            "sensors": [
                {"radius_m": 0.0, "azimuth_deg": 0.0},
                {"radius_m": 10.0, "azimuth_deg": 0.0},
                {"radius_m": 150.0, "azimuth_deg": 70.0},
            ],
        }},
    }
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["compute", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: sensor 3 coincides with source 2\n"

    scn = TestBatchedBoundSearch._coinciding_scenario()
    sensors_xy = np.array([[0.0, 0.0], [10.0, -5.0], [30.0, 50.0]])
    sources_xy = np.array([[40.0, 100.0], [90.0, 50.0]])
    # a line candidate of element 3 lands on source 2
    line = np.column_stack([30.0 + DisplacementGrid(0.0, 80.0, 81).values(), np.full(81, 50.0)])
    for objective in OBJECTIVES:
        values = scored(objective, 2, sensors_xy, sources_xy, scn, line)
        assert [(i, str(v)) for i, v in enumerate(values) if isinstance(v, ValidationError)] == [
            (60, "sensor 3 coincides with source 2")
        ]
    # sensor 3 sits on source 2 while element 1 moves: every candidate names
    # sensor 3, not its row among the fixed sensors
    fixed_on_source = np.array([[0.0, 0.0], [10.0, -5.0], [90.0, 50.0]])
    for objective in ("gf", "power"):
        values = scored(objective, 0, fixed_on_source, sources_xy, scn, line[:5] - 100.0)
        assert [str(v) for v in values] == ["sensor 3 coincides with source 2"] * 5


def counting_scorer(steps, calls, step=None):
    """A stand-in for ``_chunk_scorer`` that records each built chunk size in ``steps``
    and each scored chunk's length in ``calls``, optionally forcing the chunk size."""
    real = reposition._chunk_scorer

    def build(*args):
        score, default = real(*args)
        steps.append(step or default)

        def counted(chunk):
            calls.append(len(chunk))
            return score(chunk)

        return counted, step or default

    return build


class TestFailureReasonsAtTheEdges:
    # pinned reasons: a candidate re-scored as a one-row chunk names the same
    # sensor and source, in the same order of checks, as its whole layout does
    SOURCES = np.array([[40.0, 100.0], [90.0, 50.0]])

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_moving_and_fixed_sensors_on_sources(self, objective):
        # element 1 moves onto source 1 while sensor 3 sits on source 2
        scn = TestBatchedBoundSearch._coinciding_scenario()
        sensors_xy = np.array([[0.0, 0.0], [10.0, -5.0], [90.0, 50.0]])
        positions = np.array([[40.0, 100.0], [5.0, 5.0], [7.0, 1.0]])
        values = scored(objective, 0, sensors_xy, self.SOURCES, scn, positions)
        assert [str(v) for v in values] == ["sensor 1 coincides with source 1"] + [
            "sensor 3 coincides with source 2"
        ] * 2

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_source_at_the_frame_origin(self, objective):
        scn = TestBatchedBoundSearch._coinciding_scenario()
        sensors_xy = np.array([[5.0, 1.0], [10.0, -5.0], [30.0, 50.0]])
        sources_xy = np.array([[0.0, 0.0], [90.0, 50.0]])
        positions = np.array([[1.0, 2.0], [3.0, 4.0], [90.0, 50.0]])
        values = scored(objective, 1, sensors_xy, sources_xy, scn, positions)
        assert str(values[2]) == "sensor 2 coincides with source 2"
        if objective in ("crb_theta", "crb_r"):
            assert [str(v) for v in values[:2]] == ["a source coincides with the frame origin"] * 2
        else:
            for value, position in zip(values[:2], positions):
                moved = sensors_xy.copy()
                moved[1] = position
                assert value == objective_alone(objective, 1, moved, sources_xy, scn)


class TestBatchedScorerProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_values_independent_of_chunk_size(self, seed, k):
        rng = np.random.default_rng(seed)
        scn = random_upper_half_scenario(rng)
        element = int(rng.integers(scn.num_sensors))
        line, box = candidate_positions(scn, element, DisplacementGrid(-60, 60, 13), 40.0, 4)
        real = reposition._chunk_scorer

        def with_chunk(*args):
            return real(*args)[0], k

        for objective in OBJECTIVES:
            for positions in (line, box):
                default = batched_values(objective, scn, element, positions)
                with mock.patch.object(reposition, "_chunk_scorer", with_chunk):
                    assert batched_values(objective, scn, element, positions) == default


class TestGridValidation:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: DisplacementGrid(math.nan, 1.0, 3), "grid start must be a finite number, got nan"),
            (lambda: DisplacementGrid(0.0, math.inf, 3), "grid stop must be a finite number, got inf"),
            (lambda: DisplacementGrid("0", 1.0, 3), "grid start must be a finite number, got '0'"),
            (lambda: DisplacementGrid(0.0, 1.0, 2.5), "grid steps must be a positive integer, got 2.5"),
            (lambda: DisplacementGrid(0.0, 1.0, 0), "grid steps must be a positive integer, got 0"),
            (lambda: DisplacementGrid(1.0, 0.0, 3), r"grid bounds reversed: \[1.0, 0.0\]"),
            (lambda: BoxGrid(math.nan, 1.0, 3, 0.0, 1.0, 3), "box grid x_start must be a finite number, got nan"),
            (lambda: BoxGrid(0.0, 1.0, 3, 0.0, -math.inf, 3), "box grid y_stop must be a finite number, got -inf"),
            (lambda: BoxGrid(0.0, 1.0, 3, 0.0, 1.0, 2.5), "box grid y_steps must be a positive integer, got 2.5"),
        ],
    )
    def test_rejects_naming_the_field(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make()

    def test_nan_bound_stops_every_search(self, scenario_a):
        # a NaN bound used to reach the scorers: a raw LinAlgError for crb_theta,
        # displacement 0 for det and position (nan, 0) for a box
        with pytest.raises(ValidationError, match="^grid start must be a finite number"):
            grid_search(scenario_a, 2, "crb_theta", DisplacementGrid(math.nan, 1.0, 3))
        with pytest.raises(ValidationError, match="^grid start must be a finite number"):
            line_search_reposition(scenario_a, 2, "det", DisplacementGrid(math.nan, 1.0, 3))
        with pytest.raises(ValidationError, match="^box grid x_start must be a finite number"):
            grid_search(scenario_a, 2, "power", BoxGrid(math.nan, 1.0, 3, -1.0, 1.0, 3))


def origin_at_element(scn: Scenario, element: int) -> Scenario:
    """The same constellation in a frame whose origin is the element, so its position is exactly (0, 0)."""
    sensors_xy, sources_xy, _ = scenario_positions(scn)
    origin = sensors_xy[element].copy()
    return scenario_from_positions(
        sensors_xy - origin, sources_xy - origin, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )


class TestOneScan:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(-80.0, 80.0),
        span=st.floats(0.0, 80.0),
        steps=st.integers(1, 30),
    )
    def test_displacement_grid_and_one_row_box_agree(self, seed, start, span, steps):
        rng = np.random.default_rng(seed)
        scn = random_upper_half_scenario(rng)
        element = int(rng.integers(scn.num_sensors))
        moved_frame = origin_at_element(scn, element)
        # with the element at (0, 0) both regions hold bit-identical positions
        line_grid = DisplacementGrid(start, start + span, steps)
        row = BoxGrid(start, start + span, steps, 0.0, 0.0, 1)
        sensors_xy, sources_xy, _ = scenario_positions(scn)
        for objective in OBJECTIVES:
            along = grid_search(moved_frame, element, objective, line_grid)
            box = grid_search(moved_frame, element, objective, row)
            assert (along.displacement_m, 0.0) == box.new_position_m
            assert np.array_equal(along.new_arrival_rad, box.new_arrival_rad)
            assert along.objective_before == box.objective_before
            assert along.objective_after == box.objective_after
            # the baseline is the value objective_alone gives at the origin
            before = line_search_reposition(scn, element, objective, line_grid).objective_before
            assert before == objective_alone(objective, element, sensors_xy, sources_xy, scn)

    def test_region_must_suit_the_mode(self, scenario_a):
        with pytest.raises(ValidationError, match="^mode 'linesearch' cannot search a BoxGrid$"):
            line_search_reposition(scenario_a, 2, "det", BoxGrid(-1.0, 1.0, 3, -1.0, 1.0, 3))
        with pytest.raises(ValidationError, match="^mode 'grid' cannot search a list$"):
            grid_search(scenario_a, 2, "det", [0.0, 1.0])

    def test_unscorable_origin(self):
        # element 2 sits on source 1: a box gives NaN before and a note, while a
        # slide keeps that source on the element's own line and raises
        scn = Scenario(
            sources=(SourceGeom(110.0, 0.0), SourceGeom(150.0, 1.2)),
            sensors=(SensorGeom(0.0, 0.0), SensorGeom(110.0, 0.0), SensorGeom(30.0, 2.0)),
            velocity_mps=3e8,
            signals=(SourceSignal(1e6, 1 + 1j), SourceSignal(2e6, 0.5 - 1j)),
            noise_variance=1.0,
            snapshots=1,
        )
        for objective in OBJECTIVES:
            plan = grid_search(scn, 1, objective, BoxGrid(90.0, 100.0, 3, 10.0, 20.0, 3))
            assert math.isnan(plan.objective_before)
            assert plan.source_notes == ("original position not evaluable: sensor 2 coincides with source 1",)
            for search in (line_search_reposition, grid_search):
                with pytest.raises(SingularGeometryError, match="on or below the element's horizontal line"):
                    search(scn, 1, objective, DisplacementGrid(5.0, 15.0, 3))


class TestApplyReposition:
    def test_identity_plan(self, scenario_a):
        plan = RepositionPlan(
            element=2,
            mode="analytic",
            new_arrival_rad=scenario_a.geometry.arrival_rad[2].copy(),
            displacement_m=None,
            objective="gf",
            objective_before=1.0,
            objective_after=1.0,
            source_notes=(),
        )
        assert apply_reposition(scenario_a, plan) == scenario_a

    def test_angles_read_back(self, scenario_a):
        plan = reference_plan_a()
        after = apply_reposition(scenario_a, plan)
        assert np.array_equal(after.geometry.arrival_rad[2], plan.new_arrival_rad)

    def test_vertical_distances_preserved(self, scenario_a):
        after = apply_reposition(scenario_a, reference_plan_a())
        assert np.array_equal(after.geometry.vertical_m, scenario_a.geometry.vertical_m)

    def test_other_rows_delays_bit_identical(self, scenario_a):
        tau0 = native_delays(scenario_a)
        tau1 = native_delays(apply_reposition(scenario_a, reference_plan_a()))
        assert np.array_equal(tau0[[0, 1, 3]], tau1[[0, 1, 3]])
        assert not np.array_equal(tau0[2], tau1[2])

    def test_rejects_out_of_range_angles(self, scenario_a):
        plan = RepositionPlan(
            element=2,
            mode="analytic",
            new_arrival_rad=np.array([1.0, 3.2, 1.0]),
            displacement_m=None,
            objective="gf",
            objective_before=1.0,
            objective_after=1.0,
            source_notes=(),
        )
        with pytest.raises(ValidationError):
            apply_reposition(scenario_a, plan)


class TestPowerBound:
    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_power_bounded_by_phase_objective(self, fixture, request):
        pws = request.getfixturevalue(fixture)
        freqs = np.array([s.freq_hz for s in pws.signals])
        A = steering_matrix(native_delays(pws), freqs)
        powers, _ = received_power(A, pws.signals)
        smax2 = max(abs(s.amplitude) ** 2 for s in pws.signals)
        for k in range(pws.num_sensors):
            assert powers[k] <= smax2 * gf_objective(phase_terms(pws, k)) * (1 + 1e-12)
