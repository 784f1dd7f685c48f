from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nfcrb import (
    BoxGrid,
    DisplacementGrid,
    ValidationError,
    compare_report,
    constellation_metrics,
    grid_search,
)
from nfcrb.signal_model import SourceSignal
from nfcrb.fim_crb import fim_for_scenario
from nfcrb.reposition import analytic_reposition
from nfcrb.optimizer import SweepSpec, sweep
from conftest import crb_report, scenario_from_positions


def symmetric_toy():
    # mirror-symmetric layout: reflecting x -> -x relabels the two identical
    # sources and swaps the fixed sensors, so the bearing bound is an even
    # function of the moving element's displacement
    sensors = np.array([[-30.0, 0.0], [30.0, 0.0], [0.0, -20.0]])
    sources = np.array([[-40.0, 250.0], [40.0, 250.0]])
    sig = (SourceSignal(8e5, 2 + 1j), SourceSignal(8e5, 2 + 1j))
    return scenario_from_positions(sensors, sources, 3e8, sig, 1.0, 1)


def crb_theta_at(scn, d):
    sensors = np.array([[-30.0, 0.0], [30.0, 0.0], [d, -20.0]])
    sources = np.array([[-40.0, 250.0], [40.0, 250.0]])
    moved = scenario_from_positions(
        sensors, sources, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )
    return crb_report(fim_for_scenario(moved).entries[None], 2).crb_theta_total


class TestGridSearch:
    def test_symmetric_toy_minimizer(self):
        scn = symmetric_toy()
        # the profile is even in the displacement with its optimum at zero
        # (checked directly); the coarse grid point nearest that optimum wins
        assert crb_theta_at(scn, 6.0) == pytest.approx(crb_theta_at(scn, -6.0), rel=1e-8)
        assert crb_theta_at(scn, 0.0) < crb_theta_at(scn, 3.0) < crb_theta_at(scn, 6.0)
        grid = DisplacementGrid(-14.5, 15.5, 11)  # step 3, nearest point to 0 is +0.5
        plan = grid_search(scn, 2, "crb_theta", grid)
        assert plan.displacement_m == pytest.approx(0.5)
        assert plan.mode == "grid"

    def test_single_point_grid_returned_even_if_worse(self):
        scn = symmetric_toy()
        plan = grid_search(scn, 2, "crb_theta", DisplacementGrid(12.0, 12.0, 1))
        assert plan.displacement_m == pytest.approx(12.0)
        assert plan.objective_after > plan.objective_before
        assert any("worse" in note for note in plan.source_notes)

    def test_box_grid_records_position(self):
        scn = symmetric_toy()
        region = BoxGrid(-10.0, 10.0, 5, -25.0, -15.0, 3)
        plan = grid_search(scn, 2, "crb_theta", region)
        assert plan.new_position_m is not None
        x, y = plan.new_position_m
        assert -10.0 <= x <= 10.0 and -25.0 <= y <= -15.0
        # exhaustive enumeration over the same region is the oracle
        best = min(
            crb_theta_at_xy(scn, px, py) for px, py in region.points()
        )
        assert plan.objective_after == pytest.approx(best, rel=1e-9)

    def test_dominates_line_search_superset(self, scenario_a):
        from nfcrb import line_search_reposition

        coarse = DisplacementGrid(-60.0, 60.0, 13)
        fine = DisplacementGrid(-60.0, 60.0, 49)  # superset of the coarse points
        ls = line_search_reposition(scenario_a, 2, "det", coarse)
        gs = grid_search(scenario_a, 2, "det", fine)
        assert gs.objective_after <= ls.objective_after + 1e-12


def crb_theta_at_xy(scn, x, y):
    sensors = np.array([[-30.0, 0.0], [30.0, 0.0], [x, y]])
    sources = np.array([[-40.0, 250.0], [40.0, 250.0]])
    moved = scenario_from_positions(
        sensors, sources, scn.velocity_mps, scn.signals, scn.noise_variance, scn.snapshots
    )
    return crb_report(fim_for_scenario(moved).entries[None], 2).crb_theta_total


class TestSweep:
    def test_two_step_sweep_row_count(self, scenario_b):
        spec = SweepSpec(vary="frequency", source=0, start=1e6, stop=2e6, steps=2,
                         modes=("primary",))
        rows = sweep(scenario_b, spec)
        assert len(rows) == 2
        assert [r.point for r in rows] == [1e6, 2e6]

    def test_table_grid_both_modes(self, scenario_b):
        spec = SweepSpec(vary="frequency", source=0, start=1e6, stop=1e7, steps=10,
                         modes=("primary", "reposition"))
        rows = sweep(scenario_b, spec)
        assert len(rows) == 20
        for row in rows:
            assert np.isfinite(row.det) and row.det > 0
            assert np.isfinite(row.crb_theta_total)

    def test_velocity_sweep_reposition_fallback(self, scenario_a):
        # at 1e6 m/s no analytic target is feasible; the row keeps the primary
        # constellation and says so rather than going non-finite
        spec = SweepSpec(vary="velocity", start=1e6, stop=1e7, steps=2,
                         modes=("primary", "reposition"))
        rows = sweep(scenario_a, spec)
        assert len(rows) == 4
        slow = [r for r in rows if r.point == 1e6 and r.mode == "reposition"][0]
        assert "reposition skipped" in slow.diagnostics
        assert np.isfinite(slow.det) and slow.det > 0

    def test_deterministic(self, scenario_b):
        spec = SweepSpec(vary="velocity", start=1e6, stop=3e6, steps=3,
                         modes=("primary", "reposition"))
        assert sweep(scenario_b, spec) == sweep(scenario_b, spec)

    def test_noise_does_not_move_reposition_angles(self, scenario_b):
        p1 = analytic_reposition(scenario_b, 2)
        p2 = analytic_reposition(replace(scenario_b, noise_variance=2.0), 2)
        assert np.array_equal(p1.new_arrival_rad, p2.new_arrival_rad)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValidationError):
            SweepSpec(vary="frequency", source=0, start=2e6, stop=1e6, steps=5)
        with pytest.raises(ValidationError):
            SweepSpec(vary="velocity", start=1e6, stop=2e6, steps=1)
        with pytest.raises(ValidationError):
            SweepSpec(vary="frequency", start=1e6, stop=2e6, steps=5)

    def test_rejects_fractional_steps(self):
        with pytest.raises(ValidationError, match="sweep steps must be a positive integer, got 2.5"):
            SweepSpec("velocity", 1e8, 2e8, 2.5)

    def test_rejects_infinite_bound(self):
        with pytest.raises(ValidationError, match="sweep stop must be a finite number, got inf"):
            SweepSpec("velocity", 1e8, float("inf"), 3)

    def test_rejects_repeated_modes(self):
        with pytest.raises(ValidationError, match="sweep modes repeat: primary,reposition,primary"):
            SweepSpec(vary="velocity", start=1e6, stop=2e6, steps=2,
                      modes=("primary", "reposition", "primary"))


def evaluation(det, crb_theta_total, crb_r_total):
    """Stand-in for a ConstellationEvaluation holding only what compare_report reads."""
    crb = SimpleNamespace(crb_theta_total=crb_theta_total, crb_r_total=crb_r_total)
    return SimpleNamespace(det=det, crb=crb)


class TestCompareReport:
    def test_identical_inputs(self):
        m = evaluation(3.0, 2.0, 1.0)
        cmp = compare_report(m, m)
        assert cmp.det_ratio == cmp.crb_theta_ratio == cmp.crb_r_ratio == 1.0
        assert cmp.worsened == ()

    def test_reference_value_pairs(self):
        before = evaluation(1.8112e-42, 1.0308e-29, 8.8505e-26)
        after = evaluation(3.4102e-44, 6.0716e-31, 6.1691e-27)
        cmp = compare_report(before, after)
        assert cmp.det_ratio == pytest.approx(53.11, rel=1e-3)
        assert cmp.crb_theta_ratio == pytest.approx(16.98, rel=1e-3)
        assert cmp.crb_r_ratio == pytest.approx(14.35, rel=1e-3)
        assert cmp.worsened == ()

    def test_doubling_flags_everything(self):
        before = evaluation(3.0, 2.0, 1.0)
        after = evaluation(6.0, 4.0, 2.0)
        cmp = compare_report(before, after)
        assert cmp.det_ratio == 0.5
        assert cmp.worsened == ("det", "crb_theta", "crb_r")

    def test_zero_totals_divide_as_ieee(self):
        cmp = compare_report(evaluation(0.0, 0.0, 2.0), evaluation(1.0, 0.0, 0.0))
        assert cmp.det_ratio == 0.0
        assert np.isnan(cmp.crb_theta_ratio)
        assert cmp.crb_r_ratio == np.inf
        assert cmp.worsened == ("det",)


class TestConstellationMetrics:
    def test_reports_residual_for_pairwise(self, scenario_a):
        metrics, notes = constellation_metrics(scenario_a)
        assert metrics.det > 0
        assert any("residual" in n for n in notes)
        assert any("rank deficient" in n for n in notes)
