"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (improvement direction of the reference repositioned angle sets
that accompany the bundled scenarios) is expected to FAIL under this
package's documented conventions (noise variance 1, one snapshot, rank-one
source covariance): those angle sets strictly increase the determinant and
both bound totals on the bundled data.  The determinant direction is forced
by det(R_x) = eta^(M-1) * (eta + sum of element powers) for rank-one sources:
the moved element's power rises when its phases align near a quarter turn.
The other nine criteria pass.
"""

import math
import time
from dataclasses import replace

import numpy as np

from nfcrb import DisplacementGrid, apply_reposition, constellation_metrics, grid_search
from nfcrb.signal_model import (
    covariances,
    received_power,
    sample_covariance,
    steering_matrix,
    synthesize_snapshots,
)
from nfcrb.fim_crb import (
    fim_closed_form,
    fim_generic,
    linearize,
    rx_derivatives_fd,
)
from nfcrb.reposition import analytic_reposition, gf_objective, phase_terms
from nfcrb.optimizer import SweepSpec, sweep
from nfcrb.cli import main as cli_main
from conftest import crb_report, hadamard_bound, polar_form, random_scenario


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_steering_derivative_oracle():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    worst_variant = np.inf
    for _ in range(100):
        scn = random_scenario(rng)
        lin = linearize(scn)
        fd_cols = rx_derivatives_fd(scn)[0]
        for ana, fd in zip((lin.bearing_cols, lin.range_cols), fd_cols):
            err = max(  # per source: column n of each
                float(np.abs(a - f).max() / max(np.abs(a).max(), 1e-300))
                for a, f in zip(ana.T, fd.T)
            )
            worst = max(worst, err)
        # variant with the squared-bracket exponent 3/2 (divide by the cubed
        # distance instead of the distance): recorded as failing the oracle
        sensors_xy, sources_xy, _ = scn.geometry.positions
        d = np.linalg.norm(sources_xy[None, :, :] - sensors_xy[:, None, :], axis=2)
        variant_cols = lin.bearing_cols / d**2
        fd_b = fd_cols[0]
        err_var = max(
            float(np.abs(variant_cols[:, [n]] - fd_b[:, [n]]).max()
                  / max(np.abs(fd_b[:, [n]]).max(), 1e-300))
            for n in range(scn.num_sources)
        )
        worst_variant = min(worst_variant, err_var)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(
        1,
        ok,
        f"analytic vs central differences max rel err {worst:.3e} (tol 1e-06) over 100 "
        f"scenarios in {elapsed:.2f}s; half-power bracket exponent passes, the 3/2 "
        f"variant misses by at least {worst_variant:.3e}",
    )
    assert worst <= 1e-6
    assert worst_variant > 1e-1, "the cubed-distance variant should fail the oracle"
    assert elapsed < 5.0


def test_criterion_2_fim_oracle(scenario_a, scenario_b):
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    cases = [polar_form(scenario_a)[0], polar_form(scenario_b)[0]]
    cases += [random_scenario(rng) for _ in range(20)]
    worst = 0.0
    for scn in cases:
        lin = linearize(scn)
        F_ana = fim_generic(lin.array_cov, lin.derivs, scn.snapshots)
        F_fd = fim_generic(lin.array_cov, rx_derivatives_fd(scn)[1], scn.snapshots)
        dev = float(
            np.abs(F_ana.entries - F_fd.entries).max() / np.abs(F_ana.entries).max()
        )
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    report(2, ok, f"analytic vs finite-difference information matrices: max rel deviation "
                  f"{worst:.3e} (tol 1e-04) over 22 scenarios in {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_3_closed_form_blocks():
    rng = np.random.default_rng(303)
    gated = ("bearing-bearing", "bearing-range", "range-range", "noise-noise")
    worst_gated = 0.0
    worst_cov = 0.0
    for _ in range(20):
        scn = random_scenario(rng)
        lin = linearize(scn)
        generic = fim_generic(lin.array_cov, lin.derivs, scn.snapshots)
        _, dev = fim_closed_form(lin, generic)
        worst_gated = max(worst_gated, max(dev[k] for k in gated))
        worst_cov = max(worst_cov, max(v for k, v in dev.items() if "cov" in k))
    ok = worst_gated <= 1e-8
    report(3, ok, f"gated blocks max rel deviation {worst_gated:.3e} (tol 1e-08); "
                  f"covariance-entry blocks reconcile to {worst_cov:.3e} (pinned <= 1e-09)")
    assert worst_gated <= 1e-8
    assert worst_cov <= 1e-9  # regression pin: the entry blocks reconcile too


def test_criterion_4_crb_snapshot_scaling():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        scn = random_scenario(rng)
        lin = linearize(scn)
        r1, r2 = (
            crb_report(fim_generic(lin.array_cov, lin.derivs, k).entries[None], scn.num_sources)
            for k in (7, 14)
        )
        for a, b in ((r1.crb_theta, r2.crb_theta), (r1.crb_r, r2.crb_r)):
            worst = max(worst, float(np.abs(b - 0.5 * a).max() / np.abs(a).max()))
    ok = worst <= 1e-12
    report(4, ok, f"doubling snapshots halves every bound entry; max rel error {worst:.3e} "
                  f"(tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_5_determinant_and_power_bounds(scenario_a, scenario_b):
    rng = np.random.default_rng(505)
    ok_det = True
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        # 1x1 matrices hit the bound exactly; allow determinant rounding there
        ok_det &= bool(hadamard_bound(X) >= abs(np.linalg.det(X)) * (1 - 1e-12))
    margins = []
    for pws in (scenario_a, scenario_b):
        freqs = np.array([s.freq_hz for s in pws.signals])
        A = steering_matrix(pws.geometry.delay_geometry()(pws.velocity_mps), freqs)
        powers, _ = received_power(A, pws.signals)
        smax2 = max(abs(s.amplitude) ** 2 for s in pws.signals)
        for k in range(pws.num_sensors):
            bound = smax2 * gf_objective(phase_terms(pws.geometry, k, freqs, pws.velocity_mps))
            margins.append(bound - powers[k])
    ok = ok_det and all(m >= -1e-9 for m in margins)
    report(5, ok, f"determinant bound held on 1000 random matrices; per-element power bound "
                  f"held on both bundled scenarios (min margin {min(margins):.3f})")
    assert ok_det
    assert all(m >= -1e-9 for m in margins)


def test_criterion_6_angle_reproduction(scenario_a, scenario_b):
    plan_b = analytic_reposition(scenario_b, 2)
    angle_b2 = math.degrees(plan_b.new_arrival_rad[1])

    plan_a = analytic_reposition(scenario_a, 2)
    angle_a3 = math.degrees(plan_a.new_arrival_rad[2])

    plan_a_obtuse = analytic_reposition(scenario_a, 2, m=2, branches=["obtuse", None, None])
    angle_a1 = math.degrees(plan_a_obtuse.new_arrival_rad[0])

    # the reference right-angle values for A/source 2 and B/source 1 do not
    # follow from the angle targets; assert they are NOT produced
    angle_a2 = math.degrees(plan_a.new_arrival_rad[1])
    angle_b1 = math.degrees(plan_b.new_arrival_rad[0])

    ok = (
        abs(angle_b2 - 41.3) <= 0.1
        and abs(angle_a3 - 66.0) <= 0.5
        and abs(angle_a1 - 103.0) <= 0.5
        and abs(angle_a2 - 90.0) > 0.5
        and abs(angle_b1 - 90.0) > 0.5
    )
    report(6, ok, f"solved angles: B/source2 {angle_b2:.2f} deg (41.3 +/- 0.1), "
                  f"A/source3 {angle_a3:.2f} deg (66.0 +/- 0.5), "
                  f"A/source1 obtuse {angle_a1:.2f} deg (103.0 +/- 0.5); "
                  f"underivable right angles absent (A/source2 {angle_a2:.2f}, "
                  f"B/source1 {angle_b1:.2f})")
    assert abs(angle_b2 - 41.3) <= 0.1
    assert abs(angle_a3 - 66.0) <= 0.5
    assert abs(angle_a1 - 103.0) <= 0.5
    assert abs(angle_a2 - 90.0) > 0.5
    assert abs(angle_b1 - 90.0) > 0.5


def test_criterion_7_improvement_direction(scenario_a, scenario_b):
    # reference repositioned angle sets for the moved third element
    reference = {
        "A": (scenario_a, np.radians([103.0, 90.0, 66.0])),
        "B": (scenario_b, np.radians([90.0, 41.3])),
    }
    results = {}
    for tag, (pws, angles) in reference.items():
        plan = replace(analytic_reposition(pws, 2), new_arrival_rad=angles)
        after = apply_reposition(pws, plan)
        before_m, _ = constellation_metrics(pws)
        after_m, _ = constellation_metrics(after)
        results[tag] = (before_m, after_m)
        print(
            f"criterion  7: scenario {tag}: det {before_m.det:.6e} -> {after_m.det:.6e}, "
            f"crb_theta {before_m.crb.crb_theta_total:.6e} -> {after_m.crb.crb_theta_total:.6e}, "
            f"crb_r {before_m.crb.crb_r_total:.6e} -> {after_m.crb.crb_r_total:.6e}"
        )
    ok = all(
        a.det < b.det
        and a.crb.crb_theta_total < b.crb.crb_theta_total
        and a.crb.crb_r_total < b.crb.crb_r_total
        for b, a in results.values()
    )
    report(7, ok, "reference repositioned constellations vs primary (strict decrease required "
                  "in det, crb_theta total, crb_r total at noise 1, single snapshot)")
    for tag, (before_m, after_m) in results.items():
        assert after_m.det < before_m.det, (
            f"scenario {tag}: the reference repositioned constellation RAISES det(R_x) "
            f"({before_m.det:.6e} -> {after_m.det:.6e}) under the rank-one source-covariance "
            f"convention; with det = eta^(M-1) * (eta + sum powers), the moved element's "
            f"aligned quarter-turn phases increase its received power, so the asserted "
            f"direction cannot hold under these conventions"
        )
        assert after_m.crb.crb_theta_total < before_m.crb.crb_theta_total, f"scenario {tag}: crb_theta rose"
        assert after_m.crb.crb_r_total < before_m.crb.crb_r_total, f"scenario {tag}: crb_r rose"


def test_criterion_8_grid_oracle_dominates_analytic(scenario_a, scenario_b):
    t0 = time.monotonic()
    grid = DisplacementGrid(-200.0, 200.0, 2001)
    ok = True
    details = []
    for tag, pws in (("A", scenario_a), ("B", scenario_b)):
        analytic_after = apply_reposition(pws, analytic_reposition(pws, 2))
        metrics_after, _ = constellation_metrics(analytic_after)
        targets = {"det": metrics_after.det, "crb_theta": metrics_after.crb.crb_theta_total}
        for objective, analytic_value in targets.items():
            plan = grid_search(pws, 2, objective, grid)
            ok &= plan.objective_after <= analytic_value + 1e-12
            details.append(
                f"{tag}/{objective}: grid {plan.objective_after:.6e} <= analytic {analytic_value:.6e}"
            )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(8, ok, f"2001-point +/-200 m exhaustive search beats the analytic plan "
                  f"({'; '.join(details)}) in {elapsed:.1f}s")
    assert ok


def test_criterion_9_sample_covariance_convergence(scenario_a):
    freqs = np.array([s.freq_hz for s in scenario_a.signals])
    A = steering_matrix(scenario_a.geometry.delay_geometry()(scenario_a.velocity_mps), freqs)
    R = covariances(A, scenario_a.signals, 1.0)
    ratios = []
    for seed in range(20):
        errs = []
        for count in (200, 800):
            batch = synthesize_snapshots(A, scenario_a.signals, 1.0, count, seed=seed)
            errs.append(np.linalg.norm(sample_covariance(batch) - R))
        ratios.append(errs[1] / errs[0])
    mean_ratio = float(np.mean(ratios))
    ok = abs(mean_ratio - 0.5) <= 0.15
    report(9, ok, f"error ratio at 4x snapshots: mean {mean_ratio:.3f} over 20 seeds "
                  f"(target 0.5 +/- 0.15)")
    assert abs(mean_ratio - 0.5) <= 0.15


def test_criterion_10_sweep_protocol_and_validate(scenario_a, scenario_b):
    for tag, pws in (("A", scenario_a), ("B", scenario_b)):
        spec = SweepSpec(
            vary="frequency", source=0, start=1e6, stop=1e7, steps=10,
            modes=("primary", "reposition"),
        )
        rows = sweep(pws, spec)
        assert len(rows) == 20, f"scenario {tag}: expected 10 points x 2 modes"
        assert all(np.isfinite(r.det) and r.det > 0 for r in rows), f"scenario {tag}: dets"
    code_a = cli_main(["validate", "--scenario", "scenario_a"])
    code_b = cli_main(["validate", "--scenario", "scenario_b"])
    ok = code_a == 0 and code_b == 0
    report(10, ok, f"10-point frequency sweeps give 20 finite positive rows per scenario; "
                   f"validate exits {code_a}/{code_b} on the bundled scenarios")
    assert code_a == 0
    assert code_b == 0
