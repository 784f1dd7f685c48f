"""Command-line interface.

Subcommands:

* ``compute``    bound report for one scenario file;
* ``reposition`` move one element (analytic / linesearch / grid) and compare;
* ``sweep``      frequency or velocity sweep to CSV;
* ``validate``   self-checks (derivative oracles, closed-form cross-check,
                 determinant bound spot checks); nonzero exit on any failure.

Element and source numbers on the command line are 1-based, matching the
scenario-file row/column order.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import ValidationError
from .fim_crb import (
    fim_closed_form,
    rx_derivatives,
    rx_derivatives_fd,
    steering_derivatives,
    steering_derivatives_fd,
)
from .geometry import PairwiseScenario, delay_matrix, pairwise_delay_matrix, to_polar
from .optimizer import ConstellationMetrics, SweepSpec, compare_report, grid_search, sweep
from .reposition import (
    DisplacementGrid,
    analytic_reposition,
    apply_reposition,
    gf_objective,
    hadamard_bound,
    line_search_reposition,
    phase_terms,
)
from .scenario_io import (
    format_run_report,
    load_scenario,
    run_report,
    run_report_to_csv,
    runtime_scenario,
    write_reports,
)
from .signal_model import covariances, frequency_vector, received_power, steering_matrix


def _load_runtime(args):
    sf = load_scenario(args.scenario)
    eta = getattr(args, "eta", None)
    snaps = getattr(args, "snapshots", None)
    scn, defaults = runtime_scenario(sf, eta, snaps)
    return sf, scn, defaults


def _native_steering(scn):
    tau = pairwise_delay_matrix(scn) if isinstance(scn, PairwiseScenario) else delay_matrix(scn)
    freqs = frequency_vector(scn.signals)
    return steering_matrix(tau, freqs)


def _resolve_element(scn, spec: str) -> int:
    if spec == "auto":
        _, strongest = received_power(_native_steering(scn), scn.signals)
        return strongest
    k = int(spec) - 1
    if not 0 <= k < scn.num_sensors:
        raise ValidationError(f"element {spec} outside 1..{scn.num_sensors}")
    return k


def _parse_grid(text: str) -> DisplacementGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be min:max:steps, got {text!r}")
    return DisplacementGrid(float(parts[0]), float(parts[1]), int(parts[2]))


def cmd_compute(args) -> int:
    sf, scn, defaults = _load_runtime(args)
    report = run_report(scn, sf.name, defaults)
    print(format_run_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(run_report_to_csv(report))
        print(f"wrote {args.out}")
    return 0


def _metrics_from_report(report) -> ConstellationMetrics:
    return ConstellationMetrics(report.det, report.crb_theta_total, report.crb_r_total)


def cmd_reposition(args) -> int:
    sf, scn, defaults = _load_runtime(args)
    element = _resolve_element(scn, args.element)
    if args.mode == "analytic":
        m = args.m if args.m == "auto" else int(args.m)
        plan = analytic_reposition(scn, element, m)
    else:
        grid = _parse_grid(args.grid)
        if args.mode == "linesearch":
            plan = line_search_reposition(scn, element, args.objective, grid)
        else:
            plan = grid_search(scn, element, args.objective, grid)

    print(f"plan: element {plan.element + 1}, mode {plan.mode}, objective {plan.objective}")
    if plan.displacement_m is not None:
        print(f"displacement: {plan.displacement_m:+.6g} m along the reference axis")
    print(
        "new arrival angles (deg): ["
        + ", ".join(f"{math.degrees(a):.3f}" for a in plan.new_arrival_rad)
        + "]"
    )
    print(f"objective before/after: {plan.objective_before:.6e} / {plan.objective_after:.6e}")
    for note in plan.source_notes:
        print(f"  note: {note}")

    before = run_report(scn, f"{sf.name} (primary)", defaults)
    after = run_report(apply_reposition(scn, plan), f"{sf.name} (repositioned)", defaults)
    print("\n--- before ---")
    print(format_run_report(before))
    print("\n--- after ---")
    print(format_run_report(after))
    cmp = compare_report(_metrics_from_report(before), _metrics_from_report(after))
    print("\n--- comparison (ratios before/after; >1 means improvement) ---")
    print(f"det ratio: {cmp.det_ratio:.4f}")
    print(f"crb_theta ratio: {cmp.crb_theta_ratio:.4f}")
    print(f"crb_r ratio: {cmp.crb_r_ratio:.4f}")
    if cmp.worsened:
        print("WORSENED: " + ", ".join(cmp.worsened))
    return 0


def cmd_sweep(args) -> int:
    sf, scn, _ = _load_runtime(args)
    parts = args.vary.split(":")
    if parts[0] == "frequency":
        if len(parts) != 5:
            raise ValidationError("frequency sweep must be frequency:<source>:<start>:<stop>:<steps>")
        spec = SweepSpec(
            vary="frequency",
            source=int(parts[1]) - 1,
            start=float(parts[2]),
            stop=float(parts[3]),
            steps=int(parts[4]),
            modes=tuple(args.modes.split(",")),
        )
    elif parts[0] == "velocity":
        if len(parts) != 4:
            raise ValidationError("velocity sweep must be velocity:<start>:<stop>:<steps>")
        spec = SweepSpec(
            vary="velocity",
            start=float(parts[1]),
            stop=float(parts[2]),
            steps=int(parts[3]),
            modes=tuple(args.modes.split(",")),
        )
    else:
        raise ValidationError(f"unknown sweep kind {parts[0]!r}")
    rows = sweep(scn, spec)
    write_reports(rows, "csv", args.out)
    print(f"swept {spec.vary} over [{spec.start:g}, {spec.stop:g}] in {spec.steps} steps; "
          f"{len(rows)} rows -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    sf, scn, defaults = _load_runtime(args)
    polar = to_polar(scn)[0] if isinstance(scn, PairwiseScenario) else scn
    failures = 0

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
        failures += 0 if ok else 1

    for axis in ("bearing", "range"):
        ana = steering_derivatives(polar, axis)
        fd = steering_derivatives_fd(polar, axis)
        err = max(
            float(np.abs(a - f).max() / max(np.abs(a).max(), 1e-300))
            for a, f in zip(ana, fd)
        )
        check(f"steering derivatives ({axis})", err <= 1e-6, f"max rel err {err:.3e} (tol 1e-06)")

    A = steering_matrix(delay_matrix(polar), polar.frequencies())
    covset = covariances(A, polar.signals, polar.noise_variance)
    ana_rx = rx_derivatives(polar, A, covset)
    fd_rx = rx_derivatives_fd(polar)
    err = max(
        float(np.abs(a - f).max() / max(np.abs(a).max(), 1e-300))
        for a, f in zip(ana_rx, fd_rx)
    )
    check("array covariance derivatives", err <= 1e-5, f"max rel err {err:.3e} (tol 1e-05)")

    _, deviations = fim_closed_form(polar, A, covset, polar.snapshots)
    gated = ("bearing-bearing", "bearing-range", "range-range", "noise-noise")
    worst_gated = max(deviations[k] for k in gated)
    check(
        "closed-form information matrix (bearing/range/noise blocks)",
        worst_gated <= 1e-8,
        f"max rel deviation {worst_gated:.3e} (tol 1e-08)",
    )
    cov_blocks = {k: v for k, v in deviations.items() if "cov" in k}
    print(
        "INFO  covariance-entry block deviations: "
        + ", ".join(f"{k}={v:.3e}" for k, v in sorted(cov_blocks.items()))
    )

    rng = np.random.default_rng(20260808)
    worst_margin = float("inf")
    ok = True
    for _ in range(50):
        m = int(rng.integers(2, 7))
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        bound = hadamard_bound(X)
        det = abs(np.linalg.det(X))
        worst_margin = min(worst_margin, bound - det)
        ok &= bound >= det
    check("determinant bound on random matrices", ok, f"min (bound - |det|) = {worst_margin:.3e}")

    pws = scn if isinstance(scn, PairwiseScenario) else None
    if pws is not None:
        powers, _ = received_power(_native_steering(pws), pws.signals)
        smax2 = max(abs(sig.amplitude) ** 2 for sig in pws.signals)
        ok = True
        for k in range(pws.num_sensors):
            bound = smax2 * gf_objective(phase_terms(pws, k))
            ok &= powers[k] <= bound * (1 + 1e-12)
        check("per-element power bound", ok, "power_k <= max|amp|^2 * phase objective, all elements")

    print(f"\n{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s) on {sf.name}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfcrb",
        description="Bearing/range bound computation and single-element array optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="bound report for a scenario")
    p.add_argument("--scenario", required=True, help="path or bundled name (scenario_a, scenario_b)")
    p.add_argument("--eta", type=float, default=None, help="override noise variance")
    p.add_argument("--snapshots", type=int, default=None, help="override snapshot count")
    p.add_argument("--out", default=None, help="optional CSV destination")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("reposition", help="move one element and compare bounds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", required=True, choices=["analytic", "linesearch", "grid"])
    p.add_argument("--element", default="auto", help="1-based element number or 'auto' (strongest)")
    p.add_argument("--objective", default="gf", choices=["gf", "det", "crb_theta", "crb_r"])
    p.add_argument("--m", default="auto", help="phase divisor for the analytic mode ('auto' or integer)")
    p.add_argument("--grid", default="-200:200:401", help="displacement grid min:max:steps (meters)")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--snapshots", type=int, default=None)
    p.set_defaults(func=cmd_reposition)

    p = sub.add_parser("sweep", help="frequency or velocity sweep to CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument(
        "--vary",
        required=True,
        help="frequency:<source>:<start>:<stop>:<steps> or velocity:<start>:<stop>:<steps>",
    )
    p.add_argument("--modes", default="primary", help="comma-separated: primary,reposition")
    p.add_argument("--out", required=True, help="CSV destination")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--snapshots", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run self-checks; nonzero exit on failure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--snapshots", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
