"""Command-line interface.

Subcommands:

* ``compute``    bound report for one scenario file;
* ``reposition`` move one element (analytic / linesearch / grid) and compare;
* ``sweep``      frequency or velocity sweep to CSV;
* ``validate``   self-checks of the scenario as given (derivatives against one
                 finite-difference pass, closed-form cross-check, per-element
                 power bound on pairwise input); nonzero exit on any failure.

Element and source numbers on the command line are 1-based, matching the
scenario-file row/column order.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .errors import ValidationError
from .fim_crb import fim_closed_form, fim_generic, linearize, rx_derivatives_fd, steering_derivatives
from .geometry import polar_axes
from .optimizer import SweepSpec, _native_powers, compare_report, grid_search, sweep
from .reposition import (DisplacementGrid, analytic_reposition, apply_reposition, gf_objective, line_search_reposition,
                         phase_terms)
from .scenario_io import (format_run_report, load_scenario, parse_number, run_report, run_report_row, run_reports,
                          runtime_scenario, write_reports)


def _load_runtime(args):
    sf = load_scenario(args.scenario)
    eta = None if args.eta is None else parse_number(args.eta, "--eta")
    snaps = None if args.snapshots is None else parse_number(args.snapshots, "--snapshots", int)
    scn, defaults = runtime_scenario(sf, eta, snaps)
    return sf, scn, defaults


def _resolve_element(scn, spec: str) -> int:
    if spec == "auto":
        return _native_powers(scn)[1]
    k = parse_number(spec, "--element", int) - 1
    if not 0 <= k < scn.num_sensors:
        raise ValidationError(f"element {spec} outside 1..{scn.num_sensors}")
    return k


def _max_rel_err(analytic: np.ndarray, finite_diff: np.ndarray) -> float:
    """Largest per-matrix relative error of two stacks of matrices, nan if any error is nan."""
    err = np.abs(analytic - finite_diff).max(axis=(-2, -1)) / np.maximum(np.abs(analytic).max(axis=(-2, -1)), 1e-300)
    return float(err.max())


def _parse_grid(text: str) -> DisplacementGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be min:max:steps, got {text!r}")
    return DisplacementGrid(
        parse_number(parts[0], "--grid min"),
        parse_number(parts[1], "--grid max"),
        parse_number(parts[2], "--grid steps", int),
    )


def cmd_compute(args) -> int:
    sf, scn, defaults = _load_runtime(args)
    report = run_report(scn, sf.name, defaults)
    print(format_run_report(report))
    if args.out:
        write_reports([run_report_row(report)], args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_reposition(args) -> int:
    sf, scn, defaults = _load_runtime(args)
    element = _resolve_element(scn, args.element)
    if args.mode == "analytic":
        m = args.m if args.m == "auto" else parse_number(args.m, "--m", int)
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

    named = [(scn, f"{sf.name} (primary)"), (apply_reposition(scn, plan), f"{sf.name} (repositioned)")]
    before, after = run_reports(named, defaults)
    print("\n--- before ---")
    print(format_run_report(before))
    print("\n--- after ---")
    print(format_run_report(after))
    cmp = compare_report(before.evaluation, after.evaluation)
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
        source = parse_number(parts[1], "--vary source", int) - 1
        if not 0 <= source < scn.num_sources:
            raise ValidationError(f"--vary source: {source + 1} outside 1..{scn.num_sources}")
        bounds = parts[2:]
    elif parts[0] == "velocity":
        if len(parts) != 4:
            raise ValidationError("velocity sweep must be velocity:<start>:<stop>:<steps>")
        source = None
        bounds = parts[1:]
    else:
        raise ValidationError(f"unknown sweep kind {parts[0]!r}")
    spec = SweepSpec(
        vary=parts[0],
        source=source,
        start=parse_number(bounds[0], "--vary start"),
        stop=parse_number(bounds[1], "--vary stop"),
        steps=parse_number(bounds[2], "--vary steps", int),
        modes=tuple(args.modes.split(",")),
    )
    rows = sweep(scn, spec)
    write_reports(rows, args.out)
    print(f"swept {spec.vary} over [{spec.start:g}, {spec.stop:g}] in {spec.steps} steps; "
          f"{len(rows)} rows -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    sf, scn, _ = _load_runtime(args)
    failures = 0

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
        failures += 0 if ok else 1

    lin = linearize(scn)
    steering_fd, rx_fd = rx_derivatives_fd(scn)
    for axis, fd in zip(("bearing", "range"), steering_fd):
        err = _max_rel_err(steering_derivatives(lin, axis), fd)
        check(f"steering derivatives ({axis})", err <= 1e-6, f"max rel err {err:.3e} (tol 1e-06)")

    err = _max_rel_err(lin.derivs, rx_fd)
    check("array covariance derivatives", err <= 1e-5, f"max rel err {err:.3e} (tol 1e-05)")

    generic = fim_generic(lin.array_cov, lin.derivs, scn.snapshots)
    _, deviations = fim_closed_form(lin, generic)
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

    if polar_axes(scn)[1] is not None:  # a reconstruction residual: pairwise input
        powers, _ = _native_powers(scn)
        smax2 = max(abs(sig.amplitude) ** 2 for sig in scn.signals)
        ok = True
        for k in range(scn.num_sensors):
            bound = smax2 * gf_objective(phase_terms(scn, k))
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
    p.add_argument("--eta", default=None, help="override noise variance")
    p.add_argument("--snapshots", default=None, help="override snapshot count")
    p.add_argument("--out", default=None, help="optional CSV destination")

    p = sub.add_parser("reposition", help="move one element and compare bounds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", required=True, choices=["analytic", "linesearch", "grid"])
    p.add_argument("--element", default="auto", help="1-based element number or 'auto' (strongest)")
    p.add_argument("--objective", default="gf", choices=["gf", "det", "crb_theta", "crb_r"])
    p.add_argument("--m", default="auto", help="phase divisor for the analytic mode ('auto' or integer)")
    p.add_argument("--grid", default="-200:200:401", help="displacement grid min:max:steps (meters)")
    p.add_argument("--eta", default=None)
    p.add_argument("--snapshots", default=None)

    p = sub.add_parser("sweep", help="frequency or velocity sweep to CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument(
        "--vary",
        required=True,
        help="frequency:<source>:<start>:<stop>:<steps> or velocity:<start>:<stop>:<steps>",
    )
    p.add_argument("--modes", default="primary", help="comma-separated: primary,reposition")
    p.add_argument("--out", required=True, help="CSV destination")
    p.add_argument("--eta", default=None)
    p.add_argument("--snapshots", default=None)

    p = sub.add_parser("validate", help="run self-checks; nonzero exit on failure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--eta", default=None)
    p.add_argument("--snapshots", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* function is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
