"""Overflowing inputs give non-finite numbers: they must fail their rows or candidates with a
reason, never crash a command with a traceback, and never be chosen by a search."""

import math
import warnings

import numpy as np
import pytest

from nfcrb import DisplacementGrid, SingularCovarianceError, ValidationError, grid_search, line_search_reposition
from nfcrb import fim_crb
from nfcrb.optimizer import SweepSpec, _native_powers, sweep
from nfcrb.cli import main as cli_main

NON_FINITE_COV = "array covariance has non-finite entries"


@pytest.fixture(autouse=True)
def quiet():
    # the overflow warnings numpy gives on the way are expected here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def run_cli(argv, capsys):
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_kernel_rejects_a_non_finite_covariance():
    cov = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
    cov[1, 0, 2] = complex(math.nan, 0.0)
    with pytest.raises(SingularCovarianceError, match=f"^{NON_FINITE_COV}$"):
        fim_crb._eigenvalues(cov)
    with pytest.raises(SingularCovarianceError, match=f"^{NON_FINITE_COV}$"):
        fim_crb.fim_generic(np.full((2, 2), math.inf), np.zeros((1, 2, 2)), 1)


def test_kernel_rejects_a_non_finite_information_matrix():
    derivs = np.zeros((1, 2, 2, 2), dtype=complex)
    derivs[0, 0, 0, 0] = math.inf
    with pytest.raises(ValidationError, match="^information matrix has non-finite entries$"):
        fim_crb._trace_form(np.eye(2, dtype=complex)[None], derivs)


SWEEP_CASES = {
    # velocities so small that every delay overflows
    "velocity": (
        "scenario_a", SweepSpec("velocity", 1e-310, 1e-300, 2, modes=("primary", "reposition")),
        ["velocity:1e-310:1e-300:2", "--modes", "primary,reposition"],
    ),
    # frequencies whose phases overflow: the steering or its derivative columns are not finite
    "frequency": ("scenario_b", SweepSpec("frequency", 1e300, 1e308, 3, source=0), ["frequency:1:1e300:1e308:3"]),
}
SKIPPED = "strongest element 1; reposition skipped: no source admits an analytic target here; use the line-search mode instead"
SWEEP_NOTES = {
    "velocity": [f"evaluation failed: {NON_FINITE_COV}", f"{SKIPPED}; evaluation failed: {NON_FINITE_COV}"] * 2,
    "frequency": [
        "evaluation failed: information matrix has non-finite entries",
        f"evaluation failed: {NON_FINITE_COV}",
        f"evaluation failed: {NON_FINITE_COV}",
    ],
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_non_finite_sweep_rows_read_nan(case, request, tmp_path, capsys):
    name, spec, vary = SWEEP_CASES[case]
    rows = sweep(request.getfixturevalue(name), spec)
    assert [row.diagnostics for row in rows] == SWEEP_NOTES[case]
    assert all(math.isnan(v) for row in rows for v in (row.det, row.crb_theta_total, row.crb_r_total))

    out = tmp_path / "rows.csv"
    code, stdout, err = run_cli(["sweep", "--scenario", name, "--vary", *vary, "--out", str(out)], capsys)
    assert code == 0 and err == "" and stdout.startswith(f"swept {spec.vary} over")
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[2:] for line in lines] == [["nan"] * 3 + [note] for note in SWEEP_NOTES[case]]


def test_grid_of_non_finite_candidates_fails_the_search(scenario_a, capsys):
    element = _native_powers(scenario_a)[1]
    with pytest.raises(ValidationError, match="^objective evaluation failed at every grid point$"):
        grid_search(scenario_a, element, "crb_r", DisplacementGrid(1e308, 1e308, 2))
    argv = ["reposition", "--scenario", "scenario_a", "--mode", "grid", "--objective", "crb_r", "--grid=1e308:1e308:2"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: objective evaluation failed at every grid point\n")


def test_line_search_skips_non_finite_candidates(scenario_b, capsys):
    element = _native_powers(scenario_b)[1]
    plan = line_search_reposition(scenario_b, element, "crb_theta", DisplacementGrid(-1e160, 1e160, 3))
    assert plan.displacement_m == 0.0 and plan.objective_after == plan.objective_before
    assert plan.source_notes == tuple(
        f"displacement {d} m skipped: {NON_FINITE_COV}" for d in ("-1e+160", "+1e+160")
    )
    argv = ["reposition", "--scenario", "scenario_b", "--mode", "linesearch", "--objective", "crb_theta",
            "--grid=-1e160:1e160:3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert "displacement: +0 m along the reference axis" in out
    assert f"  note: displacement -1e+160 m skipped: {NON_FINITE_COV}" in out


def test_search_never_picks_a_nan_score(scenario_b, capsys):
    element = _native_powers(scenario_b)[1]
    plan = grid_search(scenario_b, element, "gf", DisplacementGrid(-1e200, 0.0, 2))
    assert plan.displacement_m == 0.0
    assert math.isfinite(plan.objective_after) and plan.objective_after == plan.objective_before
    assert plan.source_notes == ("displacement -1e+200 m skipped: objective gf is not finite (nan)",)
    argv = ["reposition", "--scenario", "scenario_b", "--mode", "grid", "--objective", "gf", "--grid=-1e200:0:2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert "displacement: +0 m along the reference axis" in out
    assert "  note: displacement -1e+200 m skipped: objective gf is not finite (nan)" in out
    assert "objective before/after: 3.587878e+00 / 3.587878e+00" in out
