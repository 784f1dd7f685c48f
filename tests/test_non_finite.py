"""Overflowing inputs give non-finite numbers: they must fail their rows or candidates with a
reason, never crash a command with a traceback, and never be chosen by a search."""

import json
import math
import re
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from nfcrb import DisplacementGrid, SingularCovarianceError, ValidationError, grid_search, line_search_reposition
from nfcrb import fim_crb
from nfcrb.optimizer import SweepSpec, _native_powers, sweep
from nfcrb.reposition import analytic_reposition
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


def test_overflowing_sweep_warns_nowhere(tmp_path, capsys):
    # the sweep's planning and evaluation run under one np.errstate: the rows say why they fail
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--scenario", "scenario_a", "--vary", "velocity:1e-310:1e-300:2", "--modes", "primary,reposition",
            "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and caught == []
    skipped = f"{SKIPPED}; evaluation failed: {NON_FINITE_COV}"
    assert out.read_text().splitlines() == [
        "point,mode,det,crb_theta_total,crb_r_total,flags",
        f"1.0000e-310,primary,nan,nan,nan,evaluation failed: {NON_FINITE_COV}",
        f"1.0000e-310,reposition,nan,nan,nan,{skipped}",
        f"1.0000e-300,primary,nan,nan,nan,evaluation failed: {NON_FINITE_COV}",
        f"1.0000e-300,reposition,nan,nan,nan,{skipped}",
    ]


# what a search over --grid=-1e200:1e200:5 printed before its scoring ran under np.errstate:
# the before/after objective and one note per skipped candidate
OVERFLOWING_SEARCH = {
    "gf": ("3.587878e+00", "objective gf is not finite (nan)"),
    "det": ("9.194623e+01", "objective det is not finite (nan)"),
    "crb_theta": ("2.764715e+00", NON_FINITE_COV),
}


@pytest.mark.parametrize("objective", sorted(OVERFLOWING_SEARCH))
def test_overflowing_search_warns_nowhere(objective, capsys):
    # candidates are scored under one np.errstate: the skipped ones say why, numpy says nothing
    argv = ["reposition", "--scenario", "scenario_b", "--mode", "grid", "--objective", objective,
            "--grid=-1e200:1e200:5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and caught == []
    value, reason = OVERFLOWING_SEARCH[objective]
    assert stdout.splitlines()[:8] == [
        f"plan: element 1, mode grid, objective {objective}",
        "displacement: +0 m along the reference axis",
        "new arrival angles (deg): [73.605, 56.345]",
        f"objective before/after: {value} / {value}",
        *(f"  note: displacement {d} m skipped: {reason}" for d in ("-1e+200", "-5e+199", "+5e+199", "+1e+200")),
    ]


def test_subnormal_singular_values_warn_nowhere(capsys):
    # at this noise level the information matrix's singular values are subnormal: their
    # reciprocals overflow to inf bounds, which the report prints without a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(["compute", "--scenario", "scenario_b", "--eta", "1e160"], capsys)
    assert code == 0 and err == "" and caught == []
    assert "CRB bearing (rad^2): [inf, inf], total inf" in stdout.splitlines()


OVERFLOWING_DIVISOR = "source 1: phase divisor c / (2 f H) = inf is not finite"


def test_overflowing_divisor_skips_the_reposition_row(scenario_a, tmp_path, capsys):
    # c / (2 f H) overflows at these frequencies of source 1, whose small-phase target needs it
    spec = SweepSpec("frequency", 1e-320, 1e-310, 2, source=0, modes=("primary", "reposition"))
    rows = sweep(scenario_a, spec)
    primary, moved = rows[0::2], rows[1::2]
    assert all(f"reposition skipped: {OVERFLOWING_DIVISOR}; " in row.diagnostics for row in moved)
    assert [(row.det, row.crb_theta_total) for row in moved] == [(row.det, row.crb_theta_total) for row in primary]

    out = tmp_path / "rows.csv"
    argv = ["sweep", "--scenario", "scenario_a", "--vary", "frequency:1:1e-320:1e-310:2", "--modes",
            "primary,reposition", "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["primary", "reposition"] * 2
    assert all(OVERFLOWING_DIVISOR in line for line in lines[1::2])


def test_analytic_reposition_rejects_an_overflowing_divisor(scenario_a, tmp_path, capsys):
    with pytest.raises(ValidationError, match=f"^{re.escape(OVERFLOWING_DIVISOR)}$"):
        analytic_reposition(replace(scenario_a, signals=(replace(scenario_a.signals[0], freq_hz=1e-320),
                                                        *scenario_a.signals[1:])), 0)
    doc = json.loads(resources.files("nfcrb").joinpath("data", "scenario_a.json").read_text())
    doc["signals"][0]["freq_hz"] = 1e-320
    path = tmp_path / "tiny_frequency.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["reposition", "--scenario", str(path), "--mode", "analytic"], capsys)
    assert (code, out, err) == (2, "", f"error: {OVERFLOWING_DIVISOR}\n")
