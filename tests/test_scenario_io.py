import csv
import io
import json
import math
import re
from importlib import resources

import pytest

from nfcrb import (
    ValidationError,
    constellation_metrics,
    format_run_report,
    load_scenario,
    parse_scenario,
    run_report,
    runtime_scenario,
)
from nfcrb.geometry import PairwiseGeometry, PolarGeometry
from nfcrb.optimizer import SweepRow
from nfcrb.scenario_io import CSV_HEADER, sweep_rows_to_csv, write_reports
from nfcrb.cli import main


def read_sweep_csv(text):
    """The rows of a sweep CSV as SweepRows; the header and every row's width are checked."""
    header, *records = csv.reader(io.StringIO(text))
    assert header == CSV_HEADER
    assert all(len(rec) == len(CSV_HEADER) for rec in records)
    return [SweepRow(float(p), mode, float(d), float(t), float(r), flags) for p, mode, d, t, r, flags in records]


def polar_doc():
    return {
        "name": "toy",
        "description": "polar toy",
        "velocity_mps": 3e8,
        "signals": [
            {"freq_hz": 1e6, "amplitude": [1.0, 0.0]},
            {"freq_hz": 2e6, "amplitude": [0.0, 1.0]},
        ],
        "noise_variance": 0.5,
        "snapshots": 4,
        "geometry": {
            "polar": {
                "sources": [
                    {"range_m": 200.0, "bearing_deg": 80.0},
                    {"range_m": 300.0, "bearing_deg": 100.0},
                ],
                "sensors": [
                    {"radius_m": 0.0, "azimuth_deg": 0.0},
                    {"radius_m": 10.0, "azimuth_deg": 0.0},
                    {"radius_m": 20.0, "azimuth_deg": 0.0},
                ],
            }
        },
    }


class TestParseScenario:
    def test_bundled_scenario_a(self):
        sf = load_scenario("scenario_a")
        assert isinstance(sf.scenario.geometry, PairwiseGeometry)
        assert sf.scenario.num_sensors == 4 and sf.scenario.num_sources == 3
        assert sf.defaults_applied == ("noise_variance=1.0", "snapshots=1")
        scn, defaults = runtime_scenario(sf)
        assert isinstance(scn.geometry, PairwiseGeometry)
        assert scn.noise_variance == 1.0 and scn.snapshots == 1
        assert defaults == ("noise_variance=1.0", "snapshots=1")

    def test_polar_document(self):
        sf = parse_scenario(json.dumps(polar_doc()))
        assert isinstance(sf.scenario.geometry, PolarGeometry)
        scn, defaults = runtime_scenario(sf)
        assert isinstance(scn.geometry, PolarGeometry)
        assert defaults == ()
        assert scn.geometry.bearings_rad[0] == pytest.approx(math.radians(80.0))

    def test_both_encodings_rejected(self):
        doc = polar_doc()
        doc["geometry"]["pairwise"] = {
            "vertical_m": [[1.0, 1.0]], "arrival_deg": [[45.0, 45.0]]
        }
        with pytest.raises(ValidationError, match="exactly one"):
            parse_scenario(json.dumps(doc))

    def test_square_array_rejected(self):
        doc = polar_doc()
        doc["signals"] = doc["signals"] * 2  # four signals, four sensors below
        doc["geometry"]["polar"]["sources"] = doc["geometry"]["polar"]["sources"] * 2
        doc["geometry"]["polar"]["sensors"].append({"radius_m": 30.0, "azimuth_deg": 0.0})
        with pytest.raises(ValidationError, match="separate at most"):
            parse_scenario(json.dumps(doc))

    def test_error_paths_name_fields(self):
        doc = polar_doc()
        del doc["velocity_mps"]
        with pytest.raises(ValidationError, match="velocity_mps"):
            parse_scenario(json.dumps(doc))
        doc = polar_doc()
        doc["signals"][0]["freq_hz"] = -5.0
        with pytest.raises(ValidationError, match=r"signals\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_overrides_clear_default_flags(self):
        sf = load_scenario("scenario_b")
        scn, defaults = runtime_scenario(sf, noise_variance=2.0, snapshots=8)
        assert scn.noise_variance == 2.0 and scn.snapshots == 8
        assert defaults == ()

    @pytest.mark.parametrize("snapshots", [2.5, 0.5])
    def test_fractional_snapshot_override_rejected(self, snapshots):
        sf = load_scenario("scenario_b")
        with pytest.raises(ValidationError, match=f"snapshots: expected an integer, got {snapshots}"):
            runtime_scenario(sf, None, snapshots)

    @pytest.mark.parametrize(
        "noise_variance, message",
        [
            (math.inf, "noise_variance: expected a finite number"),
            (math.nan, "noise_variance: expected a finite number"),
            ("abc", "noise_variance: expected a number, got 'abc'"),
            (0, "noise variance must be positive, got 0.0"),
            (-1, "noise variance must be positive, got -1.0"),
        ],
    )
    def test_bad_noise_variance_override_rejected(self, noise_variance, message):
        sf = load_scenario("scenario_b")
        with pytest.raises(ValidationError, match=re.escape(message)):
            runtime_scenario(sf, noise_variance)


class TestRunReport:
    def test_defaults_listed(self, scenario_a):
        report = run_report(scenario_a, "scenario_a", ("noise_variance=1.0", "snapshots=1"))
        assert report.defaults_applied == ("noise_variance=1.0", "snapshots=1")
        ev = report.evaluation
        assert ev.residual == pytest.approx(0.51165, abs=1e-4)
        assert ev.crb.rank_deficient
        assert ev.det == pytest.approx(193.3216, rel=1e-5)
        assert ev.strongest_element == 1

    def test_polar_report_has_no_residual(self):
        sf = parse_scenario(json.dumps(polar_doc()))
        scn, defaults = runtime_scenario(sf)
        report = run_report(scn, sf.name, defaults)
        assert report.evaluation.residual is None
        assert "(polar geometry," in format_run_report(report)

    @pytest.mark.parametrize("fixture", ["scenario_a", "scenario_b"])
    def test_same_numbers_as_constellation_metrics(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        report = run_report(scn, fixture, ())
        metrics, _ = constellation_metrics(scn)
        assert report.evaluation.det == metrics.det
        assert report.evaluation.crb.crb_theta_total == metrics.crb.crb_theta_total
        assert report.evaluation.crb.crb_r_total == metrics.crb.crb_r_total


class TestCsv:
    def _rows(self, n_points=10):
        rows = []
        for i in range(n_points):
            for mode in ("primary", "reposition"):
                rows.append(
                    SweepRow(
                        point=1e6 * (i + 1),
                        mode=mode,
                        det=1.234e-3 * (i + 1),
                        crb_theta_total=5.4321e-7 / (i + 1),
                        crb_r_total=9.87e2 * (i + 1),
                        diagnostics="note one; note two",
                    )
                )
        return rows

    def test_header_and_row_count(self, tmp_path):
        rows = self._rows()
        out = tmp_path / "sweep.csv"
        write_reports(rows, out)
        lines = out.read_text().split("\n")
        assert lines[0] == "point,mode,det,crb_theta_total,crb_r_total,flags"
        assert len([ln for ln in lines if ln]) == 21  # header + 10 points x 2 modes
        assert "\r" not in out.read_text()

    def test_empty_rows_error(self, tmp_path):
        with pytest.raises(ValidationError):
            write_reports([], tmp_path / "x.csv")

    def test_round_trip_five_significant_digits(self):
        rows = self._rows(3)
        parsed = read_sweep_csv(sweep_rows_to_csv(rows))
        assert len(parsed) == len(rows)
        for a, b in zip(rows, parsed):
            assert b.mode == a.mode
            assert b.point == pytest.approx(a.point, rel=1e-4)
            assert b.det == pytest.approx(a.det, rel=1e-4)
            assert b.crb_theta_total == pytest.approx(a.crb_theta_total, rel=1e-4)
            assert b.crb_r_total == pytest.approx(a.crb_r_total, rel=1e-4)


class TestCli:
    def test_compute_runs(self, capsys):
        assert main(["compute", "--scenario", "scenario_a"]) == 0
        out = capsys.readouterr().out
        assert "defaults applied: noise_variance=1.0, snapshots=1" in out
        assert "det(R_x)" in out
        assert "closed-form" not in out

    def test_runs_the_command_bound_at_call_time(self, monkeypatch, capsys):
        # the parser is built once; a rebound cmd_* function must still be the one that runs
        from nfcrb import cli

        assert main(["compute", "--scenario", "scenario_a"]) == 0
        monkeypatch.setattr(cli, "cmd_compute", lambda *_: 7)
        assert main(["compute", "--scenario", "scenario_a"]) == 7

    @pytest.mark.parametrize("command, rest", [
        ("compute", []),
        ("reposition", ["--mode", "analytic"]),
        ("sweep", ["--vary", "velocity:1:2:3", "--out", "rows.csv"]),
        ("validate", []),
    ])
    def test_every_command_takes_the_shared_options(self, command, rest, monkeypatch, capsys):
        from nfcrb.cli import build_parser

        args = build_parser().parse_args([command, "--scenario", "X", "--eta", "0.5", "--snapshots", "4", *rest])
        assert (args.scenario, args.eta, args.snapshots) == ("X", "0.5", "4")
        monkeypatch.setenv("COLUMNS", "200")  # one help entry per line
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for shown in ("path or bundled name (scenario_a, scenario_b)", "override noise variance",
                      "override snapshot count"):
            assert shown in out

    def test_compute_csv_out(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["compute", "--scenario", "scenario_b", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"point,mode,det,crb_theta_total,crb_r_total,flags\n"
            b"0.0000e+00,primary,9.2265e+01,2.7647e+00,4.7547e+04,noise_variance=1.0; snapshots=1\n"
        )

    def test_compute_csv_out_to_an_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        assert main(["compute", "--scenario", "scenario_b", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write report to {out}: ")
        assert not out.exists()

    def test_reposition_analytic(self, capsys):
        code = main(
            ["reposition", "--scenario", "scenario_b", "--mode", "analytic", "--element", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: element 3, mode analytic" in out
        assert "comparison" in out

    def test_reposition_with_zero_bound_totals(self, capsys):
        # eta 1e200 underflows the information matrix to zero: both bound totals read 0
        code = main(["reposition", "--scenario", "scenario_b", "--mode", "analytic", "--eta", "1e200"])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "crb_theta ratio: nan\ncrb_r ratio: nan\n" in out
        assert "WORSENED" not in out

    def test_bound_search_with_a_huge_noise_variance(self, capsys):
        # eta**2 overflows; the rank-one kernel reads R^-2 as 0 without a warning or a traceback
        argv = ["reposition", "--scenario", "scenario_b", "--mode", "linesearch", "--objective", "crb_theta"]
        assert main(argv + ["--eta", "1e200"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "crb_theta ratio: nan\ncrb_r ratio: nan\n" in out
        # at 1e160 every candidate's bound overflows to inf, so every candidate fails, as in the trace form
        assert main(argv + ["--eta", "1e160"]) == 2
        assert capsys.readouterr().err == "error: objective evaluation failed at every grid point\n"

    def test_reposition_linesearch(self, capsys):
        # the grid value starts with a dash, so the = form is required
        code = main(
            [
                "reposition", "--scenario", "scenario_b", "--mode", "linesearch",
                "--element", "3", "--objective", "det", "--grid=-50:50:21",
            ]
        )
        assert code == 0
        assert "displacement" in capsys.readouterr().out

    def test_reposition_grid_mode(self, capsys):
        code = main(
            [
                "reposition", "--scenario", "scenario_b", "--mode", "grid",
                "--element", "3", "--objective", "crb_theta", "--grid=-30:30:13",
            ]
        )
        assert code == 0
        assert "mode grid" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--scenario", "scenario_b",
                "--vary", "frequency:1:1000000:10000000:3",
                "--modes", "primary,reposition", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_sweep_csv(out.read_text())
        assert len(rows) == 6

    def test_validate_passes_on_bundled(self, capsys):
        assert main(["validate", "--scenario", "scenario_a"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS  closed-form information matrix (bearing/range/noise blocks)" in out
        assert "INFO  covariance-entry block deviations: " in out
        assert main(["validate", "--scenario", "scenario_b"]) == 0

    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["compute", "--scenario", "no_such_file.json"]) == 2
        assert "error" in capsys.readouterr().err


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _pairwise_doc():
    return json.loads(resources.files("nfcrb").joinpath("data", "scenario_a.json").read_text())


SOURCES = ["geometry", "polar", "sources"]
MALFORMED_FILES = {
    "snapshots not a number": (polar_doc, ["snapshots"], "many", "scenario.snapshots: expected a number"),
    "snapshots fractional": (polar_doc, ["snapshots"], 2.5, "scenario.snapshots: expected an integer"),
    "amplitude not a number": (
        polar_doc, ["signals", 0, "amplitude", 1], "i", r"scenario.signals\[0\].amplitude\[1\]: expected a number"
    ),
    "radius not a number": (
        polar_doc, ["geometry", "polar", "sensors", 1, "radius_m"], "far",
        r"scenario.geometry.polar.sensors\[1\].radius_m: expected a number",
    ),
    "pairwise entry not a number": (
        _pairwise_doc, ["geometry", "pairwise", "vertical_m", 1, 2], "high",
        r"scenario.geometry.pairwise.vertical_m\[1\]\[2\]: expected a number",
    ),
    "null bearing": (
        polar_doc, [*SOURCES, 0, "bearing_deg"], None, r"polar.sources\[0\].bearing_deg: expected a number"
    ),
    "NaN bearing": (
        polar_doc, [*SOURCES, 0, "bearing_deg"], float("nan"),
        r"polar.sources\[0\].bearing_deg: expected a finite number",
    ),
    "source entry not an object": (polar_doc, [*SOURCES, 1], 5, r"polar.sources\[1\]: must be an object"),
    # JSON booleans, which float() would read as 1 and 0, one field of each kind
    "boolean velocity": (
        polar_doc, ["velocity_mps"], True, r"^error: scenario.velocity_mps: expected a number, got True$"
    ),
    "boolean snapshots": (polar_doc, ["snapshots"], True, r"^error: scenario.snapshots: expected a number, got True$"),
    "boolean noise variance": (
        polar_doc, ["noise_variance"], True, r"^error: scenario.noise_variance: expected a number, got True$"
    ),
    "boolean amplitude": (
        polar_doc, ["signals", 0, "amplitude", 1], False,
        r"^error: scenario.signals\[0\].amplitude\[1\]: expected a number, got False$",
    ),
    "boolean pairwise entry": (
        _pairwise_doc, ["geometry", "pairwise", "vertical_m", 1, 2], True,
        r"^error: scenario.geometry.pairwise.vertical_m\[1\]\[2\]: expected a number, got True$",
    ),
    "arrival angle out of range": (
        _pairwise_doc, ["geometry", "pairwise", "arrival_deg", 1, 2], 190,
        r"scenario.geometry.pairwise.arrival_deg\[1\]\[2\]: must lie strictly inside \(0, 180\) degrees, got 190.0",
    ),
    "vertical distance not positive": (
        _pairwise_doc, ["geometry", "pairwise", "vertical_m", 1, 0], -3,
        r"scenario.geometry.pairwise.vertical_m\[1\]\[0\]: must be positive, got -3.0",
    ),
    "negative sensor radius": (
        polar_doc, ["geometry", "polar", "sensors", 1, "radius_m"], -3,
        r"scenario.geometry.polar.sensors\[1\].radius_m: must be nonnegative, got -3.0",
    ),
}
# files that are not JSON text at all; the message names the file
MALFORMED_TEXT = {
    "not UTF-8": (b'{"name": "caf\xe9"}', r"^error: scenario file \S*bad\.json is not UTF-8 text: "),
    "nested too deep": (b"[" * 200_000, r"^error: scenario file \S*bad\.json nests too deeply to parse$"),
}
MALFORMED_ARGS = {
    "grid not numeric": (
        ["reposition", "--scenario", "scenario_a", "--mode", "grid", "--grid", "a:b:c"],
        "--grid min: expected a number",
    ),
    "element not numeric": (
        ["reposition", "--scenario", "scenario_a", "--mode", "linesearch", "--element", "x"],
        "--element: expected a number",
    ),
    "noise override not finite": (
        ["compute", "--scenario", "scenario_a", "--eta", "inf"], "--eta: expected a finite number"
    ),
    "sweep bound not numeric": (
        ["sweep", "--scenario", "scenario_a", "--vary", "velocity:1:x:3", "--out", "{tmp}/out.csv"],
        "--vary stop: expected a number",
    ),
    "sweep source 0": (
        ["sweep", "--scenario", "scenario_a", "--vary", "frequency:0:1e5:2e5:3", "--out", "{tmp}/out.csv"],
        r"^error: --vary source: 0 outside 1\.\.3$",
    ),
    "sweep source past the last": (
        ["sweep", "--scenario", "scenario_a", "--vary", "frequency:4:1e5:2e5:3", "--out", "{tmp}/out.csv"],
        r"^error: --vary source: 4 outside 1\.\.3$",
    ),
    "sweep mode repeated": (
        ["sweep", "--scenario", "scenario_a", "--vary", "velocity:1e3:2e3:3",
         "--modes", "primary,primary", "--out", "{tmp}/out.csv"],
        "sweep modes repeat: primary,primary",
    ),
}


@pytest.mark.parametrize("case", [*MALFORMED_FILES, *MALFORMED_TEXT, *MALFORMED_ARGS])
def test_malformed_input_is_a_typed_error(case, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    argv = ["compute", "--scenario", str(scenario)]
    if case in MALFORMED_FILES:
        make_doc, path, value, message = MALFORMED_FILES[case]
        doc = make_doc()
        _set(doc, path, value)
        scenario.write_text(json.dumps(doc))
    elif case in MALFORMED_TEXT:
        raw, message = MALFORMED_TEXT[case]
        scenario.write_bytes(raw)
    else:
        args, message = MALFORMED_ARGS[case]
        argv = [a.format(tmp=tmp_path) for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message, err), err
