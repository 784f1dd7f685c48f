"""Sweeps evaluate their rows a chunk at a time with the rank-one kernel; every number must
equal that row's evaluation alone (a batch of one) bit for bit, whatever the chunk size."""

import json
import math
import os
import sys
import threading
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (counted_report_objects, cpus, crb_report, pairwise_of, polar_form, random_scenario,
                      random_upper_half_scenario)

from nfcrb import (
    SingularGeometryError,
    ValidationError,
    apply_reposition,
    load_scenario,
    parse_scenario,
    runtime_scenario,
)
from nfcrb import fim_crb, geometry, optimizer
from nfcrb.fim_crb import ParameterIndex
from nfcrb.reposition import analytic_reposition
from nfcrb.optimizer import SweepSpec, _planned_chunks, sweep
from nfcrb.cli import main as cli_main

SWEEPS = {
    "scenario_a": SweepSpec("frequency", 1e6, 1e7, 100, source=0, modes=("primary", "reposition")),
    "scenario_b": SweepSpec("velocity", 1e8, 6e8, 100, modes=("primary", "reposition")),
}

# float.hex of (det, crb_theta_total, crb_r_total) of the first, middle and
# last rows, as the rank-one kernel evaluates them
PINNED = {
    "scenario_a": {
        0: ("0x1.81b6a5676b728p+7", "0x1.8387749e6c4c2p+11", "0x1.c80d1e2502b16p+13"),
        100: ("0x1.46af29c48564ap+7", "0x1.7a256b7140157p+7", "0x1.8deee1c532b50p+10"),
        199: ("0x1.92cd6a6d15f11p+7", "0x1.e963a2d294ca9p-1", "0x1.225b970cec3b4p+6"),
    },
    "scenario_b": {
        0: ("0x1.a3ad5f08aea5ep+2", "0x1.83a35833b8c9ap+11", "0x1.2c438c7bff608p+24"),
        100: ("0x1.928dc752e5197p+6", "0x1.078fd475de17ap+2", "0x1.13ea7b949e877p+16"),
        199: ("0x1.eb7195df19eafp+6", "0x1.d278717f13444p+3", "0x1.147e1c536d99ap+18"),
    },
}


def _scenario(name):
    return runtime_scenario(load_scenario(name))[0]


def _hexes(values):
    return tuple(float(v).hex() for v in values)


def _row_hexes(row):
    return _hexes((row.det, row.crb_theta_total, row.crb_r_total))


def _planned_rows(scn, spec):
    """Per row: its point, mode, one-row stack of its target and its notes so far."""
    step = fim_crb.batch_chunk(scn.num_sources)
    chunks = _planned_chunks(scn, spec, step)
    return [(*row, targets[i : i + 1], notes[i]) for chunk, targets, notes in chunks for i, row in enumerate(chunk)]


def _alone(target):
    """The evaluation of a one-row stack, raising as a lone evaluation does."""
    return optimizer.ConstellationEvaluation.from_record(optimizer._evaluate(target)[0])


def _force_chunk(monkeypatch, scn, rows_per_chunk):
    per_layout = ParameterIndex(scn.num_sources).size ** 2
    monkeypatch.setattr(fim_crb, "DR_CHUNK_VALUES", rows_per_chunk * per_layout)
    assert fim_crb.batch_chunk(scn.num_sources) == rows_per_chunk


@pytest.fixture(scope="module")
def alone():
    """Per sweep, each row's target evaluated on its own."""
    out = {}
    for name, spec in SWEEPS.items():
        out[name] = []
        for *_, target, _ in _planned_rows(_scenario(name), spec):
            ev = _alone(target)
            out[name].append(_hexes((ev.det, ev.crb.crb_theta_total, ev.crb.crb_r_total)))
    return out


@pytest.fixture(scope="module")
def default_rows():
    return {name: sweep(_scenario(name), spec) for name, spec in SWEEPS.items()}


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("rows_per_chunk", [1, 2, 7, None])
def test_rows_equal_one_at_a_time_evaluation(name, rows_per_chunk, alone, default_rows, monkeypatch):
    scn = _scenario(name)
    if rows_per_chunk is not None:
        _force_chunk(monkeypatch, scn, rows_per_chunk)
    rows = sweep(scn, SWEEPS[name])
    assert len(rows) == 200
    assert [_row_hexes(row) for row in rows] == alone[name]
    assert [row.diagnostics for row in rows] == [row.diagnostics for row in default_rows[name]]
    for i, pinned in PINNED[name].items():
        assert _row_hexes(rows[i]) == pinned


def test_failing_row_falls_back_without_touching_its_neighbours(default_rows, monkeypatch):
    scn, spec = _scenario("scenario_a"), SWEEPS["scenario_a"]
    step = fim_crb.batch_chunk(scn.num_sources)
    failing = step + step // 2 + 1  # a reposition row in the middle of the second chunk
    point = spec.grid()[failing // 2]
    plan_moves, refit_axes, hits = optimizer.plan_moves, optimizer.refit_axes, []

    def planned(table, elements, freqs, c):
        plans = plan_moves(table, elements, freqs, c)
        hits[:] = [f[0] == point for f, exc in zip(freqs, plans.errors) if exc is None]
        return plans

    def injected(table, arrival):
        # only a planned reposition row holds a conversion error of its rewritten table
        axes, residuals, held = refit_axes(table, arrival)
        return axes, residuals, [ValidationError("injected failure") if hit else exc for hit, exc in zip(hits, held)]

    monkeypatch.setattr(optimizer, "plan_moves", planned)
    monkeypatch.setattr(optimizer, "refit_axes", injected)
    rows = sweep(scn, spec)
    expected = default_rows["scenario_a"]
    failed = rows[failing]
    assert failed.mode == "reposition"
    assert all(math.isnan(v) for v in (failed.det, failed.crb_theta_total, failed.crb_r_total))
    planning_notes = expected[failing].diagnostics.split("; reconstruction residual")[0]
    assert failed.diagnostics == f"{planning_notes}; evaluation failed: injected failure"
    for i, (got, want) in enumerate(zip(rows, expected)):
        if i != failing:
            assert _row_hexes(got) == _row_hexes(want) and got.diagnostics == want.diagnostics, i


@pytest.mark.parametrize("count", [1, 2])
def test_rows_build_no_report_objects(count, default_rows):
    # a sweep row reads its record's scalars: no FimMatrix, CrbReport or ConstellationEvaluation per row
    scn, spec = _scenario("scenario_a"), SWEEPS["scenario_a"]
    with cpus(count), counted_report_objects() as built:
        rows = sweep(scn, spec)
    assert built == {"FimMatrix": 0, "CrbReport": 0, "ConstellationEvaluation": 0}
    assert [(_row_hexes(row), row.diagnostics) for row in rows] == [
        (_row_hexes(row), row.diagnostics) for row in default_rows["scenario_a"]]
    with counted_report_objects() as built:  # the counter sees a lone report's: the trace form's matrix alone
        optimizer.constellation_metrics(scn)
    assert built == {"FimMatrix": 1, "CrbReport": 1, "ConstellationEvaluation": 1}


def test_one_kernel_call_per_chunk(monkeypatch):
    scn, spec = _scenario("scenario_a"), SWEEPS["scenario_a"]
    calls = []
    fim_rank_one = optimizer.fim_rank_one

    def counted(scenario, radii, *axes):
        calls.append(len(radii))
        return fim_rank_one(scenario, radii, *axes)

    monkeypatch.setattr(optimizer, "fim_rank_one", counted)
    step = fim_crb.batch_chunk(scn.num_sources)
    expected = [step] * (200 // step) + [200 % step] * (200 % step > 0)
    for count in (1, 2):  # on two CPUs both threads evaluate chunks, in the order they finish
        calls.clear()
        with cpus(count):
            rows = sweep(scn, spec)
        assert len(rows) == 200 and 1 < step < 200
        assert len(calls) == math.ceil(200 / step)
        assert (calls if count == 1 else sorted(calls)) == (expected if count == 1 else sorted(expected))


def test_powers_and_strongest_element_match_alone(scenario_b):
    spec = SWEEPS["scenario_b"]
    step = fim_crb.batch_chunk(scenario_b.num_sources)
    _, targets, _ = next(_planned_chunks(scenario_b, spec, step))
    batch = optimizer.evaluate_constellations(targets[:9])
    for i, ev in enumerate(map(optimizer.ConstellationEvaluation.from_record, batch)):
        one = _alone(targets[i : i + 1])
        assert np.array_equal(ev.received_powers, one.received_powers)
        assert ev.strongest_element == one.strongest_element
        assert np.array_equal(ev.fim, one.fim)
        assert ev.array_cov_condition == one.array_cov_condition
        assert np.array_equal(ev.crb.crb_theta, one.crb.crb_theta) and ev.crb.rank == one.crb.rank


# Sweeps convert their geometry once per sweep.  Every row must still equal the
# row that a scenario built at its point, planned with analytic_reposition and
# apply_reposition and evaluated alone gives, bit for bit and note for note.


def _with_point(scn, spec, point):
    if spec.vary == "velocity":
        return replace(scn, velocity_mps=point)
    signals = list(scn.signals)
    signals[spec.source] = replace(signals[spec.source], freq_hz=point)
    return replace(scn, signals=tuple(signals))


def _rows_point_by_point(scn, spec):
    """(hexes, diagnostics) per row, from a scenario per point and a constellation per row, each
    evaluated alone as a batch of one."""
    out = []
    for point in spec.grid().tolist():
        scn_pt = _with_point(scn, spec, point)
        for mode in spec.modes:
            notes, target = [], scn_pt
            if mode == "reposition":
                try:
                    strongest = optimizer._native_powers(scn_pt)[1]
                    notes.append(f"strongest element {strongest + 1}")
                    plan = analytic_reposition(scn_pt, strongest)
                    target = apply_reposition(scn_pt, plan)
                    if infeasible := sum("infeasible" in n for n in plan.source_notes):
                        notes.append(f"{infeasible} source target(s) infeasible")
                except ValidationError as exc:
                    notes.append(f"reposition skipped: {exc}")
            try:
                ev = _alone(optimizer._rows_of([target]))
            except ValidationError as exc:
                out.append((_hexes([math.nan] * 3), "; ".join([*notes, f"evaluation failed: {exc}"])))
                continue
            notes += optimizer._notes(ev.residual, ev.crb.rank, ev.crb.size)
            out.append((_hexes((ev.det, ev.crb.crb_theta_total, ev.crb.crb_r_total)), "; ".join(notes)))
    return out


def _polar_b():
    return polar_form(_scenario("scenario_b"))[0]


def _upper_half():
    return random_upper_half_scenario(np.random.default_rng(5), 5, 3)


POLAR_SWEEPS = {
    "polar_b-velocity": (_polar_b, SweepSpec("velocity", 1e8, 6e8, 100, modes=("primary", "reposition"))),
    "polar_b-frequency": (_polar_b, SweepSpec("frequency", 1e5, 4e6, 100, source=1, modes=("primary", "reposition"))),
    "upper_half-velocity": (_upper_half, SweepSpec("velocity", 1e8, 6e8, 100, modes=("reposition", "primary"))),
    "upper_half-frequency": (_upper_half, SweepSpec("frequency", 1e5, 4e6, 100, source=2, modes=("primary", "reposition"))),
}

# float.hex of (det, crb_theta_total, crb_r_total) of the first, middle and last
# rows, as the rank-one kernel evaluates them
POLAR_PINNED = {
    "polar_b-frequency": {
        0: ("0x1.cb118889b8712p+4", "0x1.4060f86747f38p+8", "0x1.56255485bf988p+22"),
        100: ("0x1.1d3c9bd7dab87p+7", "0x1.c026e61278c1ap+11", "0x1.10217f8a9d15bp+27"),
        199: ("0x1.7897b69c3ab8dp+5", "0x1.3a15f47e83ac6p-1", "0x1.d44281351c2ecp+17"),
    },
    "polar_b-velocity": {
        0: ("0x1.93ec649ce5520p+2", "0x1.83a35833b8c9ap+11", "0x1.2c438c7bff608p+24"),
        100: ("0x1.9183add7a095dp+6", "0x1.078fd475de17ap+2", "0x1.13ea7b949e877p+16"),
        199: ("0x1.eb1c6c8a514a5p+6", "0x1.e01aab808d624p+3", "0x1.16ea98f1e55b1p+18"),
    },
    "upper_half-frequency": {
        0: ("0x1.51ea0da2104f6p+4", "0x1.0419cc7fb14bdp+11", "0x1.49714f5a8dbf8p+21"),
        100: ("0x1.da7ef41ce3b65p+7", "0x1.22823daeaedfep+9", "0x1.16882d116849fp+25"),
        199: ("0x1.944bb4816ab20p+8", "0x1.cfbe4123da9c3p+10", "0x1.6ab90673df3dap+26"),
    },
    "upper_half-velocity": {
        0: ("0x1.9ec364df84c10p+7", "0x1.70054eee4483bp-1", "0x1.1bc73e7661fa9p+16"),
        100: ("0x1.68c29540c6c97p+8", "0x1.3ff5d4cd5d43ap+9", "0x1.366938f231262p+26"),
        199: ("0x1.d396f9a285d6cp+4", "0x1.cf95ad558066cp+10", "0x1.6bd5bdee64ba7p+27"),
    },
}


@pytest.mark.parametrize("name", sorted(POLAR_SWEEPS))
def test_polar_sweeps_equal_point_by_point_evaluation(name):
    make, spec = POLAR_SWEEPS[name]
    scn = make()
    rows = sweep(scn, spec)
    assert len(rows) == 200
    assert [(_row_hexes(row), row.diagnostics) for row in rows] == _rows_point_by_point(scn, spec)
    assert [row.mode for row in rows[:2]] == list(spec.modes)
    assert sum("strongest element" in row.diagnostics for row in rows) == 100
    for i, pinned in POLAR_PINNED[name].items():
        assert _row_hexes(rows[i]) == pinned


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_pairwise_sweeps_equal_point_by_point_evaluation(name, default_rows):
    expected = _rows_point_by_point(_scenario(name), SWEEPS[name])
    assert [(_row_hexes(row), row.diagnostics) for row in default_rows[name]] == expected


@pytest.mark.parametrize("vary", ["velocity", "frequency"])
def test_source_below_a_sensor_line_skips_every_reposition(vary):
    scn = random_scenario(np.random.default_rng(0), 5, 2)
    with pytest.raises(SingularGeometryError) as below:
        pairwise_of(scn)
    spec = SweepSpec(vary, 1e5 if vary == "frequency" else 1e8, 4e6 if vary == "frequency" else 6e8, 20,
                     source=0 if vary == "frequency" else None, modes=("primary", "reposition"))
    rows = sweep(scn, spec)
    assert [(_row_hexes(row), row.diagnostics) for row in rows] == _rows_point_by_point(scn, spec)
    for primary, moved in zip(rows[::2], rows[1::2]):
        assert moved.diagnostics.startswith("strongest element ")
        assert f"; reposition skipped: {below.value}" in moved.diagnostics
        assert _row_hexes(moved) == _row_hexes(primary)


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_pairwise_sweep_fits_its_table_once(monkeypatch):
    counts, built, scn = {}, [], _scenario("scenario_b")
    _counting(monkeypatch, geometry, "refit_positions", counts)
    for cls in (geometry.PolarGeometry, geometry.Scenario):
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=cls.__post_init__: (built.append(self), init(self)))
    rows = sweep(scn, SweepSpec("velocity", 1e8, 6e8, 100))
    assert len(rows) == 100 and all(row.mode == "primary" for row in rows)
    assert counts == {"refit_positions": 1} and built == []


def _planned(rows):
    return sum("reposition skipped" not in row.diagnostics for row in rows if row.mode == "reposition")


def _window_solves(scn, rows):
    """Rows of each planning window's one x solve: its planned reposition rows (a window of whole
    chunks, as ``_planned_chunks`` cuts them, refits only if it holds a reposition row)."""
    step = fim_crb.batch_chunk(scn.num_sources)
    window = step * max(1, optimizer.PHASE_CHUNK_VALUES // (step * scn.num_sensors * scn.num_sources))
    parts = [rows[lo : lo + window] for lo in range(0, len(rows), window)]
    return [_planned(part) for part in parts if any(row.mode == "reposition" for row in part)]


def _count_builds(monkeypatch, counts):
    """List the rows each least-squares solve solves, and count every PairwiseGeometry, PolarGeometry
    and Scenario built."""
    solve = geometry._solve

    def counted_solve(rows, b):
        counts.setdefault("_solve", []).append(math.prod(np.shape(b)[:-1]))
        return solve(rows, b)

    monkeypatch.setattr(geometry, "_solve", counted_solve)
    for cls in (geometry.PairwiseGeometry, geometry.PolarGeometry, geometry.Scenario):

        def counted_init(self, init=cls.__post_init__, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)


def test_reposition_rows_fit_their_own_tables_and_build_no_scenario(monkeypatch):
    counts = {}
    scn = _scenario("scenario_a")
    _counting(monkeypatch, geometry, "refit_positions", counts)
    _count_builds(monkeypatch, counts)
    rows = sweep(scn, SWEEPS["scenario_a"])
    assert 0 < _planned(rows) <= 100
    # the base table is fitted once (y, then x); a planned row refits its rewritten table's x only,
    # in one fit and one solve per planning window
    windows = _window_solves(scn, rows)
    assert counts == {"refit_positions": 1 + len(windows), "_solve": [1, 1, *windows]}


def test_polar_sweep_converts_to_pairwise_form_once(monkeypatch):
    counts = {}
    for name in ("pairwise", "delay_geometry"):
        _counting(monkeypatch, geometry.PolarGeometry, name, counts)
    scn = _polar_b()
    _count_builds(monkeypatch, counts)
    rows = sweep(scn, POLAR_SWEEPS["polar_b-velocity"][1])
    assert len(rows) == 200 and _planned(rows) > 0
    # the pairwise table's y fit once, then the planned rows' x in one solve per window; no table per row,
    # and the planner works on the table itself, so no Scenario is built for it
    expected = {"pairwise": 1, "delay_geometry": 1, "_solve": [1, *_window_solves(scn, rows)]}
    assert counts == {**expected, "PairwiseGeometry": 1}
    assert counts.get("Scenario", 0) == 0


def test_polar_plans_work_on_the_pairwise_table(monkeypatch):
    # the analytic plan builds no Scenario, and its application exactly one, its result
    scn, counts = _polar_b(), {}
    _count_builds(monkeypatch, counts)
    plan = analytic_reposition(scn, 1)
    assert counts.get("Scenario", 0) == 0
    after = apply_reposition(scn, plan)
    assert counts["Scenario"] == 1
    table = scn.geometry.pairwise()
    arrival = table.arrival_rad.copy()
    arrival[1] = plan.new_arrival_rad
    assert after == replace(scn, geometry=geometry.PairwiseGeometry(table.vertical_m, arrival))


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("chunks_per_window", [1, 3, None])
def test_one_planning_pass_per_window(name, chunks_per_window, monkeypatch):
    scn, spec = _scenario(name), SWEEPS[name]
    step, values = fim_crb.batch_chunk(scn.num_sources), scn.num_sensors * scn.num_sources
    if chunks_per_window is not None:
        monkeypatch.setattr(optimizer, "PHASE_CHUNK_VALUES", chunks_per_window * step * values)
    window = step * max(1, optimizer.PHASE_CHUNK_VALUES // (step * values))
    calls, counts = [], {}
    steering_matrix = optimizer.steering_matrix

    def counted(delays, freqs):
        calls.append((sys._getframe(1).f_code.co_name, np.shape(delays)[0]))  # planning or evaluation
        return steering_matrix(delays, freqs)

    monkeypatch.setattr(optimizer, "steering_matrix", counted)
    _counting(monkeypatch, optimizer, "plan_moves", counts)
    _counting(monkeypatch, geometry, "_polar_coordinates", counts)
    _counting(monkeypatch, geometry, "_solve", counts)
    for count in (1, 2):
        calls.clear(), counts.clear()
        with cpus(count):
            rows = sweep(_scenario(name), spec)  # a new scenario: its polar axes are converted once and kept
        windows = [rows[lo : lo + window] for lo in range(0, len(rows), window)]
        # per window of whole chunks one planning steering pass over its reposition rows' points and
        # one plan of all of them, whose rewritten tables are refitted in one solve and converted to
        # polar axes together; then one evaluation pass per chunk; and the table's own fit (y, then x)
        # and polar axes once per sweep
        expected = [(caller, n) for part in windows for caller, n in (
            ("_planned_chunks", sum(row.mode == "reposition" for row in part)),
            *(("_evaluate", len(part[at : at + step])) for at in range(0, len(part), step)))]
        if count == 2:  # the windows are planned in order; both threads evaluate chunks, in the order they finish
            planning = [call for call in expected if call[0] == "_planned_chunks"]
            assert [call for call in calls if call[0] == "_planned_chunks"] == planning
            calls, expected = sorted(calls), sorted(expected)
        assert calls == expected
        assert counts == {"plan_moves": len(windows), "_polar_coordinates": 1 + len(windows), "_solve": 2 + len(windows)}
        assert len(windows) == {1: math.ceil(200 / step), 3: math.ceil(200 / (3 * step)), None: 1}[chunks_per_window]


def _on_source():
    """Polar scenario B-like with sensor 2 on source 1 (range 100 m, bearing 60 degrees)."""
    return {
        "velocity_mps": 3e8,
        "signals": [{"freq_hz": 1e6, "amplitude": [1.0, 0.5]}, {"freq_hz": 2e6, "amplitude": [0.5, -1.0]}],
        "noise_variance": 1.0,
        "snapshots": 1,
        "geometry": {"polar": {
            "sources": [{"range_m": 100.0, "bearing_deg": 60.0}, {"range_m": 150.0, "bearing_deg": 80.0}],
            "sensors": [
                {"radius_m": 0.0, "azimuth_deg": 0.0},
                {"radius_m": 100.0, "azimuth_deg": 60.0},
                {"radius_m": 20.0, "azimuth_deg": 10.0},
                {"radius_m": 30.0, "azimuth_deg": 200.0},
            ],
        }},
    }


@pytest.mark.parametrize("modes", ["primary", "primary,reposition", "reposition,primary"])
def test_sensor_on_a_source_fails_each_row_and_not_the_sweep(modes, tmp_path, capsys):
    doc = _on_source()
    path = tmp_path / "on_source.json"
    path.write_text(json.dumps(doc))
    scn, _ = runtime_scenario(parse_scenario(path.read_text()))
    failed = "evaluation failed: sensor 2 coincides with source 1"
    expected = {"primary": failed, "reposition": f"reposition skipped: sensor 2 coincides with source 1; {failed}"}
    spec = SweepSpec("velocity", 1e8, 6e8, 3, modes=tuple(modes.split(",")))
    rows = sweep(scn, spec)
    assert [(row.mode, row.diagnostics) for row in rows] == [(m, expected[m]) for _ in range(3) for m in spec.modes]
    assert all(math.isnan(v) for row in rows for v in (row.det, row.crb_theta_total, row.crb_r_total))

    out = tmp_path / "rows.csv"
    argv = ["sweep", "--scenario", str(path), "--vary", "velocity:1e8:6e8:3", "--modes", modes, "--out", str(out)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "point,mode,det,crb_theta_total,crb_r_total,flags"
    assert [line.split(",")[1:] for line in lines[1:]] == [
        [row.mode, "nan", "nan", "nan", expected[row.mode]] for row in rows
    ]


def _mixed():
    """Polar constellation whose frequency sweep on source 2 mixes every planning outcome: the
    right-angle target's sine underflows to 0 at the first point, which fails the arrival check;
    then plans whose small-phase target (source 1, at 1 GHz) is infeasible; then no target at all."""
    scn = random_upper_half_scenario(np.random.default_rng(7), 5, 2)
    return replace(scn, signals=(replace(scn.signals[0], freq_hz=1e9), scn.signals[1]))


MIXED = SweepSpec("frequency", 1e-320, 1e6, 23, source=1, modes=("primary", "reposition"))
OUTCOMES = {
    "arrival check": "reposition skipped: planned arrival angles must lie strictly inside (0, pi)",
    "planned, one target infeasible": "; 1 source target(s) infeasible",
    "no target": "reposition skipped: no source admits an analytic target here",
}


def _outcomes(rows):
    return {name for row in rows for name, note in OUTCOMES.items() if note in row.diagnostics}


@pytest.mark.parametrize("encoding", ["polar", "pairwise"])
@pytest.mark.parametrize("rows_per_chunk", [1, 2, 7, None])
def test_mixed_plans_equal_point_by_point_evaluation(encoding, rows_per_chunk, monkeypatch):
    scn = _mixed() if encoding == "polar" else pairwise_of(_mixed())
    expected = _rows_point_by_point(scn, MIXED)
    if rows_per_chunk is not None:
        _force_chunk(monkeypatch, scn, rows_per_chunk)
    rows = sweep(scn, MIXED)
    assert [(_row_hexes(row), row.diagnostics) for row in rows] == expected
    assert _outcomes(rows) == set(OUTCOMES)
    step = fim_crb.batch_chunk(scn.num_sources)
    mixing = max(len(_outcomes(rows[lo : lo + step])) for lo in range(0, len(rows), step))
    assert mixing == {1: 1, 2: 1, 7: 2, None: 3}[rows_per_chunk]



@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "polar_b-velocity", "polar_b-frequency"])
def test_rows_match_the_trace_form(name):
    # each row's rank-one matrix is the trace form's of its axes, to rounding, with its rank and cond(R_x)
    scn, spec = (_scenario(name), SWEEPS[name]) if name in SWEEPS else (POLAR_SWEEPS[name][0](), POLAR_SWEEPS[name][1])
    for *_, target, _ in _planned_rows(scn, spec):
        ev = _alone(target)
        *_, R, dR = fim_crb._covariance_stack(scn, *target.arrays[1:])
        F, cond, _ = fim_crb._trace_form(R, dR)
        F = scn.snapshots * F
        assert np.abs(ev.fim - F[0]).max() <= 1e-12 * np.abs(F[0]).max()
        assert ev.crb.rank == crb_report(F, scn.num_sources).rank
        assert abs(ev.array_cov_condition - cond[0]) <= 1e-12 * cond[0]


def threaded_evaluations(calls, worker_evaluates=lambda targets: True):
    """A stand-in for ``evaluate_constellations`` that records each evaluated chunk in ``calls`` under
    the thread that evaluated it: "caller" (the one that built the stand-in) or "worker".  The
    caller's first chunk waits until the worker has evaluated a chunk for which ``worker_evaluates``
    holds, so the worker evaluates at least one chunk of a sweep of several."""
    real, evaluated, caller = optimizer.evaluate_constellations, threading.Event(), threading.current_thread()

    def recorded(targets):
        thread = "caller" if threading.current_thread() is caller else "worker"
        calls.setdefault(thread, []).append(targets)
        if thread == "worker" and worker_evaluates(targets):
            evaluated.set()
        if thread == "caller" and len(calls["caller"]) == 1:
            assert evaluated.wait(timeout=60.0), "the worker evaluated no such chunk"
        return real(targets)

    return recorded


def _with_a_failing_row(at):
    """A stand-in for ``_planned_chunks`` whose chunks each hold a row failed by a held error, at ``at``
    in the chunk (or its last row)."""
    real = optimizer._planned_chunks

    def planned(*args):
        for chunk, targets, notes in real(*args):
            targets.held[min(at, len(targets) - 1)] = ValidationError("injected failure")
            yield chunk, targets, notes

    return planned


def _sweep_outcome(scn, spec, count, **stand_ins):
    """Each row's point, mode, hexes and notes of a sweep on ``count`` CPUs, with ``optimizer``'s
    functions named in ``stand_ins`` replaced."""
    with cpus(count), mock.patch.dict(vars(optimizer), stand_ins):
        rows = sweep(scn, spec)
    return [(row.point, row.mode, _row_hexes(row), row.diagnostics) for row in rows]


class TestThreadedSweep:
    """With two CPUs a worker thread evaluates a sweep's chunks too, through the bound scans' ``map_on_cpus``."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["polar", "pairwise", "on_source"]),
           vary=st.sampled_from(["frequency", "velocity"]), steps=st.integers(2, 12), rows_per_chunk=st.integers(1, 5),
           chunks_per_window=st.sampled_from([1, 2, None]), failing_at=st.none() | st.integers(0, 4))
    def test_two_cpus_equal_one_bit_for_bit(self, seed, kind, vary, steps, rows_per_chunk, chunks_per_window,
                                            failing_at):
        if kind == "on_source":  # every row holds the delay conversion's error
            scn = runtime_scenario(parse_scenario(json.dumps(_on_source())))[0]
        else:
            scn = random_upper_half_scenario(np.random.default_rng(seed))
            scn = pairwise_of(scn) if kind == "pairwise" else scn
        bounds = (1e5, 4e6) if vary == "frequency" else (1e8, 6e8)
        spec = SweepSpec(vary, *bounds, steps, source=scn.num_sources - 1 if vary == "frequency" else None,
                         modes=("primary", "reposition"))
        chunk_values = rows_per_chunk * ParameterIndex(scn.num_sources).size ** 2
        window_values = (chunks_per_window or 10**9) * rows_per_chunk * scn.num_sensors * scn.num_sources
        stand_ins = {} if failing_at is None else {"_planned_chunks": _with_a_failing_row(failing_at)}
        with mock.patch.object(fim_crb, "DR_CHUNK_VALUES", chunk_values), \
                mock.patch.object(optimizer, "PHASE_CHUNK_VALUES", window_values):
            one = _sweep_outcome(scn, spec, 1, **stand_ins)
            calls, several = {}, 2 * steps > rows_per_chunk  # with one chunk no worker starts
            failing = failing_at is not None or kind == "on_source"
            if several:
                stand_ins["evaluate_constellations"] = threaded_evaluations(
                    calls, (lambda targets: any(targets.held)) if failing else (lambda targets: True))
            two = _sweep_outcome(scn, spec, 2, **stand_ins)
        assert two == one and len(one) == 2 * steps
        assert ("worker" in calls) == several  # the worker may take every chunk
        if several and failing:  # a failing row was evaluated, in halves, on the worker
            assert any(any(targets.held) for targets in calls["worker"])
            assert any("evaluation failed" in row[3] for row in one)

    def test_a_raise_in_the_worker_reaches_the_caller(self, scenario_a):
        # the caller's first chunk waits until the worker has raised on its own
        real, caller, raised = optimizer.evaluate_constellations, threading.current_thread(), threading.Event()

        def failing(targets):
            if threading.current_thread() is caller:
                assert raised.wait(timeout=60.0)
                return real(targets)
            raised.set()
            raise RuntimeError("worker thread")

        before = threading.enumerate()
        with (cpus(2), mock.patch.object(optimizer, "evaluate_constellations", failing),
              mock.patch.object(threading, "excepthook") as excepthook):
            with pytest.raises(RuntimeError, match="^worker thread$"):
                sweep(scenario_a, SWEEPS["scenario_a"])
        assert not excepthook.called and threading.enumerate() == before

    def test_an_interrupt_in_the_caller_plans_no_further_window(self, monkeypatch):
        # one chunk per window; the caller is interrupted while the worker evaluates its first chunk,
        # which the worker finishes once the caller waits at the join
        scn, spec = _scenario("scenario_a"), SWEEPS["scenario_a"]
        _force_chunk(monkeypatch, scn, 32)
        step = fim_crb.batch_chunk(scn.num_sources)
        monkeypatch.setattr(optimizer, "PHASE_CHUNK_VALUES", step * scn.num_sensors * scn.num_sources)
        counts, calls, busy, joining = {}, [], threading.Event(), threading.Event()
        _counting(monkeypatch, optimizer, "plan_moves", counts)
        real, caller, join = optimizer.evaluate_constellations, threading.current_thread(), threading.Thread.join

        def interrupted(targets):
            if threading.current_thread() is caller:
                assert busy.wait(timeout=60.0)
                raise KeyboardInterrupt
            calls.append(len(targets))
            busy.set()
            assert joining.wait(timeout=60.0)
            return real(targets)

        def joined(thread, *args):
            joining.set()
            return join(thread, *args)

        monkeypatch.setattr(optimizer, "evaluate_constellations", interrupted)
        monkeypatch.setattr(threading.Thread, "join", joined)
        with cpus(2), pytest.raises(KeyboardInterrupt):
            sweep(scn, spec)
        # of 7 windows only the caller's and the worker's were planned
        assert math.ceil(200 / step) == 7 and calls == [step] and counts == {"plan_moves": 2}

    def test_concurrent_sweeps_under_fast_switching_equal_one_thread(self, monkeypatch):
        # three sweeps at once, each with its worker: six threads on two CPUs, switching every microsecond;
        # a chunk generator advanced by two threads at once raises ValueError, a lost row shows in the rows
        scn, spec = _mixed(), MIXED
        _force_chunk(monkeypatch, scn, 2)
        monkeypatch.setattr(optimizer, "PHASE_CHUNK_VALUES", 4 * scn.num_sensors * scn.num_sources)
        expected, outcomes = _sweep_outcome(scn, spec, 1), []

        def run():
            outcomes.append([(r.point, r.mode, _row_hexes(r), r.diagnostics) for r in sweep(scn, spec)])

        interval = sys.getswitchinterval()
        with cpus(2):
            sys.setswitchinterval(1e-6)
            try:
                sweeps = [threading.Thread(target=run) for _ in range(3)]
                for one in sweeps:
                    one.start()
                for one in sweeps:
                    one.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(one.is_alive() for one in sweeps)
        assert outcomes == [expected] * 3

    def test_sweeps_leave_no_thread(self, scenario_a, scenario_b):
        before = threading.enumerate()
        for count in (2, 1):
            with cpus(count):
                rows = [sweep(scn, SWEEPS[name]) for name, scn in (("scenario_a", scenario_a), ("scenario_b", scenario_b))]
            assert threading.enumerate() == before
            assert [len(part) for part in rows] == [200, 200]

    def test_overflowing_rows_on_the_worker_warn_nothing(self, scenario_a, monkeypatch):
        # FOUND 46's sweep: every delay overflows; a row a chunk, a chunk a window, so the worker plans too
        spec = SweepSpec("velocity", 1e-310, 1e-300, 2, modes=("primary", "reposition"))
        _force_chunk(monkeypatch, scenario_a, 1)
        monkeypatch.setattr(optimizer, "PHASE_CHUNK_VALUES", scenario_a.num_sensors * scenario_a.num_sources)
        one, calls = _sweep_outcome(scenario_a, spec, 1), {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = _sweep_outcome(scenario_a, spec, 2, evaluate_constellations=threaded_evaluations(calls))
        assert two == one and "worker" in calls
        assert all(row[3].endswith("evaluation failed: array covariance has non-finite entries") for row in two)

    def test_one_thread_on_one_cpu_or_unknown_cpus(self, scenario_b, monkeypatch):
        # os.sched_getaffinity is missing on macOS and Windows
        monkeypatch.setattr(threading, "Thread", mock.Mock(side_effect=AssertionError("a thread started")))
        with cpus(1):
            one = sweep(scenario_b, SWEEPS["scenario_b"])
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        unknown = sweep(scenario_b, SWEEPS["scenario_b"])
        assert [_row_hexes(row) for row in unknown] == [_row_hexes(row) for row in one]
        assert [row.diagnostics for row in unknown] == [row.diagnostics for row in one]

