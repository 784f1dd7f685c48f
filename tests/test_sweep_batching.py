"""Sweeps evaluate their rows a chunk at a time; every number must equal the
one-constellation evaluation bit for bit, whatever the chunk size."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_scenario, random_upper_half_scenario

from nfcrb import (
    SingularGeometryError,
    ValidationError,
    apply_reposition,
    load_scenario,
    parse_scenario,
    runtime_scenario,
)
from nfcrb import fim_crb, geometry, optimizer
from nfcrb.geometry import pairwise_form, polar_form
from nfcrb.fim_crb import ParameterIndex
from nfcrb.reposition import analytic_reposition
from nfcrb.optimizer import SweepSpec, _planned_chunks, evaluate_constellation, sweep
from nfcrb.cli import main as cli_main

SWEEPS = {
    "scenario_a": SweepSpec("frequency", 1e6, 1e7, 100, source=0, modes=("primary", "reposition")),
    "scenario_b": SweepSpec("velocity", 1e8, 6e8, 100, modes=("primary", "reposition")),
}

# float.hex of (det, crb_theta_total, crb_r_total) of the first, middle and
# last rows, as evaluated one constellation at a time before sweeps were batched
PINNED = {
    "scenario_a": {
        0: ("0x1.81b6a5676b728p+7", "0x1.8387749e6f7bdp+11", "0x1.c80d1e2500167p+13"),
        100: ("0x1.46af29c48564ap+7", "0x1.7a256b715982fp+7", "0x1.8deee1c53854dp+10"),
        199: ("0x1.92cd6a6d15f11p+7", "0x1.e963a2d284531p-1", "0x1.225b970ce8ec4p+6"),
    },
    "scenario_b": {
        0: ("0x1.a3ad5f08aea5ep+2", "0x1.83a3584969eb4p+11", "0x1.2c438c8ce2f61p+24"),
        100: ("0x1.928dc752e5197p+6", "0x1.078fd475ded2cp+2", "0x1.13ea7b949f3b4p+16"),
        199: ("0x1.eb7195df19eafp+6", "0x1.d278717f12fd8p+3", "0x1.147e1c536d586p+18"),
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
    step = fim_crb.batch_chunk(scn.num_sensors, scn.num_sources)
    chunks = _planned_chunks(scn, spec, step)
    return [(*row, targets[i : i + 1], notes[i]) for chunk, targets, notes in chunks for i, row in enumerate(chunk)]


def _alone(target):
    """The evaluation of a one-row stack, raising as a lone evaluation does."""
    return optimizer._evaluate(target)[0]


def _force_chunk(monkeypatch, scn, rows_per_chunk):
    per_layout = ParameterIndex(scn.num_sources).size * scn.num_sensors**2
    monkeypatch.setattr(fim_crb, "DR_CHUNK_VALUES", rows_per_chunk * per_layout)
    assert fim_crb.batch_chunk(scn.num_sensors, scn.num_sources) == rows_per_chunk


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
    step = fim_crb.batch_chunk(scn.num_sensors, scn.num_sources)
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


def test_one_kernel_call_per_chunk(monkeypatch):
    scn, spec = _scenario("scenario_a"), SWEEPS["scenario_a"]
    calls = []
    covariance_stack = fim_crb._covariance_stack

    def counted(*args):
        calls.append(len(args[1]))
        return covariance_stack(*args)

    monkeypatch.setattr(fim_crb, "_covariance_stack", counted)
    rows = sweep(scn, spec)
    step = fim_crb.batch_chunk(scn.num_sensors, scn.num_sources)
    assert len(rows) == 200 and 1 < step < 200
    assert len(calls) == math.ceil(200 / step)
    assert calls == [step] * (200 // step) + [200 % step] * (200 % step > 0)


def test_powers_and_strongest_element_match_alone(scenario_b):
    spec = SWEEPS["scenario_b"]
    step = fim_crb.batch_chunk(scenario_b.num_sensors, scenario_b.num_sources)
    _, targets, _ = next(_planned_chunks(scenario_b, spec, step))
    batch = optimizer.evaluate_constellations(targets[:9])
    for i, ev in enumerate(batch):
        one = _alone(targets[i : i + 1])
        assert np.array_equal(ev.received_powers, one.received_powers)
        assert ev.strongest_element == one.strongest_element
        assert np.array_equal(ev.fim.entries, one.fim.entries)
        assert ev.fim.array_cov_condition == one.fim.array_cov_condition
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
    """(hexes, diagnostics) per row, from a scenario per point and a constellation per row."""
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
                ev = evaluate_constellation(target)
            except ValidationError as exc:
                out.append((_hexes([math.nan] * 3), "; ".join([*notes, f"evaluation failed: {exc}"])))
                continue
            notes += optimizer._notes(ev)
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
# rows, as evaluated with a scenario per point before the conversions were hoisted
POLAR_PINNED = {
    "polar_b-frequency": {
        0: ("0x1.cb118889b8712p+4", "0x1.4060f8674bd6fp+8", "0x1.56255485c41d0p+22"),
        100: ("0x1.1d3c9bd7dab87p+7", "0x1.c026e63993240p+11", "0x1.10217fa2626a3p+27"),
        199: ("0x1.7897b69c3ab8dp+5", "0x1.3a15f47e81062p-1", "0x1.d44281350d8a3p+17"),
    },
    "polar_b-velocity": {
        0: ("0x1.93ec649ce5520p+2", "0x1.83a3584969eb4p+11", "0x1.2c438c8ce2f61p+24"),
        100: ("0x1.9183add7a095dp+6", "0x1.078fd475ded2cp+2", "0x1.13ea7b949f3b4p+16"),
        199: ("0x1.eb1c6c8a514a5p+6", "0x1.e01aab808decep+3", "0x1.16ea98f1e4faap+18"),
    },
    "upper_half-frequency": {
        0: ("0x1.51ea0da2104f6p+4", "0x1.0419cc7ccfcf5p+11", "0x1.49714f520408fp+21"),
        100: ("0x1.da7ef41ce3b65p+7", "0x1.22823da99264ap+9", "0x1.16882d14885c0p+25"),
        199: ("0x1.944bb4816ab20p+8", "0x1.cfbe410eb8b54p+10", "0x1.6ab905fc98a7fp+26"),
    },
    "upper_half-velocity": {
        0: ("0x1.9ec364df84c10p+7", "0x1.70054eee9c9f0p-1", "0x1.1bc73e7782f2bp+16"),
        100: ("0x1.68c29540c6c97p+8", "0x1.3ff5d4d451f5bp+9", "0x1.366938f542ba9p+26"),
        199: ("0x1.d396f9a285d6cp+4", "0x1.cf95ad92324aap+10", "0x1.6bd5be03bd256p+27"),
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
        pairwise_form(scn)
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
    counts, built = {}, []
    _counting(monkeypatch, geometry, "reconstruct_positions", counts)
    _counting(monkeypatch, geometry, "scenario_from_positions", counts)
    init = geometry.Scenario.__post_init__
    monkeypatch.setattr(geometry.Scenario, "__post_init__", lambda self: (built.append(self), init(self)))
    rows = sweep(_scenario("scenario_b"), SweepSpec("velocity", 1e8, 6e8, 100))
    assert len(rows) == 100 and all(row.mode == "primary" for row in rows)
    assert counts == {"reconstruct_positions": 1} and built == []


def _planned(rows):
    return sum("reposition skipped" not in row.diagnostics for row in rows if row.mode == "reposition")


def _count_builds(monkeypatch, counts):
    """Count lstsq solves, scenario_from_positions calls and every PairwiseGeometry, PairwiseScenario and Scenario built."""
    _counting(monkeypatch, np.linalg, "lstsq", counts)
    _counting(monkeypatch, geometry, "scenario_from_positions", counts)
    for cls in (geometry.PairwiseGeometry, geometry.PairwiseScenario, geometry.Scenario):

        def counted_init(self, init=cls.__post_init__, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)


def test_reposition_rows_fit_their_own_tables_and_build_no_scenario(monkeypatch):
    counts = {}
    scn = _scenario("scenario_a")
    _counting(monkeypatch, geometry, "reconstruct_positions", counts)
    _count_builds(monkeypatch, counts)
    rows = sweep(scn, SWEEPS["scenario_a"])
    assert 0 < _planned(rows) <= 100
    # the base table is fitted once (x and y); a planned row refits its rewritten table's x only
    assert counts == {"reconstruct_positions": 1, "lstsq": 2 + _planned(rows)}


def test_polar_sweep_converts_to_pairwise_form_once(monkeypatch):
    counts = {}
    for name in ("pairwise_form", "delay_geometry", "polar_axes"):
        _counting(monkeypatch, optimizer, name, counts)
    scn = _polar_b()
    _count_builds(monkeypatch, counts)
    rows = sweep(scn, POLAR_SWEEPS["polar_b-velocity"][1])
    assert len(rows) == 200 and _planned(rows) > 0
    # the pairwise form's y fit once, then x once per planned row; no table per row
    expected = {"pairwise_form": 1, "delay_geometry": 1, "polar_axes": 1, "lstsq": 1 + _planned(rows)}
    assert counts == {**expected, "PairwiseGeometry": 1, "PairwiseScenario": 1}


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("chunks_per_window", [1, 3, None])
def test_one_planning_pass_per_window(name, chunks_per_window, monkeypatch):
    scn, spec = _scenario(name), SWEEPS[name]
    step, values = fim_crb.batch_chunk(scn.num_sensors, scn.num_sources), scn.num_sensors * scn.num_sources
    if chunks_per_window is not None:
        monkeypatch.setattr(optimizer, "PHASE_CHUNK_VALUES", chunks_per_window * step * values)
    window = step * max(1, optimizer.PHASE_CHUNK_VALUES // (step * values))
    calls, counts = [], {}
    steering_matrix = optimizer.steering_matrix

    def counted(delays, freqs):
        calls.append(np.shape(delays)[0])
        return steering_matrix(delays, freqs)

    monkeypatch.setattr(optimizer, "steering_matrix", counted)
    _counting(monkeypatch, optimizer, "plan_moves", counts)
    _counting(monkeypatch, geometry, "_polar_coordinates", counts)
    rows = sweep(scn, spec)
    windows = [rows[lo : lo + window] for lo in range(0, len(rows), window)]
    # per window of whole chunks one planning steering pass over its reposition rows' points and
    # one plan of all of them, whose refitted tables are converted to polar axes together; then
    # one evaluation pass per chunk; and the table's own polar axes once per sweep
    assert calls == [n for part in windows for n in (sum(row.mode == "reposition" for row in part),
                                                     *(len(part[at : at + step]) for at in range(0, len(part), step)))]
    assert counts == {"plan_moves": len(windows), "_polar_coordinates": 1 + len(windows)}
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
    scn = _mixed() if encoding == "polar" else pairwise_form(_mixed())
    expected = _rows_point_by_point(scn, MIXED)
    if rows_per_chunk is not None:
        _force_chunk(monkeypatch, scn, rows_per_chunk)
    rows = sweep(scn, MIXED)
    assert [(_row_hexes(row), row.diagnostics) for row in rows] == expected
    assert _outcomes(rows) == set(OUTCOMES)
    step = fim_crb.batch_chunk(scn.num_sensors, scn.num_sources)
    mixing = max(len(_outcomes(rows[lo : lo + step])) for lo in range(0, len(rows), step))
    assert mixing == {1: 1, 2: 1, 7: 2, None: 3}[rows_per_chunk]

