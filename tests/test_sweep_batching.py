"""Sweeps evaluate their rows a chunk at a time; every number must equal the
one-constellation evaluation bit for bit, whatever the chunk size."""

import math

import numpy as np
import pytest

from nfcrb import ParameterIndex, SweepSpec, ValidationError, fim_crb, load_scenario, runtime_scenario, sweep
from nfcrb import optimizer
from nfcrb.optimizer import _planned_rows, evaluate_constellation

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
            ev = evaluate_constellation(target)
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
    native_delays = optimizer.native_delays

    def injected(target):
        # the reposition target has its own geometry; the primary row keeps the scenario's
        if target.signals[0].freq_hz == point and target.geometry is not scn.geometry:
            raise ValidationError("injected failure")
        return native_delays(target)

    monkeypatch.setattr(optimizer, "native_delays", injected)
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
    targets = [target for *_, target, _ in _planned_rows(scenario_b, spec)][:9]
    batch = optimizer.evaluate_constellations(targets)
    for target, ev in zip(targets, batch):
        one = evaluate_constellation(target)
        assert np.array_equal(ev.received_powers, one.received_powers)
        assert ev.strongest_element == one.strongest_element
        assert np.array_equal(ev.fim.entries, one.fim.entries)
        assert ev.fim.array_cov_condition == one.fim.array_cov_condition
        assert np.array_equal(ev.crb.crb_theta, one.crb.crb_theta) and ev.crb.rank == one.crb.rank
