"""Tests of the benchmark harness itself (not collected by the package suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_time_on_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [5.5, 7] that overlap each other
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0]
    parent = [-1, 0, 1, 0, 3, 3]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 2, 1, 1.5])


def test_tracer_records_nested_spans_at_every_import_site():
    import nfcrb
    import nfcrb.fim_crb
    import nfcrb.optimizer

    scn, _ = nfcrb.runtime_scenario(nfcrb.load_scenario("scenario_b"))
    original = nfcrb.optimizer.fim_for_scenario
    tracer = Tracer()
    tracer.install()
    try:
        assert nfcrb.optimizer.fim_for_scenario is not original
        assert nfcrb.fim_crb.fim_for_scenario is nfcrb.optimizer.fim_for_scenario
        nfcrb.constellation_metrics(scn)
    finally:
        tracer.uninstall()
    assert nfcrb.optimizer.fim_for_scenario is original
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "optimizer.constellation_metrics"
    fim = names.index("fim_crb.fim_generic")
    assert tracer.names[tracer.name[tracer.parent[fim]]] == "fim_crb.fim_for_scenario"
    assert tracer.size[fim] == 9  # (N + 1)^2 derivatives for N = 2 sources
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.start)))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    scn1, ops1 = gen.build_ops(workload, 7)
    scn2, ops2 = gen.build_ops(workload, 7)
    scn3, _ = gen.build_ops(workload, 8)
    assert json.dumps([scn1, ops1]) == json.dumps([scn2, ops2])
    assert json.dumps(scn1) != json.dumps(scn3)


def test_generator_covers_sizes_and_encodings(tmp_path):
    scenarios, _ = gen.build_ops("report", 3)
    sizes, encodings = set(), set()
    for name, doc in scenarios[len(gen.BUNDLED):]:
        geom = doc["geometry"]
        encodings.update(geom)
        if "pairwise" in geom:
            sizes.add((len(geom["pairwise"]["vertical_m"]), len(doc["signals"])))
            assert min(min(row) for row in geom["pairwise"]["vertical_m"]) > 0
        else:
            sizes.add((len(geom["polar"]["sensors"]), len(doc["signals"])))
    assert sizes == set(gen.REPORT_SIZES)
    assert {m for m, _ in sizes} == set(range(3, 9)) and {n for _, n in sizes} == set(range(1, 6))
    assert encodings == {"pairwise", "polar"}
    written = gen.write_inputs("sweep", 3, tmp_path)
    assert (tmp_path / "ops.json") in written


def test_value_tolerances():
    # one unit in the last printed digit passes; more does not
    assert check.value_matches("num", "1.2345e+03", "1.2346e+03")
    assert not check.value_matches("num", "1.2345e+03", "1.2347e+03")
    # full-precision values: tight for num, looser for full-rank and pseudo-inverse bounds
    assert not check.value_matches("num", f"{0.5:.15e}", f"{0.5 * (1 + 1e-6):.15e}")
    assert check.value_matches("crb", f"{0.5:.15e}", f"{0.5 * (1 + 1e-4):.15e}")
    assert not check.value_matches("crb", f"{0.5:.15e}", f"{0.5 * (1 + 1e-3):.15e}")
    assert check.value_matches("pinv", f"{0.5:.15e}", f"{0.5 * (1 + 5e-3):.15e}")
    assert not check.value_matches("pinv", f"{0.5:.15e}", f"{0.5 * (1 + 2e-2):.15e}")
    # displacements are exact
    assert not check.value_matches("exact", "+98", "+98.2")
    # sweep rows: point, mode and rank exact, det as num, bound totals by the rank
    row = "1.0000e+06,primary,3.4567e+05,1.2345e-03,4.5678e+01,12/16"
    assert check.value_matches("row", row, row.replace("4.5678e+01", "4.5690e+01"))
    assert not check.value_matches("row", row, row.replace("4.5678e+01", "4.7000e+01"))
    assert not check.value_matches("row", row, row.replace("3.4567e+05", "3.4569e+05"))
    assert not check.value_matches("row", row, row.replace("primary", "reposition"))
    assert not check.value_matches("row", row, row.replace("12/16", "full"))
    full = row.replace("12/16", "full")
    assert check.value_matches("row", full, full.replace("4.5678e+01", "4.5680e+01"))
    assert not check.value_matches("row", full, full.replace("4.5678e+01", "4.5710e+01"))


def test_bounds_are_loose_only_where_the_report_says_pseudo_inverse():
    report = """det(R_x): 1.9332e+02
CRB bearing (rad^2): [7.9416e+00, 2.4900e+00], total 1.0432e+01
CRB range (m^2): [8.1815e+03, 3.6830e+03], total 1.1865e+04
FIM rank: {rank}
"""
    full = check.fields_compute(report.format(rank="9/9"))
    pinv = check.fields_compute(report.format(rank="8/9 (rank deficient, pseudo-inverse used)"))
    assert ("rank0", "exact", "9/9") in full and ("rank0", "exact", "8/9") in pinv
    assert {k for n, k, _ in full if n.startswith(("bearing", "range")) and "count" not in n} == {"crb"}
    assert {k for n, k, _ in pinv if n.startswith(("bearing", "range")) and "count" not in n} == {"pinv"}
    row = check.fields_sweep_csv(
        "point,mode,det,crb_theta_total,crb_r_total,flags\n"
        "1.0000e+06,primary,3.4567e+05,1.2345e-03,4.5678e+01,"
        "reconstruction residual 5.1e-01 m; information matrix rank deficient (12/16)\n"
        "2.0000e+06,primary,3.4567e+05,1.2345e-03,4.5678e+01,\n"
    )
    assert [text.rsplit(",", 1)[1] for _, kind, text in row if kind == "row"] == ["12/16", "full"]


def _client(tmp_path, refs):
    import nfcrb
    import nfcrb.cli

    (tmp_path / "scenario_a.json").write_text(
        (Path(nfcrb.__file__).parent / "data" / "scenario_a.json").read_text()
    )
    ops = [
        {"id": "a/compute", "kind": "cli", "scenario": "scenario_a", "argv": ["compute"]},
        {"id": "a/line", "kind": "cli", "scenario": "scenario_a",
         "argv": ["reposition", "--mode", "linesearch", "--objective", "gf", "--element", "3"]},
    ]
    return run.Client(nfcrb, ops, tmp_path, refs), ops


def test_check_flags_a_perturbed_output(tmp_path):
    client, ops = _client(tmp_path, {})
    for op in ops:
        client.run_op(op)
    assert client.failures == []
    refs = {op_id: check.as_reference(r) for op_id, r in client.first.items()}
    # reference matches itself
    client, _ = _client(tmp_path, refs)
    for op in ops:
        client.run_op(op)
    assert client.failures == []
    # perturb one bound by 5 % and the chosen displacement by one grid step
    fields = refs["a/compute"]["fields"]
    fields["bearing0.total"] = f"{float(fields['bearing0.total']) * 1.05:.4e}"
    line = refs["a/line"]["fields"]
    line["displacement"] = "+1" if line["displacement"] != "+1" else "+2"
    client, _ = _client(tmp_path, refs)
    for op in ops:
        client.run_op(op)
    assert client.attempted == 2
    assert len(client.failures) == 2
    assert "bearing0.total" in client.failures[0] and "displacement" in client.failures[1]


def test_speed_probe_spends_its_share_of_the_time():
    probe = speed.SpeedProbe()
    probe.last -= 0.5  # half a second since the last sample
    probe.sample()
    assert probe.loops >= 1
    assert speed.SHARE * 0.5 <= probe.seconds < speed.SHARE * 0.5 + 0.05
    assert probe.factor() == pytest.approx(probe.loops / probe.seconds / speed.REFERENCE_RATE)


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    client, _ = _client(tmp_path, {})
    values = run.measure(client, 0.05)
    wall, factor = values["wall_clock"], values["speed_factor"]
    # a faster machine (factor > 1) measures shorter times; scaling undoes that
    assert values["ops_per_s"] == pytest.approx(wall["ops_per_s"] / factor)
    assert values["latency_p50_ms"] == pytest.approx(wall["latency_p50_ms"] * factor)
    assert values["latency_tail_ms"] == pytest.approx(wall["latency_tail_ms"] * factor)
    assert client.failures == [] and values["samples"] == len(client.latencies)


def test_tail_is_the_value_with_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    pct, value = run.tail(xs)
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert sum(x > value for x in xs) == 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
