"""The comparison tools refuse a comparison in which nothing changes, and report every
end-to-end metric against its benchmark bound."""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("head_files, same", [
    ({"src/a.py": "x = 1\n", "README.md": "r\n"}, True),
    ({"src/a.py": "x = 2\n", "README.md": "r\n"}, False),
    ({"src/a.py": "x = 1\n"}, False),
    ({"src/a.py": "x = 1\n", "README.md": "r\n", "src/b.py": ""}, False),
])
def test_unchanged_only_for_byte_identical_checkouts(head_files, same, tmp_path, capsys):
    base = checkout(tmp_path / "base", {"src/a.py": "x = 1\n", "README.md": "r\n"})
    head = checkout(tmp_path / "head", head_files)
    assert bench_pairs.unchanged(base, head) is same
    assert ("nothing to compare (pass --base <parent commit>)" in capsys.readouterr().err) is same


def test_identical_checkouts_exit_2_before_any_run(tmp_path, monkeypatch):
    # both refs export the same files, as a committed change does against --base HEAD
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": "x = 1\n"}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    argv = ["--tag", "t", "--workload", "report", "--base", "HEAD", "--head", "HEAD", "--out", str(tmp_path / "b.json")]
    assert bench_pairs.main(argv) == 2
    assert not (tmp_path / "b.json").exists()


def metric(parent: float, change: float, better: str) -> dict:
    return {"parent": {"median": parent}, "change": {"median": change}, "better": better, "change_wins": 3,
            "parent_iqr": 0.5, "ratio": round(change / parent, 4)}


def test_verdict_lines_flag_a_metric_worse_than_its_bound():
    bound = bench_pairs.BOUNDS
    result = {"pairs": 4, "failed": {"parent": 0, "change": 1}, "metrics": {
        "ops_per_s": metric(100.0, 100.0 * (1 - bound["ops_per_s"]) - 1, "higher"),
        "peak_rss_mb": metric(40.0, 40.0 * (1 + bound["peak_rss_mb"]) - 0.1, "lower"),
        "latency_p50_ms": metric(2.0, 2.0 * (1 + bound["latency_p50_ms"]) + 0.1, "lower"),
    }}
    head, *lines = bench_pairs.verdict_lines("search_phase", "seed0", result)
    assert head == "search_phase seed0: failed operations 0 -> 1"
    assert [line.split(": ")[0] for line in lines] == [f"search_phase seed0 {m}" for m in result["metrics"]]
    assert [line.endswith("bound") and "WORSE THAN" in line for line in lines] == [True, False, True]
    assert "change won 3/4, parent IQR 0.5" in lines[0]


def test_a_run_records_its_wall_and_cpu_seconds(tmp_path):
    # a stand-in run.py that spins about 0.2 s of CPU on one thread, then prints its result line
    script = ("import json, time\nend = time.process_time() + 0.2\nwhile time.process_time() < end:\n    pass\n"
              "print(json.dumps({'metrics': {}, 'attempted': 1, 'failed': 0}))\n")
    result = bench_pairs.run_once(checkout(tmp_path, {"perfbench/run.py": script}), "report", 0, 1.0)
    assert 0.2 <= result["cpu_s"] <= result["wall_s"] * 1.05 + 0.01


def fake_run(cpu_per_wall: dict):
    """A stand-in for ``run_once``: every metric 1.0 and 10 wall seconds, CPU seconds by the checkout's name."""
    def run_once(checkout, workload, seed, seconds):
        metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
        return {"metrics": metrics, "attempted": 5, "failed": 0, "wall_s": 10.0,
                "cpu_s": 10.0 * cpu_per_wall[checkout.name]}
    return run_once


def test_cpu_per_wall_is_stored_and_printed_per_side(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": ref}))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 0.98, "aacp": 0.97, "head": 1.31}))
    out = tmp_path / "b.json"
    argv = ["--tag", "t", "--workload", "search_bound", "--pairs", "2", "--aa-pairs", "2",
            "--base", "parent", "--head", "change", "--out", str(out)]
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["cpus_usable"] == len(os.sched_getaffinity(0))
    seed0, aa = report["search_bound"]["seed0"], report["search_bound"]["aa_seed0"]
    assert {side: q["runs"] for side, q in seed0["cpu_per_wall"].items()} == {"parent": [0.98] * 2, "change": [1.31] * 2}
    assert {side: q["median"] for side, q in aa["cpu_per_wall"].items()} == {"parent": 0.98, "parent_copy": 0.97}
    printed = capsys.readouterr().out.splitlines()
    assert "search_bound seed0 CPU/wall: 0.98 -> 1.31" in printed
    assert printed[-1] == f"runs may use {report['cpus_usable']} CPUs; wrote {out}"
