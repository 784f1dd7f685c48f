"""The comparison tools refuse a comparison in which nothing changes, and report every
end-to-end metric against its benchmark bound; ``bench_pairs`` records each run's CPU time,
host steal and operations per CPU second, and merges a re-run into its file seed by seed; ``reach``
lists the package functions that no benchmark operation calls."""

import json
import os
import subprocess
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
    result = {"pairs": 4, "failed": {"parent": 0, "change": 1}, "ops_per_cpu_s": metric(50.0, 80.0, "higher"),
              "metrics": {
        "ops_per_s": metric(100.0, 100.0 * (1 - bound["ops_per_s"]) - 1, "higher"),
        "peak_rss_mb": metric(40.0, 40.0 * (1 + bound["peak_rss_mb"]) - 0.1, "lower"),
        "latency_p50_ms": metric(2.0, 2.0 * (1 + bound["latency_p50_ms"]) + 0.1, "lower"),
    }}
    head, *lines = bench_pairs.verdict_lines("search_phase", "seed0", result)
    assert head == "search_phase seed0: failed operations 0 -> 1"
    # operations per CPU second follow ops/s, with no bound to be worse than
    assert lines.pop(1) == "search_phase seed0 ops_per_cpu_s: 50 -> 80 (ratio 1.6), change won 3/4, parent IQR 0.5, no bound"
    assert [line.split(": ")[0] for line in lines] == [f"search_phase seed0 {m}" for m in result["metrics"]]
    assert [line.endswith("bound") and "WORSE THAN" in line for line in lines] == [True, False, True]
    assert "change won 3/4, parent IQR 0.5" in lines[0]


def test_a_run_records_its_wall_and_cpu_seconds(tmp_path):
    # a stand-in run.py that spins about 0.2 s of CPU on one thread, then prints its result line
    script = ("import json, time\nend = time.process_time() + 0.2\nwhile time.process_time() < end:\n    pass\n"
              "print(json.dumps({'metrics': {}, 'attempted': 1, 'failed': 0}))\n")
    result = bench_pairs.run_once(checkout(tmp_path, {"perfbench/run.py": script}), "report", 0, 1.0)
    assert 0.2 <= result["cpu_s"] <= result["wall_s"] * 1.05 + 0.01


def fake_run(cpu_per_wall: dict, steal=None):
    """A stand-in for ``run_once``: every metric 1.0 and 10 wall seconds, CPU seconds by the checkout's name
    (and the host's steal share, if given, too)."""
    def run_once(checkout, workload, seed, seconds):
        metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
        return {"metrics": metrics, "attempted": 5, "failed": 0, "wall_s": 10.0,
                "cpu_s": 10.0 * cpu_per_wall[checkout.name], "steal": steal and steal[checkout.name]}
    return run_once


def test_cpu_per_wall_is_stored_and_printed_per_side(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": ref}))
    steal = {"base": 0.004, "aacp": 0.02, "head": 0.0312}
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 0.98, "aacp": 0.97, "head": 1.31}, steal))
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
    # ops/s (1.0 in every run) over CPU/wall: the work of one CPU second, stored and printed next to ops/s
    ops = seed0["ops_per_cpu_s"]
    assert (ops["parent"]["runs"], ops["change"]["runs"]) == ([1.0204] * 2, [0.7634] * 2)
    assert (ops["change_wins"], ops["ratio"]) == (0, 0.7481)
    assert aa["ops_per_cpu_s"]["parent_copy"]["median"] == 1.0309
    ops_line = printed.index("search_bound seed0 ops_per_s: 1 -> 1 (ratio 1.0), change won 0/2, parent IQR 0, "
                             "within its 0.25 bound") + 1
    assert printed[ops_line] == ("search_bound seed0 ops_per_cpu_s: 1.0204 -> 0.7634 (ratio 0.7481), change won 0/2, "
                                 "parent IQR 0, no bound")
    assert {side: q["median"] for side, q in seed0["steal"].items()} == {"parent": 0.004, "change": 0.0312}
    # the parent's runs (CPU/wall 0.98) had no second CPU for search_bound's worker thread
    assert seed0["one_cpu_runs"] == {"parent": 2, "change": 0}
    assert aa["one_cpu_runs"] == {"parent": 2, "parent_copy": 2}
    assert ("search_bound seed0 CPU/wall: 0.98 -> 1.31, host steal: 0.40% -> 3.12%, "
            "one-CPU runs (CPU/wall < 1.15): 2/2 -> 0/2") in printed
    assert printed[-1] == f"runs may use {report['cpus_usable']} CPUs; wrote {out}"


def test_a_run_without_proc_stat_records_an_unknown_steal(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": ref}))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 1.0, "aacp": 1.0, "head": 1.0}))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    out = tmp_path / "b.json"
    argv = ["--tag", "t", "--workload", "sweep", "--pairs", "1", "--aa-pairs", "0",
            "--base", "parent", "--head", "change", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["sweep"]["seed0"]["steal"] == {"parent": None, "change": None}
    assert "sweep seed0 CPU/wall: 1.00 -> 1.00, host steal: unknown -> unknown" in capsys.readouterr().out


def test_one_cpu_runs_are_counted_for_threaded_workloads_only(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": ref}))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    out = tmp_path / "b.json"
    argv = ["--tag", "t", "--workload", "sweep", "report", "--pairs", "1", "--aa-pairs", "0",
            "--base", "parent", "--head", "change", "--out", str(out)]
    # just below and at the threshold
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 1.149, "aacp": 1.0, "head": 1.15}))
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["sweep"]["seed0"]["one_cpu_runs"] == {"parent": 1, "change": 0}
    assert report["report"]["seed0"]["one_cpu_runs"] == {"parent": None, "change": None}
    printed = capsys.readouterr().out.splitlines()
    assert "sweep seed0 CPU/wall: 1.15 -> 1.15, host steal: unknown -> unknown, one-CPU runs (CPU/wall < 1.15): " \
           "1/1 -> 0/1" in printed
    assert "report seed0 CPU/wall: 1.15 -> 1.15, host steal: unknown -> unknown" in printed


# the aggregate line first, then one per CPU; the eighth number is steal
PROC_STAT = """cpu  6715641 3 267714 17210572 1656 7 4823 151144 11 13
cpu0 4327836 0 170246 7585005 1414 0 3717 99539 0 0
cpu1 2387805 0 97467 9625567 242 0 1106 51605 0 0
intr 1 2 3
"""


def test_host_steal_is_read_off_the_aggregate_cpu_line(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text(PROC_STAT)
    before = bench_pairs.host_cpu_times(stat)
    assert before == (151144, 6715641 + 3 + 267714 + 17210572 + 1656 + 7 + 4823 + 151144)  # guest counted in user
    stat.write_text(PROC_STAT.replace("17210572 1656 7 4823 151144", "17211472 1656 7 4823 151244"))
    assert bench_pairs.steal_share(before, bench_pairs.host_cpu_times(stat)) == 0.1  # 100 of 1000 ticks
    assert bench_pairs.host_cpu_times(tmp_path / "missing") is None
    assert bench_pairs.steal_share(None, before) is None and bench_pairs.steal_share(before, before) is None


def test_a_rerun_keeps_the_other_seeds_and_the_aa_control(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: checkout(dest, {"src/a.py": ref}))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    out = tmp_path / "b.json"
    common = ["--tag", "t", "--base", "parent", "--head", "change", "--out", str(out), "--pairs", "1"]
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 1.0, "aacp": 1.0, "head": 1.0}))
    assert bench_pairs.main([*common, "--workload", "sweep", "report", "--seeds", "0", "3", "--aa-pairs", "1"]) == 0
    first = json.loads(out.read_text())
    # seed 3 of sweep again, without a control, on a different reading
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 1.0, "aacp": 1.0, "head": 1.5}))
    assert bench_pairs.main([*common, "--workload", "sweep", "--seeds", "3", "--aa-pairs", "0"]) == 0
    second = json.loads(out.read_text())
    assert sorted(second["sweep"]) == ["aa_seed0", "seed0", "seed3"]
    assert second["sweep"]["seed0"] == first["sweep"]["seed0"]
    assert second["sweep"]["aa_seed0"] == first["sweep"]["aa_seed0"]
    assert second["report"] == first["report"]
    assert second["sweep"]["seed3"]["cpu_per_wall"]["change"]["median"] == 1.5
    capsys.readouterr()


def test_a_rerun_in_the_same_work_directory_starts_from_fresh_checkouts(tmp_path, monkeypatch, capsys):
    # a two-commit repository; the first run leaves its checkouts, and a stray file in one of them, under --work
    repo, work, out = tmp_path / "repo", tmp_path / "work", tmp_path / "b.json"
    checkout(repo, {"src/a.py": "x = 1\n"})
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    for step in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "parent"]):
        subprocess.run([*git, *step], check=True)
    (repo / "src/a.py").write_text("x = 2\n")
    subprocess.run([*git, "commit", "-qam", "change"], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run({"base": 1.0, "aacp": 1.0, "head": 1.0}))
    argv = ["--tag", "t", "--workload", "report", "--pairs", "1", "--aa-pairs", "0",
            "--base", "HEAD~1", "--head", "HEAD", "--work", str(work), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    (work / "base" / "stray.py").write_text("")
    assert bench_pairs.main([*argv, "--seeds", "3"]) == 0
    assert sorted(json.loads(out.read_text())["report"]) == ["seed0", "seed3"]
    assert not (work / "base" / "stray.py").exists()
    assert [(work / side / "src/a.py").read_text() for side in ("base", "aacp", "head")] == ["x = 1\n", "x = 1\n",
                                                                                           "x = 2\n"]
    capsys.readouterr()


@pytest.mark.parametrize("recorded", [{"parent_commit": "other", "change_commit": "change"},
                                      {"parent_commit": "parent", "change_commit": "working tree"}])
def test_a_file_of_other_commits_exits_2_before_any_run(recorded, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_commit", lambda ref, dest: pytest.fail("a checkout was made"))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    out = tmp_path / "b.json"
    out.write_text(json.dumps({**recorded, "sweep": {"seed0": {}}}))
    argv = ["--tag", "t", "--workload", "sweep", "--base", "parent", "--head", "change", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert json.loads(out.read_text()) == {**recorded, "sweep": {"seed0": {}}}
    assert "pass another --tag or --out" in capsys.readouterr().err



def test_reach_lists_what_no_operation_calls(tmp_path):
    # a phase search scores candidates but never plans the analytic move
    tool = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
    argv = [sys.executable, str(tool), "--workload", "search_phase", "--seeds", "0", "--work", str(tmp_path)]
    unreached = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()
    assert "reposition.analytic_reposition" in unreached
    assert "reposition.score_candidates" not in unreached
    # by line: both searches run, and no candidate fails, so no skip note is written
    argv[-1] = str(tmp_path / "lines")
    lines = subprocess.run([*argv, "--lines"], capture_output=True, text=True, check=True).stdout.splitlines()
    where = {line.split(": ", 1)[0].rsplit(":", 1)[0] for line in lines}
    assert {"reposition.analytic_reposition", "reposition._scan"} <= where
    assert not where & {"reposition.grid_search", "reposition.line_search_reposition"}
    assert any(line.startswith("reposition._scan:") and line.endswith('notes.append(f"{where} skipped: {exc}")')
               for line in lines)
