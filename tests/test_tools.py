"""The comparison tools refuse a comparison in which nothing changes, and report every
end-to-end metric against its benchmark bound."""

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
