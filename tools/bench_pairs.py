"""Interleaved benchmark pairs: a parent commit against a change, with an A/A control.

    python3 tools/bench_pairs.py --tag sweep_plan --workload sweep --seeds 0 31 --pairs 10 \
        [--base HEAD] [--head <ref>] [--aa-pairs 4] [--seconds 20] [--work DIR]

Three checkouts are made in sibling directories of equal depth under ``--work``:
``base`` and ``aacp`` hold the ``--base`` commit (``git archive``), ``head`` holds
``--head`` or, by default, the working tree's tracked and untracked files (what
``git add -A`` would commit).  Each pair runs ``perfbench/run.py`` once on the
base and once on the head, the side that runs first alternating from pair to
pair, so slow drift of the machine falls on both sides alike.  The A/A control
runs the base against its own copy in the same way: a reading that moves between
two copies of one commit is the directory or the machine, not the code
(``perfbench`` readings have been seen to depend on where a checkout sits).

Writes ``BENCH_<tag>.json`` in the repository root (or ``--out``): per workload
and seed, each end-to-end metric's runs, medians and inclusive quartiles per
side, how many pairs the head won, the median change and the base's
interquartile range, and the same for the A/A control.  An existing file keeps
the workloads this run does not measure, so workloads can be run with
different pair counts into one file.  Then prints, per workload and seed of
this run, the failed operations and one line per end-to-end metric: both
medians, the ratio, the change's wins, the parent's IQR and whether the change
is worse than the metric's ``BENCHMARK.json`` bound.

Exits 2, measuring nothing, if the base and head checkouts hold byte-identical
files (the change is already committed and ``--base`` defaults to HEAD: pass
``--base <parent commit>``).  The A/A control compares the base with its own
copy on purpose and is not checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_commit(ref: str, dest: Path) -> None:
    """The files of a commit, unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files, copied into ``dest``."""
    files = git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def unchanged(base: Path, head: Path) -> bool:
    """Whether two checkouts hold the same files, byte for byte (said on stderr if so): comparing
    a commit with itself measures nothing, as when the change is committed and ``--base`` is HEAD."""
    files = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()) for root in (base, head)]
    if files[0] != files[1] or any((base / f).read_bytes() != (head / f).read_bytes() for f in files[0]):
        return False
    print(f"{base.name} and {head.name} hold byte-identical files: nothing to compare "
          "(pass --base <parent commit>)", file=sys.stderr)
    return True


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a checkout: its JSON result line, plus the run's detail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name}: {' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next((json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")), {})
    result["values"] = detail.get("values", {})
    return result


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compare(pairs: list[tuple[dict, dict]], names: tuple[str, str]) -> dict:
    """Per metric: both sides' quartiles, the second side's wins, the median change and the first side's IQR."""
    first, second = names
    out = {
        "pairs": len(pairs),
        "attempted": {name: sum(p[i]["attempted"] for p in pairs) for i, name in enumerate(names)},
        "failed": {name: sum(p[i]["failed"] for p in pairs) for i, name in enumerate(names)},
        "metrics": {},
    }
    for metric, better in METRICS.items():
        a = [p[0]["metrics"][metric]["value"] for p in pairs]
        b = [p[1]["metrics"][metric]["value"] for p in pairs]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
        out["metrics"][metric] = {
            first: qa,
            second: qb,
            "better": better,
            f"{second}_wins": wins,
            f"{first}_iqr": round(qa["q3"] - qa["q1"], 4),
            "median_change": round(qb["median"] - qa["median"], 4),
            "ratio": round(qb["median"] / qa["median"], 4) if qa["median"] else None,
        }
    return out


def verdict_lines(workload: str, seed_key: str, result: dict) -> list[str]:
    """One line per end-to-end metric of a parent/change comparison: both medians, the ratio,
    the change's wins, the parent's IQR and whether the change is worse than the metric's bound
    (a relative change, as ``BENCHMARK.json`` gives it)."""
    lines = [f"{workload} {seed_key}: failed operations {result['failed']['parent']} -> {result['failed']['change']}"]
    for metric, m in result["metrics"].items():
        parent, change, bound = m["parent"]["median"], m["change"]["median"], BOUNDS[metric]
        worse = change < parent * (1 - bound) if m["better"] == "higher" else change > parent * (1 + bound)
        lines.append(f"{workload} {seed_key} {metric}: {parent:g} -> {change:g} (ratio {m['ratio']}), "
                     f"change won {m['change_wins']}/{result['pairs']}, parent IQR {m['parent_iqr']:g}, "
                     f"{'WORSE THAN' if worse else 'within'} its {bound:g} bound")
    return lines


def interleave(left: Path, right: Path, workload: str, seed: int, pairs: int, seconds: float, label: str) -> list:
    results = []
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = run_once((left, right)[side], workload, seed, seconds)
        results.append(tuple(pair))
        ops = [f"{r['metrics']['ops_per_s']['value']:.2f}" for r in pair]
        print(f"{label} {workload} seed {seed} pair {k + 1}/{pairs}: ops/s {ops[0]} -> {ops[1]}", flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa-pairs", type=int, default=4, help="A/A control pairs per workload, on the first seed")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--base", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--head", default=None, help="change commit (default: the working tree)")
    parser.add_argument("--work", type=Path, default=None, help="directory for the checkouts (default: a temporary one)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        work = args.work or Path(tmp)
        base, copy, head = (work / name for name in ("base", "aacp", "head"))  # equal depth and name length
        export_commit(args.base, base)
        export_commit(args.base, copy)
        if args.head:
            export_commit(args.head, head)
        else:
            export_worktree(head)
        if unchanged(base, head):
            return 2
        report = {
            "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g} --trace 0",
            "method": ("interleaved pairs, the side that runs first alternating; base, its A/A copy and the change "
                       "each run from its own checkout in sibling directories of equal depth; medians and "
                       "quartiles (inclusive method) over the pairs, wins counted per pair"),
            "parent_commit": git("rev-parse", args.base),
            "change_commit": git("rev-parse", args.head) if args.head else "working tree",
        }
        for workload in args.workload:
            report[workload] = {}
            for seed in args.seeds:
                pairs = interleave(base, head, workload, seed, args.pairs, args.seconds, "A/B")
                report[workload][f"seed{seed}"] = compare(pairs, ("parent", "change"))
            if args.aa_pairs:
                seed = args.seeds[0]
                pairs = interleave(base, copy, workload, seed, args.aa_pairs, args.seconds, "A/A")
                report[workload][f"aa_seed{seed}"] = compare(pairs, ("parent", "parent_copy"))
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    if out.exists():
        report = {**json.loads(out.read_text()), **report}
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload in args.workload:
        for seed in args.seeds:
            print("\n".join(verdict_lines(workload, f"seed{seed}", report[workload][f"seed{seed}"])))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
