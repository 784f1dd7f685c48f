"""Interleaved benchmark pairs: a parent commit against a change, with an A/A control.

    python3 tools/bench_pairs.py --tag sweep_plan --workload sweep --seeds 0 31 --pairs 10 \
        [--base HEAD] [--head <ref>] [--aa-pairs 4] [--seconds 20] [--work DIR]

Three checkouts are made in sibling directories of equal depth under ``--work``:
``base`` and ``aacp`` hold the ``--base`` commit (``git archive``), ``head`` holds
``--head`` or, by default, the working tree's tracked and untracked files (what
``git add -A`` would commit).  Each run replaces the checkouts an earlier run left
under the same ``--work``.  Each pair runs ``perfbench/run.py`` once on the
base and once on the head, the side that runs first alternating from pair to
pair, so slow drift of the machine falls on both sides alike.  The A/A control
runs the base against its own copy in the same way: a reading that moves between
two copies of one commit is the directory or the machine, not the code
(``perfbench`` readings have been seen to depend on where a checkout sits).

Writes ``BENCH_<tag>.json`` in the repository root (or ``--out``): per workload
and seed, each end-to-end metric's runs, medians and inclusive quartiles per
side, how many pairs the head won, the median change and the base's
interquartile range, each side's CPU seconds per wall second and operations per
CPU second, and the same for the A/A control; and how many CPUs the runs may
use.  A run's CPU seconds are the user and system time of its process (a
``getrusage`` delta of this script's children): above 1 per wall second the run
used a second CPU, well below 1 it waited for a busy machine.  Its operations per
CPU second are its ops/s over its CPU seconds per wall second: the work one CPU
second buys, which a second thread raises only if it is not paid for in CPU.
Each run also records the host's steal share over the run, the ``steal`` delta
over the total of ``/proc/stat``'s ``cpu`` line (read only; ``null`` where the
file is missing): CPU time the hypervisor gave to others, which a threaded run
on a busy host loses.  A ``search_bound`` or ``sweep`` run (a worker thread shares its chunks when
two CPUs are usable) below ``ONE_CPU_BELOW`` CPU seconds per wall second is counted per side as a
one-CPU run: its worker thread got no second CPU, so a pair holding one may set a one-CPU run
against a two-CPU one.  An
existing file keeps every workload and seed this run does not measure, so
workloads and seeds can be run with different pair counts into one file.  Then
prints, per workload and seed of this run, the failed operations, one line per
end-to-end metric (both medians, the ratio, the change's wins, the parent's IQR
and whether the change is worse than the metric's ``BENCHMARK.json`` bound),
after ops/s the same for operations per CPU second (which has no bound), and
both sides' median CPU seconds per wall second and steal share, with their one-CPU runs.

Exits 2, measuring nothing, if the base and head checkouts hold byte-identical
files (the change is already committed and ``--base`` defaults to HEAD: pass
``--base <parent commit>``), or if the output file exists and was recorded for
another parent or change commit.  The A/A control compares the base with its
own copy on purpose and is not checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
THREADED = ("search_bound", "sweep")
ONE_CPU_BELOW = 1.15
"""A run of a ``THREADED`` workload (a worker thread shares its chunks) below this many CPU seconds per wall
second got no second CPU: a fixed two-thread numpy loop read 1.12 or less on a busy two-CPU host."""


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


def cpu_seconds() -> float:
    """User plus system seconds of this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def host_cpu_times(stat: Path = Path("/proc/stat")) -> tuple[int, int] | None:
    """(steal, total) clock ticks of the aggregate ``cpu`` line of ``/proc/stat``, None if the file is
    missing.  The total is user through steal; guest time is already counted in user and nice."""
    try:
        text = stat.read_text()
    except OSError:
        return None
    fields = [int(v) for v in next(line for line in text.splitlines() if line.startswith("cpu ")).split()[1:9]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """The host's steal ticks over all its ticks between two ``host_cpu_times`` readings (None if unknown)."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a checkout: its JSON result line, plus the run's detail, the wall
    and CPU seconds of its process (``wall_s``, ``cpu_s``) and the host's steal share over it (``steal``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cpu, wall, host = cpu_seconds(), time.perf_counter(), host_cpu_times()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    cpu, wall, steal = cpu_seconds() - cpu, time.perf_counter() - wall, steal_share(host, host_cpu_times())
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name}: {' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next((json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")), {})
    result["values"] = detail.get("values", {})
    result["wall_s"], result["cpu_s"], result["steal"] = round(wall, 4), round(cpu, 4), steal
    return result


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compared(a: list[float], b: list[float], better: str, names: tuple[str, str]) -> dict:
    """Both sides' quartiles of one reading, the second side's wins, the median change, the first side's IQR
    and the ratio of the medians."""
    first, second = names
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
    return {
        first: qa,
        second: qb,
        "better": better,
        f"{second}_wins": wins,
        f"{first}_iqr": round(qa["q3"] - qa["q1"], 4),
        "median_change": round(qb["median"] - qa["median"], 4),
        "ratio": round(qb["median"] / qa["median"], 4) if qa["median"] else None,
    }


def ops_per_cpu_s(run: dict) -> float:
    """A run's ops/s over its CPU seconds per wall second."""
    return run["metrics"]["ops_per_s"]["value"] * run["wall_s"] / run["cpu_s"]


def compare(pairs: list[tuple[dict, dict]], names: tuple[str, str], threaded: bool = False) -> dict:
    """Per metric: both sides' quartiles, the second side's wins, the median change and the first side's IQR;
    the same for operations per CPU second; each side's CPU seconds per wall second and host steal share
    (null if a run's is unknown); and, for a ``threaded`` workload, each side's count of one-CPU runs
    (below ``ONE_CPU_BELOW``; null otherwise)."""
    ops_a, ops_b = ([ops_per_cpu_s(p[i]) for p in pairs] for i in (0, 1))
    cpu_per_wall = [[p[i]["cpu_s"] / p[i]["wall_s"] for p in pairs] for i in (0, 1)]
    out = {
        "pairs": len(pairs),
        "attempted": {name: sum(p[i]["attempted"] for p in pairs) for i, name in enumerate(names)},
        "failed": {name: sum(p[i]["failed"] for p in pairs) for i, name in enumerate(names)},
        "cpu_per_wall": {name: quartiles(cpu_per_wall[i]) for i, name in enumerate(names)},
        "one_cpu_runs": {name: sum(r < ONE_CPU_BELOW for r in cpu_per_wall[i]) if threaded else None
                         for i, name in enumerate(names)},
        "steal": {name: None if None in (steals := [p[i]["steal"] for p in pairs]) else quartiles(steals)
                  for i, name in enumerate(names)},
        "ops_per_cpu_s": compared(ops_a, ops_b, "higher", names),
        "metrics": {},
    }
    for metric, better in METRICS.items():
        a, b = ([p[i]["metrics"][metric]["value"] for p in pairs] for i in (0, 1))
        out["metrics"][metric] = compared(a, b, better, names)
    return out


def verdict_lines(workload: str, seed_key: str, result: dict) -> list[str]:
    """One line per end-to-end metric of a parent/change comparison: both medians, the ratio,
    the change's wins, the parent's IQR and whether the change is worse than the metric's bound
    (a relative change, as ``BENCHMARK.json`` gives it); after ops/s, the same for operations per
    CPU second, which has no bound."""
    lines = [f"{workload} {seed_key}: failed operations {result['failed']['parent']} -> {result['failed']['change']}"]

    def line(name: str, m: dict) -> str:
        return (f"{workload} {seed_key} {name}: {m['parent']['median']:g} -> {m['change']['median']:g} "
                f"(ratio {m['ratio']}), change won {m['change_wins']}/{result['pairs']}, "
                f"parent IQR {m['parent_iqr']:g}")

    for metric, m in result["metrics"].items():
        parent, change, bound = m["parent"]["median"], m["change"]["median"], BOUNDS[metric]
        worse = change < parent * (1 - bound) if m["better"] == "higher" else change > parent * (1 + bound)
        lines.append(f"{line(metric, m)}, {'WORSE THAN' if worse else 'within'} its {bound:g} bound")
        if metric == "ops_per_s":
            lines.append(f"{line('ops_per_cpu_s', result['ops_per_cpu_s'])}, no bound")
    return lines


def cpu_line(workload: str, seed_key: str, result: dict) -> str:
    """Both sides' median CPU seconds per wall second and host steal share of a parent/change comparison, and for a
    threaded workload both sides' one-CPU runs out of the pairs: such runs compare a one-CPU side with a two-CPU one."""
    parent, change = (result["cpu_per_wall"][side]["median"] for side in ("parent", "change"))
    steal = [result["steal"][side] for side in ("parent", "change")]
    steal = " -> ".join("unknown" if q is None else f"{q['median']:.2%}" for q in steal)
    line = f"{workload} {seed_key} CPU/wall: {parent:.2f} -> {change:.2f}, host steal: {steal}"
    one_cpu, n = result["one_cpu_runs"], result["pairs"]
    if one_cpu["parent"] is not None:
        line += f", one-CPU runs (CPU/wall < {ONE_CPU_BELOW:g}): {one_cpu['parent']}/{n} -> {one_cpu['change']}/{n}"
    return line


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
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    commits = {"parent_commit": git("rev-parse", args.base),
               "change_commit": git("rev-parse", args.head) if args.head else "working tree"}
    recorded = json.loads(out.read_text()) if out.exists() else {}
    if any(recorded.get(key, value) != value for key, value in commits.items()):
        print(f"{out} was recorded for parent {recorded.get('parent_commit')} and change "
              f"{recorded.get('change_commit')}, not {commits['parent_commit']} and {commits['change_commit']}: "
              "pass another --tag or --out", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        work = args.work or Path(tmp)
        base, copy, head = (work / name for name in ("base", "aacp", "head"))  # equal depth and name length
        for checkout in (base, copy, head):
            if checkout.exists():
                shutil.rmtree(checkout)
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
            **commits,
            "cpus_usable": len(os.sched_getaffinity(0)),
        }
        for workload in args.workload:  # merged into the recorded file's workload, seed by seed
            report[workload] = recorded.get(workload, {})
            for seed in args.seeds:
                pairs = interleave(base, head, workload, seed, args.pairs, args.seconds, "A/B")
                report[workload][f"seed{seed}"] = compare(pairs, ("parent", "change"), workload in THREADED)
            if args.aa_pairs:
                seed = args.seeds[0]
                pairs = interleave(base, copy, workload, seed, args.aa_pairs, args.seconds, "A/A")
                report[workload][f"aa_seed{seed}"] = compare(pairs, ("parent", "parent_copy"), workload in THREADED)
    report = {**recorded, **report}
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload in args.workload:
        for seed in args.seeds:
            result = report[workload][f"seed{seed}"]
            print("\n".join([*verdict_lines(workload, f"seed{seed}", result), cpu_line(workload, f"seed{seed}", result)]))
    print(f"runs may use {report['cpus_usable']} CPUs; wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
