"""Print every benchmark metric, by name and unit, for each workload.

    python3 perfbench/summary.py [--seed N]

For each workload of BENCHMARK.json this runs perfbench/run.py, for the
run_seconds it sets, once untraced (end-to-end metrics, error rate, tail
percentile and sample count) and twice traced with the same seed (per-layer metrics, tracing overhead), and shows whether the
counts that must repeat exactly did so across the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: "))
    return detail, json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        detail, result = bench(workload, args.seed, seconds, 0)
        values = detail["values"]
        print(f"== {workload} (seed {args.seed}, {seconds} s, references: {detail['references']})")
        for m in spec["end_to_end"]:
            extra = ""
            if m["name"] == "latency_tail_ms":
                extra = f"  (p{values['tail_percentile']:.2f} of {values['samples']} samples)"
            print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}{extra}")
        print(f"  {'error_rate':<28} {values['error_rate']:>14.6g} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        print(f"  {'speed_factor':<28} {values['speed_factor']:>14.6g} "
              "(this machine's speed over the reference speed the times are scaled to)")
        traced = [bench(workload, args.seed, seconds, 1) for _ in range(2)]
        layer = traced[0][0]["values"]
        for m in spec["per_layer"]:
            print(f"  {m['name']:<28} {layer[m['name']]:>14.6g} {m['unit']}" + (" per pass" if not m["name"].startswith("trace.") else ""))
        # each run lists the distinct per-pass values of every count; one value, same in both runs
        counts = [d["counts_per_pass"] for d, _ in traced]
        repeat = counts[0] == counts[1] and all(len(v) == 1 for v in counts[0].values())
        print(f"  counts repeat exactly across two traced runs: {'yes' if repeat else 'NO'} "
              + ", ".join(f"{k}={v}" for k, v in counts[0].items()))
        ok &= repeat and result["correct"] and all(r["correct"] for _, r in traced)
        print(f"  env: {json.dumps(detail['env'], sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
