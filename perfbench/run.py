"""nfcrb benchmark: one closed-loop client driving the program in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up runs the input generator (perfbench/gen.py) in a fresh interpreter
several times; ``setup_s`` is the median time of those runs, so it
covers interpreter start, ``import nfcrb``, generation and writing.  Every
set-up must produce byte-identical files.

The measured loop then runs whole passes of the generated operation list
until ``--seconds`` have elapsed at the reference speed (see below).  Each operation is one user command through
``nfcrb.cli.main(argv)`` with output captured, except the 2-D box search,
which has no command and calls ``nfcrb.grid_search``.  The program sees only
the generated files and argv.  Outputs are checked against the references
recorded in perfbench/refs (for other seeds, only the bundled-scenario
operations have one), and always against the first pass and for
finiteness; an operation that raises, exits with another
code, or fails a check counts as failed.

The end-to-end times are taken at the reference speed of speed.py: a probe
interleaved with the operations measures the machine's speed during the run,
and every time is scaled by it, so runs made while the machine ran faster or
slower compare.  The ``detail:`` line keeps the wall-clock values.

With ``--trace 1`` untraced and traced passes alternate (see tracing.py), so
the tracing overhead compares passes made at the same time; per-layer metrics
are per traced pass of the operation list, so counts compare exactly between
runs.  The last line of standard output is the JSON result;
``--record-refs FILE`` instead runs one pass and stores its outputs as
references for this workload and seed.
"""

from __future__ import annotations

import os

# one BLAS thread; set before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import lzma
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from gen import BUNDLED
from speed import SpeedProbe
from tracing import Tracer, pass_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
COUNTS_THAT_REPEAT = (
    "fim_crb.trace_products",
    "fim_crb.fim_calls",
    "reposition.evaluate_calls",
    "geometry.reconstruct_calls",
)


def refs_path(workload: str, seed: int) -> Path:
    """The recorded references of this seed, or of seed 0 for the bundled-scenario operations."""
    path = HERE / "refs" / workload / f"seed{seed}.json.xz"
    return path if path.exists() else HERE / "refs" / workload / "seed0.json.xz"


def load_refs(path: Path, workload: str, seed: int) -> tuple[dict, str]:
    """References for this run and what they cover.

    A file recorded for another seed still pins the operations on the bundled
    scenarios, whose inputs do not depend on the seed.
    """
    if not path.exists():
        return {}, "none"
    with lzma.open(path, "rt") as fh:
        doc = json.load(fh)
    if doc["workload"] != workload:
        raise SystemExit(f"error: {path} holds references for {doc['workload']}, not {workload}")
    if doc["seed"] == seed:
        return doc["ops"], "this seed"
    prefixes = tuple(f"{name}/" for name in BUNDLED)
    return {op: r for op, r in doc["ops"].items() if op.startswith(prefixes)}, "bundled scenarios only"


def save_refs(path: Path, workload: str, seed: int, ops: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"workload": workload, "seed": seed, "ops": ops}, sort_keys=True, separators=(",", ":"))
    with lzma.open(path, "wt", preset=9 | lzma.PRESET_EXTREME) as fh:
        fh.write(text)


def git_commit() -> str:
    """HEAD of the repository holding this checkout, or 'none' outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nfcrb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def set_up(workload: str, seed: int, work: Path) -> tuple[Path, list[float], list[float]]:
    """Generate the inputs SETUP_REPEATS times in fresh interpreters.

    Returns the input dir, the wall times, and the machine-speed factor
    probed just before and after each time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, factors, digests = [], [], []
    for i in range(SETUP_REPEATS):
        probe = SpeedProbe()
        probe.run(0.05)
        out = work / f"inputs{i}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        probe.run(0.05)
        factors.append(probe.factor())
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.append(h.hexdigest())
        if i:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise RuntimeError("input generation is not deterministic for this seed")
    return work / "inputs0", times, factors


def execute(nfcrb, op: dict, inputs: Path):
    """Run one operation; returns (exit code, its output: stdout text or the search plan)."""
    scenario = str(inputs / f"{op['scenario']}.json")
    if op["kind"] == "box":
        scn, _ = nfcrb.runtime_scenario(nfcrb.load_scenario(scenario))
        (x0, x1, nx), (y0, y1, ny) = op["box"]["x"], op["box"]["y"]
        return 0, nfcrb.grid_search(scn, op["element"], op["objective"], nfcrb.BoxGrid(x0, x1, nx, y0, y1, ny))
    command, *rest = op["argv"]
    argv = [command, "--scenario", scenario]
    argv += [str(inputs / a) if a.endswith(".csv") else a for a in rest]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = nfcrb.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def fields_of(op: dict, output, inputs: Path) -> list:
    """The checked fields of an operation's output (outside the timed region)."""
    if op["kind"] == "box":
        return check.fields_box(output)
    command = op["argv"][0]
    if command == "compute":
        return check.fields_compute(output)
    if command == "validate":
        return check.fields_validate(output)
    if command == "reposition":
        return check.fields_reposition(output)
    csv_path = inputs / op["argv"][op["argv"].index("--out") + 1]
    return check.fields_sweep_csv(csv_path.read_text()) if csv_path.exists() else []


class Client:
    """Closed loop, one client: the next operation starts when the previous one returns."""

    def __init__(self, nfcrb, ops: list[dict], inputs: Path, refs: dict) -> None:
        self.nfcrb, self.ops, self.inputs, self.refs = nfcrb, ops, inputs, refs
        self.first: dict[str, dict] = {}
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op_id = 0

    def run_op(self, op: dict, tracer: Tracer | None = None) -> float:
        if tracer is not None:
            tracer.op_id = self.next_op_id
        self.next_op_id += 1
        for arg in op.get("argv", ()):
            if arg.endswith(".csv"):
                (self.inputs / arg).unlink(missing_ok=True)
        t0 = time.perf_counter()
        error = None
        try:
            rc, output = execute(self.nfcrb, op, self.inputs)
        except Exception as exc:  # an operation that raises is a failed operation
            rc, output, error = -1, None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        fields = fields_of(op, output, self.inputs) if error is None else []
        got = {"rc": rc, "fields": [list(f) for f in fields], "error": error}
        problems = check.sanity(got)
        if op["id"] in self.refs:
            problems += check.compare(self.refs[op["id"]], got)
        first = self.first.setdefault(op["id"], got)
        if got != first:
            problems.append("output differs from the first pass in this run")
        self.attempted += 1
        if problems:
            self.failures.append(f"{op['id']}: " + "; ".join(problems[:3]))
        return dt

    def run_pass(self, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> float:
        """One pass of the operation list; returns its wall time without the probe's."""
        probed = probe.seconds if probe else 0.0
        t0 = time.perf_counter()
        for op in self.ops:
            self.latencies.append(self.run_op(op, tracer))
            if probe:
                probe.sample()
        return time.perf_counter() - t0 - (probe.seconds - probed if probe else 0.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def measure(client: Client, seconds: float) -> dict:
    """Whole passes with the speed probe until the time is up; times at the reference speed.

    The time is reference-speed time too, so the number of passes, and with it
    which operation the median and tail samples fall on, does not follow the
    machine's drift.
    """
    gc.collect()
    probe = SpeedProbe()
    passes, elapsed = 0, 0.0
    while passes == 0 or elapsed * probe.factor() < seconds:
        elapsed += client.run_pass(probe=probe)
        passes += 1
    pct, value = tail(client.latencies)
    wall = {
        "ops_per_s": len(client.latencies) / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(client.latencies),
        "latency_tail_ms": 1e3 * value,
    }
    factor = probe.factor()
    return {
        "ops_per_s": wall["ops_per_s"] / factor,
        "latency_p50_ms": wall["latency_p50_ms"] * factor,
        "latency_tail_ms": wall["latency_tail_ms"] * factor,
        "wall_clock": wall,
        "speed_factor": factor,
        "tail_percentile": pct,
        "samples": len(client.latencies),
        "passes": passes,
        "elapsed_s": elapsed,
        # ru_maxrss of this process: the program plus the harness, which holds
        # only this seed's references and the checked fields of one pass
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(client: Client, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until the time is up; per-layer values per traced pass."""
    gc.collect()
    tracer = Tracer()
    elapsed_u = elapsed_t = 0.0
    passes, traced_ops = 0, []
    while passes == 0 or elapsed_u + elapsed_t < seconds:
        elapsed_u += client.run_pass()
        first_op = client.next_op_id
        tracer.install()
        try:
            elapsed_t += client.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced_ops.append(range(first_op, client.next_op_id))
        passes += 1
    pass_of_op = {op: k for k, ops in enumerate(traced_ops) for op in ops}
    per_pass = pass_totals(tracer, pass_of_op, passes)
    tracer.write(spans_path)
    out = {key: statistics.fmean(p[key] for p in per_pass) for key in per_pass[0]}
    # the same number of untraced and traced passes, so the rates are per pass time
    untraced = passes * len(client.ops) / elapsed_u
    traced = passes * len(client.ops) / elapsed_t
    out.update(
        {
            "trace.untraced_ops_per_s": untraced,
            "trace.traced_ops_per_s": traced,
            "trace.overhead": untraced / traced - 1.0,
            "trace.passes": passes,
            "trace.spans_per_pass": len(tracer.start) / passes,
        }
    )
    repeat = {key: sorted({p[key] for p in per_pass}) for key in COUNTS_THAT_REPEAT}
    return out, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nfcrb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path, default=None,
                        help="reference file (.json.xz) to check against "
                        "(default: perfbench/refs/<workload>/seed<seed>.json.xz)")
    parser.add_argument("--record-refs", type=Path, default=None,
                        help="run one pass and store its outputs as references in this file (.json.xz)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("seed must be nonnegative")
    if not (SRC / "nfcrb" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'nfcrb'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nfcrb
    import nfcrb.cli

    if not Path(nfcrb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported nfcrb from {nfcrb.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs, setup_times, setup_factors = set_up(args.workload, args.seed, work)
        ops = json.loads((inputs / "ops.json").read_text())["ops"]
        if args.record_refs is not None:
            client = Client(nfcrb, ops, inputs, {})
            client.run_pass()
            refs = {op_id: check.as_reference(r) for op_id, r in client.first.items()}
            save_refs(args.record_refs, args.workload, args.seed, refs)
            for line in client.failures:
                print(f"FAILED {line}", file=sys.stderr)
            print(f"recorded {len(ops)} operations of {args.workload} seed {args.seed} in {args.record_refs}")
            return 1 if client.failures else 0

        refs, coverage = load_refs(args.refs or refs_path(args.workload, args.seed), args.workload, args.seed)
        client = Client(nfcrb, ops, inputs, refs)
        client.run_op(ops[0])  # warm-up, not timed or counted
        client.attempted, client.failures, client.latencies = 0, [], []
        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
            values, repeat = measure_traced(client, seconds, spans)
        else:
            values = measure(client, seconds)
            values["setup_s"] = statistics.median(t * f for t, f in zip(setup_times, setup_factors))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(client.failures)
    values["error_rate"] = failed / client.attempted
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "references": coverage,
        "setup_times_s": setup_times,
        "setup_speed_factors": setup_factors,
        "values": values,
        "env": environment(args.seed),
    }
    if args.trace:
        detail["counts_per_pass"] = repeat
    for line in client.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("detail: " + json.dumps(detail, sort_keys=True))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": client.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
