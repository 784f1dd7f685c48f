"""Compare every output of the benchmark's operations between a parent commit and a change.

    python3 tools/same_outputs.py --workload report search_bound search_phase sweep \
        --seeds $(seq 0 19) [--base HEAD] [--head <ref>] [--work DIR]

``base`` and ``head`` are made in sibling directories under ``--work`` as in
``bench_pairs.py``: ``--base`` (default HEAD) and ``--head`` or, by default, the
working tree, each with ``git archive``.  In each checkout a fresh interpreter
writes the inputs of every chosen workload and seed with that checkout's
``perfbench/gen.py`` and runs every operation once, in order, through its
``perfbench/run.py`` ``execute``, from its own ``src``.  Both sides run at the
same time, one process each.

Per operation it keeps the exit code (or the exception an operation raised),
stdout, stderr with every numpy or Python warning shown, and the bytes of the
CSV a sweep writes; a box search, which has no command, keeps its plan's fields
at full precision in place of stdout.  The checkout's and the inputs' directory
paths are written as ``<checkout>`` and ``<inputs>``, so both sides print the
same text for the same result.  Every operation whose record differs gets a
unified diff of what differs, then one line per headline field that moved.  The
fields are the ones ``perfbench/check.py`` extracts and classifies, read in each
checkout by its own ``perfbench/run.py`` ``fields_of`` (a sweep row is split into
its columns, each of the kind ``check.value_matches`` gives it).  A line gives the
field's kind, both texts, the relative change, and whether ``check.value_matches``
accepts the pair (within ``check.RTOL`` plus one unit in the last printed digit).
A moved ``exact`` field (displacement, position, rank, count) is flagged.  A last
line gives the largest relative move per kind.  Exit status: 0 if every operation
matched, 1 if any differed, 2 if the base and head checkouts hold byte-identical files
(nothing changes, as when the change is committed and ``--base`` is HEAD: pass
``--base <parent commit>``) or an operation recorder failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from bench_pairs import ROOT, export_commit, export_worktree, git, unchanged

FIELDS = ("rc", "stdout", "stderr", "csv")
ROW_COLUMNS = ("point", "mode", "det", "crb_theta_total", "crb_r_total", "rank")


def _plain(value):
    """A JSON-ready copy of a plan field: arrays and tuples become lists, floats stay exact."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def record_operations(checkout: Path, workloads: list[str], seeds: list[int], out: Path) -> None:
    """Run in a fresh interpreter inside ``checkout``: write one JSON record per operation to ``out``."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import run  # first: it sets one BLAS thread before numpy is imported

    import gen

    import nfcrb
    import nfcrb.cli  # noqa: F401  (execute reaches the commands through nfcrb.cli)

    kept_stderr = io.StringIO()

    class _Streams:  # run.execute discards the command's stderr; keep it instead
        redirect_stdout = staticmethod(contextlib.redirect_stdout)

        @staticmethod
        def redirect_stderr(_target):
            return contextlib.redirect_stderr(kept_stderr)

    run.contextlib = _Streams
    warnings.simplefilter("always")
    records = {}
    for workload in workloads:
        for seed in seeds:
            inputs = checkout.parent / f"{checkout.name}-inputs" / f"{workload}-{seed}"
            gen.write_inputs(workload, seed, inputs)
            ops = json.loads((inputs / "ops.json").read_text())["ops"]
            for op in ops:
                csv_paths = [inputs / a for a in op.get("argv", ()) if a.endswith(".csv")]
                for path in csv_paths:
                    path.unlink(missing_ok=True)
                kept_stderr.seek(0)
                kept_stderr.truncate()
                try:
                    rc, output = run.execute(nfcrb, op, inputs)
                    fields = [list(field) for field in run.fields_of(op, output, inputs)]
                except Exception as exc:  # an operation that raises is recorded, not fatal
                    rc, output, fields = f"raised {type(exc).__name__}: {exc}", "", []
                if not isinstance(output, str):  # a box search's plan
                    plan = {f.name: _plain(getattr(output, f.name)) for f in dataclasses.fields(output)}
                    output = json.dumps(plan, indent=1) + "\n"
                text = {"stdout": output, "stderr": kept_stderr.getvalue()}
                for name, value in text.items():
                    text[name] = value.replace(str(inputs), "<inputs>").replace(str(checkout), "<checkout>")
                csv = "".join(path.read_text() for path in csv_paths if path.exists()) if csv_paths else None
                records[f"{workload}/seed{seed}/{op['id']}"] = {"rc": rc, **text, "csv": csv, "fields": fields}
    out.write_text(json.dumps(records))


def _columns(name: str, kind: str, text: str) -> list[tuple[str, str, str]]:
    """A field as (name, kind, text) parts: a sweep row split into its columns, kinds as
    ``check.value_matches`` compares them (bound totals as ``crb`` or ``pinv`` by the row's rank)."""
    if kind != "row" or len(cols := text.split(",")) != len(ROW_COLUMNS):
        return [(name, kind, text)]
    bounds = "crb" if cols[-1] == "full" else "pinv"
    kinds = ("exact", "exact", "num", bounds, bounds, "exact")
    return [(f"{name}.{col}", k, v) for col, k, v in zip(ROW_COLUMNS, kinds, cols)]


def moved_fields(check, base: list, head: list) -> list[tuple[str, str, str, str, float, bool]]:
    """(name, kind, base text, head text, relative change, accepted) of every field that moved."""
    parts = [{name: (kind, text) for field in fields for name, kind, text in _columns(*field)} for fields in (base, head)]
    moved = []
    for name in [*parts[0], *(n for n in parts[1] if n not in parts[0])]:
        (kind, ref), (_, got) = parts[0].get(name, ("missing", "")), parts[1].get(name, ("missing", ""))
        if ref == got:
            continue
        try:
            x, y = float(ref), float(got)
            rel = abs(y - x) / abs(x) if x else math.inf
        except ValueError:
            rel = math.nan
        moved.append((name, kind, ref, got, rel, check.value_matches(kind, ref, got)))
    return moved


def field_lines(moved) -> list[str]:
    lines = []
    for name, kind, ref, got, rel, accepted in moved:
        verdict = "EXACT FIELD MOVED" if kind == "exact" else "within RTOL" if accepted else "OUTSIDE RTOL"
        change = "n/a" if math.isnan(rel) else f"{rel:.2e}"
        lines.append(f"   {name} [{kind}]: {ref} -> {got}, relative {change}, {verdict}")
    return lines


def summary_line(check, moved) -> str:
    """The largest relative move per kind, and how many fields of it moved and fell outside its tolerance."""
    kinds = ["exact", *check.RTOL, *sorted({m[1] for m in moved} - {"exact", *check.RTOL})]
    parts = []
    for kind in kinds:
        of_kind = [m for m in moved if m[1] == kind]
        largest = max((m[4] for m in of_kind if not math.isnan(m[4])), default=0.0)
        rejected = sum(not m[5] for m in of_kind)
        tolerance = f", RTOL {check.RTOL[kind]:.0e}" if kind in check.RTOL else ""
        parts.append(f"{kind} {len(of_kind)} moved (largest {largest:.2e}{tolerance}, {rejected} rejected)")
    return "largest relative move per kind: " + "; ".join(parts)


def diff_records(base: dict, head: dict, check) -> tuple[list[str], list]:
    """One block of unified diffs per operation whose record differs, in the base's order, each
    followed by the headline fields that moved as ``check`` (``perfbench/check.py``) classifies
    them; and every moved field of every operation."""
    blocks, moved = [], []
    for key in [*base, *(k for k in head if k not in base)]:
        a, b = base.get(key), head.get(key)
        if a == b:
            continue
        if a is None or b is None:
            blocks.append(f"== {key}: only in {'head' if a is None else 'base'}")
            continue
        lines = [f"== {key}"]
        for field in FIELDS:
            if a[field] != b[field]:
                before, after = (str(r[field]).splitlines(keepends=True) for r in (a, b))
                lines += difflib.unified_diff(before, after, f"base {field}", f"head {field}")
        moved_here = moved_fields(check, a["fields"], b["fields"])
        moved += moved_here
        lines += field_lines(moved_here)
        blocks.append("".join(line if line.endswith("\n") else line + "\n" for line in lines).rstrip("\n"))
    return blocks, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--base", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--head", default=None, help="change commit (default: the working tree)")
    parser.add_argument("--work", type=Path, default=None, help="directory for the checkouts (default: a temporary one)")
    parser.add_argument("--record", nargs=2, metavar=("CHECKOUT", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record_operations(Path(args.record[0]).resolve(), args.workload, args.seeds, Path(args.record[1]))
        return 0

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = (args.work or Path(tmp)).resolve()
        base, head = work / "base", work / "head"  # equal depth and name length
        export_commit(args.base, base)
        if args.head:
            export_commit(args.head, head)
        else:
            export_worktree(head)
        if unchanged(base, head):
            return 2
        workers = [
            subprocess.Popen([sys.executable, __file__, "--workload", *args.workload, "--seeds", *map(str, args.seeds),
                              "--record", str(side), str(work / f"{side.name}.json")], cwd=side)
            for side in (base, head)
        ]
        if any([worker.wait() for worker in workers]):  # wait for both, then check
            print("an operation recorder failed", file=sys.stderr)
            return 2
        base_records, head_records = (json.loads((work / f"{side}.json").read_text()) for side in ("base", "head"))

    sys.path.insert(0, str(ROOT / "perfbench"))
    import check

    blocks, moved = diff_records(base_records, head_records, check)
    for block in blocks:
        print(block)
    print(summary_line(check, moved))
    base_ref = git("rev-parse", "--short", args.base)
    head_ref = git("rev-parse", "--short", args.head) if args.head else "working tree"
    print(f"{len(base_records)} operations ({base_ref} against {head_ref}): {len(blocks)} differ")
    return 1 if blocks else 0


if __name__ == "__main__":
    raise SystemExit(main())
