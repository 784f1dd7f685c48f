"""Per-layer tracing for the nfcrb benchmark.

``Tracer.install`` replaces every public function of the package's modules
with a timing wrapper, at every place the function is bound: the modules
import each other with ``from .x import y``, so ``nfcrb.reposition.fim_for_scenario``
and ``nfcrb.fim_crb.fim_for_scenario`` are separate bindings of one function
and both are replaced.  Private helpers are not wrapped; their time is self
time of the public function that calls them.

Spans stay in memory as flat arrays (name, start, end, parent, operation,
failed, size) and are written out once, after the run.  ``size`` is the
derivative count P for ``fim_generic`` spans and 0 elsewhere.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("geometry", "signal_model", "fim_crb", "reposition", "optimizer", "scenario_io", "cli")


def _derivative_count(args, kwargs) -> int:
    derivs = args[1] if len(args) > 1 else kwargs["derivs"]
    return len(derivs)


SIZE_OF = {"fim_crb.fim_generic": _derivative_count}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.size = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        size_of = SIZE_OF.get(qualname)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tr.start)
            tr.name.append(name_id)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.failed.append(0)
            tr.size.append(size_of(args, kwargs) if size_of else 0)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.failed[i] = 1
                raise
            finally:
                tr.end[i] = perf_counter()
                tr._stack.pop()

        return traced

    def install(self) -> None:
        package = importlib.import_module("nfcrb")
        modules = [importlib.import_module(f"nfcrb.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op,failed,size\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]},{self.failed[i]},{self.size[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        lo_edge = start[i]
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo = max(start[c], lo_edge)
            hi = min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                lo_edge = hi
        out.append(end[i] - start[i] - covered)
    return out


# metric -> the spans whose self time or count it sums
GROUPS = {
    "fim_crb.fim": ("fim_crb.fim_generic",),
    "fim_crb.derivs": ("fim_crb.rx_derivatives", "fim_crb.steering_derivatives", "fim_crb.delay_gradients"),
    "fim_crb.closed_form": ("fim_crb.fim_closed_form", "fim_crb.selection_matrices"),
    "fim_crb.crb": ("fim_crb.crb_from_fim",),
    "fim_crb.fd": ("fim_crb.steering_derivatives_fd", "fim_crb.rx_derivatives_fd"),
    "reposition.evaluate": ("reposition.evaluate_objective",),
    "signal_model.steering": ("signal_model.steering_matrix",),
    "geometry.reconstruct": ("geometry.reconstruct_positions",),
    "geometry.from_positions": ("geometry.scenario_from_positions",),
    "optimizer.metrics": ("optimizer.constellation_metrics",),
    "scenario_io.load": ("scenario_io.load_scenario", "scenario_io.parse_scenario"),
    "scenario_io.report": ("scenario_io.run_report", "scenario_io.format_run_report", "scenario_io.run_report_to_csv"),
    "scenario_io.write": ("scenario_io.write_reports", "scenario_io.sweep_rows_to_csv"),
}
COUNTED = {
    "fim_crb.closed_form": ("fim_crb.fim_closed_form",),
    "scenario_io.report": ("scenario_io.run_report",),
}


def pass_totals(tracer: Tracer, pass_of_op: dict[int, int], passes: int) -> list[dict[str, float]]:
    """Per pass of the workload: counts and self times by layer and by metric group."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [defaultdict(int) for _ in range(passes)]
    self_s = [defaultdict(float) for _ in range(passes)]
    failed = [defaultdict(int) for _ in range(passes)]
    products = [0] * passes
    for i in range(len(tracer.start)):
        k = pass_of_op.get(tracer.op[i])
        if k is None:
            continue
        name = tracer.names[tracer.name[i]]
        calls[k][name] += 1
        self_s[k][name] += selfs[i]
        failed[k][name] += tracer.failed[i]
        p = tracer.size[i]
        products[k] += p * (p + 1) // 2
    return [_metrics(calls[k], self_s[k], failed[k], products[k]) for k in range(passes)]


def _metrics(calls, self_s, failed, products) -> dict[str, float]:
    def total(table, names):
        return sum(table[n] for n in names)

    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = total(calls, names)
        out[f"{layer}.self_s"] = total(self_s, names)
        out[f"{layer}.failed"] = total(failed, names)
    for key, names in GROUPS.items():
        out[f"{key}_calls"] = total(calls, COUNTED.get(key, names))
        out[f"{key}_self_s"] = total(self_s, names)
    out["fim_crb.trace_products"] = products
    out["reposition.skipped"] = total(failed, GROUPS["reposition.evaluate"])
    attempted = out["reposition.evaluate_calls"]
    # no candidates attempted means none were wasted
    out["reposition.useful_ratio"] = (attempted - out["reposition.skipped"]) / attempted if attempted else 1.0
    return out
