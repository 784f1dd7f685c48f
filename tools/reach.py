"""List the package functions that no benchmark operation reaches.

    python3 tools/reach.py --workload report search_bound search_phase sweep --seeds 0 3 [--work DIR]

Writes each workload and seed's inputs with ``perfbench/gen.py`` under ``--work`` (default: a
temporary directory), runs every operation once through ``perfbench/run.py``'s ``execute`` with a
profile hook on every thread (``sys.setprofile`` and ``threading.setprofile``: bound searches and
sweeps share their chunks with a worker thread), and prints, one per line, each function or method
defined in ``src/nfcrb`` that no operation called, as ``module.qualname``.  Lambdas,
comprehensions and nested functions belong to the function around them and are not listed.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import itertools
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def package_functions(nfcrb) -> dict:
    """Code object -> ``module.qualname`` of every function and method written in the package."""
    found = {}
    for path in sorted(Path(nfcrb.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"nfcrb.{path.stem}")
        objects = [o for o in vars(module).values() if getattr(o, "__module__", None) == module.__name__]
        objects += [m for cls in objects if inspect.isclass(cls) for m in vars(cls).values()]
        for obj in objects:  # functions, and methods, properties, cached properties and cached functions
            for fn in (obj, *(getattr(obj, a, None) for a in ("fget", "func", "__func__", "__wrapped__"))):
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == str(path):
                    found[code] = f"{path.stem}.{fn.__qualname__}"
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run  # first: it sets one BLAS thread before numpy is imported

    import gen
    import nfcrb
    import nfcrb.cli  # noqa: F401  (execute reaches the commands through nfcrb.cli)

    functions, called, ops = package_functions(nfcrb), set(), []

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        for workload, seed in itertools.product(args.workload, args.seeds):
            inputs = (args.work or Path(scratch)) / f"{workload}-{seed}"
            gen.write_inputs(workload, seed, inputs)
            ops += [(op, inputs) for op in json.loads((inputs / "ops.json").read_text())["ops"]]
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            for op, inputs in ops:
                run.execute(nfcrb, op, inputs)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    print("\n".join(sorted(name for code, name in functions.items() if code not in called)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
