"""List the package functions, or source lines, that no benchmark operation reaches.

    python3 tools/reach.py --workload report search_bound search_phase sweep --seeds 0 3 [--work DIR] [--lines]

Writes each workload and seed's inputs with ``perfbench/gen.py`` under ``--work`` (default: a
temporary directory), runs every operation once through ``perfbench/run.py``'s ``execute`` with a
trace hook on every thread (``sys.settrace`` and ``threading.settrace``: bound searches and sweeps
share their chunks with a worker thread), and prints, one per line, each function or method
defined in ``src/nfcrb`` that no operation called, as ``module.qualname``.  Lambdas,
comprehensions and nested functions belong to the function around them and are not listed.

With ``--lines`` the hook also follows every line the package's functions execute, and the tool
prints each source line of a function, lambda or comprehension in ``src/nfcrb`` that no operation
executed, as ``module.qualname:line: source``.  Code that runs at import (module and class
bodies) is not listed.
"""

from __future__ import annotations

import argparse
import dis
import importlib
import inspect
import itertools
import json
import linecache
import os
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


def function_lines(path: Path) -> dict:
    """(file name, line) -> ``module.qualname`` of every line a function of the module at ``path``
    executes code on; its prologue (up to RESUME, on the ``def`` line) raises no line event."""
    found, codes = {}, [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            body = itertools.dropwhile(lambda ins: ins.opname != "RESUME", dis.get_instructions(code))
            for ins in itertools.islice(body, 1, None):
                if ins.positions.lineno is not None:
                    found.setdefault((code.co_filename, ins.positions.lineno), f"{path.stem}.{code.co_qualname}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--work", type=Path)
    parser.add_argument("--lines", action="store_true", help="list unexecuted source lines, not uncalled functions")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run  # first: it sets one BLAS thread before numpy is imported

    import gen
    import nfcrb
    import nfcrb.cli  # noqa: F401  (execute reaches the commands through nfcrb.cli)

    functions, called, ops = package_functions(nfcrb), set(), []
    package, executed = Path(nfcrb.__file__).parent, set()
    prefix = f"{package}{os.sep}"

    def line_hook(frame, event, _arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line_hook

    def hook(frame, _event, _arg):  # called as each new frame starts
        called.add(frame.f_code)
        return line_hook if args.lines and frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory() as scratch:
        for workload, seed in itertools.product(args.workload, args.seeds):
            inputs = (args.work or Path(scratch)) / f"{workload}-{seed}"
            gen.write_inputs(workload, seed, inputs)
            ops += [(op, inputs) for op in json.loads((inputs / "ops.json").read_text())["ops"]]
        sys.settrace(hook)
        threading.settrace(hook)
        try:
            for op, inputs in ops:
                run.execute(nfcrb, op, inputs)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    if args.lines:
        lines = {key: name for path in sorted(package.glob("*.py")) for key, name in function_lines(path).items()}
        for (file, line), name in sorted(lines.items()):
            if (file, line) not in executed:
                print(f"{name}:{line}: {linecache.getline(file, line).strip()}")
    else:
        print("\n".join(sorted(name for code, name in functions.items() if code not in called)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
