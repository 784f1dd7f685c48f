"""Structural rules of the package, checked on the syntax trees of its modules."""

import ast
from pathlib import Path

import nfcrb

MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(Path(nfcrb.__file__).parent.glob("*.py"))}


def calls_by_function(tree):
    """(innermost enclosing function name, called name) for every call of a module."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call):
                func = child.func
                out.append((owner, getattr(func, "id", None) or getattr(func, "attr", None)))
            visit(child, inner)

    visit(tree, None)
    return out


def test_only_geometry_branches_on_the_encoding():
    encodings = {"Scenario", "PairwiseScenario"}
    branching = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & encodings
    }
    assert branching == {"geometry.py"}


def callers_of(name):
    """Sorted (module, innermost enclosing function) of every call of ``name``."""
    return sorted(
        (module, owner)
        for module, tree in MODULES.items()
        for owner, called in calls_by_function(tree)
        if called == name
    )


def test_one_scan_scores_candidates():
    assert callers_of("score_candidates") == [("reposition.py", "_scan")]


def test_one_evaluation_per_report_and_sweep_row():
    # the batched evaluator is reached by reports one constellation at a time
    # and by sweeps one chunk at a time (a failing chunk one row at a time)
    assert callers_of("_evaluate") == [
        ("optimizer.py", "evaluate_constellation"),
        ("optimizer.py", "evaluate_constellations"),
    ]
    assert callers_of("evaluate_constellations") == [
        ("optimizer.py", "evaluate_constellations"),
        ("optimizer.py", "sweep"),
    ]
    assert callers_of("evaluate_constellation") == [
        ("optimizer.py", "constellation_metrics"),
        ("scenario_io.py", "run_report"),
    ]
    assert callers_of("fim_for_scenarios") == [("optimizer.py", "_evaluate")]
