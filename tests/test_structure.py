"""Structural rules of the package, checked on the syntax trees of its modules."""

import ast
from pathlib import Path

import nfcrb

MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(Path(nfcrb.__file__).parent.glob("*.py"))}


def nodes_by_function(tree):
    """(innermost enclosing function name, node) for every node of a module."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            out.append((owner, child))
            visit(child, inner)

    visit(tree, None)
    return out


def calls_by_function(tree):
    """(innermost enclosing function name, called name) for every call of a module."""
    return [
        (owner, getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        for owner, node in nodes_by_function(tree)
        if isinstance(node, ast.Call)
    ]


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


def users_of(name):
    """Sorted (module, innermost enclosing function) of every read of the bare name ``name``,
    called or passed on."""
    return sorted(
        (module, owner)
        for module, tree in MODULES.items()
        for owner, node in nodes_by_function(tree)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    )


def test_one_scan_scores_candidates():
    assert callers_of("score_candidates") == [("reposition.py", "_scan")]


def test_one_chunk_scorer_per_search():
    # every candidate, a failing one too, is scored by the function _chunk_scorer builds
    assert users_of("_chunk_scorer") == [("reposition.py", "score_candidates")]


def test_one_fallback_for_candidates_and_sweep_rows():
    # a failing batch is run again in halves by one helper (which recurses)
    assert users_of("batch_or_each") == [
        ("errors.py", "batch_or_each"),
        ("optimizer.py", "evaluate_constellations"),
        ("reposition.py", "score_candidates"),
    ]


def test_one_evaluation_per_report_and_sweep_row():
    # the batched evaluator is reached by sweeps one chunk at a time and by
    # reports through run_reports: a reposition's before and after in one
    # batch, a lone report at K = 1 (a failing batch in halves, through
    # batch_or_each, which is handed _evaluate)
    assert users_of("_evaluate") == [
        ("optimizer.py", "evaluate_constellation"),
        ("optimizer.py", "evaluate_constellations"),
    ]
    assert callers_of("_evaluate") == [("optimizer.py", "evaluate_constellation")]
    assert callers_of("evaluate_constellations") == [("optimizer.py", "sweep"), ("scenario_io.py", "run_reports")]
    assert callers_of("run_reports") == [("cli.py", "cmd_reposition"), ("scenario_io.py", "run_report")]
    assert callers_of("evaluate_constellation") == [("optimizer.py", "constellation_metrics")]
    assert callers_of("fim_for_scenarios") == [("optimizer.py", "_evaluate")]
