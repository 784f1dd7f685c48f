"""Structural rules of the package, checked on the syntax trees of its modules."""

import ast
import contextlib
import dataclasses
import importlib
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import nfcrb
from nfcrb import fim_crb
from nfcrb.cli import main

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


FORWARDERS = {"polar_axes", "pairwise_form", "delay_geometry", "native_delays", "scenario_positions",
              "_require_scenario"}


def test_only_geometry_branches_on_the_encoding():
    # each encoding answers for itself: no isinstance names one outside geometry, and callers read
    # ``scn.geometry`` directly, so no module defines or calls a module-level forwarder to it
    encodings = {"PolarGeometry", "PairwiseGeometry"}
    branching = {
        (name, owner)
        for name, tree in MODULES.items()
        for owner, node in nodes_by_function(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & encodings
    }
    assert {name for name, _ in branching} <= {"geometry.py"}
    defined = {(name, node.name) for name, tree in MODULES.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in FORWARDERS}
    called = {(name, owner) for name, tree in MODULES.items() for owner, node in nodes_by_function(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) in FORWARDERS}
    assert not defined and not called


SUBMODULES = {name.removesuffix(".py") for name in MODULES} - {"__init__"}
QUOTED = re.compile(r"``?([A-Za-z_]\w*(?:\.\w+)*)(?:\(\))?``?")
TABLE_ROW = re.compile(r"^\| `(\w+)`\s*\|(.*)$", re.MULTILINE)


def quoted_references(text, row_module=None):
    """(module, attribute path) of each quoted `module.name` or `module.Class.attr` of a package module in
    ``text``; in a row of README's module table, also each quoted name of that row's module, read as one when
    its head has an underscore or a capital (``Scenario``, ``refit_axes``, ``PairwiseGeometry.positions``)."""
    for chain in QUOTED.findall(text):
        head, *rest = chain.split(".")
        if head in SUBMODULES and rest:
            yield head, rest
        elif row_module and head not in SUBMODULES and ("_" in head or head[0].isupper()):
            yield row_module, [head, *rest]


def resolves(module, path) -> bool:
    """Whether each name of ``path`` is an attribute of the one before it, from ``nfcrb.<module>``;
    the last may be a field of a dataclass."""
    obj = importlib.import_module(f"nfcrb.{module}")
    for i, name in enumerate(path):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif not (i == len(path) - 1 and dataclasses.is_dataclass(obj)
                  and name in {f.name for f in dataclasses.fields(obj)}):
            return False
    return True


def test_docs_name_existing_attributes():
    # README and the package's docstrings name only attributes that exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = [("README.md", *ref) for ref in quoted_references(TABLE_ROW.sub("", readme))]
    refs += [("README.md", *ref) for module, row in TABLE_ROW.findall(readme) for ref in quoted_references(row, module)]
    refs += [(name, *ref) for name, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)
             for ref in quoted_references(ast.get_docstring(node))]
    assert {"README.md", "fim_crb.py"} <= {where for where, *_ in refs}
    assert [f"{where}: {module}.{'.'.join(path)}" for where, module, path in refs if not resolves(module, path)] == []


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


def test_one_command_front_end():
    # the options every command takes are added once, to one parent parser, and main alone loads the scenario
    cli = MODULES["cli.py"]
    added = [node.args[0].value for node in ast.walk(cli)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"]
    assert [added.count(option) for option in ("--scenario", "--eta", "--snapshots")] == [1, 1, 1]
    loaders = {"load_scenario", "runtime_scenario"}
    loads = sorted((called, owner) for owner, called in calls_by_function(cli) if called in loaders)
    assert loads == [("load_scenario", "main"), ("runtime_scenario", "main")]
    # the parser is built once per process, cached where it is built, with no forwarder in front of it
    assert nfcrb.cli.build_parser() is nfcrb.cli.build_parser()
    assert not {getattr(node, "name", None) for node in ast.walk(cli)} & {"_parser", "_load_runtime"}


def test_both_searches_are_one_scan():
    # the line search and the grid search are the one scan with a mode, and nothing outside reposition reaches it
    assert users_of("_scan") == [("reposition.py", "grid_search"), ("reposition.py", "line_search_reposition")]
    imported = {alias.name for tree in MODULES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_scan" not in imported


def test_one_chunk_scorer_per_search():
    # every candidate, a failing one too, is scored by the function _chunk_scorer builds
    assert users_of("_chunk_scorer") == [("reposition.py", "score_candidates")]


def test_one_fallback_for_candidates_and_sweep_rows():
    # a failing batch is run again in halves by one helper (which recurses), so each failing
    # candidate, sweep row or report gets its own error in place of its score or record
    assert users_of("batch_or_each") == [
        ("errors.py", "batch_or_each"),
        ("optimizer.py", "evaluate_constellations"),
        ("reposition.py", "scored"),  # score_candidates' chunk, run by either thread of a bound scan
    ]


def test_one_thread_site_shared_by_bound_scans_and_sweeps():
    # one two-thread loop: a second copy of it would build a second Thread
    assert callers_of("Thread") == [("errors.py", "map_on_cpus")]
    assert users_of("map_on_cpus") == [("optimizer.py", "sweep"), ("reposition.py", "score_candidates")]


def test_one_evaluation_per_report_and_sweep_row():
    # the batched evaluator is reached by sweeps one chunk at a time and by
    # reports through run_reports: a reposition's before and after in one
    # batch, a lone report at K = 1 (a failing batch in halves, through
    # batch_or_each, which is handed _evaluate)
    assert users_of("_evaluate") == [
        ("optimizer.py", "constellation_metrics"),
        ("optimizer.py", "evaluate_constellations"),
    ]
    assert callers_of("_evaluate") == [("optimizer.py", "constellation_metrics")]
    # sweep's chunk function, run by either thread of a sweep
    assert callers_of("evaluate_constellations") == [("optimizer.py", "evaluated"), ("scenario_io.py", "run_reports")]
    assert users_of("evaluated") == [("optimizer.py", "sweep")]
    assert callers_of("run_reports") == [("cli.py", "cmd_reposition"), ("scenario_io.py", "run_report")]
    # its records become ConstellationEvaluations only where a report is built; a sweep row reads
    # the record's scalars, and its notes and constellation_metrics' read one helper
    assert callers_of("from_record") == [("optimizer.py", "constellation_metrics"), ("scenario_io.py", "run_reports")]
    assert callers_of("_notes") == [("optimizer.py", "constellation_metrics"), ("optimizer.py", "evaluated")]
    # every batch takes the rank-one kernel; a lone scenario the trace form
    assert callers_of("fim_for_scenario") == [("optimizer.py", "_evaluate")]


def test_one_entry_point_per_result():
    # a second entry point that only forwards to the first is gone: one fit, one bound reader, one lone evaluation
    gone = {"reconstruct_positions", "crb_totals", "_pinv_diagonals", "evaluate_constellation"}
    for tree in MODULES.values():  # defined, imported, read or called
        for node in ast.walk(tree):
            assert not {getattr(node, key, None) for key in ("name", "id", "attr")} & gone
    # the bounds of every stack, a batch's records and a bound chunk's totals, come from one batched SVD
    assert callers_of("svd") == [("fim_crb.py", "crb_bounds")]
    assert callers_of("crb_bounds") == [("optimizer.py", "_evaluate"), ("reposition.py", "bound_totals")]
    # a table's own fit is the stack of one, so every position fit is one refit_positions call
    assert callers_of("refit_positions") == [("geometry.py", "positions"), ("geometry.py", "refit_axes")]


@contextlib.contextmanager
def _refusing_the_trace_form():
    """Fails if anything inside builds a dR stack, a trace form or an eigenvalue decomposition."""
    refused = mock.Mock(side_effect=AssertionError("the trace form was called"))
    with (mock.patch.object(fim_crb, "_covariance_derivatives", refused),
          mock.patch.object(fim_crb, "_trace_form", refused),
          mock.patch.object(np.linalg, "eigvalsh", refused)):
        yield
    assert not refused.called


def test_bound_searches_score_with_the_rank_one_kernel():
    # the bound scorer's chunks and the batched evaluations, and nothing else, take the rank-one kernel
    assert callers_of("fim_rank_one") == [("optimizer.py", "_evaluate"), ("reposition.py", "bound_totals")]
    # which take their steering and derivative columns from the one stacked steering pass, as the trace form does
    assert callers_of("_steering_columns") == [
        ("fim_crb.py", "_covariance_stack"), ("optimizer.py", "_evaluate"), ("reposition.py", "steered")
    ]
    # and a bound search builds no dR stack, trace form or eigenvalue decomposition
    scn, _ = nfcrb.runtime_scenario(nfcrb.load_scenario("scenario_a"))
    with _refusing_the_trace_form():
        for objective in ("crb_theta", "crb_r"):
            for region in (nfcrb.DisplacementGrid(-50.0, 50.0, 11), nfcrb.BoxGrid(-5.0, 5.0, 3, -5.0, 5.0, 3)):
                nfcrb.grid_search(scn, 2, objective, region)
            nfcrb.line_search_reposition(scn, 2, objective, nfcrb.DisplacementGrid(-50.0, 50.0, 11))


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_sweeps_and_repositions_never_take_the_trace_form(name, tmp_path, capsys):
    # sweep rows and a reposition's two reports are batches; a compute is a lone report
    commands = [
        ["sweep", "--scenario", name, "--vary", "velocity:1e8:6e8:20", "--modes", "primary,reposition",
         "--out", str(tmp_path / "rows.csv")],
        ["reposition", "--scenario", name, "--mode", "linesearch", "--objective", "crb_theta", "--grid=-50:50:11"],
        ["reposition", "--scenario", name, "--mode", "analytic"],
    ]
    with _refusing_the_trace_form():
        assert [main(argv) for argv in commands] == [0, 0, 0]
    with mock.patch.object(fim_crb, "_trace_form", wraps=fim_crb._trace_form) as trace:
        assert main(["compute", "--scenario", name]) == 0
    assert trace.call_count == 1
    capsys.readouterr()


# what the README's library example, the benchmark harness and error handling use
EXPORTS = [
    "BoxGrid",
    "DegenerateGeometryError",
    "DisplacementGrid",
    "SingularCovarianceError",
    "SingularGeometryError",
    "ValidationError",
    "apply_reposition",
    "compare_report",
    "constellation_metrics",
    "format_run_report",
    "grid_search",
    "line_search_reposition",
    "load_scenario",
    "parse_scenario",
    "run_report",
    "runtime_scenario",
]


def test_one_covariance_entry_parameterization():
    # every route that orders the covariance-entry parameters reads ParameterIndex's basis table
    assert callers_of("cov_entry_bases") == [
        ("fim_crb.py", "fim_closed_form"), ("fim_crb.py", "fim_rank_one"), ("fim_crb.py", "rx_derivatives_fd")
    ]


def test_namespace_exports_the_pinned_names():
    assert nfcrb.__all__ == EXPORTS
    assert all(hasattr(nfcrb, name) for name in nfcrb.__all__)


def test_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("scenario: scenario_a (pairwise geometry")
    assert "ComparisonReport(" in out


def test_one_form_per_covariance_quantity():
    # |det R_x| is taken by one helper (one LU and one modulus rule), which reports and the det
    # scorer share; the array covariance is built there and in the trace form's stacked pass only
    assert callers_of("det") == [("signal_model.py", "det_modulus")]
    assert callers_of("covariances") == [("fim_crb.py", "_covariance_stack"), ("signal_model.py", "det_modulus")]
    assert users_of("det_modulus") == [("optimizer.py", "_evaluate"), ("reposition.py", "determinants")]


def test_one_form_of_the_phase_objective():
    # the gf scorer's chunks and the analytic plan square the phasor sums in gf_objective alone
    assert set(callers_of("float_power")) == {("reposition.py", "gf_objective")}  # its cos and its sin sum
    assert users_of("gf_objective") == [
        ("cli.py", "cmd_validate"), ("reposition.py", "analytic_reposition"), ("reposition.py", "element_values")
    ]


def test_one_covariance_stack_behind_both_fim_entries():
    # the trace form's stacked pass runs only in linearize, behind a lone report and validate
    assert callers_of("_covariance_stack") == [("fim_crb.py", "linearize")]


def test_one_kernel_pass_per_single_constellation():
    # a report's FIM and validate's derivative checks and closed form all read one linearize pass
    assert callers_of("linearize") == [("cli.py", "cmd_validate"), ("fim_crb.py", "fim_for_scenario")]
    cli_calls = {called for _, called in calls_by_function(MODULES["cli.py"])}
    assert not cli_calls & {"steering_matrix", "covariances", "delay_geometry"}


def test_scenario_files_construct_scenarios_only_when_parsed():
    # runtime_scenario applies overrides to the parsed scenario with dataclasses.replace
    built = {"Scenario", "PolarGeometry", "PairwiseGeometry"}
    owners = {owner for owner, called in calls_by_function(MODULES["scenario_io.py"]) if called in built}
    assert owners == {"parse_scenario"}


def test_polar_scenarios_are_built_only_when_parsed():
    # searches, sweeps and validate take a pairwise table's polar axes as arrays, without a Scenario
    assert callers_of("Scenario") == [("scenario_io.py", "parse_scenario")]


def test_polar_geometries_are_built_only_when_parsed():
    # a pairwise table's polar axes are arrays (PairwiseGeometry.axes), never a PolarGeometry
    assert callers_of("PolarGeometry") == [("scenario_io.py", "parse_scenario")]


def test_one_least_squares_call():
    # every fit, a sweep window's stack of x refits too, is one call of the gufunc np.linalg.lstsq calls
    calls = sorted(
        (module, owner)
        for module, tree in MODULES.items()
        for owner, called in calls_by_function(tree)
        if "lstsq" in (called or "")
    )
    assert calls == [("geometry.py", "_solve")]


def test_one_cartesian_to_polar_conversion():
    atan2 = sorted(
        (module, owner)
        for module, tree in MODULES.items()
        for owner, node in nodes_by_function(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "atan2"
        and getattr(node.func.value, "id", None) == "math"
    )
    assert atan2 == [("geometry.py", "_polar_coordinates")]
