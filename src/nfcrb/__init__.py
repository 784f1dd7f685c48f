"""Two-dimensional (bearing, range) estimation bounds for planar near-field
arrays, plus single-element geometry optimization.

The package namespace holds what the README's library example and the
benchmark harness use; everything else is imported from its module."""

from .errors import (
    DegenerateGeometryError,
    SingularCovarianceError,
    SingularGeometryError,
    ValidationError,
)
from .optimizer import compare_report, constellation_metrics
from .reposition import BoxGrid, DisplacementGrid, apply_reposition, grid_search, line_search_reposition
from .scenario_io import format_run_report, load_scenario, parse_scenario, run_report, runtime_scenario

__all__ = [
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

__version__ = "0.1.0"
