"""Two-dimensional (bearing, range) estimation bounds for planar near-field
arrays, plus single-element geometry optimization."""

from .errors import (
    DegenerateGeometryError,
    SingularCovarianceError,
    SingularGeometryError,
    ValidationError,
)
from .fim_crb import (
    CrbReport,
    FimMatrix,
    ParameterIndex,
    SelectionMatrices,
    crb_from_fim,
    crb_totals,
    fim_batch,
    fim_closed_form,
    fim_for_scenario,
    fim_generic,
    rx_derivatives,
    rx_derivatives_fd,
    selection_matrices,
    steering_derivatives,
    steering_derivatives_fd,
)
from .geometry import (
    PairwiseGeometry,
    PairwiseScenario,
    Scenario,
    SensorGeom,
    SourceGeom,
    distances,
    far_field_radius,
    native_delays,
    pairwise_form,
    polar_form,
    reconstruct_positions,
    scenario_from_positions,
    scenario_positions,
    sensor_positions,
    source_positions,
)
from .optimizer import (
    ComparisonReport,
    SweepRow,
    SweepSpec,
    compare_report,
    constellation_metrics,
    grid_search,
    sweep,
)
from .reposition import (
    BoxGrid,
    DisplacementGrid,
    RepositionPlan,
    analytic_reposition,
    apply_reposition,
    gf_objective,
    hadamard_bound,
    line_search_reposition,
    phase_terms,
)
from .scenario_io import (
    RunReport,
    ScenarioFile,
    format_run_report,
    load_scenario,
    parse_scenario,
    parse_sweep_csv,
    run_report,
    runtime_scenario,
    serialize_scenario,
    sweep_rows_to_csv,
    write_reports,
)
from .signal_model import (
    CovarianceSet,
    SnapshotBatch,
    SourceSignal,
    covariances,
    received_power,
    sample_covariance,
    steering_matrix,
    synthesize_snapshots,
)

__version__ = "0.1.0"
