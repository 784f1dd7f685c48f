"""Phase searches in large array passes must print the numbers of the one-candidate
arithmetic bit for bit: chunk-size independent scores, array squaring that equals
the scalar one, an array minimum that picks what the scan loop picked, and one
evaluation for a reposition's two reports."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (
    BoxGrid,
    DisplacementGrid,
    ValidationError,
    apply_reposition,
    grid_search,
    line_search_reposition,
)
from nfcrb import optimizer, reposition
from nfcrb.signal_model import SourceSignal, covariances, frequency_vector, steering_matrix
from nfcrb.geometry import distances, scenario_positions
from nfcrb.reposition import score_candidates
from nfcrb.scenario_io import run_reports
from nfcrb.cli import main as cli_main
from conftest import random_upper_half_scenario, scenario_from_positions

PHASE_OBJECTIVES = ("gf", "power", "det")


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def search_positions(scn, element):
    """A 2001-point line through the element and an 11 x 11 box around it, with its current position first."""
    sensors_xy, _, _ = scenario_positions(scn)
    x0, y0 = sensors_xy[element]
    disps = np.unique(np.append(DisplacementGrid(-200.0, 200.0, 2001).values(), 0.0))
    line = np.column_stack([x0 + disps, np.full_like(disps, y0)])
    box = BoxGrid(x0 - 50.0, x0 + 50.0, 11, y0 - 5.0, y0 + 5.0, 11).points()
    return np.vstack([sensors_xy[element], line, box])


def per_candidate(objective, scn) -> int:
    """Complex values one candidate adds to the largest array of a phase pass."""
    m, n = scn.num_sensors, scn.num_sources
    return m * max(m, n) if objective == "det" else n


class TestChunkSizes:
    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("objective", PHASE_OBJECTIVES)
    def test_scores_equal_at_every_chunk_size(self, objective, rows, scenario_a, scenario_b, monkeypatch):
        scenarios = [scenario_a, scenario_b] + [
            random_upper_half_scenario(np.random.default_rng(seed)) for seed in range(4)
        ]
        default = {}
        for i, scn in enumerate(scenarios):
            sensors_xy, sources_xy, _ = scenario_positions(scn)
            positions = search_positions(scn, 1)
            default[i] = hexes(score_candidates(objective, 1, sensors_xy, sources_xy, scn, positions)[0])
        for i, scn in enumerate(scenarios):
            sensors_xy, sources_xy, _ = scenario_positions(scn)
            if rows is not None:
                budget = rows * per_candidate(objective, scn)
                monkeypatch.setattr(reposition, "PHASE_CHUNK_VALUES", budget)
                assert reposition._chunk_scorer(objective, 1, sensors_xy, sources_xy, scn)[1] == rows
            positions = search_positions(scn, 1)
            values, errors = score_candidates(objective, 1, sensors_xy, sources_xy, scn, positions)
            assert errors == {}
            assert hexes(values) == default[i]


def test_det_steers_the_fixed_rows_once_and_the_moved_row_per_chunk(scenario_a, scenario_b):
    # the determinants equal those of the whole steered layouts bit for bit, while a chunk
    # steers only the moved element's (K, N) row
    scenarios = [scenario_a, scenario_b] + [random_upper_half_scenario(np.random.default_rng(seed)) for seed in range(4)]
    for scn in scenarios:
        sensors_xy, sources_xy, _ = scenario_positions(scn)
        positions = search_positions(scn, 1)
        layouts = np.repeat(sensors_xy[None], len(positions), axis=0)
        layouts[:, 1] = positions
        A = steering_matrix(distances(layouts, sources_xy) / scn.velocity_mps, frequency_vector(scn.signals))
        det = np.linalg.det(covariances(A, scn.signals, scn.noise_variance).array_cov)
        with mock.patch.object(reposition, "steering_matrix", wraps=steering_matrix) as steer:
            values, errors = score_candidates("det", 1, sensors_xy, sources_xy, scn, positions)
        assert errors == {} and hexes(values) == [abs(v).hex() for v in det.tolist()]
        shapes = [call.args[0].shape for call in steer.call_args_list]
        assert shapes[0] == sensors_xy.shape[:1] + sources_xy.shape[:1]
        assert all(len(shape) == 2 and shape[1] == len(sources_xy) for shape in shapes[1:])
        assert sum(shape[0] for shape in shapes[1:]) == len(positions)


class TestArraySquaring:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=1, max_size=40))
    def test_float_power_squares_as_python(self, xs):
        assert hexes(np.float_power(np.array(xs), 2)) == [(x**2).hex() for x in xs]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_hypot_takes_moduli_as_python(self, zs):
        # the det scorer and the evaluations take |det| so; np.abs rounds differently in the last bit
        z = np.array(zs, dtype=complex)
        assert hexes(np.hypot(z.real, z.imag)) == [abs(v).hex() for v in zs]


FAIL = "fail"


def loop_scan(before, values):
    """The scan as one Python loop: the baseline, the chosen index (None if every candidate
    failed) and the notes; FAIL marks a failing candidate, and a NaN or infinite score fails too."""

    def failure(k, value):
        if value == FAIL:
            return f"rejected {k}"
        return None if math.isfinite(value) else f"objective gf is not finite ({value})"

    notes = [f"original position not evaluable: {failure(0, before)}"] if failure(0, before) else []
    best = None
    for i, value in enumerate(values):
        if reason := failure(i + 1, value):
            notes.append(f"displacement {i + 1:+.6g} m skipped: {reason}")
        elif best is None or value < values[best]:
            best = i
    before = math.nan if failure(0, before) else before
    if best is not None and values[best] > before:
        notes.append("grid minimizer is worse than the original position")
    return before, best, notes


def scan_table(before, values, step):
    """``grid_search`` of element 1 at (0, 0) over displacements 1..K, with a stand-in
    scorer that gives candidate k (0 for the current position) the k-th score."""
    table = [before, *values]
    scn = scenario_from_positions(
        np.array([[0.0, 0.0], [5.0, -3.0], [-7.0, 2.0]]),
        np.array([[10.0, 50.0], [-20.0, 80.0]]),
        3e8,
        (SourceSignal(1e6, 1.0), SourceSignal(2e6, 1j)),
        1.0,
        1,
    )

    def build(*_):
        def score(chunk):
            rows = [int(x) for x in chunk[:, 0]]
            failing = [k for k in rows if table[k] == FAIL]
            if failing:
                raise ValidationError(f"rejected {failing[0]}")
            return np.array([table[k] for k in rows], dtype=float)

        return score, step

    with mock.patch.object(reposition, "_chunk_scorer", build):
        return grid_search(scn, 0, "gf", DisplacementGrid(1.0, len(values), len(values)))


scores = st.one_of(
    st.just(FAIL), st.floats(allow_nan=True, allow_infinity=True, width=64), st.sampled_from([0.0, -0.0, 1.0])
)


class TestArrayMinimum:
    def check(self, before, values, step):
        want_before, best, notes = loop_scan(before, values)
        if best is None:
            with pytest.raises(ValidationError, match="^objective evaluation failed at every grid point$"):
                scan_table(before, values, step)
            return
        plan = scan_table(before, values, step)
        assert plan.displacement_m == best + 1
        assert plan.objective_after.hex() == float(values[best]).hex()
        assert plan.objective_before.hex() == float(want_before).hex()
        assert list(plan.source_notes) == notes

    def test_exact_ties_go_to_the_first(self):
        self.check(5.0, [3.0, 2.0, 4.0, 2.0, 2.0], 2)
        self.check(5.0, [0.0, -0.0, 0.0], 1)

    def test_failing_chunk_in_the_middle(self):
        self.check(5.0, [4.0, 3.0, 9.0, FAIL, 1.0, FAIL, 8.0, 1.0, 7.0], 3)

    def test_nan_baseline(self):
        self.check(FAIL, [4.0, FAIL, 2.0], 2)

    def test_every_candidate_failing(self):
        self.check(1.0, [FAIL] * 5, 2)
        self.check(FAIL, [FAIL] * 3, 7)

    def test_nan_scores(self):
        # a NaN or infinite score fails its candidate, so it is skipped with a note and never wins
        self.check(5.0, [FAIL, math.nan, 3.0, 1.0], 2)
        self.check(5.0, [2.0, math.nan, 3.0, 1.0], 2)
        self.check(5.0, [math.inf, math.nan, math.inf], 2)

    @settings(max_examples=200, deadline=None)
    @given(before=scores, values=st.lists(scores, min_size=1, max_size=12), step=st.integers(1, 5))
    def test_equals_the_loop(self, before, values, step):
        self.check(before, values, step)


def evaluation_hexes(ev) -> tuple:
    """Every number of a ConstellationEvaluation, as float.hex strings."""
    crb = ev.crb
    scalars = [ev.det, ev.fim.array_cov_condition, crb.crb_theta_total, crb.crb_r_total, crb.condition_number]
    arrays = [ev.received_powers, ev.fim.entries, crb.crb_theta, crb.crb_r]
    return (*hexes(scalars), *(tuple(hexes(a)) for a in arrays), ev.strongest_element, ev.residual, crb.rank)


@pytest.mark.parametrize("mode, objective", [("linesearch", "det"), ("grid", "gf"), ("analytic", "gf")])
@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_reposition_evaluates_both_reports_in_one_batch(name, mode, objective, capsys):
    batches, kernels, reports = [], [], []
    real_evaluate, real_kernel = optimizer._evaluate, optimizer.fim_rank_one

    def evaluate(targets):
        batches.append(len(targets))
        return real_evaluate(targets)

    def kernel(scenario, radii, *axes):
        kernels.append(len(radii))
        return real_kernel(scenario, radii, *axes)

    def recorded_reports(named, defaults):
        reports.extend(run_reports(named, defaults))
        return reports

    with (
        mock.patch.object(optimizer, "_evaluate", evaluate),
        mock.patch.object(optimizer, "fim_rank_one", kernel),
        mock.patch("nfcrb.cli.run_reports", recorded_reports),
    ):
        argv = ["reposition", "--scenario", name, "--mode", mode, "--objective", objective]
        assert cli_main(argv + ["--grid=-200:200:2001"]) == 0
    capsys.readouterr()
    assert batches == [2] and kernels == [2]

    scn = reports[0].scenario
    element = reports[0].evaluation.strongest_element
    if mode == "analytic":
        plan = reposition.analytic_reposition(scn, element)
    else:
        search = line_search_reposition if mode == "linesearch" else grid_search
        plan = search(scn, element, objective, DisplacementGrid(-200, 200, 2001))
    # each report equals its constellation's rank-one evaluation alone, a batch of one
    alone = [optimizer._evaluate(optimizer._rows_of([t]))[0] for t in (scn, apply_reposition(scn, plan))]
    assert [evaluation_hexes(r.evaluation) for r in reports] == [evaluation_hexes(ev) for ev in alone]


def test_report_errors_keep_their_order(capsys):
    # as when each report ran alone: the before report's failure wins, and the
    # after report's shows when only it fails
    real = optimizer._evaluate
    for failing in ({0, 1}, {1}):
        batch = []

        def evaluate(targets, failing=failing, batch=batch):
            batch.extend([] if batch else targets)
            rejected = [i for i, t in enumerate(batch) if i in failing and any(t is u for u in targets)]
            if rejected:
                raise ValidationError(f"report {rejected[0]} rejected")
            return real(targets)

        with mock.patch.object(optimizer, "_evaluate", evaluate):
            assert cli_main(["reposition", "--scenario", "scenario_a", "--mode", "analytic"]) == 2
        assert capsys.readouterr().err == f"error: report {min(failing)} rejected\n"


def test_one_source_phase_objectives_are_flat():
    # with N = 1 every phase objective is constant in exact arithmetic (|exp(-j w tau)| = 1),
    # so a search over it can only pick rounding noise
    sensors_xy = np.array([[0.0, 0.0], [7.0, 1.0], [-12.0, -2.0], [25.0, 0.5]])
    sources_xy = np.array([[40.0, 120.0]])
    scn = scenario_from_positions(sensors_xy, sources_xy, 3e8, (SourceSignal(1.3e6, 2.0 - 1.0j),), 0.7, 1)
    line = np.column_stack([7.0 + DisplacementGrid(-200.0, 200.0, 2001).values(), np.ones(2001)])
    for objective in PHASE_OBJECTIVES:
        values, errors = score_candidates(objective, 1, sensors_xy, sources_xy, scn, line)
        assert errors == {}
        assert np.ptp(values) <= 1e-12 * np.abs(values).max(), objective
