import re
import warnings

import numpy as np
import pytest

from oed.algorithms import (
    AlgoConfig,
    cluster_design,
    next_tau,
    progress_stop,
    run_adagpr,
    run_vdm,
    run_ybt,
)
from oed.bench import flash_grid, suite_configs
from oed.designs import (
    Criterion,
    Design,
    directional_derivatives,
    fisher_at_points,
    information_matrix,
)
from oed.exceptions import InitializationError, InvalidInputError, NonFiniteModelError
from oed.flash import methanol_acetone_flash, methanol_water_flash
from oed.models import Box, ModelHandle, QuadraticModel, quadratic_model
from oed.runner import _run
from oed.weights import optimize_weights
from oracles import vdm_by_stack

GRID_201 = np.linspace(-1.0, 1.0, 201)[:, None]


def quad_mus(points):
    return fisher_at_points(QuadraticModel().jacobian_batch(points))


def design_min_phi(design, grid, criterion=Criterion.LOGD):
    M = information_matrix(design.weights, quad_mus(design.points))
    return float(directional_derivatives(M, quad_mus(grid), criterion).min())


class TestNextTau:
    def test_negative_phi_turns_exploitation_on(self):
        assert next_tau(1.0, -0.5) == 1.0
        assert next_tau(0.0, -0.5) == 1.0

    def test_nonnegative_phi_alternates(self):
        assert next_tau(1.0, 0.2) == 0.0
        assert next_tau(0.0, 0.2) == 1.0


class TestProgressStop:
    def test_never_stops_in_first_50(self):
        assert progress_stop(np.zeros(50)) is False

    def test_window_at_100(self):
        trace = np.zeros(100)
        trace[59] = 5.0  # iteration 60 = max(ceil(0.6*100), 100-50)
        assert progress_stop(trace) is False
        trace[59] = trace[99] + 0.0005
        assert progress_stop(trace) is True

    def test_window_at_200(self):
        trace = np.zeros(200)
        trace[149] = 1.0  # iteration 150 = max(120, 150)
        assert progress_stop(trace) is False
        trace[149] = 0.0
        assert progress_stop(trace) is True


class TestClusterDesign:
    def test_two_member_merge(self):
        design = Design([[0.100], [0.105], [0.9]], [0.3, 0.2, 0.5])
        merged = cluster_design(design)
        assert merged.n_points == 2
        idx = int(np.argmin(np.abs(merged.points[:, 0] - 0.1025)))
        assert merged.points[idx, 0] == pytest.approx(0.1025)
        assert merged.weights[idx] == pytest.approx(0.5)

    def test_isolated_points_unchanged(self):
        design = Design([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5])
        merged = cluster_design(design)
        assert merged.n_points == 3
        assert np.allclose(np.sort(merged.points.ravel()), [0.0, 0.5, 1.0])

    def test_chain_merges_transitively(self):
        design = Design([[0.0], [0.009], [0.018], [0.9]], [0.2, 0.2, 0.2, 0.4])
        merged = cluster_design(design)
        assert merged.n_points == 2
        idx = int(np.argmin(merged.points[:, 0]))
        assert merged.points[idx, 0] == pytest.approx(0.009)
        assert merged.weights[idx] == pytest.approx(0.6)

    def test_prunes_tiny_weights_first(self):
        design = Design([[0.0], [0.5]], [0.9995, 0.0005])
        merged = cluster_design(design)
        assert merged.n_points == 1
        assert merged.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_cube_radius_with_box(self):
        # 0.015 apart in raw units but 0.0075 in unit coordinates of [0, 2].
        box = Box([0.0], [2.0])
        design = Design([[1.0], [1.015]], [0.5, 0.5])
        assert cluster_design(design, box=box).n_points == 1
        assert cluster_design(design).n_points == 2

    def test_grid_neighbours_one_radius_apart_cluster_alike(self):
        # 0.03 - 0.02 rounds below 0.01 and 0.31 - 0.30 above it; both pairs
        # are one flash-grid step, exactly the radius, apart.
        box = Box([0.0, 0.5], [1.0, 5.0])
        for x in ((0.02, 0.03), (0.30, 0.31)):
            design = Design([[x[0], 5.0], [x[1], 5.0]], [0.5, 0.5])
            assert cluster_design(design, box=box).n_points == 2

    def test_weights_renormalized(self):
        design = Design([[0.0], [0.3], [0.7]], [0.5, 0.4995, 0.0005])
        merged = cluster_design(design)
        assert merged.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestRunVdm:
    def test_quadratic_converges_to_classical_design(self):
        report = run_vdm(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0))
        assert report.termination == "epsilon"
        # objective within 1e-3 of the optimum on the classical support
        best = optimize_weights(quad_mus(np.array([[-1.0], [0.0], [1.0]])),
                                Criterion.LOGD)
        assert report.objective <= best.objective + 1e-3
        clustered = report.clustered_design
        assert clustered.n_points == 3
        for target in (-1.0, 0.0, 1.0):
            dist = np.abs(clustered.points[:, 0] - target).min()
            assert dist <= 0.02

    def test_first_iteration_weight_arithmetic(self):
        # One iteration from four initial points: the new point takes 1/5 and
        # the rest scale by 4/5.
        report = run_vdm(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                    max_iterations=1))
        w = np.sort(report.design.weights)
        assert report.design.n_points in (4, 5)
        if report.design.n_points == 5:
            assert np.allclose(w, 0.2)
        else:  # argmin hit an initial point and merged
            assert np.allclose(w, [0.2, 0.2, 0.2, 0.4])

    # The oracle scans the whole grid and takes a criterion value on every
    # iteration, so these cases pin VDM's lazy log-D scan, its full A and E
    # scans and its stacked trace values to the full computation, bit for bit.
    @pytest.mark.parametrize("build, grid, cfg, termination", [
        (QuadraticModel, GRID_201, AlgoConfig(rng_seed=0), "epsilon"),
        (methanol_water_flash, flash_grid(),
         AlgoConfig(rng_seed=5, max_iterations=2000), "max_iterations"),
        (methanol_acetone_flash, flash_grid(), AlgoConfig(rng_seed=0), "epsilon"),
        (QuadraticModel, GRID_201,
         AlgoConfig(criterion=Criterion.A, rng_seed=0, max_iterations=3000),
         "max_iterations"),
        (QuadraticModel, GRID_201, AlgoConfig(criterion=Criterion.E, rng_seed=0),
         "epsilon"),
    ], ids=["quadratic", "flash-water", "flash-acetone", "quadratic-A", "quadratic-E"])
    def test_bit_for_bit_against_the_grown_stack(self, build, grid, cfg,
                                                 termination):
        report = run_vdm(build(), grid, cfg)
        points, weights, trace, M = vdm_by_stack(build(), grid, cfg)
        assert report.termination == termination
        assert np.array_equal(report.design.points, points)
        assert np.array_equal(report.design.weights, weights)
        assert np.array_equal(report.objective_trace, trace)
        assert np.array_equal(report.information_matrix, M)

    def test_no_duplicate_support_points(self):
        report = run_vdm(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=3,
                                    max_iterations=500))
        pts = report.design.points.ravel()
        assert len(np.unique(pts)) == len(pts)

    def test_jacobian_count_equals_grid_size(self):
        report = run_vdm(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                    max_iterations=5))
        assert report.jacobian_evals == GRID_201.shape[0]

    def test_trace_length_equals_iterations(self):
        report = run_vdm(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                    max_iterations=50))
        assert len(report.objective_trace) == report.iterations

    def test_all_same_grid_point_fails_initialization(self):
        grid = np.zeros((40, 1))
        with pytest.raises(InitializationError):
            run_vdm(QuadraticModel(), grid,
                    AlgoConfig(criterion=Criterion.LOGD, rng_seed=0))


class TestRunYbt:
    def test_certified_on_grid(self):
        report = run_ybt(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0))
        assert report.termination == "epsilon"
        # Independent re-check of the certificate on the run grid; the pruned
        # design may drift by the pruned mass, so allow that slack on top.
        assert design_min_phi(report.design, GRID_201) > -2e-3

    def test_matches_vdm_objective(self):
        cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
        ybt = run_ybt(QuadraticModel(), GRID_201, cfg)
        vdm = run_vdm(QuadraticModel(), GRID_201, cfg)
        assert abs(ybt.objective - vdm.objective) < 2 * cfg.epsilon

    def test_trace_non_increasing(self):
        report = run_ybt(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=1))
        assert np.all(np.diff(report.objective_trace) <= 1e-9)

    def test_reported_design_pruned(self):
        report = run_ybt(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.LOGD, rng_seed=0))
        assert report.design.weights.min() >= 0.001
        assert report.design.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_far_fewer_iterations_than_vdm(self):
        cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
        ybt = run_ybt(QuadraticModel(), GRID_201, cfg)
        vdm = run_vdm(QuadraticModel(), GRID_201, cfg)
        assert ybt.iterations <= vdm.iterations // 10

    def test_capped_weight_solve_continues_from_best_iterate(self):
        # From this start the E-criterion weight solve hits its iteration cap
        # in iteration 3; the run keeps that solve's best weights and still
        # certifies at the E-optimum 5 (weights 0.2/0.6/0.2 on -1, 0, 1).
        report = run_ybt(QuadraticModel(), GRID_201,
                         AlgoConfig(criterion=Criterion.E, rng_seed=1))
        assert report.termination == "epsilon"
        assert report.objective == pytest.approx(5.0, abs=2e-3)
        assert len(report.warnings) == 1
        assert "continued from its best iterate" in report.warnings[0]

    def test_capped_weight_solve_on_flash_matches_vdm(self):
        # Seed 5 draws an initial flash-water design whose first weight solve
        # hits the cap; YBT must still certify and agree with VDM.
        cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=5)
        ybt = run_ybt(methanol_water_flash(), flash_grid(), cfg)
        vdm = run_vdm(methanol_water_flash(), flash_grid(), cfg)
        assert ybt.termination == "epsilon"
        assert any("iteration 1:" in w for w in ybt.warnings)
        gap = (np.linalg.slogdet(ybt.information_matrix)[1]
               - np.linalg.slogdet(vdm.information_matrix)[1]) / np.log(10.0)
        assert abs(gap) < 1e-3

    def test_singular_line_search_blends_raise_no_warning(self):
        # Seed 41's flash-water YBT weight solves line-search segments whose
        # far end is singular; the search must see a finite value there.
        config = next(c for _, c in suite_configs("flash-water", 41)
                      if c.algorithm == "ybt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = _run(config, config.build_model())
        assert report.termination == "epsilon"


@pytest.fixture(scope="module")
def toy_report():
    cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0, n_initial=10)
    return run_adagpr(QuadraticModel(), cfg)


class TestRunAdagpr:

    def test_recovers_classical_design(self, toy_report):
        clustered = toy_report.clustered_design
        assert clustered.n_points == 3
        for target in (-1.0, 0.0, 1.0):
            k = int(np.argmin(np.abs(clustered.points[:, 0] - target)))
            assert abs(clustered.points[k, 0] - target) <= 0.02
            assert abs(clustered.weights[k] - 1 / 3) <= 0.02

    def test_certified_at_candidates(self, toy_report):
        # Exact phi at every candidate of the final weight solve is >= -eps.
        M = information_matrix(toy_report.design.weights,
                               quad_mus(toy_report.design.points))
        phi = directional_derivatives(M, quad_mus(toy_report.design.points),
                                      Criterion.LOGD)
        assert phi.min() >= -1e-3

    def test_jacobians_only_at_candidates(self, toy_report):
        assert toy_report.jacobian_evals == toy_report.design.n_points

    def test_deterministic(self, toy_report):
        again = run_adagpr(QuadraticModel(),
                           AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                      n_initial=10))
        assert np.array_equal(again.design.points, toy_report.design.points)
        assert np.array_equal(again.design.weights, toy_report.design.weights)
        assert np.array_equal(again.objective_trace, toy_report.objective_trace)

    def test_design_points_within_bounds(self, toy_report):
        assert np.all(toy_report.design.points >= -1.0)
        assert np.all(toy_report.design.points <= 1.0)

    def test_design_reported_in_original_units(self, toy_report):
        # Internally the search runs on [0,1]; the report must be mapped back
        # to the model's [-1,1] box, so some coordinates sit below 0.
        assert np.any(toy_report.design.points < 0.0)

    def test_progress_termination(self, toy_report):
        assert toy_report.termination == "progress"
        assert toy_report.iterations > 50

    def test_grid_forbidden_settings_validated(self):
        with pytest.raises(InvalidInputError):
            run_adagpr(QuadraticModel(),
                       AlgoConfig(criterion=Criterion.LOGD, n_initial=2))


class TestAlgoConfig:
    def test_epsilon_positive(self):
        with pytest.raises(InvalidInputError):
            AlgoConfig(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan")])
    def test_epsilon_finite(self, epsilon):
        # An infinite epsilon would certify any start at iteration 1.
        with pytest.raises(InvalidInputError, match="positive and finite"):
            AlgoConfig(epsilon=epsilon)

    def test_weight_tol_tighter_than_epsilon(self):
        cfg = AlgoConfig(epsilon=1e-3)
        assert cfg.weight_tol <= cfg.epsilon / 10

    def test_grid_outside_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            run_vdm(QuadraticModel(), np.array([[2.0]]),
                    AlgoConfig(criterion=Criterion.LOGD))

    def test_grid_bounds_check_uses_box_tolerance(self):
        # Points within 1e-9 of a bound pass; a single point beyond fails.
        cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
        inside = np.linspace(-1.0, 1.0, 9)[:, None]
        inside[[0, -1], 0] += [-5e-10, 5e-10]
        run_ybt(QuadraticModel(), inside, cfg)
        outside = np.vstack([np.linspace(-1.0, 1.0, 50)[:, None],
                             [[1.0 + 2e-9]]])
        with pytest.raises(InvalidInputError, match="outside the design bounds"):
            run_ybt(QuadraticModel(), outside, cfg)


@pytest.mark.parametrize("algorithm", ["vdm", "ybt"])
@pytest.mark.parametrize("suite", ["quadratic", "flash-water"])
def test_log_d_reparametrisation_invariance(suite, algorithm):
    # theta = B phi maps each Jacobian J to B^T J and M to B^T M B: phi under
    # log-D is unchanged, so the run is the same and log10 det M shifts by
    # 2 log10 |det B|, up to rounding.
    tol = {"quadratic": 1e-12, "flash-water": 1e-7}[suite]
    config = dict(suite_configs(suite))[f"{suite}-{algorithm}"]
    run = run_vdm if algorithm == "vdm" else run_ybt
    base = run(config.build_model(), config.grid, config.algo_config())
    model = config.build_model()
    d = model.d_theta
    B = np.eye(d) + 0.3 * np.random.default_rng(5).normal(size=(d, d))
    jacobian_batch = model.jacobian_batch
    model.jacobian_batch = lambda xs: B.T @ jacobian_batch(xs)
    moved = run(model, config.grid, config.algo_config())
    assert np.array_equal(moved.design.points, base.design.points)
    assert moved.iterations == base.iterations
    shift = (np.linalg.slogdet(moved.information_matrix)[1]
             - np.linalg.slogdet(base.information_matrix)[1]) / np.log(10.0)
    assert shift == pytest.approx(2.0 * np.log10(abs(np.linalg.det(B))), abs=tol)


def test_adagpr_iteration_cap_reports_last_solved_candidates():
    # Below 50 iterations the progress rule never fires; the cap path must
    # report the design of the last weight solve, excluding the one candidate
    # evaluated afterwards (which still counts as a Jacobian evaluation).
    report = run_adagpr(QuadraticModel(),
                        AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                   n_initial=10, max_iterations=3))
    assert report.termination == "max_iterations"
    assert report.iterations == 3
    assert len(report.objective_trace) == 3
    assert report.design.n_points == 12
    assert report.jacobian_evals == 13
    assert report.design.weights.sum() == pytest.approx(1.0, abs=1e-12)


class EdgeBlowupQuadratic(ModelHandle):
    """The quadratic toy through central differences, non-finite beyond
    x = 0.9: the initial Sobol points (x <= 0.875) are finite, and the
    acquisition proposes points near the support point x = 1."""

    def __init__(self):
        super().__init__(Box([-1.0], [1.0]), (1.0, 1.0, 1.0))
        self.accepted, self.rejected = 0, []

    def _eval_batch(self, xs, thetas):
        return np.where(xs > 0.9, np.inf, quadratic_model(xs[:, 0], thetas)[:, None])

    def jacobian_batch(self, xs):
        try:
            jac = super().jacobian_batch(xs)
        except NonFiniteModelError:
            self.rejected.append(np.asarray(xs)[0])
            raise
        self.accepted += jac.shape[0]
        return jac


def test_adagpr_counts_only_accepted_jacobians():
    model = EdgeBlowupQuadratic()
    report = run_adagpr(model, AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                          n_initial=10))
    assert model.rejected
    assert report.jacobian_evals == model.accepted == report.design.n_points
    rejections = [w for w in report.warnings if w.startswith("rejected non-finite point")]
    assert len(rejections) == len(model.rejected)
    for warning, x in zip(rejections, model.rejected):
        assert warning.endswith(f"at x={x}")
    # The acquisition proposes x = 1 again and again; a point rejected once
    # is skipped without calling the model again.
    assert len({x.tobytes() for x in model.rejected}) == len(model.rejected)


class NanJacobianQuadratic(QuadraticModel):
    """The quadratic toy whose exact Jacobians are NaN beyond x = 0.9."""

    def jacobian_batch(self, xs):
        jac = super().jacobian_batch(xs)
        jac[np.asarray(xs)[:, 0] > 0.9] = np.nan
        return jac


def test_adagpr_rejects_a_point_with_a_non_finite_exact_jacobian():
    report = run_adagpr(NanJacobianQuadratic(),
                        AlgoConfig(criterion=Criterion.LOGD, rng_seed=0, n_initial=10))
    rejections = [w for w in report.warnings if w.startswith("rejected non-finite point")]
    assert rejections
    assert all("non-finite Jacobian at x=" in w for w in rejections)
    assert report.design.points.max() <= 0.9


def test_ybt_reports_a_non_finite_exact_jacobian_as_a_model_fault():
    # The error names the first bad grid point. A configuration error
    # (InvalidInputError) would send the CLI to exit code 2, not 3.
    first = GRID_201[GRID_201[:, 0] > 0.9][0]
    with pytest.raises(NonFiniteModelError, match=re.escape(f"at x={first}")):
        run_ybt(NanJacobianQuadratic(), GRID_201,
                AlgoConfig(criterion=Criterion.LOGD, rng_seed=0))


def test_adagpr_deterministic_with_per_dimension_lengthscales(monkeypatch):
    # The quadratic toy is 1-D, where one lengthscale per dimension is the
    # isotropic kernel. A short flash run (2-D) exercises the per-dimension
    # fits and their restarts; two runs must agree bit for bit.
    import oed.algorithms as algorithms

    fitted = []
    original = algorithms.select_hypers

    def spy(*args, **kwargs):
        params = original(*args, **kwargs)
        fitted.append(params)
        return params

    monkeypatch.setattr(algorithms, "select_hypers", spy)
    cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0, n_initial=20,
                     max_iterations=12)
    first = run_adagpr(methanol_water_flash(), cfg)
    n_first = len(fitted)
    second = run_adagpr(methanol_water_flash(), cfg)
    assert any(np.ndim(p.lengthscale) == 1 for p in fitted[:n_first])
    for a, b in zip(fitted[:n_first], fitted[n_first:]):
        assert np.array_equal(a.lengthscale, b.lengthscale)
        assert a.signal_variance == b.signal_variance and a.noise == b.noise
    assert np.array_equal(first.design.points, second.design.points)
    assert np.array_equal(first.design.weights, second.design.weights)
    assert np.array_equal(first.objective_trace, second.objective_trace)
