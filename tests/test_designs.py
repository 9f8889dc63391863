import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import fisher_by_point

from oed.algorithms import AlgoConfig, run_vdm, run_ybt
from oed.bench import flash_grid, quadratic_grid
from oed.designs import (
    Criterion,
    Design,
    SigmaEps,
    criterion_value,
    directional_derivatives,
    fisher_at_points,
    information_matrix,
    is_invertible,
)
from oed.exceptions import InvalidInputError, SingularInformationError
from oed.flash import methanol_water_flash
from oed.models import QuadraticModel
from oed.weights import optimize_weights
from oed.yeast import YeastModel


def quad_mu(x):
    j = np.array([[1.0], [x], [x * x]])
    return fisher_at_points(j[None])[0]


def random_precision(rng, d_y):
    A = rng.normal(size=(d_y, d_y))
    return SigmaEps(A @ A.T + d_y * np.eye(d_y))


class TestFisherAtPoint:
    """``fisher_at_points`` row by row: ``mu = J Sigma^-1 J^T``."""

    def test_identity_jacobian_identity_sigma(self):
        mus = fisher_at_points(np.eye(2)[None], SigmaEps(np.eye(2)))
        assert np.allclose(mus, np.eye(2)[None])

    def test_rank_one_column(self):
        mus = fisher_at_points(np.array([[[2.0], [0.0]]]), SigmaEps(np.eye(1)))
        assert np.allclose(mus, [[[4.0, 0.0], [0.0, 0.0]]])

    def test_scalar_covariance_scaling(self):
        sigma = SigmaEps.from_covariance([[4.0]])
        mus = fisher_at_points(np.array([[[1.0], [1.0]]]), sigma)
        assert np.allclose(mus, [[[0.25, 0.25], [0.25, 0.25]]])

    def test_default_sigma_is_identity(self):
        J = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert np.allclose(fisher_at_points(J[None])[0], J @ J.T)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            fisher_at_points(np.array([[[np.nan], [1.0]]]))

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3, 2, 1)])
    def test_a_matrix_that_is_not_a_stack_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="stack"):
            fisher_at_points(np.ones(shape))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 2), elements=st.floats(-10, 10)))
    def test_symmetric_psd_for_any_finite_jacobian(self, J):
        mu = fisher_at_points(J[None])[0]
        assert np.array_equal(mu, mu.T)
        eig = np.linalg.eigvalsh(mu)
        assert eig.min() >= -1e-10 * max(eig.max(), 1.0)

    def test_batch_matches_single(self):
        # A row's Fisher matrix does not depend on the stack it comes in:
        # ADA-GPR's one-row calls round like its initial batch and the grid.
        rng = np.random.default_rng(0)
        J = rng.normal(size=(5, 3, 2))
        for sigma in (None, SigmaEps.from_covariance(np.diag([2.0, 0.5]))):
            batch = fisher_at_points(J, sigma)
            single = np.concatenate([fisher_at_points(J[i:i + 1], sigma)
                                     for i in range(J.shape[0])])
            assert np.array_equal(batch, single)

    def test_sigma_size_mismatch_rejected(self):
        # A 2x2 precision must not broadcast over single-output Jacobians.
        J = np.ones((4, 3, 1))
        with pytest.raises(InvalidInputError, match="output columns"):
            fisher_at_points(J, SigmaEps(np.eye(2)))
        with pytest.raises(InvalidInputError, match="output columns"):
            fisher_at_points(J[:1], SigmaEps(np.eye(2)))


@pytest.fixture(scope="module")
def flash_grid_jacobians():
    return methanol_water_flash().jacobian_batch(flash_grid())


class TestFisherOracle:
    """``fisher_at_points`` equals the per-point product ``J P J^T`` of
    ``oracles.fisher_by_point`` bit for bit, so a Fisher matrix rounds the
    same way wherever it is computed."""

    @pytest.mark.parametrize("d_y", [1, 2, 20])
    @pytest.mark.parametrize("precision", [False, True])
    def test_random_stacks(self, d_y, precision):
        rng = np.random.default_rng(d_y)
        sigma = random_precision(rng, d_y) if precision else None
        for n in (1, 500):
            J = rng.normal(size=(n, 4, d_y)) * rng.uniform(0.01, 100.0, size=(n, 1, 1))
            assert np.array_equal(fisher_at_points(J, sigma), fisher_by_point(J, sigma))

    @pytest.mark.parametrize("covariance", [None, np.diag([1e-4, 1.0])])
    def test_flash_grid_jacobians(self, flash_grid_jacobians, covariance):
        sigma = None if covariance is None else SigmaEps.from_covariance(covariance)
        J = flash_grid_jacobians
        assert np.array_equal(fisher_at_points(J, sigma), fisher_by_point(J, sigma))

    @pytest.mark.parametrize("precision", [False, True])
    def test_yeast_jacobians(self, precision):
        model = YeastModel()
        rng = np.random.default_rng(23)
        J = model.jacobian_batch(model.bounds.from_unit(rng.uniform(size=(300, 11))))
        sigma = random_precision(rng, 20) if precision else None
        assert np.array_equal(fisher_at_points(J, sigma), fisher_by_point(J, sigma))


class TestInformationMatrix:
    def test_weighted_sum(self):
        mus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        M = information_matrix([0.5, 0.5], mus)
        assert np.allclose(M, np.diag([0.5, 0.5]))

    def test_single_point_identity(self):
        mu = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(information_matrix([1.0], [mu]), mu)

    def test_zero_weight_contributes_nothing(self):
        mus = [np.diag([1.0, 1.0]), np.diag([100.0, 100.0])]
        assert np.allclose(information_matrix([1.0, 0.0], mus), np.eye(2))

    def test_accepts_design(self):
        design = Design([[0.0], [1.0]], [0.25, 0.75])
        mus = [np.eye(2), 2 * np.eye(2)]
        assert np.allclose(information_matrix(design.weights, mus), 1.75 * np.eye(2))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            information_matrix([0.5, 0.5], [np.eye(2)])


class TestCriterionValue:
    def test_a_criterion_diagonal(self):
        assert criterion_value(np.diag([2.0, 4.0]), Criterion.A) == pytest.approx(0.75)

    def test_log_d_diagonal(self):
        value = criterion_value(np.diag([2.0, 4.0]), Criterion.LOGD)
        assert value == pytest.approx(-np.log(8.0))

    def test_d_is_log_d(self):
        assert Criterion.D is Criterion.LOGD
        assert Criterion.parse("D") is Criterion.LOGD
        grid = quadratic_grid()
        for run in (run_vdm, run_ybt):
            d, log_d = (run(QuadraticModel(), grid, AlgoConfig(criterion=c, rng_seed=1))
                        for c in (Criterion.parse("D"), Criterion.LOGD))
            for field in ("objective_trace", "information_matrix"):
                assert np.array_equal(getattr(d, field), getattr(log_d, field))
            assert np.array_equal(d.design.points, log_d.design.points)
            assert np.array_equal(d.design.weights, log_d.design.weights)
            assert (d.objective, d.termination) == (log_d.objective, log_d.termination)

    def test_e_criterion_inverse_min_eigenvalue(self):
        assert criterion_value(np.diag([2.0, 4.0]), Criterion.E) == pytest.approx(0.5)

    def test_singular_raises_for_e(self):
        with pytest.raises(SingularInformationError):
            criterion_value(np.diag([1.0, 0.0]), Criterion.E)

    def test_singular_raises_for_inverse_criteria(self):
        for crit in (Criterion.A, Criterion.D, Criterion.LOGD):
            with pytest.raises(SingularInformationError):
                criterion_value(np.diag([1.0, 0.0]), crit)

    def test_logdet_scaling_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            M = A @ A.T + 3 * np.eye(3)
            c = float(rng.uniform(0.1, 10))
            lhs = criterion_value(c * M, Criterion.LOGD)
            rhs = criterion_value(M, Criterion.LOGD) - 3 * np.log(c)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_parse_tags(self):
        assert Criterion.parse("logD") is Criterion.LOGD
        assert Criterion.parse("a") is Criterion.A
        with pytest.raises(InvalidInputError):
            Criterion.parse("c")


class TestDirectionalDerivative:
    def test_single_point_design_at_own_support_is_zero(self):
        mu = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert directional_derivatives(mu, mu, Criterion.D)[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_a_criterion_identity(self):
        assert directional_derivatives(np.eye(2), np.eye(2), Criterion.A)[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_d_criterion_value(self):
        phi = directional_derivatives(np.eye(2), np.diag([3.0, 0.0]), Criterion.D)[0]
        assert phi == pytest.approx(-1.0)

    def test_log_d_uses_same_formula_as_d(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        M = A @ A.T + np.eye(3)
        mu = quad_mu(0.3)
        assert directional_derivatives(M, mu, Criterion.D)[0] == \
            pytest.approx(directional_derivatives(M, mu, Criterion.LOGD)[0])

    def test_e_criterion_multiplicity_split(self):
        # lambda_min = 1 has multiplicity 2; uniform factors over the eigenspace.
        M = np.diag([1.0, 1.0, 5.0])
        mu = np.diag([2.0, 0.0, 0.0])
        phi = directional_derivatives(M, mu, Criterion.E)[0]
        assert phi == pytest.approx(1.0 - 0.5 * 2.0)

    def test_phi_d_bounded_by_d_theta(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.normal(size=(4, 4))
            M = A @ A.T + 0.5 * np.eye(4)
            J = rng.normal(size=(4, 2))
            phi = directional_derivatives(M, J @ J.T, Criterion.D)[0]
            assert phi <= 4.0 + 1e-12

    def test_weighted_average_of_phi_d_is_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 6
            J = rng.normal(size=(n, 3, 2))
            mus = fisher_at_points(J)
            w = rng.dirichlet(np.ones(n))
            M = information_matrix(w, mus)
            phi = directional_derivatives(M, mus, Criterion.D)
            assert abs(float(w @ phi)) < 1e-9

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(17)
        for crit in (Criterion.A, Criterion.D, Criterion.E):
            A = rng.normal(size=(3, 3))
            M = A @ A.T + np.eye(3)
            J = rng.normal(size=(3, 2))
            mu = J @ J.T
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            before = directional_derivatives(M, mu, crit)[0]
            after = directional_derivatives(Q @ M @ Q.T, Q @ mu @ Q.T, crit)[0]
            assert after == pytest.approx(before, abs=1e-9)

    def test_singular_information_raises(self):
        with pytest.raises(SingularInformationError):
            directional_derivatives(np.diag([1.0, 0.0]), np.eye(2), Criterion.D)

    @pytest.mark.parametrize("p", [3, 4])
    def test_stack_matches_per_point_loop(self, p):
        # A generic M (simple lambda_min) and one whose lambda_min = 1 is
        # double with the known eigenspace Q[:, :2], so E splits over mult = 2.
        rng = np.random.default_rng(p)
        mus = fisher_at_points(rng.normal(size=(50, p, 2)))
        A = rng.normal(size=(p, p))
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        double = Q @ np.diag([1.0, 1.0, *rng.uniform(2.0, 5.0, p - 2)]) @ Q.T
        cases = ((A @ A.T + np.eye(p), None), (0.5 * (double + double.T), Q[:, :2]))
        for M, P in cases:
            Minv = np.linalg.inv(M)
            if P is None:
                P = np.linalg.eigh(M)[1][:, :1]
            lam_min = np.linalg.eigvalsh(M)[0]
            reference = {
                Criterion.D: [p - np.trace(Minv @ mu) for mu in mus],
                Criterion.LOGD: [p - np.trace(Minv @ mu) for mu in mus],
                Criterion.A: [np.trace(Minv) - np.trace(Minv @ Minv @ mu)
                              for mu in mus],
                Criterion.E: [lam_min - np.trace(P.T @ mu @ P) / P.shape[1]
                              for mu in mus],
            }
            for crit, ref in reference.items():
                ref = np.array(ref)
                np.testing.assert_allclose(
                    directional_derivatives(M, mus, crit), ref, rtol=1e-12,
                    atol=1e-12 * np.abs(ref).max())


class TestOptimalityGap:
    """The gap of a design is min phi over a candidate set."""

    def test_zero_gap_on_optimal_support(self):
        pts = np.array([[-1.0], [0.0], [1.0]])
        mus = np.stack([quad_mu(x) for x in pts.ravel()])
        design = Design(pts, np.full(3, 1 / 3))
        M = information_matrix(design.weights, mus)
        gap = directional_derivatives(M, mus, Criterion.D).min()
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_dominating_candidate_gives_negative_gap(self):
        mu = np.array([[2.0, 0.0], [0.0, 1.0]])
        design = Design([[0.0]], [1.0])
        M = information_matrix(design.weights, [mu])
        phi = directional_derivatives(M, [mu, 2 * mu], Criterion.D)
        gap, idx = phi.min(), int(np.argmin(phi))
        assert gap < 0
        assert idx == 1

    def test_quadratic_grid_audit_confirms_classical_design(self):
        # Independent check: evaluate phi_D from its definition with plain
        # numpy over the coarse grid; the minimum must be >= -1e-6.
        grid = np.arange(-1.0, 1.0 + 1e-12, 0.1)
        design = Design([[-1.0], [0.0], [1.0]], np.full(3, 1 / 3))
        design_mus = np.stack([quad_mu(x) for x in (-1.0, 0.0, 1.0)])
        cand_mus = np.stack([quad_mu(x) for x in grid])
        M = information_matrix(design.weights, design_mus)
        gap = directional_derivatives(M, cand_mus, Criterion.D).min()
        assert gap >= -1e-6

        M = sum(design_mus) / 3
        Minv = np.linalg.inv(M)
        brute = min(3.0 - np.trace(Minv @ quad_mu(x)) for x in grid)
        assert gap == pytest.approx(brute, abs=1e-12)


class TestDesignType:
    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInputError):
            Design([[0.0], [1.0]], [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            Design([[0.0], [1.0]], [0.5, 0.4])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Design([[0.0]], [0.5, 0.5])

    def test_duplicate_points_allowed(self):
        design = Design([[0.0], [0.0]], [0.5, 0.5])
        assert design.n_points == 2

    def test_pruned_renormalizes(self):
        design = Design([[0.0], [1.0], [2.0]], [0.5995, 0.4, 0.0005])
        pruned = design.pruned(0.001)
        assert pruned.n_points == 2
        assert pruned.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestSigmaEps:
    def test_identity(self):
        assert np.allclose(SigmaEps(np.eye(3)).precision, np.eye(3))

    def test_from_covariance_inverts(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        sig = SigmaEps.from_covariance(cov)
        assert np.allclose(sig.precision @ cov, np.eye(2), atol=1e-12)

    def test_from_covariance_rejects_bad_covariance_by_name(self):
        # The last two are singular, yet rounding leaves their eigenvalues
        # positive: below SINGULAR_RTOL relative to the largest.
        for cov in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                    [[1.0, np.nan], [np.nan, 1.0]], [[1.0, 0.2], [0.0, 1.0]],
                    [[10.0, -5.0, -4.0], [-5.0, 5.0, 1.0], [-4.0, 1.0, 2.0]],
                    [[1.0, 1.0], [1.0, 1.0 + 2.2e-16]]):
            with pytest.raises(InvalidInputError, match="covariance"):
                SigmaEps.from_covariance(cov)

    def test_from_covariance_accepts_ill_conditioned_covariances(self):
        # Condition number 1e11, inside the singularity rule: inv() of such a
        # matrix can be asymmetric beyond the precision's symmetry check.
        rng = np.random.default_rng(0)
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cov = Q @ np.diag([1.0, 1e11 ** -0.5, 1e-11]) @ Q.T
            cov = 0.5 * (cov + cov.T)
            precision = SigmaEps.from_covariance(cov).precision
            assert np.array_equal(precision, precision.T)
            assert np.allclose(precision @ cov, np.eye(3), atol=1e-4)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SigmaEps(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            SigmaEps(np.diag([1.0, -1.0]))


def test_singularity_boundary_is_one_rule():
    # lambda_min / lambda_max just above and just below SINGULAR_RTOL: every
    # entry point that tests for singularity must give the same answer.
    for small, regular in ((2e-12, True), (5e-13, False)):
        M = np.diag([1.0, small])
        assert is_invertible(M) is regular
        checks = [lambda c=c: criterion_value(M, c) for c in Criterion]
        checks += [lambda c=c: directional_derivatives(M, M, c) for c in Criterion]
        checks += [lambda c=c: optimize_weights([M], c) for c in Criterion]
        for check in checks:
            if regular:
                check()
            else:
                with pytest.raises(SingularInformationError):
                    check()
