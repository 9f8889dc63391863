import numpy as np
import pytest

from oracles import alpha_cv_by_refits, posterior_stack
from oed.exceptions import InvalidInputError, SingularKernelError
from oed.gp import (
    ALPHA_GRID,
    ARD_MAX_RATIO,
    KernelParams,
    _lml_with_grad,
    _sq_differences,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    select_alpha_cv,
    select_hypers,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


class TestKernelMatrix:
    def test_zero_distance(self):
        K = kernel_matrix([[0.3]], [[0.3]], KernelParams(1.0, 0.5))
        assert K[0, 0] == pytest.approx(1.0)

    def test_sqrt_two_lengthscales_apart(self):
        l = 0.7
        K = kernel_matrix([[0.0]], [[l * np.sqrt(2.0)]], KernelParams(1.0, l))
        assert K[0, 0] == pytest.approx(np.exp(-1.0))

    def test_noise_only_on_training_diagonal(self):
        X = [[0.1], [0.1]]
        params = KernelParams(1.0, 1.0, noise=0.1)
        K = kernel_matrix(X, X, params)
        # Cross-covariances carry no white noise even for identical points.
        assert np.allclose(K, np.ones((2, 2)))
        state = fit(X, [1.0, 2.0], params)
        # fit() adds the noise on the diagonal; probe it via the factorization
        # (cho_factor leaves junk in the unused triangle, so take the lower part).
        L = np.tril(state._chol[0])
        assert np.allclose(L @ L.T, np.ones((2, 2)) + 0.1 * np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            kernel_matrix([[np.inf]], [[0.0]], KernelParams(1.0, 1.0))


class TestKernelParams:
    @pytest.mark.parametrize("bad", [dict(signal_variance=0.0), dict(lengthscale=-1.0),
                                     dict(noise=-0.1)])
    def test_positivity(self, bad):
        kwargs = dict(signal_variance=1.0, lengthscale=1.0, noise=0.0)
        kwargs.update(bad)
        with pytest.raises(InvalidInputError):
            KernelParams(**kwargs)

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, np.inf], [[1.0, 1.0]], []])
    def test_per_dimension_lengthscales_validated(self, bad):
        with pytest.raises(InvalidInputError):
            KernelParams(1.0, bad)

    def test_per_dimension_lengthscales_stored_read_only(self):
        ell = np.array([0.5, 2.0])
        params = KernelParams(1.0, ell)
        ell[0] = 9.0  # the caller's array is copied
        assert np.array_equal(params.lengthscale, [0.5, 2.0])
        with pytest.raises(ValueError):
            params.lengthscale[0] = 1.0

    def test_lengthscale_count_must_match_inputs(self):
        with pytest.raises(InvalidInputError):
            kernel_matrix([[0.0, 0.0]], [[1.0, 1.0]], KernelParams(1.0, [1.0, 1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            fit([[0.0, 0.0]], [1.0], KernelParams(1.0, [1.0]))


class TestPerDimensionKernel:
    """ARD kernel: one lengthscale per input dimension."""

    def test_axis_aligned_distances_use_own_lengthscale(self):
        params = KernelParams(2.0, [0.5, 3.0])
        K = kernel_matrix([[0.0, 0.0]], [[0.5, 0.0], [0.0, 3.0], [0.5, 3.0]], params)
        assert np.allclose(K, 2.0 * np.exp([-0.5, -0.5, -1.0]), rtol=1e-14)

    def test_scalar_and_equal_vector_agree(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(12, 3))
        y = rng.normal(size=12)
        queries = rng.uniform(size=(5, 3))
        scalar = KernelParams(1.3, 0.4, 1e-4)
        vector = KernelParams(1.3, np.full(3, 0.4), 1e-4)
        assert np.allclose(kernel_matrix(X, queries, scalar),
                           kernel_matrix(X, queries, vector), rtol=1e-13, atol=0)
        assert log_marginal_likelihood(X, y, scalar) == pytest.approx(
            log_marginal_likelihood(X, y, vector), rel=1e-12)
        gp_s, gp_v = fit(X, y, scalar), fit(X, y, vector)
        for x in queries:
            for a, b in zip(gp_s.posterior(x), gp_v.posterior(x)):
                assert np.allclose(a, b, rtol=1e-10, atol=1e-13)
        for a, b in zip(posterior_stack(gp_s, queries), posterior_stack(gp_v, queries)):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-13)
        # The log-lengthscale gradient of the tied vector sums to the scalar one.
        _, g_s = _lml_with_grad(_sq_differences(X, False), y, 1.3, 0.4, 1e-4)
        _, g_v = _lml_with_grad(_sq_differences(X, True), y, 1.3, np.full(3, 0.4), 1e-4)
        assert g_v[0] == pytest.approx(g_s[0], rel=1e-10)
        assert g_v[1:].sum() == pytest.approx(g_s[1], rel=1e-10)

    def test_posterior_gradients_match_finite_differences(self):
        # Same oracle as the isotropic case: prior-drawn targets and queries
        # with non-negligible variance, so h = 1e-6 central differences
        # resolve 1e-5 relative.
        rng = np.random.default_rng(29)
        h = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(4, 13)), int(rng.integers(2, 5))
            X = rng.uniform(size=(n, d))
            params = KernelParams(float(rng.uniform(0.5, 2.0)),
                                  rng.uniform(0.2, 2.0, size=d), 1e-6)
            K = kernel_matrix(X, X, params) + 1e-8 * np.eye(n)
            y = np.linalg.cholesky(K) @ rng.normal(size=n)
            gp = fit(X, y, params)
            for _ in range(50):
                x0 = rng.uniform(0.05, 0.95, size=d)
                _, var, mean_grad, var_grad = gp.posterior(x0)
                if var >= 1e-3 * params.signal_variance:
                    break
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                mp, vp, _, _ = gp.posterior(x0 + e)
                mm, vm, _, _ = gp.posterior(x0 - e)
                for analytic, fd in ((mean_grad[k], (mp - mm) / (2 * h)),
                                     (var_grad[k], (vp - vm) / (2 * h))):
                    assert abs(analytic - fd) <= 1e-7 + 1e-5 * max(abs(fd), abs(analytic))

    @pytest.mark.parametrize("per_dimension", [False, True])
    def test_lml_gradient_matches_finite_differences(self, per_dimension):
        # Gradient w.r.t. (log sigma_f^2, log l_1, ..., log l_d), checked
        # against central differences of the public log marginal likelihood.
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(10):
            n, d = int(rng.integers(5, 15)), int(rng.integers(2, 5))
            X = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            noise = float(10.0 ** rng.uniform(-4, -1))
            theta = np.log(np.concatenate([[rng.uniform(0.5, 2.0)],
                                           rng.uniform(0.2, 1.5, size=d if per_dimension else 1)]))

            def lml(t):
                ell = np.exp(t[1:]) if per_dimension else float(np.exp(t[1]))
                return log_marginal_likelihood(X, y, KernelParams(float(np.exp(t[0])), ell, noise))

            e = np.exp(theta)
            ell = e[1:] if per_dimension else float(e[1])
            value, grad = _lml_with_grad(_sq_differences(X, per_dimension), y,
                                         float(e[0]), ell, noise)
            assert value == pytest.approx(lml(theta), rel=1e-12)
            for k in range(theta.size):
                step = np.zeros(theta.size)
                step[k] = h
                fd = (lml(theta + step) - lml(theta - step)) / (2 * h)
                assert abs(grad[k] - fd) <= 1e-6 + 1e-5 * max(abs(fd), abs(grad[k]))


class TestFitAndPosterior:
    def test_single_point_interpolates(self):
        gp = fit([[0.5]], [3.0], KernelParams(2.0, 1.0, 0.0))
        mean, var, _, _ = gp.posterior([0.5])
        assert mean == pytest.approx(3.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-10)

    def test_duplicate_points_need_noise(self):
        X = [[0.2], [0.2]]
        with pytest.raises(SingularKernelError):
            fit(X, [1.0, 1.0], KernelParams(1.0, 1.0, 0.0))
        fit(X, [1.0, 1.0], KernelParams(1.0, 1.0, 0.1))  # succeeds

    @pytest.mark.parametrize("query", [[0.3], [0.3, 0.3, 0.3]], ids=["1-wide", "3-wide"])
    def test_query_of_the_wrong_width_rejected(self, query):
        gp = fit([[0.2, 0.4], [0.7, 0.1]], [1.0, -1.0], KernelParams(1.0, 0.5, 1e-6))
        with pytest.raises(InvalidInputError):
            gp.posterior(query)

    def test_single_point_posterior_closed_form(self):
        gp = fit([[0.0]], [2.0], KernelParams(1.0, 1.0, 0.0))
        mean, var, _, _ = gp.posterior([1.0])
        assert mean == pytest.approx(2.0 * np.exp(-0.5), abs=1e-12)
        assert var == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_mean_gradient_vanishes_at_kernel_peak(self):
        gp = fit([[0.0]], [2.0], KernelParams(1.0, 1.0, 0.0))
        _, _, mean_grad, _ = gp.posterior([0.0])
        assert np.allclose(mean_grad, 0.0, atol=1e-12)

    def test_interpolation_invariant(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(15, 2))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        gp = fit(X, y, KernelParams(1.0, 0.5, 0.0))
        for xi, yi in zip(X, y):
            mean, var, _, _ = gp.posterior(xi)
            assert abs(mean - yi) <= 1e-8
            assert var <= 1e-8

    def test_train_means_within_noise_band(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(20, 1))
        y = np.sin(5 * X[:, 0])
        alpha = 1e-4
        gp = fit(X, y, KernelParams(1.0, 0.3, alpha))
        pred, _ = posterior_stack(gp, X)
        assert np.abs(pred - y).max() <= 3 * np.sqrt(alpha) + 1e-8

    def test_variance_bounds(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        params = KernelParams(2.5, 0.4, 0.05)
        gp = fit(X, y, params)
        _, variances = posterior_stack(gp, rng.uniform(size=(200, 2)))
        assert variances.min() >= 0.0
        assert variances.max() <= params.signal_variance + params.noise + 1e-12

    def test_posterior_gradients_match_finite_differences(self):
        # Targets are drawn from the GP prior so the posterior surface has the
        # kernel's own smoothness, and queries avoid interpolation-pinned
        # spots; otherwise the h=1e-6 central-difference oracle cannot itself
        # resolve 1e-5. The 1e-7 absolute escape is the oracle's noise floor.
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(4, 13)), int(rng.integers(1, 4))
            X = rng.uniform(size=(n, d))
            params = KernelParams(float(rng.uniform(0.5, 2.0)),
                                  float(rng.uniform(0.3, 1.0)), 1e-6)
            K = kernel_matrix(X, X, params) + 1e-8 * np.eye(n)
            y = np.linalg.cholesky(K) @ rng.normal(size=n)
            gp = fit(X, y, params)
            for _ in range(50):
                x0 = rng.uniform(0.05, 0.95, size=d)
                _, var, mean_grad, var_grad = gp.posterior(x0)
                if var >= 1e-3 * params.signal_variance:
                    break
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                mp, vp, _, _ = gp.posterior(x0 + e)
                mm, vm, _, _ = gp.posterior(x0 - e)
                for analytic, fd in ((mean_grad[k], (mp - mm) / (2 * h)),
                                     (var_grad[k], (vp - vm) / (2 * h))):
                    assert abs(analytic - fd) <= 1e-7 + 1e-5 * max(abs(fd), abs(analytic))

    def test_added_point_never_raises_variance(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(size=(8, 1))
        y = rng.normal(size=8)
        queries = rng.uniform(size=(50, 1))
        base = fit(X, y, KernelParams(1.0, 0.4, 0.0))
        _, var_before = posterior_stack(base, queries)
        X2 = np.vstack([X, [[0.5]]])
        y2 = np.append(y, 0.3)
        extended = fit(X2, y2, KernelParams(1.0, 0.4, 0.0))
        _, var_after = posterior_stack(extended, queries)
        assert np.all(var_after <= var_before + 1e-9)


class TestLogMarginalLikelihood:
    def test_closed_form_single_point(self):
        value = log_marginal_likelihood([[0.0]], [0.0], KernelParams(1.0, 1.0, 0.0))
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_zero_targets_prefer_small_signal(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = np.zeros(6)
        small = log_marginal_likelihood(X, y, KernelParams(0.1, 0.5, 1e-6))
        large = log_marginal_likelihood(X, y, KernelParams(10.0, 0.5, 1e-6))
        assert small > large

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(9, 2))
        y = rng.normal(size=9)
        params = KernelParams(1.7, 0.6, 1e-3)
        value = log_marginal_likelihood(X, y, params)
        K = kernel_matrix(X, X, params) + params.noise * np.eye(9)
        oracle = (-0.5 * y @ np.linalg.inv(K) @ y
                  - 0.5 * np.linalg.slogdet(K)[1]
                  - 0.5 * 9 * np.log(2 * np.pi))
        assert value == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_singular_kernel_raises(self):
        with pytest.raises(SingularKernelError):
            log_marginal_likelihood([[0.0], [0.0]], [0.0, 1.0],
                                    KernelParams(1.0, 1.0, 0.0))


class TestSelectHypers:
    def test_constant_targets_stay_finite(self):
        X = np.linspace(0, 1, 8)[:, None]
        params = select_hypers(X, np.full(8, 5.0), alpha_fixed=1e-8)
        assert np.isfinite(params.signal_variance) and params.signal_variance > 0
        assert np.isfinite(params.lengthscale) and params.lengthscale > 0

    def test_recovers_lengthscale_within_factor_two(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(40, 1))
        true = KernelParams(1.0, 0.3, 0.0)
        K = kernel_matrix(X, X, true) + 1e-10 * np.eye(40)
        y = np.linalg.cholesky(K) @ rng.normal(size=40)
        params = select_hypers(X, y, alpha_fixed=1e-8)
        assert 0.15 <= params.lengthscale <= 0.6

    def test_two_points_minimum(self):
        params = select_hypers([[0.0], [1.0]], [0.0, 1.0], alpha_fixed=1e-6)
        assert np.isfinite(params.signal_variance)
        with pytest.raises(InvalidInputError):
            select_hypers([[0.0]], [1.0], alpha_fixed=1e-6)

    def test_per_dimension_refines_given_isotropic_fit_only_beyond_1d(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(15, 1))
        y = np.sin(6 * X[:, 0])
        iso = select_hypers(X, y, alpha_fixed=1e-6)
        assert select_hypers(X, y, alpha_fixed=1e-6, isotropic=iso) == iso
        with pytest.raises(InvalidInputError):
            select_hypers(X, y, alpha_fixed=1e-6, isotropic=KernelParams(1.0, [0.5]))
        with pytest.raises(InvalidInputError):
            select_hypers(X, y, alpha_fixed=1e-6, start=KernelParams(1.0, [0.5]))

    def test_per_dimension_separates_relevant_inputs(self):
        # The target varies along x_0 only: ARD must shorten l_0 and lengthen
        # l_1 relative to the isotropic fit, and raise the likelihood.
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(40, 2))
        y = np.sin(8 * X[:, 0])
        iso = select_hypers(X, y, alpha_fixed=1e-6)
        ard = select_hypers(X, y, alpha_fixed=1e-6, isotropic=iso)
        assert ard.lengthscale.shape == (2,)
        assert ard.lengthscale[0] < iso.lengthscale < ard.lengthscale[1]
        assert ard.lengthscale[1] > 10 * ard.lengthscale[0]
        y_c = y - y.mean()
        assert (log_marginal_likelihood(X, y_c, ard)
                > log_marginal_likelihood(X, y_c, iso))
        # Warm-starting from the previous fit returns a fit at least as good.
        again = select_hypers(X, y, alpha_fixed=1e-6, isotropic=iso, start=ard)
        assert (log_marginal_likelihood(X, y_c, again)
                >= log_marginal_likelihood(X, y_c, ard) - 1e-9)

    def test_per_dimension_capped_while_noise_is_large(self):
        # With noise of the order of the signal, no lengthscale may leave the
        # isotropic one by more than ARD_MAX_RATIO.
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(40, 2))
        y = np.sin(8 * X[:, 0]) + 0.5 * rng.normal(size=40)
        iso = select_hypers(X, y, alpha_fixed=0.25)
        assert 0.25 >= 1e-2 * iso.signal_variance
        ard = select_hypers(X, y, alpha_fixed=0.25, isotropic=iso)
        assert np.all(ard.lengthscale <= ARD_MAX_RATIO * iso.lengthscale * (1 + 1e-9))


class TestSelectAlphaCv:
    def test_grid_is_21_half_decades(self):
        assert len(ALPHA_GRID) == 21
        assert ALPHA_GRID[0] == pytest.approx(1e-10)
        assert ALPHA_GRID[-1] == pytest.approx(1.0)
        ratios = np.diff(np.log10(ALPHA_GRID))
        assert np.allclose(ratios, 0.5)

    def test_smooth_targets_pick_tiny_alpha(self):
        X = np.linspace(0, 1, 30)[:, None]
        y = np.sin(3 * X[:, 0])
        assert select_alpha_cv(X, y) <= 1e-6

    def test_conflicting_duplicates_need_positive_alpha(self):
        X = np.repeat(np.linspace(0, 1, 10), 2)[:, None]
        rng = np.random.default_rng(6)
        y = np.sin(2 * X[:, 0]) + 0.3 * rng.normal(size=20)
        assert select_alpha_cv(X, y) > 1e-10

    def test_ties_go_to_the_larger_alpha(self):
        # Zero targets give every alpha a mean squared error of exactly 0.
        X = np.linspace(0, 1, 12)[:, None]
        assert select_alpha_cv(X, np.zeros(12)) == ALPHA_GRID[-1]

    def test_too_few_points_fall_back(self):
        assert select_alpha_cv([[0.0], [1.0]], [0.0, 1.0]) == pytest.approx(1e-6)

    @pytest.mark.parametrize("kernel", [None, KernelParams(0.8, 0.3)],
                             ids=["heuristic", "isotropic"])
    @pytest.mark.parametrize("d", [1, 2, 11])
    def test_matches_one_fit_per_alpha_and_fold(self, d, kernel):
        rng = np.random.default_rng(40 + d)
        for n in (5, 6, 9, 14, 23, 37, 60):
            X = rng.uniform(size=(n, d))
            y = np.sin(3 * X.sum(axis=1)) + float(rng.uniform(0, 0.3)) * rng.normal(size=n)
            assert select_alpha_cv(X, y, kernel=kernel) == alpha_cv_by_refits(X, y, kernel)

    @pytest.mark.parametrize("kernel", [None, KernelParams(1e6, 0.5)],
                             ids=["heuristic", "isotropic"])
    def test_duplicated_rows_skip_the_alphas_that_cannot_factor(self, kernel):
        # Each point appears twice and the target variance exceeds the
        # signal-variance cap of 1e6, so the duplicated kernel rows make the
        # smallest alphas unfactorable.
        rng = np.random.default_rng(9)
        for n in (10, 24, 40):
            X = np.repeat(rng.uniform(size=(n // 2, 2)), 2, axis=0)
            y = 1e4 * (np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n))
            with pytest.raises(SingularKernelError):
                fit(X, y, KernelParams(1e6, 0.5, ALPHA_GRID[0]))
            alpha = select_alpha_cv(X, y, kernel=kernel)
            assert alpha == alpha_cv_by_refits(X, y, kernel)
            assert alpha > ALPHA_GRID[0]


@pytest.mark.parametrize("targets", [np.zeros(9), np.where(np.arange(10) == 7, np.nan, 1.0)],
                         ids=["length-mismatch", "non-finite"])
@pytest.mark.parametrize("entry", [
    lambda X, y: fit(X, y, KernelParams(1.0, 0.3, 1e-6)),
    lambda X, y: log_marginal_likelihood(X, y, KernelParams(1.0, 0.3, 1e-6)),
    lambda X, y: select_hypers(X, y, 1e-6),
    select_alpha_cv,
], ids=["fit", "log_marginal_likelihood", "select_hypers", "select_alpha_cv"])
def test_bad_targets_rejected(entry, targets):
    # Ten inputs against nine targets, or a NaN target: every GP entry point
    # refuses them before any kernel work.
    with pytest.raises(InvalidInputError):
        entry(np.linspace(0, 1, 10)[:, None], targets)
