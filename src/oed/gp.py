"""Exact Gaussian-process regression with a squared-exponential kernel.

The kernel has one lengthscale (isotropic) or one per input dimension
(automatic relevance determination, ARD).

Posterior mean/variance follow the zero-mean conditioning formulas with the
white-noise term ``alpha`` added to the training diagonal only; predictions
are noise-free latent-function estimates, one query point at a time, with
the analytic query-point gradients the acquisition optimizer consumes; there
is no batch ``predict``. ``K0 + alpha*I`` is factored in one place,
:func:`_factor`; noise CV builds each fold's kernel once and scores means only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize
from scipy.spatial.distance import cdist, pdist

from .exceptions import InvalidInputError, SingularKernelError

logger = logging.getLogger(__name__)

SIGNAL_VARIANCE_BOUNDS = (1e-6, 1e6)
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
# Deterministic log-space lengthscale restarts for hyper-parameter selection.
LENGTHSCALE_STARTS = (0.03, 0.1, 0.3, 1.0, 3.0)
# While the noise is at least this share of the isotropic signal variance,
# per-dimension lengthscales stay at most ARD_MAX_RATIO times the isotropic
# one. With that much noise the likelihood cannot tell an irrelevant input
# from noise: it would push the input's lengthscale far past the unit cube,
# where the kernel no longer varies along it and the surrogate's variance
# stops guiding the search there.
ARD_NOISY_SHARE = 1e-2
ARD_MAX_RATIO = 10.0
ALPHA_GRID = tuple(10.0 ** (-10.0 + 0.5 * k) for k in range(21))
DEFAULT_ALPHA = 1e-6
CV_FOLDS = 5


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential hyper-parameters: sigma_f^2, lengthscale, noise.

    ``lengthscale`` is one float (isotropic kernel) or a 1-D array with one
    entry per input dimension (automatic relevance determination, ARD); the
    array is stored read-only.
    """

    signal_variance: float
    lengthscale: float | np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        if not (self.signal_variance > 0 and np.isfinite(self.signal_variance)):
            raise InvalidInputError(f"signal_variance must be > 0, got {self.signal_variance}")
        ell = self.lengthscale
        if np.ndim(ell) > 0:
            ell = np.array(ell, dtype=float)
            if ell.ndim != 1 or ell.size == 0:
                raise InvalidInputError("lengthscale must be a scalar or a 1-D array")
            ell.flags.writeable = False
            object.__setattr__(self, "lengthscale", ell)
        if not (np.all(ell > 0) and np.all(np.isfinite(ell))):
            raise InvalidInputError(f"lengthscale must be > 0, got {self.lengthscale}")
        if not (self.noise >= 0 and np.isfinite(self.noise)):
            raise InvalidInputError(f"noise must be >= 0, got {self.noise}")


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("inputs contain non-finite entries")
    return X


def _check_dims(X, params: KernelParams) -> None:
    ell = params.lengthscale
    if np.ndim(ell) and ell.size != X.shape[1]:
        raise InvalidInputError(
            f"{ell.size} lengthscales for {X.shape[1]}-dimensional inputs")


def kernel_matrix(X_a, X_b, params: KernelParams) -> np.ndarray:
    """Cross-covariance ``sigma_f^2 exp(-sum_k (x_k - y_k)^2 / (2 l_k^2))``.

    An isotropic kernel has ``l_k = l`` for every dimension. The white-noise
    term is never added here; it only enters the training diagonal inside
    :func:`_factor`.
    """
    A, B = _as_points(X_a), _as_points(X_b)
    _check_dims(A, params)
    ell = params.lengthscale
    if np.ndim(ell):
        sq = cdist(A / ell, B / ell, metric="sqeuclidean")
        return params.signal_variance * np.exp(-0.5 * sq)
    sq = cdist(A, B, metric="sqeuclidean")
    return params.signal_variance * np.exp(-0.5 * sq / ell**2)


class GPState:
    """Fitted GP: immutable after construction, cheap posterior queries."""

    def __init__(self, X, params, chol, alpha_vec):
        self.X = X
        self.params = params
        self._chol = chol
        self._alpha_vec = alpha_vec
        self._l2 = params.lengthscale**2

    def posterior(self, x):
        """Posterior (mean, variance, mean_gradient, variance_gradient) at x."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.X.shape[1]:
            raise InvalidInputError(
                f"{x.size}-wide query for a GP on {self.X.shape[1]}-dimensional inputs")
        diff = self.X - x  # (n, d)
        l2 = self._l2
        if np.ndim(l2):
            sq = np.einsum("nd,nd->n", diff, diff / l2)
            k_star = self.params.signal_variance * np.exp(-0.5 * sq)
        else:
            sq = np.einsum("nd,nd->n", diff, diff)
            k_star = self.params.signal_variance * np.exp(-0.5 * sq / l2)
        mean = float(k_star @ self._alpha_vec)
        v = cho_solve(self._chol, k_star)
        var = max(float(self.params.signal_variance - k_star @ v), 0.0)
        grad_k = (diff * k_star[:, None]) / l2  # (n, d): d k_i / d x
        mean_grad = grad_k.T @ self._alpha_vec
        var_grad = -2.0 * (grad_k.T @ v)
        return mean, var, mean_grad, var_grad


def _as_data(X_t, y):
    X = _as_points(X_t)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise InvalidInputError("X_t and y lengths differ")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("targets contain non-finite entries")
    return X, y


def fit(X_t, y, params: KernelParams) -> GPState:
    """Fit the exact GP posterior; O(n^3) once, O(n^2)-ish queries after."""
    X, y = _as_data(X_t, y)
    if X.shape[0] < 1:
        raise InvalidInputError("need at least one training point")
    chol = _factor(kernel_matrix(X, X, params), params.noise)
    return GPState(X, params, chol, cho_solve(chol, y))


def _factor(K0, noise):
    """Lower Cholesky factor of ``K0 + noise*I`` (``K0`` is not modified)."""
    K = K0.copy()
    K[np.diag_indices_from(K)] += noise
    try:
        return cho_factor(K, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularKernelError(
            f"kernel matrix not positive definite (n={K.shape[0]}, "
            f"noise={noise:g}): {exc}"
        ) from exc


def log_marginal_likelihood(X_t, y, params: KernelParams) -> float:
    """Gaussian log marginal likelihood of ``y`` under the kernel (larger is better)."""
    X, y = _as_data(X_t, y)
    _check_dims(X, params)
    sq = _sq_differences(X, np.ndim(params.lengthscale) > 0)
    return _lml_with_grad(sq, y, params.signal_variance, params.lengthscale,
                          params.noise)[0]


def _sq_differences(X, per_dimension: bool) -> np.ndarray:
    """Squared input differences: the (n, n) sum over dimensions, or the
    (d, n, n) per-dimension tensor that an ARD kernel needs."""
    if not per_dimension:
        return cdist(X, X, metric="sqeuclidean")
    diff = X.T[:, :, None] - X.T[:, None, :]
    return diff * diff


def _cho_inverse(chol) -> np.ndarray:
    """Symmetric inverse from a lower Cholesky factor (LAPACK ``dpotri``)."""
    inv, info = dpotri(chol[0], lower=True)
    if info != 0:
        raise SingularKernelError(f"dpotri failed with info={info}")
    lower = np.tril(inv)
    return lower + np.tril(lower, -1).T


def _lml_with_grad(sq, y, sf2, ell, noise):
    """LML and its gradient w.r.t. (log sigma_f^2, log l_1, ..., log l_d).

    ``sq`` comes from :func:`_sq_differences`: the (n, n) squared distances
    for a scalar ``ell``, the (d, n, n) per-dimension tensor for a vector.
    The per-dimension gradient takes ``K^-1`` from LAPACK ``dpotri``; the
    scalar one keeps the triangular solve against the identity, which rounds
    differently, so that isotropic fits stay bit-identical to earlier
    releases.
    """
    n = y.shape[0]
    per_dimension = np.ndim(ell) > 0
    if per_dimension:
        inv_l2 = 1.0 / ell**2
        K0 = sf2 * np.exp(-0.5 * np.tensordot(inv_l2, sq, axes=1))
    else:
        K0 = sf2 * np.exp(-0.5 * sq / ell**2)  # noiseless part
    chol = _factor(K0, noise)
    alpha_vec = cho_solve(chol, y, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    value = -0.5 * float(y @ alpha_vec) - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
    if per_dimension:
        # d K / d log(l_k) = K0 * sq_k / l_k^2: one contraction over all pairs.
        WK = (np.outer(alpha_vec, alpha_vec) - _cho_inverse(chol)) * K0
        grad_ell = 0.5 * inv_l2 * (sq.reshape(sq.shape[0], -1) @ WK.ravel())
        return value, np.concatenate([[0.5 * float(WK.sum())], grad_ell])
    W = np.outer(alpha_vec, alpha_vec) - cho_solve(chol, np.eye(n), check_finite=False)
    # d K / d log(sigma_f^2) = K0 and d K / d log(l) = K0 * sq / l^2.
    return value, np.array([0.5 * np.einsum("ij,ij->", W, K0),
                            0.5 * np.einsum("ij,ij->", W, K0 * (sq / ell**2))])


def _maximize_lml(sq, y_c, alpha_fixed, starts, log_bounds):
    """Best L-BFGS-B local maximum of the LML over the log-space starts.

    Returns ``(negative LML, log parameters)``, or None when every start
    fails. A start outside the bounds is moved onto them.
    """
    lower, upper = np.array(log_bounds).T

    def negative_lml(theta):
        e = np.exp(theta)
        ell = e[1:] if sq.ndim == 3 else e[1]
        try:
            value, grad = _lml_with_grad(sq, y_c, e[0], ell, alpha_fixed)
        except SingularKernelError:
            # Treat a non-factorizable trial kernel as a very bad point so the
            # line search backtracks instead of aborting the restart.
            return 1e25, np.zeros(theta.size)
        return -value, -grad

    best = None
    for theta0 in starts:
        res = minimize(negative_lml, np.clip(theta0, lower, upper), jac=True,
                       method="L-BFGS-B", bounds=log_bounds,
                       options={"maxiter": 100})
        if not np.isfinite(res.fun) or res.fun >= 1e25:
            continue
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x)
    return best


def select_hypers(X_t, y, alpha_fixed: float, *,
                  start: KernelParams | None = None,
                  isotropic: KernelParams | None = None) -> KernelParams:
    """Maximize the log marginal likelihood over sigma_f^2 and the
    lengthscale(s), with the noise ``alpha_fixed`` held fixed.

    Without ``isotropic``, one shared lengthscale: multistart L-BFGS-B in log
    space from deterministic restarts (plus the optional ``start`` pair, used
    to warm-start successive refits). Falls back to ``(var(y), 1.0)`` with a
    logged warning when every restart fails.

    Given ``isotropic``, an isotropic fit to the same data and noise, one
    lengthscale per input dimension (ARD) is refined from it.
    L-BFGS-B runs from that fit, with every dimension at its lengthscale, and
    from ``start`` when that is itself a per-dimension fit; the larger
    likelihood wins. Each lengthscale stays within
    ``LENGTHSCALE_BOUNDS`` and, while the noise is at least
    ``ARD_NOISY_SHARE`` of the isotropic signal variance, at most
    ``ARD_MAX_RATIO`` times the isotropic lengthscale. The isotropic fit is
    returned for one-dimensional inputs and when every start fails.
    """
    X, y = _as_data(X_t, y)
    if X.shape[0] < 2:
        raise InvalidInputError("hyper-parameter selection needs n >= 2")
    if isotropic is not None:
        if np.ndim(isotropic.lengthscale):
            raise InvalidInputError("isotropic must be a one-lengthscale fit")
        if X.shape[1] == 1:
            return isotropic
        return _refine_per_dimension(X, y - y.mean(), alpha_fixed, isotropic, start)
    if start is not None and np.ndim(start.lengthscale):
        raise InvalidInputError("an isotropic fit needs an isotropic start")
    y_c = y - y.mean()
    var_y = float(np.clip(y_c.var(), *SIGNAL_VARIANCE_BOUNDS))

    log_bounds = [np.log(SIGNAL_VARIANCE_BOUNDS), np.log(LENGTHSCALE_BOUNDS)]
    starts = []
    if start is not None:
        starts.append((start.signal_variance, start.lengthscale))
    starts.extend(
        (var_y, float(np.clip(l0, *LENGTHSCALE_BOUNDS))) for l0 in LENGTHSCALE_STARTS
    )
    best = _maximize_lml(_sq_differences(X, False), y_c, alpha_fixed,
                         [np.log(s) for s in starts], log_bounds)
    if best is None:
        logger.warning("all hyper-parameter restarts failed; falling back to "
                       "(var(y), 1.0)")
        return KernelParams(var_y, 1.0, alpha_fixed)
    sf2, ell = np.exp(best[1])
    return KernelParams(float(sf2), float(ell), alpha_fixed)


def _refine_per_dimension(X, y_c, alpha_fixed, isotropic: KernelParams,
                          start: KernelParams | None) -> KernelParams:
    d = X.shape[1]
    log_ell = np.log(isotropic.lengthscale)
    log_lo, log_hi = np.log(LENGTHSCALE_BOUNDS)
    if alpha_fixed >= ARD_NOISY_SHARE * isotropic.signal_variance:
        log_hi = min(log_hi, log_ell + np.log(ARD_MAX_RATIO))
    log_bounds = [tuple(np.log(SIGNAL_VARIANCE_BOUNDS))] + [(log_lo, log_hi)] * d
    starts = [np.concatenate([[np.log(isotropic.signal_variance)],
                              np.full(d, log_ell)])]
    if start is not None and np.ndim(start.lengthscale):
        _check_dims(X, start)
        starts.append(np.log(np.concatenate([[start.signal_variance],
                                             start.lengthscale])))
    best = _maximize_lml(_sq_differences(X, True), y_c, alpha_fixed, starts,
                         log_bounds)
    if best is None:
        return isotropic
    e = np.exp(best[1])
    return KernelParams(float(e[0]), e[1:], alpha_fixed)


def select_alpha_cv(X_t, y, *, kernel: KernelParams | None = None) -> float:
    """Pick the white-noise level from the 21-value grid by 5-fold CV.

    Folds are formed by index stride; the mean squared error of the posterior
    means decides, with ties broken toward the larger alpha, and an alpha
    that some fold cannot factor is skipped. With fewer than 5 points the
    default ``1e-6`` is returned with a logged warning. Each fold's kernel is
    built once, from ``kernel``'s (sigma_f^2, l) when given, else from a
    median-distance / target-variance heuristic.
    """
    X, y = _as_data(X_t, y)
    n = y.shape[0]
    if n < CV_FOLDS:
        logger.warning("select_alpha_cv needs n >= %d, got %d; using default %g",
                       CV_FOLDS, n, DEFAULT_ALPHA)
        return DEFAULT_ALPHA
    folds = []  # (K0 train-train, K_star test-train, y_train, y_test)
    for fold in range(CV_FOLDS):
        test = np.arange(n) % CV_FOLDS == fold
        X_train, y_train = X[~test], y[~test]
        params = kernel
        if params is None:
            dists = pdist(X_train)
            positive = dists[dists > 0]
            params = KernelParams(
                float(np.clip(np.var(y_train), *SIGNAL_VARIANCE_BOUNDS)),
                float(np.median(positive)) if positive.size else 1.0)
        folds.append((kernel_matrix(X_train, X_train, params),
                      kernel_matrix(X[test], X_train, params), y_train, y[test]))
    best_alpha, best_mse = None, np.inf
    for alpha in ALPHA_GRID:
        try:
            total = sum(
                float(np.sum((K_star @ cho_solve(_factor(K0, alpha), y_train)
                              - y_test) ** 2))
                for K0, K_star, y_train, y_test in folds)
        except SingularKernelError:
            continue
        mse = total / n
        if mse <= best_mse:  # ties resolve toward larger alpha (grid ascends)
            best_alpha, best_mse = alpha, mse
    if best_alpha is None:
        logger.warning("every alpha failed cross-validation; using default %g",
                       DEFAULT_ALPHA)
        return DEFAULT_ALPHA
    return best_alpha
