"""Reference implementations that the tests compare the package against."""

import numpy as np
from scipy.spatial.distance import pdist

from oed.exceptions import InvalidInputError, SingularKernelError
from oed.flash import T_BRACKET_K, _bubble_residual, _vapor_fraction
from oed.gp import (
    ALPHA_GRID,
    CV_FOLDS,
    DEFAULT_ALPHA,
    SIGNAL_VARIANCE_BOUNDS,
    KernelParams,
    fit,
    kernel_matrix,
)
from oed.yeast import PIECE_H, T_END_H


def control_at(u_steps, t: float) -> float:
    """Step-function control value at time t: piece j covers [4j, 4(j+1))."""
    u = np.asarray(u_steps, dtype=float).ravel()
    if u.shape[0] != 5:
        raise InvalidInputError(f"expected 5 control steps, got {u.shape[0]}")
    if not 0.0 <= t <= T_END_H:
        raise InvalidInputError(f"t={t} outside [0, {T_END_H}] h")
    j = 4 if t == T_END_H else int(t // PIECE_H)
    return float(u[j])


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step for dy/dt = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bubble_point_batch_64(x_m, P_pa, nrtl, substances):
    """Bubble points (y_m_vap, T_celsius) by exactly 64 bisection halvings of
    the temperature bracket, with no bracket or finiteness checks."""
    lo = np.full_like(x_m, T_BRACKET_K[0])
    hi = np.full_like(x_m, T_BRACKET_K[1])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        neg = _bubble_residual(mid, x_m, P_pa, nrtl, substances) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    T = 0.5 * (lo + hi)
    return _vapor_fraction(T, x_m, P_pa, nrtl, substances), T - 273.15


def posterior_stack(gp, X):
    """Posterior means and variances at the rows of X, one ``posterior``
    call per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    moments = np.array([gp.posterior(x)[:2] for x in X]).reshape(-1, 2)
    return moments[:, 0], moments[:, 1]


def alpha_cv_by_refits(X, y, kernel=None):
    """Noise CV by one full ``fit`` per alpha and fold (105 fits per call).

    A fold scores the squared error of ``K(test, train) @ K_noisy^-1 y``, the
    posterior means a batch prediction computes, summed over all folds and
    divided by n; ties go to the larger alpha, an alpha that some fold cannot
    factor is skipped. Each fold's (sigma_f^2, l) is ``kernel``'s, else the
    median positive training distance and the clipped target variance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if n < CV_FOLDS:
        return DEFAULT_ALPHA
    best_alpha, best_mse = DEFAULT_ALPHA, np.inf
    for alpha in ALPHA_GRID:
        total = 0.0
        try:
            for fold in range(CV_FOLDS):
                test = np.arange(n) % CV_FOLDS == fold
                train = ~test
                if kernel is not None:
                    sf2, ell = kernel.signal_variance, kernel.lengthscale
                else:
                    dists = pdist(X[train])
                    positive = dists[dists > 0]
                    ell = float(np.median(positive)) if positive.size else 1.0
                    sf2 = float(np.clip(np.var(y[train]), *SIGNAL_VARIANCE_BOUNDS))
                state = fit(X[train], y[train], KernelParams(sf2, ell, alpha))
                pred = kernel_matrix(X[test], state.X, state.params) @ state._alpha_vec
                total += float(np.sum((pred - y[test]) ** 2))
        except SingularKernelError:
            continue
        if total / n <= best_mse:
            best_alpha, best_mse = alpha, total / n
    return best_alpha
