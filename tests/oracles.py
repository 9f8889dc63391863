"""Reference implementations that the tests compare the package against."""

import numpy as np
from scipy.spatial.distance import pdist

from oed.algorithms import MAX_INIT_RESAMPLES
from oed.designs import (
    criterion_value,
    directional_derivatives,
    fisher_at_points,
    information_matrix,
    is_invertible,
)
from oed.exceptions import InitializationError, InvalidInputError, SingularKernelError
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
from oed.yeast import DEFAULT_STEP_H, DEFAULT_Y2_0, PIECE_H, SAMPLE_EVERY_H, T_END_H


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


def fisher_by_point(jacobians, sigma=None):
    """Per-point Fisher matrices ``J P J^T`` (P the precision, identity when
    ``sigma`` is None), one 2-D product per row of the ``(n, d_theta, d_y)``
    stack, each symmetrized as ``0.5 (mu + mu^T)``."""
    out = []
    for J in np.asarray(jacobians, dtype=float):
        mu = J @ J.T if sigma is None else J @ sigma.precision @ J.T
        out.append(0.5 * (mu + mu.T))
    return np.array(out)


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


def vdm_by_stack(model, grid, cfg):
    """VDM with a candidate stack grown by one Fisher matrix per new point.

    The same random start as the package draws; iteration k moves weight
    ``1/(n0 + k)`` to the phi-minimizing grid point, merged by position into
    a re-selected point, and the weights are normalized once at the end.
    Returns the support points, weights, objective trace and the final
    information matrix.
    """
    grid = np.asarray(grid, dtype=float)
    mus = fisher_at_points(model.jacobian_batch(grid), cfg.sigma_eps)
    n0 = cfg.n_initial if cfg.n_initial is not None else model.d_theta + 1
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(MAX_INIT_RESAMPLES):
        idx0 = np.sort(rng.choice(grid.shape[0], size=n0, replace=False))
        if is_invertible(mus[idx0].mean(axis=0)):
            break
    else:
        raise InitializationError("no invertible initial information matrix")
    keys, cand = idx0.tolist(), mus[idx0]
    position = {key: i for i, key in enumerate(keys)}
    w = np.full(n0, 1.0 / n0)
    M = cand.mean(axis=0)
    trace = []
    for k in range(1, cfg.max_iterations + 1):
        trace.append(criterion_value(M, cfg.criterion))
        phi = directional_derivatives(M, mus, cfg.criterion)
        j = int(np.argmin(phi))
        if phi[j] > -cfg.epsilon:
            break
        alpha = 1.0 / (n0 + k)
        w *= 1.0 - alpha
        M = (1.0 - alpha) * M + alpha * mus[j]
        if j in position:
            w[position[j]] += alpha
            continue
        position[j] = len(keys)
        w = np.append(w, alpha)
        keys.append(j)
        cand = np.concatenate([cand, mus[j][None]])
    w = w / w.sum()
    return grid[keys], w, np.asarray(trace), information_matrix(w, cand)


def sensitivity_by_stack(xs, theta, y2_0=DEFAULT_Y2_0, substrate_form="as-printed",
                         h=DEFAULT_STEP_H):
    """Yeast Jacobians (n, 4, 20) from RK4 forward sensitivities on a (10, n)
    stack, updated in place with ``out=`` products and one reused stage
    buffer, in the operation order of the textbook RK4 step."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    th1, th2, th3, th4 = (float(t) for t in theta)
    as_printed = substrate_form == "as-printed"
    per_sample, per_piece = round(SAMPLE_EVERY_H / h), round(PIECE_H / h)
    total = round(T_END_H / h)

    def rhs(z, u1, u2):
        b, s = z[0], z[1]
        sb, ss = z[2:6], z[6:10]
        den = th2 + s
        q = s / den
        r = th1 * q
        r_theta2 = -r / den
        r_s = (th1 - r) / den
        g = (u1 if as_printed else b) / th3
        dz = np.empty_like(z)
        r_state = th1 * s / (th2 + s)
        dz[0] = (r_state - u1 - th4) * b
        dz[1] = -(r_state * (u1 if as_printed else b) / th3) + u1 * (u2 - s)
        dsb, dss = dz[2:6], dz[6:10]
        np.multiply(r - u1 - th4, sb, out=dsb)
        dsb += (r_s * b) * ss
        np.multiply(-(r_s * g) - u1, ss, out=dss)
        if not as_printed:
            dss -= (r / th3) * sb
        dsb[0] += q * b
        dsb[1] += r_theta2 * b
        dsb[3] -= b
        dss[0] -= q * g
        dss[1] -= r_theta2 * g
        dss[2] += r * g / th3
        return dz

    n = xs.shape[0]
    state = np.zeros((10, n))
    state[0] = xs[:, 0]
    state[1] = y2_0
    samples = np.empty((total // per_sample, 10, n))
    stage = np.empty_like(state)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(total):
            piece = min(k // per_piece, 4)
            u1, u2 = xs[:, 1 + piece], xs[:, 6 + piece]
            k1 = rhs(state, u1, u2)
            np.multiply(k1, 0.5 * h, out=stage)
            stage += state
            k2 = rhs(stage, u1, u2)
            np.multiply(k2, 0.5 * h, out=stage)
            stage += state
            k3 = rhs(stage, u1, u2)
            np.multiply(k3, h, out=stage)
            stage += state
            k4 = rhs(stage, u1, u2)
            k2 *= 2.0
            k3 *= 2.0
            k1 += k2
            k1 += k3
            k1 += k4
            k1 *= h / 6.0
            state += k1
            if (k + 1) % per_sample == 0:
                samples[(k + 1) // per_sample - 1] = state
    return samples[:, 2:].reshape(10, 2, 4, n).transpose(3, 2, 1, 0).reshape(n, 4, 20)
