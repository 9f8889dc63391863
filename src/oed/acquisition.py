"""Sobol point streams and acquisition minimization on the unit cube.

The acquisition value is ``tau * posterior_mean - posterior_variance`` with
``tau`` in {0, 1}: minimizing it at tau=1 balances predicted directional
derivative against surrogate uncertainty, at tau=0 it reduces to pure
variance maximization (approximation repair). :func:`minimize_acquisition`
takes the surrogate, tau and its multistart points; ADA-GPR draws those
from a :class:`SobolStream`, one unscrambled scipy engine per run.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

from .exceptions import InvalidInputError, UnsupportedDimensionError
from .gp import GPState

MAX_SOBOL_DIM = 21201  # Joe-Kuo direction-number table size in scipy
LOCAL_MAXITER = 200
LOCAL_GTOL = 1e-8


class SobolStream:
    """Deterministic stream over the standard Sobol sequence (zero point skipped).

    One unscrambled engine serves the whole stream, so consecutive ``next``
    calls continue the sequence: drawing 2 then 1 equals drawing 3 at once.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dim}")
        if dim > MAX_SOBOL_DIM:
            raise UnsupportedDimensionError(
                f"Sobol direction numbers available up to dimension "
                f"{MAX_SOBOL_DIM}, requested {dim}"
            )
        from scipy.stats import qmc  # ~0.4 s to import; only ADA-GPR draws Sobol points
        self._engine = qmc.Sobol(dim, scramble=False)
        self._engine.fast_forward(1)  # skips the all-zeros point

    def next(self, count: int) -> np.ndarray:
        """Next ``count`` points, shape (count, dim)."""
        if count < 1:
            raise InvalidInputError(f"count must be >= 1, got {count}")
        with warnings.catch_warnings():
            # Drawing non-power-of-two batches trips a balance warning that
            # does not apply to this sequential use.
            warnings.simplefilter("ignore", UserWarning)
            return self._engine.random(count)


def acquisition_value(gp: GPState, tau: float, x) -> tuple[float, np.ndarray]:
    """Value ``tau*mean - variance`` and its exact gradient at ``x``."""
    mean, var, mean_grad, var_grad = gp.posterior(x)
    value = tau * mean - var
    grad = tau * mean_grad - var_grad
    return float(value), grad


def minimize_acquisition(gp: GPState, tau: float, starts) -> np.ndarray:
    """Best local minimizer of the acquisition over [0,1]^d from ``starts``.

    Runs a bounded quasi-Newton (L-BFGS-B, analytic gradients) from each row
    of ``starts`` and returns the best point seen, including the raw starts,
    clipped to the cube. Deterministic for a fixed surrogate, tau and starts.
    """
    starts = np.atleast_2d(starts)
    bounds = [(0.0, 1.0)] * starts.shape[1]

    best_x, best_f = None, np.inf
    any_local_ok = False
    for x0 in starts:
        f0, _ = acquisition_value(gp, tau, x0)
        if np.isfinite(f0) and f0 < best_f:
            best_x, best_f = np.array(x0), f0
        try:
            res = minimize(lambda z: acquisition_value(gp, tau, z), x0, jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": LOCAL_MAXITER, "gtol": LOCAL_GTOL})
        except Exception:  # pragma: no cover - scipy failures degrade to starts
            continue
        if np.isfinite(res.fun):
            any_local_ok = True
            if res.fun < best_f:
                best_x, best_f = res.x, float(res.fun)
    if best_x is None:
        raise InvalidInputError("acquisition non-finite at every start")
    if not any_local_ok:
        warnings.warn("all local acquisition runs failed; returning best start",
                      RuntimeWarning)
    return np.clip(best_x, 0.0, 1.0)
