"""Sobol point streams and acquisition minimization on the unit cube.

The acquisition value is ``tau * posterior_mean - posterior_variance`` with
``tau`` in {0, 1}: minimizing it at tau=1 balances predicted directional
derivative against surrogate uncertainty, at tau=0 it reduces to pure
variance maximization (approximation repair).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .exceptions import InvalidInputError, UnsupportedDimensionError
from .gp import GPState

MAX_SOBOL_DIM = 21201  # Joe-Kuo direction-number table size in scipy
LOCAL_MAXITER = 200
LOCAL_GTOL = 1e-8


class SobolStream:
    """Deterministic stream over the standard Sobol sequence (zero point skipped).

    ``index`` counts points already emitted; consecutive ``next`` calls
    continue the sequence, so drawing 2 then 1 equals drawing 3 at once.
    """

    def __init__(self, dim: int, index: int = 0):
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dim}")
        if dim > MAX_SOBOL_DIM:
            raise UnsupportedDimensionError(
                f"Sobol direction numbers available up to dimension "
                f"{MAX_SOBOL_DIM}, requested {dim}"
            )
        if index < 0:
            raise InvalidInputError("index must be nonnegative")
        self.dim = dim
        self.index = index

    def next(self, count: int) -> np.ndarray:
        """Next ``count`` points, shape (count, dim), advancing the index."""
        if count < 1:
            raise InvalidInputError(f"count must be >= 1, got {count}")
        with warnings.catch_warnings():
            # Drawing non-power-of-two batches trips a balance warning that
            # does not apply to this sequential use.
            warnings.simplefilter("ignore", UserWarning)
            engine = qmc.Sobol(self.dim, scramble=False)
            engine.fast_forward(1 + self.index)  # +1 skips the all-zeros point
            points = engine.random(count)
        self.index += count
        return points


@dataclass(frozen=True)
class AcquisitionSpec:
    """Surrogate plus the exploration toggle; the domain is [0, 1]^d."""

    gp: GPState
    tau: float

    def __post_init__(self):
        if self.tau not in (0.0, 1.0, 0, 1):
            raise InvalidInputError(f"tau must be 0 or 1, got {self.tau}")


def acquisition_value(spec: AcquisitionSpec, x) -> tuple[float, np.ndarray]:
    """Value ``tau*mean - variance`` and its exact gradient at ``x``."""
    mean, var, mean_grad, var_grad = spec.gp.posterior(x)
    value = spec.tau * mean - var
    grad = spec.tau * mean_grad - var_grad
    return float(value), grad


def minimize_acquisition(spec: AcquisitionSpec, stream: SobolStream,
                         n_starts: int = 10) -> np.ndarray:
    """Best local minimizer of the acquisition over [0,1]^d from Sobol starts.

    Runs a bounded quasi-Newton (L-BFGS-B, analytic gradients) from
    ``n_starts`` fresh stream points and returns the best point seen,
    including the raw starts, clipped to the cube. Deterministic for a fixed
    surrogate, tau and stream index.
    """
    if n_starts < 1:
        raise InvalidInputError("n_starts must be >= 1")
    dim = stream.dim
    starts = stream.next(n_starts)
    bounds = [(0.0, 1.0)] * dim

    best_x, best_f = None, np.inf
    any_local_ok = False
    for x0 in starts:
        f0, _ = acquisition_value(spec, x0)
        if np.isfinite(f0) and f0 < best_f:
            best_x, best_f = np.array(x0), f0
        try:
            res = minimize(lambda z: acquisition_value(spec, z), x0, jac=True,
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
