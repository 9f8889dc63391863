"""Forward-model abstraction, finite-difference Jacobians and the quadratic toy.

A :class:`ModelHandle` evaluates ``f(x, theta)`` on a box-bounded design space
and exposes Jacobians with respect to the parameters. Models may provide an
analytic parameter Jacobian, which takes precedence; otherwise central finite
differences are used. Evaluation counters back the per-run bookkeeping that
reports compare against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NonFiniteModelError

FD_REL_STEP = 1e-6


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounds; also maps between original and unit-cube coordinates."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise InvalidInputError("lower/upper bound shapes differ")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise InvalidInputError("bounds must be finite")
        if np.any(hi <= lo):
            raise InvalidInputError("upper bounds must exceed lower bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, atol: float = 1e-9) -> bool:
        """Whether the point ``x``, or every row of a stack of points, lies in
        the box widened by ``atol``."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def to_unit(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lower) / (self.upper - self.lower)

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * (self.upper - self.lower)


class ModelHandle:
    """Base forward model with eval/jacobian counters.

    Subclasses implement ``_eval_impl(x, theta) -> y`` (deterministic, pure)
    and may override ``_analytic_jacobian(x)`` to bypass finite differences.
    Counter contract: ``eval`` adds one model evaluation; each ``jacobian``
    call adds one Jacobian evaluation (plus ``2 d_theta`` model evaluations on
    the finite-difference path). Increments are lock-guarded so concurrent
    evaluation of distinct points keeps exact counts.
    """

    def __init__(self, bounds: Box, theta_nominal, coord_names=None,
                 output_names=None):
        self.bounds = bounds
        self.theta_nominal = np.asarray(theta_nominal, dtype=float).ravel()
        self.coord_names = (list(coord_names) if coord_names is not None
                            else [f"x{i + 1}" for i in range(bounds.dim)])
        self.output_names = list(output_names) if output_names is not None else None
        self.n_evals = 0
        self.n_jacobian_evals = 0
        self._count_lock = threading.Lock()

    @property
    def d_x(self) -> int:
        return self.bounds.dim

    @property
    def d_theta(self) -> int:
        return self.theta_nominal.shape[0]

    def _bump(self, evals=0, jacobians=0):
        with self._count_lock:
            self.n_evals += evals
            self.n_jacobian_evals += jacobians

    def eval(self, x, theta=None) -> np.ndarray:
        """Evaluate f(x, theta); theta defaults to the nominal estimate."""
        theta = self.theta_nominal if theta is None else np.asarray(theta, float)
        self._bump(evals=1)
        y = np.asarray(self._eval_impl(np.asarray(x, float).ravel(), theta),
                       dtype=float).ravel()
        return y

    def _eval_impl(self, x, theta):
        raise NotImplementedError

    def _analytic_jacobian(self, x):
        return None

    def jacobian(self, x) -> np.ndarray:
        """Parameter Jacobian (d_theta, d_y) at x, at the nominal estimate."""
        analytic = self._analytic_jacobian(np.asarray(x, float).ravel())
        if analytic is not None:
            self._bump(jacobians=1)
            return np.asarray(analytic, dtype=float)
        return fd_jacobian(self, x)

    def jacobian_batch(self, xs) -> np.ndarray:
        """Jacobians for a stack of points, shape (n, d_theta, d_y)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.stack([self.jacobian(x) for x in xs])


def fd_jacobian(model: ModelHandle, x) -> np.ndarray:
    """Central-difference parameter Jacobian of shape (d_theta, d_y).

    Per-coordinate step ``h_j = 1e-6 * max(1, |theta_j|)``. Counts one
    Jacobian evaluation and ``2 d_theta`` model evaluations.
    """
    theta = model.theta_nominal
    cols = []
    for j in range(theta.shape[0]):
        h = FD_REL_STEP * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        y_up = model.eval(x, up)
        y_down = model.eval(x, down)
        if not (np.all(np.isfinite(y_up)) and np.all(np.isfinite(y_down))):
            raise NonFiniteModelError(
                f"model returned non-finite output perturbing theta[{j}] "
                f"by ±{h:g} at x={np.asarray(x).ravel()}"
            )
        cols.append((y_up - y_down) / (2.0 * h))
    model._bump(jacobians=1)
    return np.stack(cols)  # rows indexed by theta -> (d_theta, d_y)


def quadratic_model(x, theta) -> float:
    """Quadratic toy response ``theta2 x^2 + theta1 x + theta0``."""
    theta = np.asarray(theta, dtype=float).ravel()
    x = float(np.asarray(x).ravel()[0])
    return float(theta[2] * x * x + theta[1] * x + theta[0])


def quadratic_jacobian(x) -> np.ndarray:
    """Analytic parameter Jacobian (1, x, x^2) of the quadratic toy."""
    x = float(np.asarray(x).ravel()[0])
    return np.array([[1.0], [x], [x * x]])


class QuadraticModel(ModelHandle):
    """Toy 1-D model on [-1, 1]; its D-optimal design is the classical
    three-point design {-1, 0, 1} with equal weights."""

    def __init__(self, theta_nominal=(1.0, 1.0, 1.0)):
        super().__init__(Box([-1.0], [1.0]), theta_nominal, coord_names=["x"],
                         output_names=["f"])

    def _eval_impl(self, x, theta):
        return np.array([quadratic_model(x, theta)])

    def _analytic_jacobian(self, x):
        return quadratic_jacobian(x)
