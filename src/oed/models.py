"""Forward-model abstraction, finite-difference Jacobians and the quadratic toy.

A :class:`ModelHandle` evaluates ``f(x, theta)`` on a box-bounded design space
through one vectorized hook and exposes Jacobians with respect to the
parameters: central differences of that hook, unless the model overrides
``jacobian_batch`` with exact derivatives. Models keep no counts: a run
counts the Jacobians it asks for.
"""

from __future__ import annotations

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
    """Base forward model.

    Subclasses implement ``_eval_batch(xs, thetas) -> (n, d_y)`` (rows of
    ``xs`` paired with rows of ``thetas``; deterministic, pure) and may
    override ``jacobian_batch`` with exact derivatives. A model with a fixed
    parameter count passes it as ``n_theta``, which ``theta_nominal`` must
    match; ``theta_nominal`` must be finite.
    """

    def __init__(self, bounds: Box, theta_nominal, coord_names=None,
                 output_names=None, n_theta: int | None = None):
        self.bounds = bounds
        self.theta_nominal = np.asarray(theta_nominal, dtype=float).ravel()
        if n_theta is not None and self.theta_nominal.shape[0] != n_theta:
            raise InvalidInputError(f"theta_nominal must have {n_theta} entries, "
                                    f"got {self.theta_nominal.shape[0]}")
        if not np.isfinite(self.theta_nominal).all():
            raise InvalidInputError(f"theta_nominal must be finite, got {self.theta_nominal}")
        self.coord_names = (list(coord_names) if coord_names is not None
                            else [f"x{i + 1}" for i in range(bounds.dim)])
        self.output_names = list(output_names) if output_names is not None else None

    @property
    def d_x(self) -> int:
        return self.bounds.dim

    @property
    def d_theta(self) -> int:
        return self.theta_nominal.shape[0]

    def eval(self, x, theta=None) -> np.ndarray:
        """Evaluate f(x, theta); theta defaults to the nominal estimate."""
        theta = self.theta_nominal if theta is None else np.asarray(theta, float)
        return self._eval_batch(np.asarray(x, float).reshape(1, -1),
                                theta.reshape(1, -1))[0]

    def _eval_batch(self, xs, thetas):
        raise NotImplementedError

    def jacobian(self, x) -> np.ndarray:
        """Parameter Jacobian (d_theta, d_y) at x, at the nominal estimate."""
        return self.jacobian_batch(np.asarray(x, float).reshape(1, -1))[0]

    def jacobian_batch(self, xs) -> np.ndarray:
        """Jacobians (n, d_theta, d_y) at a stack of points: central
        differences from one ``_eval_batch`` call on the rows ``theta +
        diag(h)`` then ``theta - diag(h)`` per point, ``h_j = 1e-6 max(1,
        |theta_j|)``."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n, d = xs.shape[0], self.d_theta
        theta = self.theta_nominal
        h = FD_REL_STEP * np.maximum(1.0, np.abs(theta))
        thetas = np.vstack([theta + np.diag(h), theta - np.diag(h)])
        out = np.asarray(self._eval_batch(np.repeat(xs, 2 * d, axis=0),
                                          np.tile(thetas, (n, 1))),
                         dtype=float).reshape(n, 2 * d, -1)
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteModelError(f"model returned non-finite output in "
                                      f"central differences at x={xs[~finite][0]}")
        return (out[:, :d, :] - out[:, d:, :]) / (2.0 * h)[None, :, None]


def fd_jacobian(model: ModelHandle, x) -> np.ndarray:
    """Central-difference Jacobian (d_theta, d_y) at x, also for a model with
    exact derivatives: :meth:`ModelHandle.jacobian_batch` at one point."""
    return ModelHandle.jacobian_batch(model, np.asarray(x, float).reshape(1, -1))[0]


def quadratic_model(x, theta):
    """Quadratic toy response ``theta2 x^2 + theta1 x + theta0``; ``x`` may be
    a vector of points and ``theta`` a matching stack of parameter rows."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    return theta[..., 2] * x * x + theta[..., 1] * x + theta[..., 0]


def quadratic_jacobian(xs) -> np.ndarray:
    """Analytic parameter Jacobians (1, x, x^2) of the quadratic toy at the
    points ``xs``, shape (n, 3, 1)."""
    x = np.asarray(xs, dtype=float).reshape(-1)
    return np.stack([np.ones_like(x), x, x * x], axis=1)[:, :, None]


class QuadraticModel(ModelHandle):
    """Toy 1-D model on [-1, 1]; its D-optimal design is the classical
    three-point design {-1, 0, 1} with equal weights."""

    def __init__(self, theta_nominal=(1.0, 1.0, 1.0)):
        super().__init__(Box([-1.0], [1.0]), theta_nominal, coord_names=["x"],
                         output_names=["f"], n_theta=3)

    def _eval_batch(self, xs, thetas):
        return quadratic_model(xs[:, 0], thetas)[:, None]

    def jacobian_batch(self, xs) -> np.ndarray:
        return quadratic_jacobian(xs)
