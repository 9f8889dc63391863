"""Continuous designs, Fisher information and design criteria.

The central objects are a :class:`Design` (support points with simplex
weights), per-point Fisher information matrices ``mu(x) = J S^-1 J^T`` and
their weighted sum ``M = sum_i w_i mu(x_i)``, the scalar criteria minimized
over designs, and the directional derivative ``phi`` whose sign certifies
global optimality (Kiefer-Wolfowitz equivalence theorem): a design is optimal
iff ``min_x phi(xi, x) >= 0``.

The D-criterion is log-D (``Criterion.D`` is an alias of ``Criterion.LOGD``).
Fisher matrices are plain symmetric ``(d_theta, d_theta)`` numpy arrays. M is
assembled here once, one singularity rule guards every criterion, and phi
over a stack is one ``eigh`` of M and one GEMV, whose eigenvalues also give
the weight solver its criterion value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import InvalidInputError, SingularInformationError

# Relative eigenvalue floor below which an information matrix counts as singular.
SINGULAR_RTOL = 1e-12
# Relative gap under which the smallest eigenvalues are treated as one
# multiple eigenvalue (E-criterion directional derivative).
EIG_MULTIPLICITY_RTOL = 1e-8

WEIGHT_SUM_TOL = 1e-12


class Criterion(Enum):
    """Design criterion, minimized. ``D`` is ``LOGD``: det M^-1 has the same
    minimizers and phi as -log det M but overflows where the logarithm does not."""

    A = "A"          # trace of the inverse information matrix
    LOGD = "logD"    # -log det M
    D = "logD"       # alias of LOGD
    E = "E"          # 1 / smallest eigenvalue of M

    @classmethod
    def parse(cls, tag: str) -> "Criterion":
        try:
            return _CRITERION_TAGS[str(tag).lower()]
        except KeyError:
            raise InvalidInputError(
                f"unknown criterion {tag!r}; expected one of A, D, logD, E"
            ) from None


_CRITERION_TAGS = {name.lower(): c for name, c in Criterion.__members__.items()}


def _checked_spd(matrix, name: str) -> np.ndarray:
    """``matrix`` as a float array, checked square, finite, symmetric and
    positive definite by the singularity rule of :func:`_is_regular`."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} must be finite")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise InvalidInputError(f"{name} must be symmetric")
    if not _is_regular(np.linalg.eigvalsh(m)):
        raise InvalidInputError(f"{name} must be positive definite and not "
                                "numerically singular")
    return m


@dataclass(frozen=True)
class SigmaEps:
    """Inverse measurement-error covariance (precision matrix) Sigma_eps^-1."""

    precision: np.ndarray

    def __post_init__(self):
        p = _checked_spd(self.precision, "precision matrix")
        object.__setattr__(self, "precision", 0.5 * (p + p.T))

    @classmethod
    def from_covariance(cls, cov) -> "SigmaEps":
        P = np.linalg.inv(_checked_spd(cov, "covariance matrix"))
        return cls(0.5 * (P + P.T))  # inv rounds asymmetrically when ill-conditioned

    @property
    def d_y(self) -> int:
        return self.precision.shape[0]


@dataclass(frozen=True)
class Design:
    """A continuous design: support points and simplex weights.

    ``points`` has shape ``(n, d_x)`` and ``weights`` shape ``(n,)`` with
    nonnegative entries summing to one. Duplicate points are allowed.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise InvalidInputError(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise InvalidInputError("design contains non-finite entries")
        if w.size == 0:
            raise InvalidInputError("design must contain at least one point")
        if w.min() < 0:
            raise InvalidInputError(f"negative weight {w.min()!r}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]

    @property
    def d_x(self) -> int:
        return self.points.shape[1]

    def pruned(self, min_weight: float = 0.001) -> "Design":
        """Drop points below ``min_weight`` and renormalize."""
        keep = self.weights >= min_weight
        if not keep.any():
            keep = self.weights == self.weights.max()
        w = self.weights[keep]
        return Design(self.points[keep], w / w.sum())


def _as_mu_array(mus) -> np.ndarray:
    arr = np.asarray(mus, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InvalidInputError(
            f"expected a stack of square matrices, got shape {arr.shape}"
        )
    return arr


def fisher_at_points(jacobians, sigma: SigmaEps | None = None) -> np.ndarray:
    """Per-point Fisher information ``mu = J Sigma^-1 J^T`` over a
    ``(n, d_theta, d_y)`` stack of Jacobians, one stacked matrix product per
    row; ``sigma`` defaults to the identity precision."""
    J = np.asarray(jacobians, dtype=float)
    if J.ndim != 3:
        raise InvalidInputError(f"expected (n, d_theta, d_y) stack, got {J.shape}")
    if not np.all(np.isfinite(J)):
        raise InvalidInputError("jacobian stack contains non-finite entries")
    Jt = J.transpose(0, 2, 1)
    if sigma is None:
        mus = J @ Jt
    else:
        if sigma.d_y != J.shape[2]:
            raise InvalidInputError(
                f"sigma is {sigma.d_y}x{sigma.d_y} but the jacobians have "
                f"{J.shape[2]} output columns"
            )
        mus = J @ sigma.precision @ Jt
    return 0.5 * (mus + mus.transpose(0, 2, 1))


def _weighted_sum(w, arr) -> np.ndarray:
    """``M = sum_i w_i arr_i``, symmetrized: the one assembly of M."""
    M = np.einsum("i,iab->ab", w, arr)
    return 0.5 * (M + M.T)


def information_matrix(weights, mus) -> np.ndarray:
    """Weighted sum ``M = sum_i w_i mu_i`` of per-point Fisher matrices."""
    w = np.asarray(weights, dtype=float).ravel()
    arr = _as_mu_array(mus)
    if arr.shape[0] != w.shape[0]:
        raise InvalidInputError(
            f"{w.shape[0]} weights but {arr.shape[0]} Fisher matrices"
        )
    return _weighted_sum(w, arr)


# The spectral core: functions of the ascending eigenvalues ``lam`` (and, for
# phi, the eigenvectors) of M, so each caller decomposes M once.

def _is_regular(lam) -> bool:
    """The singularity rule: lambda_min > SINGULAR_RTOL * lambda_max > 0."""
    return bool(lam[-1] > 0 and lam[0] > SINGULAR_RTOL * lam[-1])


def _singular(lam) -> SingularInformationError:
    return SingularInformationError(
        f"information matrix is singular (eigenvalues {lam.min():.3e} .. "
        f"{lam.max():.3e})"
    )


def _spectral_value(lam, criterion: Criterion) -> float:
    """Phi(M) from the eigenvalues of a regular M."""
    if criterion is Criterion.A:
        return float(np.sum(1.0 / lam))
    if criterion is Criterion.LOGD:
        return float(-np.sum(np.log(lam)))
    if criterion is Criterion.E:
        return float(1.0 / lam[0])
    raise InvalidInputError(f"unknown criterion {criterion!r}")


def _phi_scan(M, arr, criterion: Criterion):
    """``(lam, phi, v)`` at M over the stack ``arr``: the ascending eigenvalues
    of M, ``phi = c - v`` and ``v = <G, mu>`` per row, from one ``eigh`` and
    one GEMV. Raises ``SingularInformationError`` when M is singular."""
    lam, V = np.linalg.eigh(M)
    if not _is_regular(lam):
        raise _singular(lam)
    if criterion is Criterion.E:
        scale = max(abs(lam[-1]), 1e-300)
        mult = int(np.sum((lam - lam[0]) / scale < EIG_MULTIPLICITY_RTOL))
        P = V[:, :mult]
        c, G = lam[0], (P @ P.T) / mult
    elif criterion is Criterion.A:
        Minv = (V / lam) @ V.T
        c, G = float(np.trace(Minv)), Minv @ Minv
    elif criterion is Criterion.LOGD:
        c, G = lam.shape[0], (V / lam) @ V.T
    else:
        raise InvalidInputError(f"unknown criterion {criterion!r}")
    v = arr.reshape(arr.shape[0], -1) @ G.ravel()
    return lam, c - v, v


def is_invertible(M: np.ndarray) -> bool:
    """Spectral invertibility test: lambda_min > SINGULAR_RTOL * lambda_max."""
    return _is_regular(np.linalg.eigvalsh(np.asarray(M, dtype=float)))


def criterion_value(M, criterion: Criterion) -> float:
    """Scalar criterion value Phi(M); smaller is better for all criteria.
    Raises ``SingularInformationError`` when M is singular."""
    lam = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    if not _is_regular(lam):
        raise _singular(lam)
    return _spectral_value(lam, criterion)


def directional_derivatives(M, mus, criterion: Criterion) -> np.ndarray:
    """Directional derivative ``phi(xi, x)`` for a stack of candidate mus.

    log-D: ``d_theta - tr(M^-1 mu)``; A: ``tr(M^-1) - tr(M^-2 mu)``;
    E: ``lambda_min(M) - (1/mult) sum_i P_i^T mu P_i`` over the eigenspace of
    the smallest eigenvalue with uniform factors.
    """
    return _phi_scan(np.asarray(M, dtype=float), _as_mu_array(mus), criterion)[1]
