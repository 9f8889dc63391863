"""Continuous designs, Fisher information and design criteria.

The central objects are a :class:`Design` (support points with simplex
weights), per-point Fisher information matrices ``mu(x) = J S^-1 J^T`` and
their weighted sum ``M = sum_i w_i mu(x_i)``, the scalar criteria minimized
over designs, and the directional derivative ``phi`` whose sign certifies
global optimality (Kiefer-Wolfowitz equivalence theorem): a design is optimal
iff ``min_x phi(xi, x) >= 0``.

Fisher matrices are plain symmetric ``(d_theta, d_theta)`` numpy arrays.
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
    """Design criterion; all four are minimized."""

    A = "A"          # trace of the inverse information matrix
    D = "D"          # determinant of the inverse
    LOGD = "logD"    # -log det M (same minimizers as D)
    E = "E"          # 1 / smallest eigenvalue of M

    @classmethod
    def parse(cls, tag: str) -> "Criterion":
        try:
            return _CRITERION_TAGS[str(tag).lower()]
        except KeyError:
            raise InvalidInputError(
                f"unknown criterion {tag!r}; expected one of A, D, logD, E"
            ) from None


_CRITERION_TAGS = {"a": Criterion.A, "d": Criterion.D, "logd": Criterion.LOGD,
                   "e": Criterion.E}


@dataclass(frozen=True)
class SigmaEps:
    """Inverse measurement-error covariance (precision matrix) Sigma_eps^-1."""

    precision: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.precision, dtype=float))
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InvalidInputError("precision matrix must be square")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("precision matrix must be finite")
        if not np.allclose(p, p.T, rtol=1e-10, atol=1e-12):
            raise InvalidInputError("precision matrix must be symmetric")
        if np.linalg.eigvalsh(p).min() <= 0:
            raise InvalidInputError("precision matrix must be positive definite")
        object.__setattr__(self, "precision", 0.5 * (p + p.T))

    @classmethod
    def identity(cls, d_y: int) -> "SigmaEps":
        return cls(np.eye(d_y))

    @classmethod
    def from_covariance(cls, cov) -> "SigmaEps":
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        return cls(np.linalg.inv(cov))

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


def fisher_at_point(jacobian, sigma: SigmaEps | None = None) -> np.ndarray:
    """Per-point Fisher information ``mu = J Sigma^-1 J^T``.

    ``jacobian`` is ``(d_theta, d_y)`` (a 1-D vector is treated as a single
    output column). ``sigma`` defaults to the identity precision.
    """
    J = np.asarray(jacobian, dtype=float)
    if J.ndim == 1:
        J = J[:, None]
    if J.ndim != 2:
        raise InvalidInputError(f"jacobian must be a matrix, got ndim={J.ndim}")
    if not np.all(np.isfinite(J)):
        raise InvalidInputError("jacobian contains non-finite entries")
    if sigma is None:
        mu = J @ J.T
    else:
        if sigma.d_y != J.shape[1]:
            raise InvalidInputError(
                f"sigma is {sigma.d_y}x{sigma.d_y} but jacobian has "
                f"{J.shape[1]} output columns"
            )
        mu = J @ sigma.precision @ J.T
    return 0.5 * (mu + mu.T)


def fisher_at_points(jacobians, sigma: SigmaEps | None = None) -> np.ndarray:
    """Vectorized :func:`fisher_at_point` over a ``(n, d_theta, d_y)`` stack."""
    J = np.asarray(jacobians, dtype=float)
    if J.ndim != 3:
        raise InvalidInputError(f"expected (n, d_theta, d_y) stack, got {J.shape}")
    if not np.all(np.isfinite(J)):
        raise InvalidInputError("jacobian stack contains non-finite entries")
    if sigma is None:
        mus = np.einsum("nij,nkj->nik", J, J)
    else:
        if sigma.d_y != J.shape[2]:
            raise InvalidInputError(
                f"sigma is {sigma.d_y}x{sigma.d_y} but the jacobians have "
                f"{J.shape[2]} output columns"
            )
        mus = np.einsum("nij,jl,nkl->nik", J, sigma.precision, J)
    return 0.5 * (mus + np.transpose(mus, (0, 2, 1)))


def information_matrix(design_or_weights, mus) -> np.ndarray:
    """Weighted sum ``M = sum_i w_i mu_i`` of per-point Fisher matrices."""
    if isinstance(design_or_weights, Design):
        w = design_or_weights.weights
    else:
        w = np.asarray(design_or_weights, dtype=float).ravel()
    arr = _as_mu_array(mus)
    if arr.shape[0] != w.shape[0]:
        raise InvalidInputError(
            f"{w.shape[0]} weights but {arr.shape[0]} Fisher matrices"
        )
    M = np.einsum("i,iab->ab", w, arr)
    return 0.5 * (M + M.T)


def is_invertible(M: np.ndarray, rtol: float = SINGULAR_RTOL) -> bool:
    """Spectral invertibility test: lambda_min > rtol * lambda_max."""
    eig = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    return bool(eig[-1] > 0 and eig[0] > rtol * eig[-1])


def _checked_eigvalsh(M, criterion):
    M = np.asarray(M, dtype=float)
    eig = np.linalg.eigvalsh(M)
    if criterion is not Criterion.E and not (
        eig[-1] > 0 and eig[0] > SINGULAR_RTOL * eig[-1]
    ):
        raise SingularInformationError(
            f"information matrix is singular (eigenvalues {eig.min():.3e} .. "
            f"{eig.max():.3e})"
        )
    return eig


def criterion_value(M, criterion: Criterion) -> float:
    """Scalar criterion value Phi(M); smaller is better for all criteria."""
    eig = _checked_eigvalsh(M, criterion)
    if criterion is Criterion.A:
        return float(np.sum(1.0 / eig))
    if criterion is Criterion.D:
        logdet = float(np.sum(np.log(eig)))
        with np.errstate(over="ignore"):
            return float(np.exp(-logdet))
    if criterion is Criterion.LOGD:
        return float(-np.sum(np.log(eig)))
    if criterion is Criterion.E:
        lam_min = eig[0]
        if lam_min <= 0:
            return float("inf")
        return float(1.0 / lam_min)
    raise InvalidInputError(f"unknown criterion {criterion!r}")


def _inverse_spd(M) -> np.ndarray:
    """Inverse of a symmetric PD matrix through its eigendecomposition."""
    lam, V = np.linalg.eigh(np.asarray(M, dtype=float))
    if not (lam[-1] > 0 and lam[0] > SINGULAR_RTOL * lam[-1]):
        raise SingularInformationError(
            f"information matrix is singular (eigenvalues {lam.min():.3e} .. "
            f"{lam.max():.3e})"
        )
    return (V / lam) @ V.T


def _min_eig_projector(M):
    """Smallest eigenvalue, its multiplicity and the (d, mult) eigenvector block."""
    lam, V = np.linalg.eigh(np.asarray(M, dtype=float))
    scale = max(abs(lam[-1]), 1e-300)
    mult = int(np.sum((lam - lam[0]) / scale < EIG_MULTIPLICITY_RTOL))
    return lam[0], mult, V[:, :mult]


def _phi_terms(M, arr, criterion: Criterion):
    """``(c, v)`` with ``phi = c - v``, as in :func:`directional_derivatives`."""
    if criterion in (Criterion.D, Criterion.LOGD):
        return M.shape[0], np.einsum("ab,iba->i", _inverse_spd(M), arr)
    if criterion is Criterion.A:
        Minv = _inverse_spd(M)
        return float(np.trace(Minv)), np.einsum("ab,iba->i", Minv @ Minv, arr)
    if criterion is Criterion.E:
        lam_min, mult, P = _min_eig_projector(M)
        return lam_min, np.einsum("dm,idk,km->i", P, arr, P) / mult
    raise InvalidInputError(f"unknown criterion {criterion!r}")


def directional_derivatives(M, mus, criterion: Criterion) -> np.ndarray:
    """Directional derivative ``phi(xi, x)`` for a stack of candidate mus.

    D/log-D: ``d_theta - tr(M^-1 mu)``; A: ``tr(M^-1) - tr(M^-2 mu)``;
    E: ``lambda_min(M) - (1/mult) sum_i P_i^T mu P_i`` over the eigenspace of
    the smallest eigenvalue with uniform factors.
    """
    arr = _as_mu_array(mus)
    M = np.asarray(M, dtype=float)
    if criterion is Criterion.E and not is_invertible(M):
        raise SingularInformationError("information matrix is singular")
    c, v = _phi_terms(M, arr, criterion)
    return c - v


def directional_derivative(M, mu_x, criterion: Criterion) -> float:
    """Scalar :func:`directional_derivatives` for a single candidate."""
    return float(directional_derivatives(M, mu_x, criterion)[0])


def optimality_gap(design: Design, design_mus, candidate_mus,
                   criterion: Criterion) -> tuple[float, int]:
    """Minimum of phi over a candidate set and the argmin index.

    ``design_mus`` are the Fisher matrices of the design's own points (used to
    assemble M); ``candidate_mus`` is the audit set. Ties break to the lowest
    index. The design is optimal within the candidate set iff the returned
    minimum is nonnegative (up to tolerance).
    """
    cand = _as_mu_array(candidate_mus)
    if cand.shape[0] == 0:
        raise InvalidInputError("candidate set is empty")
    M = information_matrix(design, design_mus)
    phi = directional_derivatives(M, cand, criterion)
    idx = int(np.argmin(phi))
    return float(phi[idx]), idx
