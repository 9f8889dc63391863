"""Optimal design weights over a fixed candidate set.

Solves ``min_w Phi(sum_i w_i mu_i)`` over the probability simplex. The
weights of a converged solve satisfy the Kiefer-Wolfowitz condition restricted
to the candidate set: ``phi(xi, x_i) >= -tol`` everywhere and
``|phi(xi, x_i)| <= tol`` on the support, which certifies optimality within
the candidates.

The iteration combines multiplicative updates (Titterington's rule for
log-D, the exponent-1/2 rule for A) with occasional monotone
vertex-direction and vertex-exchange line searches that accelerate the
endgame; the E-criterion uses entropic mirror ascent on the smallest
eigenvalue. No external convex solver is involved. Each iterate's M is
decomposed once: its singularity test, phi over the candidates and tracked
objective come from the one ``eigh`` of :mod:`oed.designs`' phi scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .designs import (
    Criterion,
    _as_mu_array,
    _phi_scan,
    _spectral_value,
    _weighted_sum,
    criterion_value,
    is_invertible,
)
from .exceptions import InvalidInputError, SingularInformationError

SUPPORT_EPS = 1e-6      # weights above this must satisfy |phi| <= tol
TRUNCATE_EPS = 1e-9     # weights below this are zeroed on return
ACCEL_EVERY = 8         # line-search acceleration cadence


@dataclass
class WeightSolution:
    """Result of :func:`optimize_weights`: the solved weights, and their
    information matrix, objective and phi over the candidates. ``converged``
    is False when the iteration cap was hit; the weights are then the best
    iterate seen."""

    weights: np.ndarray
    objective: float
    information_matrix: np.ndarray
    phi: np.ndarray         # directional derivative at each candidate
    kkt_residual: float     # phi.min()
    iterations: int
    converged: bool


def _line_search(M0, M1, hi, criterion):
    """Best step in [0, hi] along the matrix segment, by bounded 1-D search.

    A singular or non-finite blend scores the finite ``f0 + |f0| + 1``, above
    Phi(M0) = f0, so the search never does arithmetic on an infinity.
    """
    if hi <= 0:
        return 0.0
    f0 = criterion_value(M0, criterion)
    worse = f0 + abs(f0) + 1.0

    def blend_value(t):
        try:
            f = criterion_value((1.0 - t) * M0 + t * M1, criterion)
        except SingularInformationError:
            return worse
        return f if np.isfinite(f) else worse

    res = minimize_scalar(blend_value, bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x) if res.fun < f0 else 0.0


def _accelerate(w, arr, phi, criterion):
    """Monotone vertex-direction and vertex-exchange steps (in place)."""
    M = _weighted_sum(w, arr)
    # Vertex direction: blend mass toward the most negative phi candidate.
    j = int(np.argmin(phi))
    if phi[j] < 0:
        delta = _line_search(M, arr[j], 0.999, criterion)
        if delta > 0:
            w *= 1.0 - delta
            w[j] += delta
            M = _weighted_sum(w, arr)
    # Vertex exchange: move mass from the worst support point to the best
    # candidate. M(t) = M + t*(mu_minus - mu_plus) = (1-t)*M + t*(M + mu_- - mu_+).
    support = np.flatnonzero(w > TRUNCATE_EPS)
    if support.size >= 2:
        jp = support[int(np.argmax(phi[support]))]
        jm = int(np.argmin(phi))
        if jm != jp:
            target = M + arr[jm] - arr[jp]
            delta = _line_search(M, target, float(w[jp]), criterion)
            if delta > 0:
                w[jp] -= delta
                w[jm] += delta
                np.clip(w, 0.0, None, out=w)
    w /= w.sum()
    return w


def optimize_weights(mus, criterion: Criterion, tol: float = 1e-6,
                     max_iterations: int = 100_000, *,
                     warm_start=None) -> WeightSolution:
    """Optimal simplex weights for the given candidate Fisher matrices.

    Raises ``SingularInformationError`` when no weight vector yields an
    invertible information matrix. A solve that hits the iteration cap
    before tolerance returns its best iterate with ``converged`` False.
    """
    arr = _as_mu_array(mus)
    n, d = arr.shape[0], arr.shape[1]
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be finite and positive, got {tol!r}")

    # Uniform weights realize the maximal possible range of M; if that matrix
    # is singular then every simplex combination is singular too.
    uniform = np.full(n, 1.0 / n)
    if not is_invertible(_weighted_sum(uniform, arr)):
        raise SingularInformationError(
            "no simplex combination of the candidates is invertible"
        )

    if warm_start is not None:
        w = np.asarray(warm_start, dtype=float).copy()
        if w.shape != (n,) or not (np.all(w >= 0) and 0 < w.sum() < np.inf):
            raise InvalidInputError("warm_start must be a finite nonnegative n-vector")
        w = np.maximum(w, 1e-16)
        w /= w.sum()
        if not is_invertible(_weighted_sum(w, arr)):
            w = uniform.copy()
    else:
        w = uniform.copy()

    best_value = np.inf
    best_w = w.copy()
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        try:
            lam, phi, v = _phi_scan(_weighted_sum(w, arr), arr, criterion)
        except SingularInformationError:  # blend drifted singular; restart
            w = uniform.copy()
            continue
        value = _spectral_value(lam, criterion)
        if value < best_value:
            best_value, best_w = value, w.copy()
        support = w > SUPPORT_EPS
        converged = bool(phi.min() > -tol and np.max(np.abs(phi[support])) <= tol)
        if converged:
            break
        if criterion is Criterion.LOGD:
            w = w * (v / d)
        elif criterion is Criterion.A:
            w = w * np.sqrt(np.maximum(v, 0.0))
        else:  # E: entropic mirror ascent on lambda_min with decaying step
            scale = max(float(np.max(np.abs(v))), 1e-300)
            eta = 2.0 / (scale * np.sqrt(iterations))
            w = w * np.exp(eta * (v - v.max()))
        s = w.sum()
        if not np.isfinite(s) or s <= 0:
            w = uniform.copy()
            continue
        w /= s
        if iterations % ACCEL_EVERY == 0 and criterion is not Criterion.E:
            w = _accelerate(w, arr, phi, criterion)

    # A capped solve returns its best iterate; E's mirror ascent is not
    # monotone, so a converged E solve does too when it saw a better one.
    if not converged or (criterion is Criterion.E and best_value < value):
        w = best_w
    w = np.where(w < TRUNCATE_EPS, 0.0, w)
    w /= w.sum()
    M = _weighted_sum(w, arr)
    phi = _phi_scan(M, arr, criterion)[1]
    return WeightSolution(weights=w, objective=criterion_value(M, criterion),
                          information_matrix=M, phi=phi,
                          kkt_residual=float(phi.min()), iterations=iterations,
                          converged=converged)
