"""The three design algorithms: VDM, YBT exchange and the adaptive ADA-GPR.

All three certify optimality through the directional derivative phi: the grid
methods terminate once ``min phi > -epsilon`` over the whole grid, the
adaptive algorithm by an objective-progress heuristic (its phi condition is
certified on the candidate set only, since the continuous-space minimum is
approximated by a GP surrogate).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from .acquisition import AcquisitionSpec, SobolStream, minimize_acquisition
from .designs import (
    Criterion,
    Design,
    SigmaEps,
    criterion_value,
    directional_derivative,
    directional_derivatives,
    fisher_at_point,
    fisher_at_points,
    information_matrix,
    is_invertible,
)
from .exceptions import (
    InitializationError,
    InvalidInputError,
    NonFiniteModelError,
    SingularKernelError,
)
from .gp import KernelParams, fit as gp_fit, select_alpha_cv, select_hypers
from .models import ModelHandle
from .weights import _line_search, optimize_weights

MAX_INIT_RESAMPLES = 100
PRUNE_WEIGHT = 0.001
CLUSTER_RADIUS = 0.01
PROGRESS_MIN_ITERATIONS = 50
PROGRESS_WINDOW = 50
PROGRESS_DELTA = 0.001


@dataclass
class AdaGprSettings:
    """ADA-GPR specific knobs: acquisition multistarts and the noise-refresh
    schedule (every iteration for the first 10, every 10th afterwards)."""

    n_starts: int = 10
    alpha_refresh_initial: int = 10
    alpha_refresh_every: int = 10
    max_point_rejections: int = 50


@dataclass
class AlgoConfig:
    """Shared algorithm configuration.

    ``n_initial`` defaults to ``d_theta + 1`` random grid points for the grid
    methods and to ``max(10 * d_x, d_theta + 2)`` Sobol points for ADA-GPR.
    ``sigma_eps`` is the inverse measurement-error covariance (identity when
    omitted).
    """

    criterion: Criterion = Criterion.LOGD
    epsilon: float = 1e-3
    max_iterations: int = 10_000
    n_initial: int | None = None
    rng_seed: int = 0
    sigma_eps: SigmaEps | None = None
    adagpr: AdaGprSettings = field(default_factory=AdaGprSettings)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")

    @property
    def weight_tol(self) -> float:
        # Inner weight solves must certify tighter than the outer epsilon.
        return min(1e-6, 0.01 * self.epsilon)


@dataclass
class TimingBreakdown:
    jacobian: float = 0.0
    weights: float = 0.0
    acquisition: float = 0.0
    hyperparameters: float = 0.0
    total: float = 0.0

    def as_dict(self) -> dict:
        return {"jacobian": self.jacobian, "weights": self.weights,
                "acquisition": self.acquisition,
                "hyperparameters": self.hyperparameters, "total": self.total}


@dataclass
class AlgoReport:
    """Run record: final design, objective trace and bookkeeping.

    ``design`` is the algorithm's reported design (YBT prunes weights below
    0.001 as the tables do); ``clustered_design`` additionally merges nearby
    support points. ``objective`` and ``information_matrix`` refer to the
    unpruned final iterate. The trace holds the minimized criterion value per
    iteration.
    """

    design: Design
    clustered_design: Design
    objective: float
    objective_trace: np.ndarray
    iterations: int
    jacobian_evals: int
    timings: TimingBreakdown
    termination: str
    criterion: Criterion
    information_matrix: np.ndarray
    warnings: list


def next_tau(tau: float, phi_new: float) -> float:
    """Exploration toggle: a negative phi observation switches exploitation
    back on; nonnegative observations alternate tau between 1 and 0."""
    if phi_new < 0:
        return 1.0
    return 0.0 if tau == 1.0 else 1.0


def progress_stop(objective_trace, n_cur: int) -> bool:
    """Stop heuristic: no stop for 50 iterations, then compare the current
    objective against iteration ``max(ceil(0.6 n), n - 50)``."""
    trace = np.asarray(objective_trace, dtype=float)
    if trace.shape[0] != n_cur:
        raise InvalidInputError(f"trace length {trace.shape[0]} != n_cur {n_cur}")
    if n_cur <= PROGRESS_MIN_ITERATIONS:
        return False
    n_stop = max(math.ceil(0.6 * n_cur), n_cur - PROGRESS_WINDOW)
    return bool(abs(trace[n_cur - 1] - trace[n_stop - 1]) < PROGRESS_DELTA)


def cluster_design(design: Design, radius: float = CLUSTER_RADIUS,
                   box=None) -> Design:
    """Merge support points closer than ``radius`` (transitive single linkage).

    Weights below 0.001 are dropped first; each cluster becomes the plain mean
    of its members with the summed weight, and weights are renormalized.
    Distances are measured in unit-cube coordinates when ``box`` is given
    (the radius is specified on that scale).
    """
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    pruned = design.pruned(PRUNE_WEIGHT)
    pts = pruned.points
    if pts.shape[0] == 1:
        return pruned
    coords = box.to_unit(pts) if box is not None else pts
    adjacency = squareform(pdist(coords) < radius).astype(np.int8)
    np.fill_diagonal(adjacency, 1)
    n_comp, labels = connected_components(adjacency, directed=False)
    centers = np.empty((n_comp, pts.shape[1]))
    weights = np.empty(n_comp)
    for c in range(n_comp):
        members = labels == c
        centers[c] = pts[members].mean(axis=0)
        weights[c] = pruned.weights[members].sum()
    return Design(centers, weights / weights.sum())


def _validate_grid(model: ModelHandle, grid) -> np.ndarray:
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != model.d_x:
        raise InvalidInputError(
            f"grid has {grid.shape[1]} coordinates, model expects {model.d_x}"
        )
    if not model.bounds.contains(grid):
        raise InvalidInputError("grid contains points outside the design bounds")
    return grid


def _grid_mus(model, grid, sigma, timings):
    t0 = time.perf_counter()
    jacobians = model.jacobian_batch(grid)
    timings.jacobian += time.perf_counter() - t0
    return fisher_at_points(jacobians, sigma)


def _sample_invertible(rng, n_grid, n0, mus):
    """Random initial candidate indices whose uniform-weight M is invertible."""
    for _ in range(MAX_INIT_RESAMPLES):
        idx = np.sort(rng.choice(n_grid, size=n0, replace=False))
        if is_invertible(mus[idx].mean(axis=0)):
            return idx
    raise InitializationError(
        f"no invertible initial information matrix in {MAX_INIT_RESAMPLES} resamples"
    )


def _blend_fraction(M, mu_new, criterion) -> float:
    """Line-searched mass fraction for warm-starting with one new candidate."""
    delta, _ = _line_search(M, mu_new, 0.5, criterion)
    return delta


def run_vdm(model: ModelHandle, grid, cfg: AlgoConfig) -> AlgoReport:
    """Vertex Direction Method on a precomputed grid.

    Each iteration shifts weight 1/(n+1) to the phi-minimizing grid point and
    rescales the rest; a re-selected support point merges its weight instead
    of duplicating. Every grid Jacobian is evaluated exactly once up front.
    """
    grid = _validate_grid(model, grid)
    timings = TimingBreakdown()
    t_start = time.perf_counter()
    jac_before = model.n_jacobian_evals
    mus = _grid_mus(model, grid, cfg.sigma_eps, timings)

    d_theta = model.d_theta
    n0 = cfg.n_initial if cfg.n_initial is not None else d_theta + 1
    if n0 < d_theta + 1:
        raise InvalidInputError(f"n_initial must be >= d_theta + 1 = {d_theta + 1}")
    rng = np.random.default_rng(cfg.rng_seed)
    idx0 = _sample_invertible(rng, grid.shape[0], n0, mus)

    support = list(idx0)
    position = {int(g): k for k, g in enumerate(support)}
    w = np.full(n0, 1.0 / n0)
    M = mus[idx0].mean(axis=0)

    trace = []
    termination = "max_iterations"
    iterations = 0
    for k in range(1, cfg.max_iterations + 1):
        iterations = k
        trace.append(criterion_value(M, cfg.criterion))
        phi = directional_derivatives(M, mus, cfg.criterion)
        j = int(np.argmin(phi))
        if phi[j] > -cfg.epsilon:
            termination = "epsilon"
            break
        alpha = 1.0 / (n0 + k)  # as if every selected point were a new candidate
        w *= 1.0 - alpha
        if j in position:
            w[position[j]] += alpha
        else:
            position[j] = len(support)
            support.append(j)
            w = np.append(w, alpha)
        M = (1.0 - alpha) * M + alpha * mus[j]

    w = w / w.sum()
    M = information_matrix(w, mus[support])
    design = Design(grid[support], w)
    timings.total = time.perf_counter() - t_start
    return AlgoReport(
        design=design,
        clustered_design=cluster_design(design, box=model.bounds),
        objective=criterion_value(M, cfg.criterion),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        jacobian_evals=model.n_jacobian_evals - jac_before,
        timings=timings,
        termination=termination,
        criterion=cfg.criterion,
        information_matrix=M,
        warnings=[],
    )


def run_ybt(model: ModelHandle, grid, cfg: AlgoConfig) -> AlgoReport:
    """YBT exchange algorithm on a precomputed grid.

    Each iteration solves the optimal-weight problem on the candidate set,
    then appends the phi-minimizing grid point; terminates once
    ``min phi > -epsilon`` holds over the full grid, which certifies the
    design by the equivalence theorem (up to epsilon).
    """
    grid = _validate_grid(model, grid)
    timings = TimingBreakdown()
    t_start = time.perf_counter()
    jac_before = model.n_jacobian_evals
    mus = _grid_mus(model, grid, cfg.sigma_eps, timings)

    d_theta = model.d_theta
    n0 = cfg.n_initial if cfg.n_initial is not None else d_theta + 1
    if n0 < d_theta + 1:
        raise InvalidInputError(f"n_initial must be >= d_theta + 1 = {d_theta + 1}")
    rng = np.random.default_rng(cfg.rng_seed)
    candidates = list(_sample_invertible(rng, grid.shape[0], n0, mus))

    trace = []
    warm = None
    termination = "max_iterations"
    iterations = 0
    sol = None
    for k in range(1, cfg.max_iterations + 1):
        iterations = k
        t0 = time.perf_counter()
        sol = optimize_weights(mus[candidates], cfg.criterion,
                               tol=cfg.weight_tol, warm_start=warm)
        timings.weights += time.perf_counter() - t0
        trace.append(sol.objective)
        M = information_matrix(sol.weights, mus[candidates])
        phi = directional_derivatives(M, mus, cfg.criterion)
        j = int(np.argmin(phi))
        if phi[j] > -cfg.epsilon:
            termination = "epsilon"
            break
        delta = _blend_fraction(M, mus[j], cfg.criterion)
        warm = np.append(sol.weights * (1.0 - delta), max(delta, 1e-12))
        candidates.append(j)

    M = information_matrix(sol.weights, mus[candidates[: len(sol.weights)]])
    full_design = Design(grid[candidates[: len(sol.weights)]], sol.weights)
    design = full_design.pruned(PRUNE_WEIGHT)
    timings.total = time.perf_counter() - t_start
    return AlgoReport(
        design=design,
        clustered_design=cluster_design(full_design, box=model.bounds),
        objective=criterion_value(M, cfg.criterion),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        jacobian_evals=model.n_jacobian_evals - jac_before,
        timings=timings,
        termination=termination,
        criterion=cfg.criterion,
        information_matrix=M,
        warnings=[],
    )


def _fit_surrogate(U, phi_vals, params, warnings_log):
    """Fit the GP, bumping the noise floor when the kernel is singular."""
    noise = params.noise
    for _ in range(8):
        try:
            # Zero-mean conditioning, not target centering: far from data the
            # surrogate then predicts 0 ("possibly optimal"), which keeps the
            # tau=1 acquisition exploring; centered targets would predict the
            # candidate mean (positive after reweighting) and stall in high-D.
            return gp_fit(U, phi_vals, KernelParams(params.signal_variance,
                                                    params.lengthscale, noise))
        except SingularKernelError:
            noise = max(noise * 100.0, 1e-10)
            warnings_log.append(
                f"singular surrogate kernel; noise floor raised to {noise:g}"
            )
    raise SingularKernelError("surrogate kernel stayed singular despite noise")


def run_adagpr(model: ModelHandle, cfg: AlgoConfig) -> AlgoReport:
    """Adaptive algorithm: GP surrogate of phi drives the candidate search.

    Works on the unit cube (the design space is affinely mapped); candidate
    Jacobians are the only model derivatives ever evaluated. Each iteration:
    optimal weights -> exact phi at candidates -> GP refit (noise level by CV
    on its schedule; signal variance and an isotropic lengthscale by marginal
    likelihood every time, then one lengthscale per input dimension refined
    from that fit and from the previous per-dimension fit)
    -> acquisition minimization with the current tau -> exact evaluation at
    the new point -> tau toggle. Stops on objective progress stagnation.
    """
    box = model.bounds
    d_x, d_theta = model.d_x, model.d_theta
    timings = TimingBreakdown()
    t_start = time.perf_counter()
    jac_before = model.n_jacobian_evals
    warnings_log: list = []

    n0 = cfg.n_initial if cfg.n_initial is not None else max(10 * d_x, d_theta + 2)
    if n0 < d_theta + 1:
        raise InvalidInputError(f"n_initial must be >= d_theta + 1 = {d_theta + 1}")
    stream = SobolStream(d_x)
    U = stream.next(n0)

    t0 = time.perf_counter()
    jacobians = model.jacobian_batch(box.from_unit(U))
    timings.jacobian += time.perf_counter() - t0
    mus = fisher_at_points(jacobians, cfg.sigma_eps)

    extra = 0
    while not is_invertible(mus.mean(axis=0)):
        if extra >= MAX_INIT_RESAMPLES:
            raise InitializationError(
                "initial information matrix stayed singular while extending "
                "the Sobol candidate set"
            )
        u_new = stream.next(1)
        t0 = time.perf_counter()
        jac_new = model.jacobian_batch(box.from_unit(u_new))
        timings.jacobian += time.perf_counter() - t0
        U = np.vstack([U, u_new])
        mus = np.concatenate([mus, fisher_at_points(jac_new, cfg.sigma_eps)])
        extra += 1

    tau = 1.0
    warm = None
    alpha = None
    last_iso: KernelParams | None = None
    params: KernelParams | None = None
    trace = []
    termination = "max_iterations"
    iterations = 0
    sol = None
    n_solved = U.shape[0]

    for n_iter in range(1, cfg.max_iterations + 1):
        iterations = n_iter
        t0 = time.perf_counter()
        sol = optimize_weights(mus, cfg.criterion, tol=cfg.weight_tol,
                               warm_start=warm)
        timings.weights += time.perf_counter() - t0
        n_solved = mus.shape[0]
        trace.append(sol.objective)
        if progress_stop(trace, n_iter):
            termination = "progress"
            break

        M = information_matrix(sol.weights, mus)
        phi_vals = directional_derivatives(M, mus, cfg.criterion)

        t0 = time.perf_counter()
        settings = cfg.adagpr
        if (n_iter <= settings.alpha_refresh_initial
                or n_iter % settings.alpha_refresh_every == 0 or alpha is None):
            alpha = select_alpha_cv(U, phi_vals, kernel=last_iso)
        last_iso = select_hypers(U, phi_vals, alpha, start=last_iso)
        params = select_hypers(U, phi_vals, alpha, start=params,
                               per_dimension=True, isotropic=last_iso)
        gp = _fit_surrogate(U, phi_vals, params, warnings_log)
        timings.hyperparameters += time.perf_counter() - t0

        t0 = time.perf_counter()
        u_new = minimize_acquisition(AcquisitionSpec(gp, tau), stream,
                                     settings.n_starts)
        timings.acquisition += time.perf_counter() - t0

        jac_new = None
        for _ in range(settings.max_point_rejections):
            try:
                t0 = time.perf_counter()
                jac_new = model.jacobian(box.from_unit(u_new))
                timings.jacobian += time.perf_counter() - t0
                break
            except NonFiniteModelError as exc:
                timings.jacobian += time.perf_counter() - t0
                warnings_log.append(f"rejected non-finite point: {exc}")
                u_new = stream.next(1)[0]
        if jac_new is None:
            raise NonFiniteModelError(
                "model stayed non-finite after replacing the acquisition "
                f"point {settings.max_point_rejections} times"
            )
        mu_new = fisher_at_point(jac_new, cfg.sigma_eps)
        phi_new = directional_derivative(M, mu_new, cfg.criterion)

        U = np.vstack([U, u_new])
        mus = np.concatenate([mus, mu_new[None]])

        tau = next_tau(tau, phi_new)

        delta = _blend_fraction(M, mu_new, cfg.criterion)
        warm = np.append(sol.weights * (1.0 - delta), max(delta, 1e-12))

    # Report the design over the candidates of the last weight solve; a
    # candidate appended after it was never reweighted or certified.
    U_report = U[:n_solved]
    M = information_matrix(sol.weights, mus[:n_solved])
    design = Design(box.from_unit(U_report), sol.weights)
    timings.total = time.perf_counter() - t_start
    return AlgoReport(
        design=design,
        clustered_design=cluster_design(design, box=box),
        objective=criterion_value(M, cfg.criterion),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        jacobian_evals=model.n_jacobian_evals - jac_before,
        timings=timings,
        termination=termination,
        criterion=cfg.criterion,
        information_matrix=M,
        warnings=warnings_log,
    )
