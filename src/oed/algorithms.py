"""The three design algorithms: VDM, YBT exchange and the adaptive ADA-GPR.

VDM (:func:`run_vdm`) runs its own loop, a running average that moves
weight ``1/(n0 + k)`` to the grid argmin of phi; under log-D a lazy scan
finds it, evaluating only the grid points whose bound can still win. YBT and
ADA-GPR share the re-solve loop (:func:`_exchange`): each iteration solves
the convex weight problem on the candidates, then adds a proposal, the grid
argmin of phi or the minimizer of a GP acquisition. All three certify
optimality through the directional derivative phi: the grid methods
terminate once ``min phi > -epsilon`` over the whole grid, the adaptive
algorithm by an objective-progress heuristic (its phi condition is certified
on the candidate set only, since the continuous-space minimum is
approximated by a GP surrogate).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from .acquisition import SobolStream, minimize_acquisition
from .designs import (
    Criterion,
    Design,
    SigmaEps,
    _gradient,
    criterion_value,
    directional_derivatives,
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
# ADA-GPR: acquisition multistarts, the noise-refresh schedule (every
# iteration for the first 10, every 10th afterwards) and how often a
# non-finite acquisition point is replaced by the next Sobol point.
N_STARTS = 10
ALPHA_REFRESH_INITIAL = 10
ALPHA_REFRESH_EVERY = 10
MAX_POINT_REJECTIONS = 50
# VDM's lazy scan: the relative slack on its bounds, far above the rounding
# of a row's v (a GEMV on a row subset differs from the full one by up to
# ~4e-13 relative).
LAZY_SLACK = 1e-9
# Timing buckets of a run; a report's timings add "total", the run's wall time.
BUCKETS = ("jacobian", "phi_scan", "weights", "acquisition", "hyperparameters")


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

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidInputError("epsilon must be positive and finite")
        if self.rng_seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")

    @property
    def weight_tol(self) -> float:
        # Inner weight solves must certify tighter than the outer epsilon.
        return min(1e-6, 0.01 * self.epsilon)


@dataclass
class AlgoReport:
    """Run record: final design, objective trace and bookkeeping.

    ``design`` is the algorithm's reported design (YBT prunes weights below
    0.001 as the tables do); ``clustered_design`` additionally merges nearby
    support points. ``objective`` and ``information_matrix`` refer to the
    unpruned final iterate. The trace holds the minimized criterion value per
    iteration. ``jacobian_evals`` counts the model Jacobians the run asked
    for; ``timings`` maps each of ``BUCKETS`` and ``"total"`` to seconds.
    """

    design: Design
    clustered_design: Design
    objective: float
    objective_trace: np.ndarray
    iterations: int
    jacobian_evals: int
    timings: dict
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


def progress_stop(objective_trace) -> bool:
    """Stop heuristic: no stop for 50 iterations, then compare the current
    objective against iteration ``max(ceil(0.6 n), n - 50)``, where ``n`` is
    the trace length."""
    trace = np.asarray(objective_trace, dtype=float)
    n_cur = trace.shape[0]
    if n_cur <= PROGRESS_MIN_ITERATIONS:
        return False
    n_stop = max(math.ceil(0.6 * n_cur), n_cur - PROGRESS_WINDOW)
    return bool(abs(trace[n_cur - 1] - trace[n_stop - 1]) < PROGRESS_DELTA)


def cluster_design(design: Design, box=None) -> Design:
    """Merge support points closer than ``CLUSTER_RADIUS`` (transitive single
    linkage).

    Weights below 0.001 are dropped first; each cluster becomes the plain mean
    of its members with the summed weight, and weights are renormalized.
    Distances are measured in unit-cube coordinates when ``box`` is given
    (the radius is specified on that scale). "Closer" holds beyond rounding:
    two points one radius apart, such as neighbours on a grid of that step,
    never merge, whichever way their difference rounds.
    """
    pruned = design.pruned(PRUNE_WEIGHT)
    pts = pruned.points
    if pts.shape[0] == 1:
        return pruned
    coords = box.to_unit(pts) if box is not None else pts
    adjacency = squareform(pdist(coords) < CLUSTER_RADIUS * (1 - 1e-9)).astype(np.int8)
    np.fill_diagonal(adjacency, 1)
    n_comp, labels = connected_components(adjacency, directed=False)
    centers = np.empty((n_comp, pts.shape[1]))
    weights = np.empty(n_comp)
    for c in range(n_comp):
        members = labels == c
        centers[c] = pts[members].mean(axis=0)
        weights[c] = pruned.weights[members].sum()
    return Design(centers, weights / weights.sum())


def check_inputs(model: ModelHandle, cfg: AlgoConfig, grid=None):
    """Model-dependent checks shared by the algorithms and problem files.

    ``n_initial`` must be at least ``d_theta + 1``, ``sigma_eps`` must match
    the model's output count when the model names its outputs, and a grid
    needs one column per design coordinate, at least as many rows as the
    initial design (``n_initial``, default ``d_theta + 1``), and must lie in
    the design bounds widened by 1e-9. Returns the grid as a float
    ``(n, d_x)`` array, or None.
    """
    n_min = model.d_theta + 1
    if cfg.n_initial is not None and cfg.n_initial < n_min:
        raise InvalidInputError(f"n_initial must be >= d_theta + 1 = {n_min}")
    d_y = len(model.output_names or ())
    if cfg.sigma_eps is not None and d_y and cfg.sigma_eps.d_y != d_y:
        raise InvalidInputError(f"sigma_eps must be {d_y}x{d_y}, one row per model output")
    if grid is None:
        return None
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != model.d_x:
        raise InvalidInputError(
            f"grid has {grid.shape[1]} coordinates, model expects {model.d_x}"
        )
    if not model.bounds.contains(grid):
        raise InvalidInputError("grid contains points outside the design bounds")
    n0 = cfg.n_initial or n_min
    if grid.shape[0] < n0:
        raise InvalidInputError(
            f"grid has {grid.shape[0]} points, fewer than the {n0} of the "
            f"initial design")
    return grid


class _Run:
    """The one run recorder: it counts the model Jacobians the run asks for,
    times every bucket, collects warnings and builds the report."""

    def __init__(self, model: ModelHandle, cfg: AlgoConfig):
        self.model = model
        self.cfg = cfg
        self.timings = dict.fromkeys(BUCKETS, 0.0)
        self.jacobian_evals = 0
        self.warnings: list = []
        self.t_start = time.perf_counter()

    def timed(self, bucket: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its time added to the ``bucket`` timing."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timings[bucket] += time.perf_counter() - t0

    def fisher(self, points) -> np.ndarray:
        """The Fisher stack at the rows of ``points``; its model Jacobians are
        timed and counted, and a call that raises counts nothing. A
        non-finite Jacobian raises ``NonFiniteModelError`` at its point."""
        jac = self.timed("jacobian", self.model.jacobian_batch, points)
        finite = np.isfinite(jac).reshape(jac.shape[0], -1).all(axis=1)
        if not finite.all():
            raise NonFiniteModelError(f"model returned a non-finite Jacobian "
                                      f"at x={np.asarray(points)[~finite][0]}")
        mus = fisher_at_points(jac, self.cfg.sigma_eps)
        self.jacobian_evals += jac.shape[0]
        return mus

    def report(self, design: Design, M: np.ndarray, trace,
               termination: str) -> AlgoReport:
        """The report on the final ``design``, whose information matrix is ``M``."""
        self.timings["total"] = time.perf_counter() - self.t_start
        return AlgoReport(
            design=design,
            clustered_design=cluster_design(design, box=self.model.bounds),
            objective=criterion_value(M, self.cfg.criterion),
            objective_trace=np.asarray(trace),
            iterations=len(trace),
            jacobian_evals=self.jacobian_evals,
            timings=self.timings,
            termination=termination,
            criterion=self.cfg.criterion,
            information_matrix=M,
            warnings=self.warnings,
        )


def _exchange(run: _Run, keys: list, cand: np.ndarray, propose,
              to_points) -> AlgoReport:
    """The re-solve loop of YBT and ADA-GPR.

    ``keys`` name the candidates, ``cand`` stacks their Fisher matrices. Each
    iteration solves the optimal weights on the candidates, warm-started with
    the last proposal's line-searched mass fraction (a capped solve continues
    from its best iterate, with a warning), records the objective and asks
    ``propose(sol, trace, keys, cand)`` for a new ``(key, mu)`` or a
    termination reason; ``sol`` is the solve's :class:`WeightSolution`, its
    M and the candidates' phi included. The report covers the candidates of
    the last solve, at ``to_points(keys)``.
    """
    cfg = run.cfg
    warm = None
    trace = []
    termination = "max_iterations"
    for k in range(1, cfg.max_iterations + 1):
        sol = run.timed("weights", optimize_weights, cand, cfg.criterion,
                        tol=cfg.weight_tol, warm_start=warm)
        if not sol.converged:
            run.warnings.append(
                f"iteration {k}: weight optimization did not reach "
                f"tol={cfg.weight_tol} within {sol.iterations} iterations; continued "
                f"from its best iterate (min phi {sol.kkt_residual:.3e})")
        trace.append(sol.objective)
        proposal = propose(sol, trace, keys, cand)
        if isinstance(proposal, str):
            termination = proposal
            break
        key, mu = proposal
        delta = _line_search(sol.information_matrix, mu, 0.5, cfg.criterion)
        warm = np.append(sol.weights * (1.0 - delta), max(delta, 1e-12))
        keys.append(key)
        cand = np.concatenate([cand, mu[None]])

    n = sol.weights.shape[0]
    return run.report(Design(to_points(keys[:n]), sol.weights),
                      sol.information_matrix, trace, termination)


def _grid_start(model: ModelHandle, grid, cfg: AlgoConfig):
    """The grid methods' set-up: every grid Jacobian once and an invertible
    random start, its grid indices ``keys``."""
    grid = check_inputs(model, cfg, grid)
    run = _Run(model, cfg)
    mus = run.fisher(grid)
    n0 = cfg.n_initial if cfg.n_initial is not None else model.d_theta + 1
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(MAX_INIT_RESAMPLES):
        idx0 = np.sort(rng.choice(grid.shape[0], size=n0, replace=False))
        if is_invertible(mus[idx0].mean(axis=0)):
            break
    else:
        raise InitializationError(f"no invertible initial information matrix "
                                  f"in {MAX_INIT_RESAMPLES} resamples")
    return run, grid, mus, idx0.tolist()


def run_vdm(model: ModelHandle, grid, cfg: AlgoConfig) -> AlgoReport:
    """Vertex Direction Method on a precomputed grid.

    A running average: iteration k moves weight ``alpha = 1/(n0 + k)`` to the
    phi-minimizing grid point and rescales the rest, as if every selected
    point were a new candidate; a re-selected point takes it at its place
    instead of duplicating. The weights are normalized once, at the end.
    Every grid Jacobian is evaluated exactly once up front.

    Under log-D the scan for that point is lazy (Minoux's accelerated greedy
    bound). ``M' = (1 - alpha) M + alpha mu_j`` gives ``M'^-1 <= M^-1 / (1 -
    alpha)``, so no row's ``v = tr(M^-1 mu)`` grows faster than the scalar
    ``scale``. Each iteration evaluates ``v`` at the last winner and then,
    with one GEMV, only the rows whose stored bound ``scale * bound`` (with a
    relative slack of ``LAZY_SLACK`` for rounding) reaches it; those rows'
    bounds are refreshed. The rows taken are ascending, so a tie still goes
    to the lowest grid index. A GEMV on a row subset may round a row's ``v``
    unlike the full scan in the last bits, so only a near-tie could move the
    design; the tests compare both scans bit for bit. A and
    E scan the whole grid every iteration: ``t -> t^2`` is not operator
    monotone, so ``M'^-1 <= M^-1 / (1 - alpha)`` does not bound A's ``G =
    M'^-2`` by ``M^-2 / (1 - alpha)^2``, and E's ``lambda_min`` projector has
    no bound at all. The objective trace is read off one stacked
    ``eigvalsh`` of the iterates after the loop (``n_iterations * d_theta^2``
    doubles: 1.3 MB for 10,000 iterations at ``d_theta = 4``).
    """
    run, grid, mus, keys = _grid_start(model, grid, cfg)
    flat = mus.reshape(mus.shape[0], -1)
    lazy = cfg.criterion is Criterion.LOGD
    bound, scale = None, 1.0

    def scan(M, last):
        """The phi-minimizing grid index at M and its phi; ``last`` is the
        previous winner (None on the first call)."""
        nonlocal bound
        _, c, G = _gradient(M, cfg.criterion)
        g = G.ravel()
        if last is None or not lazy:
            rows, v = None, flat @ g
            if lazy:
                bound = v / scale
        else:
            reach = (flat[last] @ g) / (scale * (1.0 + LAZY_SLACK))
            rows = np.flatnonzero(bound >= reach)
            v = flat[rows] @ g
            bound[rows] = v / scale
        phi = c - v
        i = int(np.argmin(phi))
        return (i if rows is None else int(rows[i])), phi[i]

    n0 = len(keys)
    w = np.full(n0, 1.0 / n0)
    M = mus[keys].mean(axis=0)
    position = {j: i for i, j in enumerate(keys)}
    iterates = []
    j = None
    termination = "max_iterations"
    for k in range(1, cfg.max_iterations + 1):
        iterates.append(M)
        j, phi_j = run.timed("phi_scan", scan, M, j)
        if phi_j > -cfg.epsilon:
            termination = "epsilon"
            break
        alpha = 1.0 / (n0 + k)
        w *= 1.0 - alpha
        M = (1.0 - alpha) * M + alpha * mus[j]
        scale /= 1.0 - alpha
        if j not in position:
            position[j] = len(keys)
            keys.append(j)
            w = np.append(w, 0.0)
        w[position[j]] += alpha

    trace = run.timed("phi_scan", criterion_value, np.array(iterates), cfg.criterion)
    w = w / w.sum()
    M = information_matrix(w, mus[keys])
    return run.report(Design(grid[keys], w), M, trace, termination)


def run_ybt(model: ModelHandle, grid, cfg: AlgoConfig) -> AlgoReport:
    """YBT exchange algorithm on a precomputed grid.

    Each iteration solves the optimal-weight problem on the candidate set,
    then appends the phi-minimizing grid point; terminates once
    ``min phi > -epsilon`` holds over the full grid, which certifies the
    design by the equivalence theorem (up to epsilon). The reported design
    drops weights below 0.001, as the published tables do.
    """
    run, grid, mus, keys = _grid_start(model, grid, cfg)

    def propose(sol, *_):
        phi = run.timed("phi_scan", directional_derivatives,
                        sol.information_matrix, mus, cfg.criterion)
        j = int(np.argmin(phi))
        if phi[j] > -cfg.epsilon:
            return "epsilon"
        return j, mus[j]

    report = _exchange(run, keys, mus[keys], propose, lambda keys: grid[keys])
    report.design = report.design.pruned(PRUNE_WEIGHT)
    return report


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
    check_inputs(model, cfg)
    box = model.bounds
    run = _Run(model, cfg)
    n0 = (cfg.n_initial if cfg.n_initial is not None
          else max(10 * model.d_x, model.d_theta + 2))
    stream = SobolStream(model.d_x)
    U = stream.next(n0)
    mus = run.fisher(box.from_unit(U))
    for extra in range(MAX_INIT_RESAMPLES + 1):
        if is_invertible(mus.mean(axis=0)):
            break
        if extra == MAX_INIT_RESAMPLES:
            raise InitializationError("initial information matrix stayed singular "
                                      "while extending the Sobol candidate set")
        u_new = stream.next(1)
        mus = np.concatenate([mus, run.fisher(box.from_unit(u_new))])
        U = np.vstack([U, u_new])

    tau, alpha, iso, params = 1.0, None, None, None
    rejected = []  # unit points whose model evaluation was non-finite

    def _refit(U, phi_vals, n_iter):
        """The GP refit; a singular kernel raises the noise floor."""
        nonlocal alpha, iso, params
        if n_iter <= ALPHA_REFRESH_INITIAL or n_iter % ALPHA_REFRESH_EVERY == 0:
            alpha = select_alpha_cv(U, phi_vals, kernel=iso)
        iso = select_hypers(U, phi_vals, alpha, start=iso)
        params = select_hypers(U, phi_vals, alpha, start=params, isotropic=iso)
        noise = params.noise
        for _ in range(8):
            try:
                # Zero-mean conditioning, not target centering: far from data
                # the surrogate then predicts 0 ("possibly optimal"), which
                # keeps the tau=1 acquisition exploring; centered targets
                # would predict the candidate mean (positive after
                # reweighting) and stall in high-D.
                return gp_fit(U, phi_vals, KernelParams(params.signal_variance,
                                                        params.lengthscale, noise))
            except SingularKernelError:
                noise = max(noise * 100.0, 1e-10)
                run.warnings.append(
                    f"singular surrogate kernel; noise floor raised to {noise:g}")
        raise SingularKernelError("surrogate kernel stayed singular despite noise")

    def propose(sol, trace, keys, cand):
        nonlocal tau
        if progress_stop(trace):
            return "progress"
        gp = run.timed("hyperparameters", _refit, np.array(keys), sol.phi, len(trace))
        u_new = run.timed("acquisition", minimize_acquisition, gp, tau,
                          stream.next(N_STARTS))
        # A point the model rejected before is skipped without a model call.
        for _ in range(MAX_POINT_REJECTIONS):
            if not any(np.array_equal(u_new, u) for u in rejected):
                try:
                    mu_new = run.fisher(box.from_unit(u_new)[None])[0]
                    break
                except NonFiniteModelError as exc:
                    run.warnings.append(f"rejected non-finite point: {exc}")
                    rejected.append(u_new)
            u_new = stream.next(1)[0]
        else:
            raise NonFiniteModelError(
                "model stayed non-finite after replacing the acquisition "
                f"point {MAX_POINT_REJECTIONS} times"
            )
        phi_new = run.timed("phi_scan", directional_derivatives,
                            sol.information_matrix, mu_new, cfg.criterion)
        tau = next_tau(tau, phi_new[0])
        return u_new, mu_new

    return _exchange(run, list(U), mus, propose,
                     lambda keys: box.from_unit(np.array(keys)))
