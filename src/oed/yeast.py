"""Fed-batch yeast fermentation: an 11-D design input, 20-D output model.

State: biomass concentration y1 and substrate concentration y2 [g/l] over
t in [0, 20] h, driven by piecewise-constant dilution u1 [1/h] and feed
substrate concentration u2 [g/l] (five 4-hour pieces each):

    dy1/dt = (r - u1 - theta4) * y1,      r = theta1 * y2 / (theta2 + y2)
    dy2/dt = -r * u1 / theta3 + u1 * (u2 - y2)        ("as-printed")
    dy2/dt = -r * y1 / theta3 + u1 * (u2 - y2)        ("classical")

The substrate consumption term is configurable because the printed source
divides the Monod rate by theta3 against the dilution rather than the biomass
as the classical fed-batch form does; the default keeps the printed form.
Integration is classical fixed-step RK4 with h = 0.025 h (chosen so halving
the step moves no output by more than 1e-6 relative), steps aligned with the
control discontinuities; outputs are y1 then y2 sampled at t = 2, 4, ...,
20 h. The unknown parameters are theta1..theta4.

Parameter Jacobians come from forward sensitivities: the two states and
their 2 x 4 sensitivities d(y1, y2)/dtheta are integrated together, ten rows
per design point, through the same RK4 stages as the states. A Jacobian is
therefore the exact derivative of the discrete RK4 map (central differences
agree to within a few 1e-7 of each row's largest entry). ``YeastModel``
evaluates through ``simulate_batch`` and overrides only ``jacobian_batch``;
``oed.models.fd_jacobian`` still gives the central-difference reference.

The right-hand sides and the RK4 step are written once, as plain
expressions on a list of rows: one array per state row for a batch, and
float64 scalars for a single point, which skip numpy's per-call cost and
round the same. The step is the textbook ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``.

A batch integrates each shared control prefix once: points with the same
(y1_0, theta, u1_0..u1_p, u2_0..u2_p) have the same states up to the end of
piece p, so the 15,552-point grid runs 18,660 column-pieces in place of
77,760. Each point still runs the same elementwise operations in the same
order as it would alone, so the results keep their bits.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import InvalidInputError, NonFiniteModelError
from .models import Box, ModelHandle

T_END_H = 20.0
PIECE_H = 4.0
SAMPLE_EVERY_H = 2.0
DEFAULT_STEP_H = 0.025
DEFAULT_Y2_0 = 0.1
SUBSTRATE_FORMS = ("as-printed", "classical")


def _check_step(h: float) -> tuple[int, int, int]:
    """Steps per sample interval / control piece / total; h must tile both."""
    per_sample = round(SAMPLE_EVERY_H / h)
    per_piece = round(PIECE_H / h)
    total = round(T_END_H / h)
    if not (np.isclose(per_sample * h, SAMPLE_EVERY_H)
            and np.isclose(per_piece * h, PIECE_H)
            and np.isclose(total * h, T_END_H)):
        raise InvalidInputError(
            f"step {h} must divide the 2 h sampling and 4 h control intervals"
        )
    return per_sample, per_piece, total


def _rows(a: np.ndarray) -> list:
    """The rows of a (rows, n) array: float64 scalars for one column, array
    rows otherwise. Both run the same IEEE operations, so they round alike;
    the scalars skip numpy's per-call cost."""
    return list(a[:, 0]) if a.shape[1] == 1 else list(a)


def _rhs(y, theta, u1, u2, as_printed: bool) -> list:
    """The model's right-hand side d(y1, y2)/dt on the rows (y1, y2)."""
    b, s = y
    th1, th2, th3, th4 = theta
    r = th1 * s / (th2 + s)
    db = (r - u1 - th4) * b
    consumption = r * (u1 if as_printed else b) / th3
    ds = -consumption + u1 * (u2 - s)
    return [db, ds]


def _sensitivity_rhs(z, theta, u1, u2, as_printed: bool) -> list:
    """Right-hand side on the ten rows (y1, y2, dy1/dtheta, dy2/dtheta), each
    an array over a batch or a float64 scalar for one point.

    The state rows are the model's right-hand side f; the sensitivity rows
    are d/dt dy/dtheta = f_y dy/dtheta + f_theta, built row by row of f_y.
    An algebraically equal rewrite rounds differently, and yeast ADA-GPR's
    search is sensitive to last-bit changes in its Jacobians (README, "Known
    behavior"), so rerun acceptance criterion 6 after touching the formulas.
    """
    th1, th2, th3, th4 = theta
    b, s = z[0], z[1]
    sb, ss = z[2:6], z[6:10]
    den = th2 + s
    q = s / den                          # dr/dtheta1
    r = th1 * q
    r_theta2 = -r / den                  # dr/dtheta2
    r_s = (th1 - r) / den                # dr/dy2
    g = (u1 if as_printed else b) / th3  # the consumption term is r * g
    # f_y = [[f_bb, f_bs], [f_sb (classical only), f_ss]]
    f_bb, f_bs, f_ss = r - u1 - th4, r_s * b, -(r_s * g) - u1
    dsb = [f_bb * sb_j + f_bs * ss_j for sb_j, ss_j in zip(sb, ss)]
    dss = [f_ss * ss_j for ss_j in ss]
    if not as_printed:
        f_sb = r / th3
        dss = [d - f_sb * sb_j for d, sb_j in zip(dss, sb)]
    # f_theta = [[q y1, r_theta2 y1, 0, -y1], [-q g, -r_theta2 g, r g / theta3, 0]]
    return [*_rhs((b, s), theta, u1, u2, as_printed),
            dsb[0] + q * b, dsb[1] + r_theta2 * b, dsb[2], dsb[3] - b,
            dss[0] - q * g, dss[1] - r_theta2 * g, dss[2] + r * g / th3, dss[3]]


def _integrate(rhs, y0: np.ndarray, xs: np.ndarray, theta, as_printed: bool,
               h: float) -> np.ndarray:
    """Fixed-step RK4 of dy/dt = rhs(y, theta, u1, u2, as_printed) under the
    controls of ``xs``.

    ``y0`` is (rows, n), one column per design point; ``theta`` is four
    scalars, or four rows with one value per column. Returns the states at
    the ten sample times t = 2, 4, ..., 20 h, shape (10, rows, n).

    Each piece integrates one column per distinct prefix (module docstring),
    from its parent prefix's end state, and copies its two samples to every
    column with that prefix. Prefixes are compared by their bits, so only
    identical inputs share work; one point runs on float64 scalar rows.
    """
    per_sample, per_piece, total = _check_step(h)
    n = xs.shape[0]
    per_column = np.ndim(theta[0]) > 0
    theta_rows = np.array(theta) if per_column else np.empty((0, n))
    # A piece's key is (parent prefix id, u1_p, u2_p), with floats as their
    # bits; the parent of piece 0 is the start state and any per-column theta.
    key = np.ascontiguousarray(np.vstack([y0, theta_rows]).T, dtype=float).view(np.int64)
    state, parent = y0, np.arange(n)
    out = np.empty((total // per_sample, *y0.shape))
    # Overflow/zero-division in the RHS is legal input behavior (e.g. a Monod
    # denominator crossing zero); the finiteness check below turns it into a
    # typed error, so silence the intermediate numpy warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for piece in range(total // per_piece):
            u = np.ascontiguousarray(xs[:, [1 + piece, 6 + piece]].T)
            _, first, ids = np.unique(np.hstack([key, u.T.view(np.int64)]), axis=0,
                                      return_index=True, return_inverse=True)
            ids = ids.ravel()
            y = _rows(state.take(parent[first], axis=1))
            args = (_rows(theta_rows.take(first, axis=1)) if per_column else theta,
                    *_rows(u.take(first, axis=1)), as_printed)
            for k in range(piece * per_piece, (piece + 1) * per_piece):
                a = rhs(y, *args)
                b = rhs([yi + 0.5 * h * ai for yi, ai in zip(y, a)], *args)
                c = rhs([yi + 0.5 * h * bi for yi, bi in zip(y, b)], *args)
                d = rhs([yi + h * ci for yi, ci in zip(y, c)], *args)
                y = [yi + h / 6.0 * (ai + 2.0 * bi + 2.0 * ci + di)
                     for yi, ai, bi, ci, di in zip(y, a, b, c, d)]
                if not np.isfinite(y).all():
                    raise NonFiniteModelError(
                        f"yeast state became non-finite at t={(k + 1) * h:g} h"
                    )
                if (k + 1) % per_sample == 0:
                    out[(k + 1) // per_sample - 1] = np.reshape(y, (len(y), -1))[:, ids]
            state, parent, key = np.reshape(y, (len(y), -1)), ids, ids[:, None]
    return out


def _as_printed(substrate_form: str) -> bool:
    """Whether ``substrate_form`` names the printed consumption term; any
    name outside ``SUBSTRATE_FORMS`` is rejected."""
    if substrate_form not in SUBSTRATE_FORMS:
        raise InvalidInputError(
            f"substrate_form must be one of {SUBSTRATE_FORMS}, got {substrate_form!r}"
        )
    return substrate_form == "as-printed"


def _check_inputs(xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 11:
        raise InvalidInputError(f"design points must have 11 coordinates, got {xs.shape[1]}")
    return xs


def simulate_batch(xs, thetas, *, y2_0: float = DEFAULT_Y2_0,
                   substrate_form: str = "as-printed",
                   step: float = DEFAULT_STEP_H) -> np.ndarray:
    """Vectorized simulation: (m, 11) inputs x (m, 4) thetas (or one theta row)
    -> (m, 20) outputs, y1 at t = 2, 4, ..., 20 h then y2."""
    as_printed = _as_printed(substrate_form)
    xs = _check_inputs(xs)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != 4:
        raise InvalidInputError(f"expected 4 model parameters, got {thetas.shape[1]}")
    if thetas.shape[0] == 1 and xs.shape[0] > 1:
        thetas = np.broadcast_to(thetas, (xs.shape[0], 4))
    if xs.shape[0] != thetas.shape[0]:
        raise InvalidInputError("xs and thetas batch sizes differ")
    y0 = np.array([xs[:, 0], np.full(xs.shape[0], y2_0)])
    samples = _integrate(_rhs, y0, xs, _rows(thetas.T), as_printed, step)  # (10, 2, m)
    return samples.transpose(2, 1, 0).reshape(xs.shape[0], 20)


def sensitivity_batch(xs, theta, *, y2_0: float = DEFAULT_Y2_0,
                      substrate_form: str = "as-printed") -> np.ndarray:
    """Exact parameter Jacobians of the sampled outputs, shape (n, 4, 20).

    Integrates the states together with their forward sensitivities through
    the same RK4 stages as :func:`simulate_batch`, so the result is the
    derivative of the discrete RK4 map, not of the continuous ODE.
    """
    as_printed = _as_printed(substrate_form)
    xs = _check_inputs(xs)
    theta = tuple(float(t) for t in np.asarray(theta, dtype=float).ravel())
    if len(theta) != 4:
        raise InvalidInputError(f"expected 4 model parameters, got {len(theta)}")
    n = xs.shape[0]
    z0 = np.vstack([xs[:, 0], np.full(n, y2_0), np.zeros((8, n))])
    samples = _integrate(_sensitivity_rhs, z0, xs, theta, as_printed,
                         DEFAULT_STEP_H)[:, 2:]
    # rows (output y1|y2, theta) -> (n, theta, output, sample time)
    return samples.reshape(10, 2, 4, n).transpose(3, 2, 1, 0).reshape(n, 4, 20)


YEAST_LOWER = [1.0] + [0.05] * 5 + [5.0] * 5
YEAST_UPPER = [10.0] + [0.2] * 5 + [35.0] * 5


class YeastModel(ModelHandle):
    """Yeast DoE model; exact Jacobians from one vectorized forward-sensitivity
    solve per batch (also for a single point), with no model evaluations."""

    def __init__(self, theta_nominal=(0.5, 0.5, 0.5, 0.5),
                 y2_0: float = DEFAULT_Y2_0, substrate_form: str = "as-printed"):
        _as_printed(substrate_form)
        if (isinstance(y2_0, bool) or not isinstance(y2_0, numbers.Real)
                or not 0.0 <= y2_0 < np.inf):
            raise InvalidInputError(f"y2_0 must be a finite number >= 0, got {y2_0!r}")
        names = (["y1_0"] + [f"u1{j}" for j in range(5)]
                 + [f"u2{j}" for j in range(5)])
        outputs = [f"y1_t{2 * j + 2}" for j in range(10)] + \
                  [f"y2_t{2 * j + 2}" for j in range(10)]
        super().__init__(Box(YEAST_LOWER, YEAST_UPPER), theta_nominal,
                         coord_names=names, output_names=outputs, n_theta=4)
        self.y2_0 = y2_0
        self.substrate_form = substrate_form

    def _eval_batch(self, xs, thetas):
        return simulate_batch(xs, thetas, y2_0=self.y2_0,
                              substrate_form=self.substrate_form)

    def jacobian_batch(self, xs) -> np.ndarray:
        return sensitivity_batch(xs, self.theta_nominal, y2_0=self.y2_0,
                                 substrate_form=self.substrate_form)
