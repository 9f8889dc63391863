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
"""

from __future__ import annotations

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


def _rhs(state, theta, u1, u2, as_printed: bool) -> np.ndarray:
    """The model's right-hand side d(y1, y2)/dt for a (2, n) state."""
    b, s = state
    th1, th2, th3, th4 = theta
    r = th1 * s / (th2 + s)
    db = (r - u1 - th4) * b
    consumption = r * (u1 if as_printed else b) / th3
    ds = -consumption + u1 * (u2 - s)
    return np.array([db, ds])


def _sensitivity_rhs(z, theta, u1, u2, as_printed: bool) -> np.ndarray:
    """Right-hand side for the (10, n) stack (y1, y2, dy1/dtheta, dy2/dtheta).

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
    dz = np.empty_like(z)
    dz[:2] = _rhs(z[:2], theta, u1, u2, as_printed)
    dsb, dss = dz[2:6], dz[6:10]
    # f_y = [[r - u1 - theta4, r_s y1], [-r / theta3 (classical only), -r_s g - u1]]
    np.multiply(r - u1 - th4, sb, out=dsb)
    dsb += (r_s * b) * ss
    np.multiply(-(r_s * g) - u1, ss, out=dss)
    if not as_printed:
        dss -= (r / th3) * sb
    # f_theta = [[q y1, r_theta2 y1, 0, -y1], [-q g, -r_theta2 g, r g / theta3, 0]]
    dsb[0] += q * b
    dsb[1] += r_theta2 * b
    dsb[3] -= b
    dss[0] -= q * g
    dss[1] -= r_theta2 * g
    dss[2] += r * g / th3
    return dz


def _integrate(rhs, state, xs, step: float) -> np.ndarray:
    """Fixed-step RK4 of dz/dt = rhs(z, u1, u2) under the controls of ``xs``.

    ``state`` is (rows, n), one column per design point. Returns the states
    at the ten sample times t = 2, 4, ..., 20 h, shape (10, rows, n).
    """
    per_sample, per_piece, total = _check_step(step)
    samples = np.empty((total // per_sample,) + state.shape)
    state = state.copy()
    stage = np.empty_like(state)
    h = step
    # Overflow/zero-division in the RHS is legal input behavior (e.g. a Monod
    # denominator crossing zero); the finiteness check below turns it into a
    # typed error, so silence the intermediate numpy warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(total):
            piece = min(k // per_piece, 4)
            u1 = xs[:, 1 + piece]
            u2 = xs[:, 6 + piece]
            # Updated in place, in the operation order of state + h/6 (k1 +
            # 2 k2 + 2 k3 + k4) and of the stage states state + h/2 k1,
            # state + h/2 k2, state + h k3, so results equal that formula's
            # bit for bit.
            k1 = rhs(state, u1, u2)
            np.multiply(k1, 0.5 * h, out=stage)
            stage += state
            k2 = rhs(stage, u1, u2)
            np.multiply(k2, 0.5 * h, out=stage)
            stage += state
            k3 = rhs(stage, u1, u2)
            np.multiply(k3, h, out=stage)
            stage += state
            k4 = rhs(stage, u1, u2)
            k2 *= 2.0
            k3 *= 2.0
            k1 += k2
            k1 += k3
            k1 += k4
            k1 *= h / 6.0
            state += k1
            if not np.isfinite(state).all():
                raise NonFiniteModelError(
                    f"yeast state became non-finite at t={(k + 1) * h:.1f} h"
                )
            if (k + 1) % per_sample == 0:
                samples[(k + 1) // per_sample - 1] = state
    return samples


def _check_inputs(xs, substrate_form: str) -> np.ndarray:
    if substrate_form not in SUBSTRATE_FORMS:
        raise InvalidInputError(
            f"substrate_form must be one of {SUBSTRATE_FORMS}, got {substrate_form!r}"
        )
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 11:
        raise InvalidInputError(f"design points must have 11 coordinates, got {xs.shape[1]}")
    return xs


def simulate_batch(xs, thetas, *, y2_0: float = DEFAULT_Y2_0,
                   substrate_form: str = "as-printed",
                   step: float = DEFAULT_STEP_H) -> np.ndarray:
    """Vectorized simulation: (m, 11) inputs x (m, 4) thetas (or one theta row)
    -> (m, 20) outputs, y1 at t = 2, 4, ..., 20 h then y2."""
    xs = _check_inputs(xs, substrate_form)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != 4:
        raise InvalidInputError(f"expected 4 model parameters, got {thetas.shape[1]}")
    if thetas.shape[0] == 1 and xs.shape[0] > 1:
        thetas = np.broadcast_to(thetas, (xs.shape[0], 4))
    if xs.shape[0] != thetas.shape[0]:
        raise InvalidInputError("xs and thetas batch sizes differ")
    as_printed = substrate_form == "as-printed"
    theta = tuple(thetas.T)

    def rhs(state, u1, u2):
        return _rhs(state, theta, u1, u2, as_printed)

    state = np.array([xs[:, 0], np.full(xs.shape[0], y2_0)])
    samples = _integrate(rhs, state, xs, step)      # (10, 2, m)
    return samples.transpose(2, 1, 0).reshape(xs.shape[0], 20)


def sensitivity_batch(xs, theta, *, y2_0: float = DEFAULT_Y2_0,
                      substrate_form: str = "as-printed",
                      step: float = DEFAULT_STEP_H) -> np.ndarray:
    """Exact parameter Jacobians of the sampled outputs, shape (n, 4, 20).

    Integrates the states together with their forward sensitivities through
    the same RK4 stages as :func:`simulate_batch`, so the result is the
    derivative of the discrete RK4 map, not of the continuous ODE.
    """
    xs = _check_inputs(xs, substrate_form)
    theta = tuple(float(t) for t in np.asarray(theta, dtype=float).ravel())
    if len(theta) != 4:
        raise InvalidInputError(f"expected 4 model parameters, got {len(theta)}")
    as_printed = substrate_form == "as-printed"

    def rhs(z, u1, u2):
        return _sensitivity_rhs(z, theta, u1, u2, as_printed)

    n = xs.shape[0]
    z = np.zeros((10, n))
    z[0] = xs[:, 0]
    z[1] = y2_0
    samples = _integrate(rhs, z, xs, step)[:, 2:]   # (10, 8, n)
    # rows (output y1|y2, theta) -> (n, theta, output, sample time)
    return samples.reshape(10, 2, 4, n).transpose(3, 2, 1, 0).reshape(n, 4, 20)


YEAST_LOWER = [1.0] + [0.05] * 5 + [5.0] * 5
YEAST_UPPER = [10.0] + [0.2] * 5 + [35.0] * 5


class YeastModel(ModelHandle):
    """Yeast DoE model; exact Jacobians from one vectorized forward-sensitivity
    solve per batch (also for a single point), which counts Jacobians but no
    model evaluations."""

    def __init__(self, theta_nominal=(0.5, 0.5, 0.5, 0.5),
                 y2_0: float = DEFAULT_Y2_0, substrate_form: str = "as-printed"):
        if substrate_form not in SUBSTRATE_FORMS:
            raise InvalidInputError(
                f"substrate_form must be one of {SUBSTRATE_FORMS}, got {substrate_form!r}"
            )
        names = (["y1_0"] + [f"u1{j}" for j in range(5)]
                 + [f"u2{j}" for j in range(5)])
        outputs = [f"y1_t{2 * j + 2}" for j in range(10)] + \
                  [f"y2_t{2 * j + 2}" for j in range(10)]
        super().__init__(Box(YEAST_LOWER, YEAST_UPPER), theta_nominal,
                         coord_names=names, output_names=outputs)
        self.y2_0 = y2_0
        self.substrate_form = substrate_form

    def _eval_batch(self, xs, thetas):
        return simulate_batch(xs, thetas, y2_0=self.y2_0,
                              substrate_form=self.substrate_form)

    def jacobian_batch(self, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        jac = sensitivity_batch(xs, self.theta_nominal, y2_0=self.y2_0,
                                substrate_form=self.substrate_form)
        self._bump(jacobians=xs.shape[0])
        return jac
