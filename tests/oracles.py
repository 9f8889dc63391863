"""Reference implementations that the tests compare the package against."""

import numpy as np

from oed.exceptions import InvalidInputError
from oed.flash import T_BRACKET_K, _bubble_residual, _vapor_fraction
from oed.yeast import PIECE_H, T_END_H


def control_at(u_steps, t: float) -> float:
    """Step-function control value at time t: piece j covers [4j, 4(j+1))."""
    u = np.asarray(u_steps, dtype=float).ravel()
    if u.shape[0] != 5:
        raise InvalidInputError(f"expected 5 control steps, got {u.shape[0]}")
    if not 0.0 <= t <= T_END_H:
        raise InvalidInputError(f"t={t} outside [0, {T_END_H}] h")
    j = 4 if t == T_END_H else int(t // PIECE_H)
    return float(u[j])


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step for dy/dt = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bubble_point_batch_64(x_m, P_pa, nrtl, substances):
    """Bubble points (y_m_vap, T_celsius) by exactly 64 bisection halvings of
    the temperature bracket, with no bracket or finiteness checks."""
    lo = np.full_like(x_m, T_BRACKET_K[0])
    hi = np.full_like(x_m, T_BRACKET_K[1])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        neg = _bubble_residual(mid, x_m, P_pa, nrtl, substances) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    T = 0.5 * (lo + hi)
    return _vapor_fraction(T, x_m, P_pa, nrtl, substances), T - 273.15
