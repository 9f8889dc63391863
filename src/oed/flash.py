"""Two-component flash at negligible vapor draw: a bubble-point model.

With feed rate fixed and a vanishing vapor stream the liquid composition
equals the feed, so the unit reduces to solving

    P = x_m * gamma_m(x_m, T) * P0_m(T) + x_w * gamma_w(x_m, T) * P0_w(T)

for the equilibrium temperature T, with NRTL activity coefficients and
extended-Antoine pure-component vapor pressures (output in Pa; design-space
pressure is in bar, temperature is reported in degrees Celsius). The unknown
model parameters are the four NRTL interaction parameters.
One vectorized bisection on T in [250, 600] K solves every bubble point. It
halves until no bracket can shrink any more, that is until every midpoint
rounds onto an end of its bracket (some 53 halvings). The work that depends
on the composition alone is done once per batch, and each halving evaluates
unchecked private forms of the public NRTL and vapor-pressure expressions,
in their operation order. The model's Jacobians are central differences of
it over one batch. A single bubble point is ``FlashModel(substances,
nrtl).eval([x_m, P_bar])``, which returns ``(y_m_vap, T_celsius)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NoSolutionError, NonFiniteModelError
from .models import Box, ModelHandle

NRTL_ALPHA = 0.3
PA_PER_BAR = 1e5
T_BRACKET_K = (250.0, 600.0)


@dataclass(frozen=True)
class SubstanceParams:
    """Extended-Antoine coefficients: P0(T) = exp(A + B/T + C ln T + D T^E) [Pa]."""

    A: float
    B: float
    C: float
    D: float
    E: float

    def __post_init__(self):
        if self.E not in (1, 2, 3):
            raise InvalidInputError(f"vapor-pressure exponent E must be 1, 2 or 3, got {self.E}")


METHANOL = SubstanceParams(100.986, -7210.917, -12.44128, 1.307676e-2, 1)
WATER = SubstanceParams(64.36627, -6955.958, -5.802231, 3.114927e-9, 3)
ACETONE = SubstanceParams(78.89993, -5980.876, -8.636991, 7.92829e-6, 2)


@dataclass(frozen=True)
class NrtlParams:
    """Binary NRTL interaction parameters; the b's are in Kelvin."""

    a12: float
    a21: float
    b12: float
    b21: float


METHANOL_WATER_NRTL = NrtlParams(-3.8, 6.6, 1337.558, -1900.0)
METHANOL_ACETONE_NRTL = NrtlParams(4.1052, -4.4461, -1264.515, 1582.698)


def _vapor_pressure(substance: SubstanceParams, T, log_T):
    return np.exp(substance.A + substance.B / T + substance.C * log_T
                  + substance.D * T**substance.E)


def vapor_pressure(substance: SubstanceParams, T):
    """Pure-component vapor pressure in Pa at temperature T [K], as an array."""
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise InvalidInputError("temperature must be positive (Kelvin)")
    return _vapor_pressure(substance, T, np.log(T))


def _check_fraction(x_m) -> None:
    if np.any((x_m < 0) | (x_m > 1)):
        raise InvalidInputError("mole fraction must lie in [0, 1]")


def _gammas(x_m, x_w, x_m2, x_w2, T, params: NrtlParams):
    """NRTL (gamma_m, gamma_w) from the fractions, their squares and T."""
    tau12 = params.a12 + params.b12 / T
    tau21 = params.a21 + params.b21 / T
    G12 = np.exp(-NRTL_ALPHA * tau12)
    G21 = np.exp(-NRTL_ALPHA * tau21)
    den_m = x_m + x_w * G21
    den_w = x_w + x_m * G12
    ln_gm = x_w2 * (tau21 * (G21 / den_m) ** 2 + tau12 * G12 / den_w**2)
    ln_gw = x_m2 * (tau12 * (G12 / den_w) ** 2 + tau21 * G21 / den_m**2)
    return np.exp(ln_gm), np.exp(ln_gw)


def nrtl_gammas(x_m, T, params: NrtlParams):
    """Activity coefficients (gamma_m, gamma_w) at liquid fraction x_m and T [K].

    Standard binary NRTL with tau_ij = a_ij + b_ij/T and the fixed
    non-randomness factor 0.3; component 1 is methanol, component 2 the
    partner substance. Returns two arrays of the broadcast shape.
    """
    x_m = np.asarray(x_m, dtype=float)
    T = np.asarray(T, dtype=float)
    _check_fraction(x_m)
    if np.any(T <= 0):
        raise InvalidInputError("temperature must be positive (Kelvin)")
    x_w = 1.0 - x_m
    return _gammas(x_m, x_w, x_m**2, x_w**2, T, params)


def _vapor_fraction(T, x_m, P_pa, nrtl, substances):
    """Methanol vapor fraction at the bubble point T."""
    gamma_m, _ = nrtl_gammas(x_m, T, nrtl)
    return x_m * gamma_m * vapor_pressure(substances[0], T) / P_pa


def _bubble_point_batch(x_m, P_pa, nrtl: NrtlParams, substances):
    """(y_m_vap, T_celsius) by vectorized bisection over equal-shape arrays;
    the fields of ``nrtl`` may hold one parameter set per point. Raises
    ``InvalidInputError`` for a mole fraction outside [0, 1],
    ``NonFiniteModelError`` on a non-finite residual and ``NoSolutionError``
    when the residual does not change sign across the bracket.

    The work that depends on x alone (the fraction check, ``x_w`` and both
    squares) is done once per batch; each halving evaluates the unchecked
    NRTL and vapor-pressure forms, in the operation order of the public
    :func:`nrtl_gammas` and :func:`vapor_pressure`. Every T lies in the
    bracket, so their T > 0 checks could never fire here.
    """
    _check_fraction(x_m)
    x_w = 1.0 - x_m
    x_m2, x_w2 = x_m**2, x_w**2
    sub_m, sub_w = substances

    def residual(T):
        # Overflow in the NRTL terms is legal input behavior; the finiteness
        # check below turns it into a typed error, so silence numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            gamma_m, gamma_w = _gammas(x_m, x_w, x_m2, x_w2, T, nrtl)
            log_T = np.log(T)
            res = (x_m * gamma_m * _vapor_pressure(sub_m, T, log_T)
                   + x_w * gamma_w * _vapor_pressure(sub_w, T, log_T) - P_pa)
        if not np.all(np.isfinite(res)):
            raise NonFiniteModelError("non-finite bubble-point residual")
        return res

    lo = np.full_like(x_m, T_BRACKET_K[0])
    hi = np.full_like(x_m, T_BRACKET_K[1])
    if np.any(residual(lo) >= 0) or np.any(residual(hi) <= 0):
        raise NoSolutionError(f"no bubble point in {T_BRACKET_K} K")
    # Halve until every midpoint rounds onto its bracket's end: no bracket
    # can shrink any more, and further steps would leave lo and hi as they are.
    T = 0.5 * (lo + hi)
    while np.any((T != lo) & (T != hi)):
        neg = residual(T) < 0
        lo = np.where(neg, T, lo)
        hi = np.where(neg, hi, T)
        T = 0.5 * (lo + hi)
    return _vapor_fraction(T, x_m, P_pa, nrtl, substances), T - 273.15


class FlashModel(ModelHandle):
    """Flash DoE model: inputs (x_m, P [bar]) -> outputs (y_m_vap, T [C]).

    The unknown parameters are the NRTL (a12, a21, b12, b21). Evaluation is
    one vectorized bubble-point solve over the whole batch, so the central
    differences of :meth:`ModelHandle.jacobian_batch` cost one solve for all
    perturbed points.
    """

    def __init__(self, substances=(METHANOL, WATER),
                 theta_nominal=METHANOL_WATER_NRTL):
        if isinstance(theta_nominal, NrtlParams):
            theta_nominal = (theta_nominal.a12, theta_nominal.a21,
                             theta_nominal.b12, theta_nominal.b21)
        super().__init__(Box([0.0, 0.5], [1.0, 5.0]), theta_nominal,
                         coord_names=["x_m", "P_bar"],
                         output_names=["y_m_vap", "T_celsius"], n_theta=4)
        self.substances = substances

    def _eval_batch(self, xs, thetas):
        y_m, T_c = _bubble_point_batch(xs[:, 0], xs[:, 1] * PA_PER_BAR,
                                       NrtlParams(*thetas.T), self.substances)
        return np.stack([y_m, T_c], axis=-1)


def methanol_water_flash() -> FlashModel:
    return FlashModel((METHANOL, WATER), METHANOL_WATER_NRTL)


def methanol_acetone_flash() -> FlashModel:
    return FlashModel((METHANOL, ACETONE), METHANOL_ACETONE_NRTL)
