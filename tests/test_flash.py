import sys
import threading

import numpy as np
import pytest
from oracles import (
    bubble_point_batch_64,
    bubble_point_by_public_formulas,
    bubble_residual,
)
from scipy.optimize import brentq

import oed.flash
from oed.bench import flash_grid
from oed.exceptions import InvalidInputError, NoSolutionError, NonFiniteModelError
from oed.flash import (
    ACETONE,
    FlashModel,
    METHANOL,
    METHANOL_ACETONE_NRTL,
    METHANOL_WATER_NRTL,
    NRTL_ALPHA,
    NrtlParams,
    SubstanceParams,
    WATER,
    methanol_acetone_flash,
    methanol_water_flash,
    nrtl_gammas,
    vapor_pressure,
)

ATM_PA = 101_325.0


def pure_boiling_point(substance):
    """Independent oracle: root of P0(T) = 1 atm on the pure-component curve."""
    return brentq(lambda T: vapor_pressure(substance, T) - ATM_PA, 250.0, 600.0,
                  xtol=1e-10)


def brentq_flash(x, theta, substances):
    """Independent oracle for the flash outputs (y_m_vap, T [C]): brentq on the
    bubble-point residual, in place of the package's bisection."""
    x_m, P_pa = x[0], x[1] * 1e5
    nrtl = NrtlParams(*theta)
    T = brentq(bubble_residual, 250.0, 600.0, args=(x_m, P_pa, nrtl, substances),
               xtol=1e-12, rtol=4 * np.finfo(float).eps)
    gm, _ = nrtl_gammas(x_m, T, nrtl)
    return np.array([x_m * gm * vapor_pressure(substances[0], T) / P_pa,
                     T - 273.15])


def brentq_flash_jacobian(x, theta, substances):
    """Central differences of :func:`brentq_flash`, one parameter at a time."""
    rows = []
    for j in range(len(theta)):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up, down = np.array(theta, float), np.array(theta, float)
        up[j] += h
        down[j] -= h
        rows.append((brentq_flash(x, up, substances)
                     - brentq_flash(x, down, substances)) / (2.0 * h))
    return np.stack(rows)


def bubble_point(x_m, P_bar, nrtl, substances=(METHANOL, WATER)):
    """One bubble point (y_m_vap, T_celsius) through ``FlashModel.eval``."""
    y_m, T_c = FlashModel(substances, nrtl).eval([x_m, P_bar])
    return y_m, T_c


class TestVaporPressure:
    def test_water_at_normal_boiling_point(self):
        assert vapor_pressure(WATER, 373.15) == pytest.approx(ATM_PA, rel=0.02)

    def test_acetone_at_physical_boiling_point(self):
        assert vapor_pressure(ACETONE, 329.2) == pytest.approx(ATM_PA, rel=0.02)

    def test_methanol_curve_boiling_point_oracle(self):
        # Frozen from the oracle above: the published methanol coefficients put
        # the pure 1-atm bubble point at 335.492 K (62.34 C), about 2.3 K below
        # the physical boiling point; the water and acetone rows match their
        # physical boiling points to <0.2%, which pins the output unit to Pa.
        T_b = pure_boiling_point(METHANOL)
        assert T_b == pytest.approx(335.4916, abs=0.01)
        assert vapor_pressure(METHANOL, T_b) == pytest.approx(ATM_PA, rel=1e-9)

    @pytest.mark.parametrize("substance", [METHANOL, WATER, ACETONE])
    def test_strictly_increasing_in_temperature(self, substance):
        T = np.arange(280.0, 500.0 + 0.5, 1.0)
        values = vapor_pressure(substance, T)
        assert np.all(np.diff(values) > 0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InvalidInputError):
            vapor_pressure(WATER, 0.0)

    def test_exponent_validated(self):
        with pytest.raises(InvalidInputError):
            SubstanceParams(1.0, -1.0, 0.0, 0.0, 4)


class TestNrtlGammas:
    def test_pure_component_limit(self):
        gm, _ = nrtl_gammas(1.0, 350.0, METHANOL_WATER_NRTL)
        assert gm == pytest.approx(1.0, abs=1e-14)

    def test_infinite_dilution_closed_form(self):
        p = METHANOL_WATER_NRTL
        T = 350.0
        tau12 = p.a12 + p.b12 / T
        tau21 = p.a21 + p.b21 / T
        expected = np.exp(tau21 + tau12 * np.exp(-NRTL_ALPHA * tau12))
        gm, _ = nrtl_gammas(1e-10, T, p)
        assert gm == pytest.approx(expected, rel=1e-8)

    def test_index_swap_symmetry(self):
        rng = np.random.default_rng(3)
        p = METHANOL_ACETONE_NRTL
        swapped = NrtlParams(p.a21, p.a12, p.b21, p.b12)
        for _ in range(10):
            x = float(rng.uniform())
            T = float(rng.uniform(280, 420))
            gm, gw = nrtl_gammas(x, T, p)
            gw2, gm2 = nrtl_gammas(1.0 - x, T, swapped)
            assert gm == pytest.approx(gm2, rel=1e-12)
            assert gw == pytest.approx(gw2, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(InvalidInputError):
            nrtl_gammas(1.2, 300.0, METHANOL_WATER_NRTL)
        with pytest.raises(InvalidInputError):
            nrtl_gammas(0.5, -1.0, METHANOL_WATER_NRTL)


class TestFlashSolve:
    def test_pure_water_boiling_point(self):
        _, T_c = bubble_point(0.0, 1.01325, METHANOL_WATER_NRTL)
        assert T_c == pytest.approx(100.0, abs=0.5)

    def test_pure_methanol_bubble_point_matches_oracle(self):
        _, T_c = bubble_point(1.0, 1.01325, METHANOL_WATER_NRTL)
        assert T_c == pytest.approx(pure_boiling_point(METHANOL) - 273.15, abs=1e-6)

    def test_vapor_fractions_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x_m = float(rng.uniform())
            P = float(rng.uniform(0.5, 5.0))
            y_m, T_c = bubble_point(x_m, P, METHANOL_WATER_NRTL)
            T = T_c + 273.15
            gm, gw = nrtl_gammas(x_m, T, METHANOL_WATER_NRTL)
            y_w = (1 - x_m) * gw * vapor_pressure(WATER, T) / (P * 1e5)
            assert y_m + y_w == pytest.approx(1.0, abs=1e-9)

    def test_temperature_increases_with_pressure(self):
        temps = [bubble_point(0.4, P, METHANOL_WATER_NRTL)[1]
                 for P in np.linspace(0.5, 5.0, 12)]
        assert np.all(np.diff(temps) > 0)

    def test_temperature_decreases_with_methanol_fraction(self):
        temps = [bubble_point(x, 1.01325, METHANOL_WATER_NRTL)[1]
                 for x in np.linspace(0.0, 1.0, 21)]
        assert np.all(np.diff(temps) < 0)

    def test_light_component_enriches_vapor(self):
        y_m, _ = bubble_point(0.3, 1.01325, METHANOL_WATER_NRTL)
        assert y_m > 0.3  # methanol boils lower, so the vapor is richer in it

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            bubble_point(-0.1, 1.0, METHANOL_WATER_NRTL)
        with pytest.raises(InvalidInputError):
            methanol_water_flash().jacobian_batch([[0.5, 1.0], [1.1, 1.0]])

    def test_no_bracket_raises(self):
        # Hugely negative interaction parameters inflate the activity
        # coefficients beyond the bracket at every temperature.
        bad = NrtlParams(-60.0, -60.0, 0.0, 0.0)
        with pytest.raises(NoSolutionError):
            bubble_point(0.5, 0.5, bad)

    def test_non_finite_residual_raises(self):
        # tau21 = 800 overflows gamma_m to inf, and x_m * gamma_m = 0 * inf is
        # NaN at every temperature; the solver must not bisect down to the
        # bracket floor.
        with pytest.raises(NonFiniteModelError):
            bubble_point(0.0, 1.0, NrtlParams(0.0, 800.0, 0.0, 0.0))

    def test_matches_brentq_oracle(self):
        rng = np.random.default_rng(4)
        theta = methanol_water_flash().theta_nominal
        for _ in range(10):
            x = [float(rng.uniform()), float(rng.uniform(0.5, 5.0))]
            got = bubble_point(x[0], x[1], METHANOL_WATER_NRTL)
            want = brentq_flash(x, theta, (METHANOL, WATER))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestFlashModel:
    def test_eval_matches_flash_solve(self):
        # The flash solve to match is the independent brentq root.
        model = methanol_water_flash()
        y = model.eval([0.3, 2.0])
        y_m, T_c = brentq_flash([0.3, 2.0], model.theta_nominal, model.substances)
        assert np.allclose(y, [y_m, T_c])

    def test_batch_jacobian_matches_brentq_oracle(self):
        # Dual route: the package's bisection and central differences against
        # a second root-finder with its own differencing loop.
        xs = np.array([[0.15, 0.8], [0.5, 3.2], [0.92, 4.7]])
        for model in (methanol_water_flash(), methanol_acetone_flash()):
            batch = model.jacobian_batch(xs)
            for k, x in enumerate(xs):
                oracle = brentq_flash_jacobian(x, model.theta_nominal,
                                               model.substances)
                np.testing.assert_allclose(batch[k], oracle, rtol=1e-6, atol=1e-7)

    def test_grid_jacobians_equal_fixed_64_step_bisection(self, monkeypatch):
        # The bisection stops once no bracket can shrink; 64 halvings must
        # give the same bits on both mixtures' full grids.
        grid = flash_grid()
        for build in (methanol_water_flash, methanol_acetone_flash):
            J = build().jacobian_batch(grid)
            with monkeypatch.context() as m:
                m.setattr(oed.flash, "_bubble_point_batch", bubble_point_batch_64)
                assert np.array_equal(build().jacobian_batch(grid), J)

    def test_jacobians_equal_the_public_formula_bisection(self, monkeypatch):
        # The bisection does its composition-only work once per batch and
        # calls unchecked forms of the formulas; the checked public formulas
        # on every halving must give the same bits on both mixtures' full
        # grids and at single points.
        grid = flash_grid()
        points = [[0.0, 0.5], [0.37, 1.9], [0.5, 2.75], [0.93, 4.4], [1.0, 5.0]]
        for build in (methanol_water_flash, methanol_acetone_flash):
            J = build().jacobian_batch(grid)
            y = np.array([build().eval(x) for x in points])
            with monkeypatch.context() as m:
                m.setattr(oed.flash, "_bubble_point_batch",
                          bubble_point_by_public_formulas)
                assert np.array_equal(build().jacobian_batch(grid), J)
                assert np.array_equal([build().eval(x) for x in points], y)

    def test_chunked_bubble_points_equal_one_batch_bit_for_bit(self, monkeypatch):
        # Rows are split into contiguous chunks solved on threads; on 1, 2
        # and 3 CPUs (the last chunk uneven) the full grids' Jacobians and
        # the evaluations at single points and as one batch keep the bits of
        # the one-chunk solve. A short switch interval interleaves the
        # threads' writes into the shared output arrays as often as it can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._check_chunked_solves(monkeypatch)
        finally:
            sys.setswitchinterval(interval)

    def _check_chunked_solves(self, monkeypatch):
        grid = flash_grid()
        points = np.array([[0.0, 0.5], [0.37, 1.9], [0.5, 2.75], [0.93, 4.4], [1.0, 5.0]])
        bisect = oed.flash._bisect
        chunks = []

        def counted(x_m, *args):
            chunks.append(x_m.shape[0])
            return bisect(x_m, *args)

        monkeypatch.setattr(oed.flash, "_bisect", counted)
        for build in (methanol_water_flash, methanol_acetone_flash):
            model = build()
            thetas = np.tile(model.theta_nominal, (len(points), 1))
            solves = []
            for cpus in (1, 2, 3):
                monkeypatch.setattr(oed.flash, "usable_cpus", lambda cpus=cpus: cpus)
                monkeypatch.setattr(oed.flash, "CHUNK_ROWS", 1_000)
                chunks.clear()
                J = model.jacobian_batch(grid)
                assert len(chunks) == cpus and sum(chunks) == 8 * len(grid)
                y = np.array([model.eval(x) for x in points])
                monkeypatch.setattr(oed.flash, "CHUNK_ROWS", 2)
                solves.append((J, y, model._eval_batch(points, thetas)))
            J1, y1, batch1 = solves[0]
            assert np.array_equal(batch1, y1)
            for J, y, batch in solves[1:]:
                assert np.array_equal(J, J1)
                assert np.array_equal(y, y1)
                assert np.array_equal(batch, y1)

    @pytest.mark.parametrize("row", [15, 25])
    @pytest.mark.parametrize("bad, x_m, P_bar, error", [
        (NrtlParams(-60.0, -60.0, 0.0, 0.0), 0.5, 0.5, NoSolutionError),
        (NrtlParams(0.0, 800.0, 0.0, 0.0), 0.0, 1.0, NonFiniteModelError),
    ], ids=["no-bracket", "overflow"])
    def test_error_in_a_later_chunk_keeps_its_type(self, monkeypatch, row, bad,
                                                    x_m, P_bar, error):
        # A failing row only in chunk 2 or 3 of three raises the one-chunk
        # solve's error, after every thread has ended.
        xs = np.linspace(0.05, 0.95, 30)
        P_pa = np.full(30, 1e5)
        xs[row], P_pa[row] = x_m, P_bar * 1e5
        fields = np.tile(list(vars(METHANOL_WATER_NRTL).values()), (30, 1))
        fields[row] = list(vars(bad).values())
        nrtl = NrtlParams(*fields.T)
        monkeypatch.setattr(oed.flash, "CHUNK_ROWS", 10)
        for cpus in (1, 3):
            monkeypatch.setattr(oed.flash, "usable_cpus", lambda cpus=cpus: cpus)
            before = threading.active_count()
            with pytest.raises(error):
                oed.flash._bubble_point_batch(xs, P_pa, nrtl, (METHANOL, WATER))
            assert threading.active_count() == before

    def test_bad_fraction_raises_before_any_thread_starts(self, monkeypatch):
        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(oed.flash, "CHUNK_ROWS", 10)
        monkeypatch.setattr(oed.flash, "usable_cpus", lambda: 3)
        xs = np.linspace(0.05, 0.95, 30)
        xs[25] = 1.5
        with pytest.raises(InvalidInputError):
            oed.flash._bubble_point_batch(xs, np.full(30, 1e5), METHANOL_WATER_NRTL,
                                          (METHANOL, WATER))

    def test_non_finite_jacobian_raises(self):
        model = FlashModel(theta_nominal=(0.0, 800.0, 0.0, 0.0))
        with pytest.raises(NonFiniteModelError):
            model.jacobian_batch([[0.0, 1.0]])

    def test_jacobian_finite_over_design_box(self):
        model = methanol_acetone_flash()
        xs = np.array([[x, P] for x in np.linspace(0, 1, 7)
                       for P in np.linspace(0.5, 5, 7)])
        J = model.jacobian_batch(xs)
        assert np.all(np.isfinite(J))

    def test_counters_track_batch(self):
        model = methanol_water_flash()
        J = model.jacobian_batch(np.array([[0.2, 1.0], [0.6, 2.0]]))
        assert J.shape == (2, model.d_theta, len(model.output_names))

    def test_acetone_variant_wired(self):
        model = methanol_acetone_flash()
        _, T_c = bubble_point(1.0, 1.01325, METHANOL_ACETONE_NRTL,
                              substances=model.substances)
        assert T_c == pytest.approx(pure_boiling_point(METHANOL) - 273.15, abs=1e-6)
