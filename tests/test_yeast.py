import numpy as np
import pytest

from oed.bench import yeast_grid
from oed.exceptions import InvalidInputError, NonFiniteModelError
from oed.models import fd_jacobian
from oed.yeast import DEFAULT_STEP_H, YeastModel, simulate_batch
from oracles import control_at, rk4_step, sensitivity_by_stack

X_REF = np.array([5.0, 0.1, 0.2, 0.05, 0.15, 0.1, 10.0, 30.0, 5.0, 20.0, 35.0])
THETA_REF = np.array([0.5, 0.5, 0.5, 0.5])


def prefix_stress_batch(seed=13):
    """A shuffled batch that exercises the grouping by control prefix:
    grid and random rows, duplicates, copies that share a prefix only up to
    piece 0, 2 or 3 (one control of the next piece moved), and copies with
    another y1_0."""
    rng = np.random.default_rng(seed)
    grid = yeast_grid()
    model = YeastModel()
    base = np.vstack([grid[rng.choice(grid.shape[0], 3, replace=False)],
                      rng.uniform(model.bounds.lower, model.bounds.upper, size=(2, 11))])
    rows = [base, base[:2]]
    for piece in (0, 2, 3):
        for col, (lo, hi) in ((2 + piece, (0.05, 0.2)), (7 + piece, (5.0, 35.0))):
            moved = base.copy()
            moved[:, col] = rng.uniform(lo, hi, size=len(base))
            rows.append(moved)
    other_y1 = base.copy()
    other_y1[:, 0] = rng.uniform(1.0, 10.0, size=len(base))
    xs = np.vstack([*rows, other_y1])
    rng.shuffle(xs)
    return xs


def reference_simulation(x, theta, y2_0=0.1, substrate_form="as-printed",
                         h=DEFAULT_STEP_H):
    """Plain scalar-loop oracle: RK4 over explicit control pieces."""
    u1, u2 = x[1:6], x[6:11]
    state = np.array([x[0], y2_0])

    def rhs(t, s, u1v, u2v):
        b, sub = s
        r = theta[0] * sub / (theta[1] + sub)
        db = (r - u1v - theta[3]) * b
        cons = r * (u1v if substrate_form == "as-printed" else b) / theta[2]
        return np.array([db, -cons + u1v * (u2v - sub)])

    out = np.empty(20)
    steps = round(20.0 / h)
    for k in range(steps):
        t = k * h
        piece = min(int(round(t / h)) // round(4.0 / h), 4)
        f = lambda tt, ss: rhs(tt, ss, u1[piece], u2[piece])  # noqa: E731
        state = rk4_step(f, t, state, h)
        t_next = (k + 1) * h
        if abs(t_next / 2.0 - round(t_next / 2.0)) < 1e-9:
            col = int(round(t_next / 2.0)) - 1
            out[col] = state[0]
            out[10 + col] = state[1]
    return out


class TestControlAt:
    def test_first_piece(self):
        assert control_at([1, 2, 3, 4, 5], 0.0) == 1.0

    def test_right_open_boundary(self):
        assert control_at([1, 2, 3, 4, 5], 4.0) == 2.0

    def test_end_time_closure(self):
        assert control_at([1, 2, 3, 4, 5], 20.0) == 5.0

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            control_at([1, 2, 3, 4, 5], -0.1)
        with pytest.raises(InvalidInputError):
            control_at([1, 2, 3, 4, 5], 20.1)
        with pytest.raises(InvalidInputError):
            control_at([1, 2, 3], 1.0)


class TestRk4:
    def test_exponential_decay_single_step(self):
        y = rk4_step(lambda t, s: -s, 0.0, np.array([1.0]), 0.1)
        assert y[0] == pytest.approx(0.90483742, abs=1e-7)


class TestYeastSimulate:
    def test_analytic_decay(self):
        # theta1 = theta4 = 0 decouples y1: dy1/dt = -u1*y1 with constant u1.
        x = np.array([5.0] + [0.05] * 5 + [20.0] * 5)
        theta = np.array([0.0, 0.5, 0.5, 0.0])
        out = simulate_batch(x, theta)[0]
        expected = 5.0 * np.exp(-0.05 * np.arange(2, 22, 2))
        assert np.allclose(out[:10], expected, rtol=1e-6)

    def test_output_layout(self):
        out = simulate_batch(X_REF, THETA_REF)[0]
        assert out.shape == (20,)
        # first ten entries are biomass samples: positive and distinct from y2
        assert np.all(out[:10] > 0)

    def test_matches_scalar_reference(self):
        for form in ("as-printed", "classical"):
            ours = simulate_batch(X_REF, THETA_REF, substrate_form=form)[0]
            ref = reference_simulation(X_REF, THETA_REF, substrate_form=form)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)

    def test_piecewise_integration_invariance(self):
        # Integrating piece by piece (forcing breaks at t = 4k) must agree to
        # float tolerance since steps already align with the control pieces.
        ours = simulate_batch(X_REF, THETA_REF)[0]
        ref = reference_simulation(X_REF, THETA_REF)
        assert np.max(np.abs(ours - ref)) < 1e-12

    def test_step_halving_convergence(self):
        rng = np.random.default_rng(0)
        model = YeastModel()
        lo, hi = model.bounds.lower, model.bounds.upper
        for _ in range(20):
            x = rng.uniform(lo, hi)
            a = simulate_batch(x, THETA_REF, step=DEFAULT_STEP_H)[0]
            b = simulate_batch(x, THETA_REF, step=DEFAULT_STEP_H / 2)[0]
            assert np.max(np.abs((a - b) / b)) < 1e-6

    def test_biomass_stays_positive(self):
        rng = np.random.default_rng(5)
        model = YeastModel()
        lo, hi = model.bounds.lower, model.bounds.upper
        xs = rng.uniform(lo, hi, size=(50, 11))
        out = simulate_batch(xs, THETA_REF[None, :].repeat(50, axis=0))
        assert np.all(out[:, :10] > 0)

    def test_substrate_forms_differ(self):
        a = simulate_batch(X_REF, THETA_REF, substrate_form="as-printed")[0]
        b = simulate_batch(X_REF, THETA_REF, substrate_form="classical")[0]
        assert not np.allclose(a, b)

    def test_bad_form_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate_batch(X_REF, THETA_REF, substrate_form="monod")

    def test_misaligned_step_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate_batch(X_REF, THETA_REF, step=0.3)

    def test_non_finite_state_detected(self):
        # theta2 < 0 puts the Monod denominator through zero in the first
        # step, which ends at t = 0.025 h.
        with pytest.raises(NonFiniteModelError, match=r"non-finite at t=0\.025 h$"):
            simulate_batch(X_REF, np.array([0.5, -0.1, 0.5, 0.5]))

    def test_non_finite_row_in_a_grouped_batch_detected(self):
        # One bad theta among good rows that share its controls: the grouped
        # integration still checks every step, and fails at the first.
        xs = np.vstack([X_REF, X_REF, prefix_stress_batch()])
        thetas = np.tile(THETA_REF, (len(xs), 1))
        thetas[1, 1] = -0.1
        with pytest.raises(NonFiniteModelError, match=r"non-finite at t=0\.025 h$"):
            simulate_batch(xs, thetas)

    @pytest.mark.parametrize("form", ["as-printed", "classical"])
    def test_grouped_batch_equals_points_one_at_a_time(self, form):
        # A single point runs ungrouped on float64 scalars, so it is the
        # oracle for every row of a batch grouped by control prefix; the
        # second batch is the central-difference layout, eight thetas per
        # point.
        xs = prefix_stress_batch()
        batch = simulate_batch(xs, THETA_REF, substrate_form=form)
        for x, row in zip(xs, batch):
            assert np.array_equal(simulate_batch(x, THETA_REF, substrate_form=form)[0], row)
        step = 1e-4 * np.eye(4)
        thetas = np.tile(np.vstack([THETA_REF + step, THETA_REF - step]), (10, 1))
        fd_xs = np.repeat(xs[:10], 8, axis=0)
        batch = simulate_batch(fd_xs, thetas, substrate_form=form)
        for x, theta, row in zip(fd_xs, thetas, batch):
            assert np.array_equal(simulate_batch(x, theta, substrate_form=form)[0], row)


class TestYeastModel:
    def test_exact_jacobian_matches_generic_fd(self):
        rng = np.random.default_rng(11)
        grid = yeast_grid()
        lower, upper = YeastModel().bounds.lower, YeastModel().bounds.upper
        xs = np.vstack([grid[rng.choice(grid.shape[0], 4, replace=False)],
                        rng.uniform(lower, upper, size=(3, 11))])
        for form in ("as-printed", "classical"):
            exact = YeastModel(substrate_form=form).jacobian_batch(xs)
            fd = np.stack([fd_jacobian(YeastModel(substrate_form=form), x)
                           for x in xs])
            # each (point, theta) row against that row's largest entry
            row_error = np.abs(exact - fd).max(axis=-1) / np.abs(fd).max(axis=-1)
            assert row_error.max() < 1e-6, form

    def test_batch_rows_match_single_point_jacobians(self):
        # A single point runs ungrouped on float64 scalars, so it is the
        # oracle for every row of a batch grouped by control prefix.
        xs = prefix_stress_batch()
        for form in ("as-printed", "classical"):
            model = YeastModel(substrate_form=form)
            for x, J in zip(xs, model.jacobian_batch(xs)):
                assert np.array_equal(model.jacobian(x), J)

    @pytest.mark.parametrize("form", ["as-printed", "classical"])
    def test_bit_for_bit_against_the_in_place_stack(self, form):
        # 512 grid rows and 256 random points as one batch (array rows), and
        # 20 of the random points one at a time (float64 scalar rows). The
        # batch also holds all 1,296 grid rows with one piece-0 prefix
        # (y1_0, u1_0, u2_0), which contain whole families of every later
        # piece, shuffled with 3,000 more grid rows.
        rng = np.random.default_rng(4)
        grid = yeast_grid()
        model = YeastModel(substrate_form=form)
        lower, upper = model.bounds.lower, model.bounds.upper
        family = grid[np.all(grid[:, [0, 1, 6]] == grid[5, [0, 1, 6]], axis=1)]
        assert family.shape[0] == 1296
        shared = np.vstack([family, grid[rng.choice(grid.shape[0], 3000)]])
        rng.shuffle(shared)
        xs = np.vstack([grid[rng.choice(grid.shape[0], 512, replace=False)],
                        rng.uniform(lower, upper, size=(256, 11)), shared])
        oracle = sensitivity_by_stack(xs, model.theta_nominal, substrate_form=form)
        assert np.array_equal(model.jacobian_batch(xs), oracle)
        for i in range(512, 532):
            assert np.array_equal(model.jacobian(xs[i]), oracle[i])

    def test_zero_dilution_oracle(self):
        # With u1 = 0 (as printed) the substrate stays at y2_0, so
        # y1 = y1_0 exp((r - theta4) t) with the Monod rate r frozen, and the
        # sensitivities are t y1 dr/dtheta1, t y1 dr/dtheta2, 0 and -t y1.
        theta = np.array([0.6, 0.3, 0.4, 0.2])
        y2_0 = 0.1
        x = np.array([4.0] + [0.0] * 5 + [20.0] * 5)
        model = YeastModel(theta_nominal=theta, y2_0=y2_0)
        J = model.jacobian(x)
        t = np.arange(2.0, 21.0, 2.0)
        den = theta[1] + y2_0
        r = theta[0] * y2_0 / den
        y1 = x[0] * np.exp((r - theta[3]) * t)
        expected_y1 = np.stack([t * y1 * y2_0 / den, -t * y1 * r / den,
                                np.zeros_like(t), -t * y1])
        np.testing.assert_allclose(J[:, :10], expected_y1, rtol=1e-8, atol=0)
        assert np.all(J[:, 10:] == 0.0)

    def test_jacobian_non_finite_state_detected(self):
        # theta2 < 0 puts the Monod denominator through zero.
        model = YeastModel(theta_nominal=(0.5, -0.1, 0.5, 0.5))
        with pytest.raises(NonFiniteModelError, match=r"non-finite at t=0\.025 h$"):
            model.jacobian(X_REF)

    def test_jacobian_shape_and_counters(self):
        model = YeastModel()
        J = model.jacobian(X_REF)
        assert J.shape == (4, 20)

    def test_bounds(self):
        model = YeastModel()
        assert model.d_x == 11
        assert model.bounds.contains(X_REF)
        assert not model.bounds.contains(np.append(X_REF[:10], 40.0))
