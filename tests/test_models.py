import numpy as np
import pytest

from oed.exceptions import InvalidInputError, NonFiniteModelError
from oed.flash import methanol_acetone_flash, methanol_water_flash
from oed.models import Box, ModelHandle, QuadraticModel, fd_jacobian, \
    quadratic_jacobian, quadratic_model
from oed.yeast import YeastModel


class PowerModel(ModelHandle):
    """f(x, theta) = theta^2 (scalar), for differentiation checks."""

    def __init__(self, theta0=3.0):
        super().__init__(Box([0.0], [1.0]), [theta0])

    def _eval_batch(self, xs, thetas):
        return thetas[:, :1] ** 2


class LinearModel(ModelHandle):
    def __init__(self):
        super().__init__(Box([0.0], [1.0]), [1.0, -2.0])
        self.A = np.array([[2.0, 1.0], [0.5, -1.0], [3.0, 0.0]])  # (d_y, d_theta)

    def _eval_batch(self, xs, thetas):
        return thetas @ self.A.T


class ConstantModel(ModelHandle):
    def __init__(self):
        super().__init__(Box([0.0], [1.0]), [1.0, 2.0])

    def _eval_batch(self, xs, thetas):
        return np.full((xs.shape[0], 1), 7.0)


class ExplodingModel(ModelHandle):
    def __init__(self):
        super().__init__(Box([0.0], [1.0]), [1.0])

    def _eval_batch(self, xs, thetas):
        return np.where(thetas[:, :1] > 1.0, np.inf, 0.0)


class TestBox:
    def test_unit_round_trip(self):
        box = Box([0.0, 0.5], [1.0, 5.0])
        x = np.array([0.3, 2.0])
        assert np.allclose(box.from_unit(box.to_unit(x)), x)

    def test_contains(self):
        box = Box([0.0], [1.0])
        assert box.contains([0.5])
        assert not box.contains([1.5])

    def test_contains_stack_of_points(self):
        box = Box([0.0, 0.0], [1.0, 2.0])
        assert box.contains([[0.0, 0.0], [1.0 + 5e-10, 2.0], [0.5, 1.0]])
        assert not box.contains([[0.5, 1.0], [0.5, 2.0 + 2e-9]])
        assert not box.contains([[0.5, np.nan]])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidInputError):
            Box([1.0], [0.0])


class TestFdJacobian:
    def test_quadratic_parameter(self):
        model = PowerModel(3.0)
        J = fd_jacobian(model, [0.0])
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_map_exact(self):
        model = LinearModel()
        J = fd_jacobian(model, [0.0])
        assert np.allclose(J, model.A.T, atol=1e-9)

    def test_constant_model_zero(self):
        J = fd_jacobian(ConstantModel(), [0.0])
        assert np.allclose(J, 0.0)

    def test_counters(self):
        model = LinearModel()
        fd_jacobian(model, [0.0])
        assert model.n_jacobian_evals == 1
        assert model.n_evals == 2 * model.d_theta

    def test_non_finite_output_raises(self):
        with pytest.raises(NonFiniteModelError):
            fd_jacobian(ExplodingModel(), [0.0])


class TestQuadraticModel:
    def test_value_at_origin(self):
        theta = (5.0, 2.0, 3.0)
        assert quadratic_model(0.0, theta) == pytest.approx(5.0)
        assert np.allclose(quadratic_jacobian(0.0).ravel(), [1.0, 0.0, 0.0])

    def test_value_and_jacobian_at_two(self):
        assert quadratic_model(2.0, (1.0, 1.0, 1.0)) == pytest.approx(7.0)
        assert np.allclose(quadratic_jacobian(2.0).ravel(), [1.0, 2.0, 4.0])

    def test_jacobian_independent_of_theta(self):
        model = QuadraticModel()
        rng = np.random.default_rng(1)
        x = [0.4]
        J = model.jacobian(x)
        for _ in range(5):
            other = QuadraticModel(theta_nominal=rng.normal(size=3))
            assert np.allclose(other.jacobian(x), J)

    def test_analytic_jacobian_matches_fd(self):
        model = QuadraticModel()
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            analytic = model.jacobian([x])
            fd = fd_jacobian(QuadraticModel(), [x])
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_analytic_path_skips_model_evals(self):
        model = QuadraticModel()
        model.jacobian([0.5])
        assert model.n_jacobian_evals == 1
        assert model.n_evals == 0


class TestModelHandle:
    def test_eval_counts(self):
        model = LinearModel()
        model.eval([0.0])
        model.eval([0.0], [2.0, 0.0])
        assert model.n_evals == 2

    def test_eval_uses_nominal_theta_by_default(self):
        model = PowerModel(3.0)
        assert model.eval([0.0])[0] == pytest.approx(9.0)

    def test_jacobian_batch_default_is_one_central_difference_call(self):
        model = LinearModel()
        batch = model.jacobian_batch([[0.0], [0.5]])
        assert batch.shape == (2, 2, 3)
        assert model.n_jacobian_evals == 2


BUNDLED_MODELS = {
    "quadratic": QuadraticModel,
    "flash-water": methanol_water_flash,
    "flash-acetone": methanol_acetone_flash,
    "yeast-as-printed": YeastModel,
    "yeast-classical": lambda: YeastModel(substrate_form="classical"),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_MODELS))
def test_jacobian_is_the_batch_at_one_point(name):
    single, batch = BUNDLED_MODELS[name](), BUNDLED_MODELS[name]()
    rng = np.random.default_rng(5)
    for x in rng.uniform(single.bounds.lower, single.bounds.upper, size=(2, single.d_x)):
        assert np.array_equal(single.jacobian(x), batch.jacobian_batch([x])[0])
    assert (single.n_evals, single.n_jacobian_evals) == \
        (batch.n_evals, batch.n_jacobian_evals)
    assert single.n_jacobian_evals == 2
