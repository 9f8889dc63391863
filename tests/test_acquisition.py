import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from oracles import posterior_stack
from oed.acquisition import SobolStream, acquisition_value, minimize_acquisition
from oed.exceptions import InvalidInputError, UnsupportedDimensionError
from oed.gp import KernelParams, fit


@pytest.fixture
def gp_two_points():
    return fit([[0.2], [0.8]], [1.0, 1.0], KernelParams(1.0, 0.25, 0.0))


class TestSobolStream:
    def test_first_points_1d(self):
        stream = SobolStream(1)
        assert np.allclose(stream.next(3).ravel(), [0.5, 0.75, 0.25])

    def test_first_point_2d(self):
        assert np.allclose(SobolStream(2).next(1), [[0.5, 0.5]])

    def test_stream_continuation(self):
        split = SobolStream(3)
        a = np.vstack([split.next(2), split.next(1)])
        b = SobolStream(3).next(3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 11])
    def test_one_engine_reproduces_the_stream(self, dim):
        # 400 draws of 1-11 points continue one engine: together they equal
        # one long draw from a fresh stream, and the unscrambled sequence
        # from its second point.
        counts = np.random.default_rng(dim).integers(1, 12, size=400)
        stream = SobolStream(dim)
        chunks = np.vstack([stream.next(int(c)) for c in counts])
        total = int(counts.sum())
        assert np.array_equal(chunks, SobolStream(dim).next(total))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # balance warning
            reference = qmc.Sobol(dim, scramble=False).random(total + 1)[1:]
        assert np.array_equal(chunks, reference)

    def test_points_inside_unit_cube(self):
        pts = SobolStream(4).next(100)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            SobolStream(21202)

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            SobolStream(0)
        with pytest.raises(InvalidInputError):
            SobolStream(1).next(0)


class TestAcquisitionValue:
    def test_tau_zero_is_negative_variance(self, gp_two_points):
        x = np.array([0.4])
        value, _ = acquisition_value(gp_two_points, 0.0, x)
        _, var, _, _ = gp_two_points.posterior(x)
        assert value == pytest.approx(-var)

    def test_tau_one_at_training_point_equals_target(self, gp_two_points):
        value, _ = acquisition_value(gp_two_points, 1.0, np.array([0.2]))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        h = 1e-6
        X = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        gp = fit(X, y, KernelParams(1.2, 0.35, 1e-8))
        for tau in (0.0, 1.0):
            for _ in range(10):
                x0 = rng.uniform(0.1, 0.9, size=2)
                _, grad = acquisition_value(gp, tau, x0)
                for k in range(2):
                    e = np.zeros(2)
                    e[k] = h
                    fp, _ = acquisition_value(gp, tau, x0 + e)
                    fm, _ = acquisition_value(gp, tau, x0 - e)
                    fd = (fp - fm) / (2 * h)
                    assert abs(grad[k] - fd) / max(abs(fd), abs(grad[k]), 1e-8) < 1e-5


class TestMinimizeAcquisition:
    def test_variance_mode_matches_grid_oracle(self, gp_two_points):
        best = minimize_acquisition(gp_two_points, 0.0, SobolStream(1).next(10))
        value, _ = acquisition_value(gp_two_points, 0.0, best)
        grid = np.linspace(0.0, 1.0, 10_001)[:, None]
        _, variances = posterior_stack(gp_two_points, grid)
        assert value <= -(variances.max()) + 1e-4

    def test_starts_of_the_wrong_width_rejected(self):
        gp = fit([[0.2, 0.4], [0.7, 0.1]], [1.0, -1.0], KernelParams(1.0, 0.5, 1e-6))
        with pytest.raises(InvalidInputError):
            minimize_acquisition(gp, 1.0, [[0.2], [0.7]])

    def test_output_within_unit_cube(self):
        rng = np.random.default_rng(19)
        gp = fit(rng.uniform(size=(12, 3)), rng.normal(size=12),
                 KernelParams(1.0, 0.5, 1e-6))
        for tau in (0.0, 1.0):
            best = minimize_acquisition(gp, tau, SobolStream(3).next(5))
            assert best.min() >= 0.0 and best.max() <= 1.0

    def test_single_start_at_local_minimum_stays(self, gp_two_points):
        # x=0.5 is the variance maximizer between two symmetric training points.
        stream = SobolStream(1)  # first Sobol point is exactly 0.5
        best = minimize_acquisition(gp_two_points, 0.0, stream.next(1))
        assert best[0] == pytest.approx(0.5, abs=1e-6)

    def test_deterministic_for_same_stream_index(self, gp_two_points):
        a = minimize_acquisition(gp_two_points, 1.0, SobolStream(1).next(10))
        b = minimize_acquisition(gp_two_points, 1.0, SobolStream(1).next(10))
        assert np.array_equal(a, b)

    def test_never_worse_than_any_start(self):
        rng = np.random.default_rng(27)
        gp = fit(rng.uniform(size=(15, 2)), rng.normal(size=15),
                 KernelParams(1.5, 0.3, 1e-8))
        probe = SobolStream(2)
        starts = probe.next(10)
        best = minimize_acquisition(gp, 1.0, SobolStream(2).next(10))
        best_value, _ = acquisition_value(gp, 1.0, best)
        for s in starts:
            value, _ = acquisition_value(gp, 1.0, s)
            assert best_value <= value + 1e-12

    def test_variance_mode_beats_training_variance(self, gp_two_points):
        best = minimize_acquisition(gp_two_points, 0.0, SobolStream(1).next(10))
        _, var_best, _, _ = gp_two_points.posterior(best)
        for xt in (0.2, 0.8):
            _, var_train, _, _ = gp_two_points.posterior(np.array([xt]))
            assert var_best >= var_train - 1e-12
