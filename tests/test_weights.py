import numpy as np
import pytest

from oed.designs import (
    Criterion,
    criterion_value,
    directional_derivatives,
    fisher_at_points,
    information_matrix,
)
from oed.exceptions import InvalidInputError, SingularInformationError
from oed.weights import optimize_weights


def quad_mus(xs):
    J = np.array([[[1.0], [x], [x * x]] for x in xs])
    return fisher_at_points(J)


def random_mus(rng, n, d=4, d_y=2):
    J = rng.normal(size=(n, d, d_y))
    return fisher_at_points(J)


def check_restricted_equivalence(sol, mus, criterion, tol=1e-6):
    M = information_matrix(sol.weights, mus)
    phi = directional_derivatives(M, mus, criterion)
    assert phi.min() >= -tol - 1e-12
    support = sol.weights > 1e-6
    assert np.abs(phi[support]).max() <= tol + 1e-12


def test_symmetric_pair_splits_evenly():
    mus = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    sol = optimize_weights(mus, Criterion.D)
    assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-9)


def test_dominated_candidate_gets_zero_weight():
    mus = np.stack([np.eye(2), 0.5 * np.eye(2)])
    sol = optimize_weights(mus, Criterion.D)
    assert np.allclose(sol.weights, [1.0, 0.0], atol=1e-5)


def test_quadratic_three_candidates_equal_thirds():
    mus = quad_mus([-1.0, 0.0, 1.0])
    sol = optimize_weights(mus, Criterion.D)
    assert np.allclose(sol.weights, 1 / 3, atol=1e-4)

    # Independent oracle: brute-force simplex enumeration at resolution 1e-3.
    step = 1e-3
    w1 = np.arange(0.0, 1.0 + step / 2, step)
    W1, W2 = np.meshgrid(w1, w1, indexing="ij")
    mask = W1 + W2 <= 1.0 + 1e-12
    W1, W2 = W1[mask], W2[mask]
    W3 = 1.0 - W1 - W2
    Ms = (W1[:, None, None] * mus[0] + W2[:, None, None] * mus[1]
          + W3[:, None, None] * mus[2])
    sign, logdet = np.linalg.slogdet(Ms)
    logdet[sign <= 0] = -np.inf
    best = np.argmax(logdet)
    assert abs(W1[best] - 1 / 3) <= 1.5e-3
    assert abs(W2[best] - 1 / 3) <= 1.5e-3
    assert np.log(4 / 27) == pytest.approx(logdet[best], abs=1e-5)


@pytest.mark.parametrize("criterion", [Criterion.LOGD, Criterion.A])
def test_restricted_equivalence_on_random_instances(criterion):
    rng = np.random.default_rng(101)
    for _ in range(8):
        mus = random_mus(rng, n=40)
        sol = optimize_weights(mus, criterion)
        assert sol.converged
        check_restricted_equivalence(sol, mus, criterion)


@pytest.mark.parametrize("criterion", [Criterion.D, Criterion.A])
def test_solution_beats_uniform_weights(criterion):
    rng = np.random.default_rng(55)
    for _ in range(8):
        mus = random_mus(rng, n=25)
        sol = optimize_weights(mus, criterion)
        uniform = information_matrix(np.full(25, 1 / 25), mus)
        from oed.designs import criterion_value

        assert sol.objective <= criterion_value(uniform, criterion) + 1e-12


def test_adding_candidate_never_hurts():
    rng = np.random.default_rng(77)
    mus = random_mus(rng, n=30)
    base = optimize_weights(mus[:-1], Criterion.D)
    extended = optimize_weights(mus, Criterion.D)
    assert extended.objective <= base.objective + 1e-9


def test_warm_start_converges_faster():
    rng = np.random.default_rng(3)
    mus = random_mus(rng, n=60)
    cold = optimize_weights(mus, Criterion.D)
    warm = optimize_weights(mus, Criterion.D,
                            warm_start=np.maximum(cold.weights, 1e-12))
    assert warm.iterations <= cold.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_e_criterion_symmetric_pair():
    mus = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    sol = optimize_weights(mus, Criterion.E)
    assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-6)
    assert sol.objective == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("criterion", list(Criterion))
def test_kkt_residual_is_min_phi_at_the_returned_weights(criterion):
    # The solver and directional_derivatives run the one phi contraction. The
    # exchange loop reads M and the candidates' phi off the record in place
    # of assembling and scanning them again, so the bits must agree, for a
    # converged and for a capped solve.
    rng = np.random.default_rng(8)
    mus = (random_mus(rng, n=30) if criterion is not Criterion.E
           else np.stack([np.diag([1.0, 0.2]), np.diag([0.2, 1.0]), np.eye(2)]))
    for max_iterations, converged in ((100_000, True), (5, False)):
        sol = optimize_weights(mus, criterion, max_iterations=max_iterations)
        assert sol.converged is converged
        M = information_matrix(sol.weights, mus)
        assert np.array_equal(sol.information_matrix, M)
        assert np.array_equal(sol.phi, directional_derivatives(M, mus, criterion))
        assert sol.kkt_residual == sol.phi.min()
        assert sol.objective == criterion_value(M, criterion)


def test_e_criterion_single_candidate():
    sol = optimize_weights([np.diag([2.0, 1.0])], Criterion.E)
    assert sol.weights == pytest.approx([1.0])
    assert sol.kkt_residual == pytest.approx(0.0, abs=1e-12)


def test_weight_vector_is_simplex():
    rng = np.random.default_rng(9)
    mus = random_mus(rng, n=15)
    sol = optimize_weights(mus, Criterion.D)
    assert sol.weights.min() >= 0.0
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_singular_candidate_set_rejected():
    # All candidates share a null direction: no combination is invertible.
    mus = np.stack([np.diag([1.0, 0.0]), np.diag([2.0, 0.0])])
    with pytest.raises(SingularInformationError):
        optimize_weights(mus, Criterion.D)


def test_nonpositive_tol_rejected():
    with pytest.raises(InvalidInputError):
        optimize_weights([np.eye(2)], Criterion.D, tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tol_rejected(tol):
    with pytest.raises(InvalidInputError):
        optimize_weights(quad_mus([-1.0, 0.0, 1.0]), Criterion.D, tol=tol,
                         max_iterations=10)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_warm_start_rejected(bad):
    with pytest.raises(InvalidInputError):
        optimize_weights(quad_mus([-1.0, 0.0, 1.0]), Criterion.D,
                         warm_start=[bad, 1.0, 1.0])


def test_iteration_cap_returns_its_best_iterate_unconverged():
    rng = np.random.default_rng(21)
    mus = random_mus(rng, n=40)
    best = optimize_weights(mus, Criterion.D, max_iterations=3)
    assert not best.converged
    assert best.iterations == 3
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_capped_e_solve_returns_its_best_iterate():
    # E's mirror ascent is not monotone, so the solver keeps the iterate with
    # the smallest 1/lambda_min; twenty steps must already beat the uniform start.
    rng = np.random.default_rng(3)
    mus = random_mus(rng, n=12, d=3, d_y=2)
    uniform = criterion_value(information_matrix(np.full(12, 1 / 12), mus), Criterion.E)
    best = optimize_weights(mus, Criterion.E, max_iterations=20)
    assert not best.converged
    assert best.objective < uniform


def test_e_criterion_objective_matches_sdp_oracle():
    # Independent oracle: maximize lambda_min as a semidefinite program. At
    # degenerate optima the uniform eigenspace split used by phi_E cannot
    # certify, so the solve may end unconverged; its best iterate must still
    # carry a near-optimal smallest eigenvalue.
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(0)
    for _ in range(3):
        mus = random_mus(rng, n=12, d=3, d_y=2)
        w = cp.Variable(12, nonneg=True)
        M = cp.sum([w[i] * mus[i] for i in range(12)])
        problem = cp.Problem(cp.Maximize(cp.lambda_min(M)), [cp.sum(w) == 1])
        problem.solve()
        sol = optimize_weights(mus, Criterion.E, tol=1e-4, max_iterations=20_000)
        lam_ours = 1.0 / sol.objective
        assert lam_ours >= problem.value * (1.0 - 5e-3)


@pytest.mark.parametrize("criterion", [Criterion.LOGD, Criterion.A])
def test_permuting_the_candidates_permutes_the_weights(criterion):
    # As in the exchange loop, the newest candidate (last here) enters with
    # weight 1e-12 next to the optimal weights of the others; it has phi < 0
    # there, so it joins the support.
    rng = np.random.default_rng(27)
    mus = random_mus(rng, 12)
    base = optimize_weights(mus[:-1], criterion, tol=1e-9)
    M = information_matrix(base.weights, mus[:-1])
    assert directional_derivatives(M, mus[-1], criterion)[0] < -0.5
    warm = np.append(base.weights, 1e-12)
    sol = optimize_weights(mus, criterion, tol=1e-9, warm_start=warm)
    assert sol.weights[-1] > 0.1
    for perm in (rng.permutation(12), np.roll(np.arange(12), 1)):
        moved = optimize_weights(mus[perm], criterion, tol=1e-9, warm_start=warm[perm])
        np.testing.assert_allclose(moved.weights, sol.weights[perm], rtol=0, atol=1e-7)


@pytest.mark.parametrize("criterion", [Criterion.LOGD, Criterion.A])
def test_duplicating_a_candidate_leaves_the_optimal_information_matrix(criterion):
    # ADA-GPR's candidate sets hold many copies of their support points. Here
    # the lightest support point comes 200 times, so each copy's share falls
    # below the 0.001 a report prunes at and must still be kept. Both solves
    # end within tol of the same optimum (the criterion is convex, so
    # Phi(M) - Phi* <= -min phi <= tol), and the copies share the weight.
    rng = np.random.default_rng(27)
    mus = random_mus(rng, 12)
    tol = 1e-7
    sol = optimize_weights(mus, criterion, tol=tol)
    support = np.flatnonzero(sol.weights > 0)
    j = support[np.argmin(sol.weights[support])]
    copies = np.concatenate([mus, np.repeat(mus[j][None], 199, axis=0)])
    dup = optimize_weights(copies, criterion, tol=tol)
    assert abs(dup.objective - sol.objective) <= tol
    M = information_matrix(sol.weights, mus)
    np.testing.assert_allclose(information_matrix(dup.weights, copies), M,
                               rtol=0, atol=1e-6 * np.abs(M).max())
    shares = np.append(dup.weights[12:], dup.weights[j])
    assert shares.sum() == pytest.approx(sol.weights[j], abs=1e-6)
    np.testing.assert_allclose(np.delete(dup.weights[:12], j),
                               np.delete(sol.weights, j), rtol=0, atol=1e-6)


def invariance_instance(criterion):
    """Candidates with a unique optimal design: 12 random rank-2 matrices in
    d = 4 for log-D and A; for E an instance in d = 3 whose smallest
    eigenvalue is simple at the optimum (relative gap 0.035), so phi_E is the
    gradient there and the solve certifies."""
    if criterion is Criterion.E:
        return random_mus(np.random.default_rng(6), n=12, d=3, d_y=2)
    return random_mus(np.random.default_rng(27), n=12)


# Scaling every Fisher matrix by c (sigma_eps by 1/c) scales phi by c^k.
PHI_POWER = {Criterion.LOGD: 0, Criterion.A: -1, Criterion.E: 1}


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("criterion", list(Criterion))
def test_scaling_the_fisher_matrices_keeps_the_optimal_weights(criterion, c):
    mus = invariance_instance(criterion)
    factor = c ** PHI_POWER[criterion]
    tol = 1e-9
    base = optimize_weights(mus, criterion, tol=tol)
    scaled = optimize_weights(c * mus, criterion, tol=tol * factor)
    np.testing.assert_allclose(scaled.weights, base.weights, rtol=0, atol=1e-6)
    M = information_matrix(base.weights, mus)
    np.testing.assert_allclose(directional_derivatives(c * M, c * mus, criterion),
                               factor * directional_derivatives(M, mus, criterion),
                               rtol=1e-9, atol=1e-12 * factor)


@pytest.mark.parametrize("criterion", [Criterion.A, Criterion.E])
def test_orthogonal_reparametrisation_keeps_the_weights_and_phi(criterion):
    # mu -> B^T mu B with B orthogonal leaves every eigenvalue of M in place.
    mus = invariance_instance(criterion)
    B, _ = np.linalg.qr(np.random.default_rng(5).normal(size=mus.shape[1:]))
    moved = B.T @ mus @ B
    tol = 1e-9
    base = optimize_weights(mus, criterion, tol=tol)
    turned = optimize_weights(moved, criterion, tol=tol)
    np.testing.assert_allclose(turned.weights, base.weights, rtol=0, atol=1e-6)
    M = information_matrix(base.weights, mus)
    np.testing.assert_allclose(directional_derivatives(B.T @ M @ B, moved, criterion),
                               directional_derivatives(M, mus, criterion),
                               rtol=0, atol=1e-9)
