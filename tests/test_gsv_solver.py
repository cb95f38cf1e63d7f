"""Tests for the generalized supporting-vector solvers and the sampling oracle."""

import numpy as np
import pytest

from gsvkit.errors import (
    AllZero,
    ColumnNormMismatch,
    DimensionTooLarge,
    GsvError,
    NotSPD,
    NotSymmetric,
    ShapeMismatch,
    WrongShape,
)
from gsvkit.gsv_solver import (
    GsvSolution,
    OperatorStack,
    WeightedProblem,
    brute_force_max,
    gsv_solve,
    gsv_solve_2col_equalnorm,
    objective_value,
    weighted_gsv_solve,
)
from gsvkit.spectra_core import gram_sum, max_eigenpair

SQRT_HALF = np.sqrt(2.0) / 2.0


def angle_sampling_max(a, n_angles=10**6):
    """Dense S^1 oracle: max of ||A (cos t, sin t)||^2 over a uniform angle grid."""
    t = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    x = np.vstack([np.cos(t), np.sin(t)])
    vals = np.sum((a @ x) ** 2, axis=0)
    best = int(np.argmax(vals))
    return float(vals[best]), x[:, best]


def random_equal_norm_2col(rng, m):
    a1 = rng.normal(size=m)
    while np.linalg.norm(a1) == 0.0:
        a1 = rng.normal(size=m)
    a2 = rng.normal(size=m)
    a2 *= np.linalg.norm(a1) / np.linalg.norm(a2)
    return np.column_stack([a1, a2])


# ---------------------------------------------------------------------------
# gsv_solve


def test_solve_identity_whole_sphere():
    sol = gsv_solve([np.eye(2)])
    assert sol.lambda_max == pytest.approx(1.0, abs=1e-14)
    assert sol.multiplicity == 2
    assert sol.whole_sphere


def test_solve_diagonal_stack():
    sol = gsv_solve([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    assert sol.lambda_max == pytest.approx(4.0, abs=1e-14)
    np.testing.assert_allclose(sol.basis[:, 0], [0.0, 1.0], atol=1e-14)
    assert not sol.whole_sphere


def test_solve_random_stack_against_sampling_oracle():
    rng = np.random.default_rng(42)
    stack = [rng.normal(size=(6, 4)) for _ in range(3)]
    sol = gsv_solve(stack)
    lower = brute_force_max(stack, 10**6, seed=2024)
    # sampled values never exceed the true maximum (1e-6 relative float slack)
    assert lower <= sol.lambda_max * (1.0 + 1e-6)
    # and with 1e6 samples at n=4 the sampled max comes close from below
    assert sol.lambda_max - lower <= 1e-3 * max(1.0, sol.lambda_max)


def test_solve_objective_check_recomputed_from_stack():
    rng = np.random.default_rng(1)
    stack = [rng.normal(size=(5, 3)) for _ in range(2)]
    sol = gsv_solve(stack)
    direct = objective_value(stack, sol.basis[:, 0])
    assert sol.objective_check == direct
    assert abs(sol.objective_check - sol.lambda_max) <= 1e-8 * max(1.0, sol.lambda_max)


def test_solve_eigenvector_membership():
    rng = np.random.default_rng(2)
    for _ in range(25):
        stack = [rng.normal(size=(rng.integers(2, 9), 5)) for _ in range(3)]
        sol = gsv_solve(stack)
        s = sum(a.T @ a for a in stack)
        for j in range(sol.multiplicity):
            v = sol.basis[:, j]
            assert np.linalg.norm(s @ v - sol.lambda_max * v) <= 1e-8 * max(
                1.0, sol.lambda_max
            )


def test_solve_matches_validating_wrappers_bit_for_bit():
    rng = np.random.default_rng(14)
    for shape in [(6, 4), (40, 7), (3, 9)]:
        stack = [rng.normal(size=shape) for _ in range(3)]
        sol = gsv_solve(stack)
        pair = max_eigenpair(gram_sum(stack))
        assert sol.lambda_max == pair.value and sol.residual == pair.residual
        np.testing.assert_array_equal(sol.basis, pair.vectors)


def test_solve_homogeneity():
    rng = np.random.default_rng(3)
    stack = [rng.normal(size=(6, 4)) for _ in range(2)]
    base = gsv_solve(stack)
    for t in (0.5, 2.0, 10.0):
        scaled = gsv_solve([t * a for a in stack])
        assert scaled.lambda_max == pytest.approx(t**2 * base.lambda_max, rel=1e-10)
        assert scaled.multiplicity == base.multiplicity
        np.testing.assert_allclose(
            np.abs(scaled.basis), np.abs(base.basis), atol=1e-10
        )


def test_solve_reformulation_quotient_is_minimal():
    # the solution minimizes ||x||^2 / sum ||A_i x||^2 among nonkernel vectors
    rng = np.random.default_rng(4)
    for _ in range(10):
        stack = [rng.normal(size=(5, 3)) for _ in range(3)]
        sol = gsv_solve(stack)
        v = sol.basis[:, 0]
        q_solution = 1.0 / objective_value(stack, v)
        x = rng.normal(size=(3, 10**4))
        stacked = np.vstack(stack)
        denom = np.einsum("ij,ij->j", stacked @ x, stacked @ x)
        keep = denom > 0.0
        quotients = np.einsum("ij,ij->j", x[:, keep], x[:, keep]) / denom[keep]
        assert np.all(quotients >= q_solution - 1e-12 * quotients)


def test_solve_all_zero_rejected():
    with pytest.raises(AllZero):
        gsv_solve([np.zeros((3, 2))])


@pytest.mark.parametrize("big", [np.full((3, 2), 1e200), np.diag([1e200, 1.0])])
def test_solve_gram_overflow_raises_gsv_error(big):
    # finite entries whose Gram sum overflows: a GsvError, never a ValueError or NaN
    with pytest.raises(GsvError):
        gsv_solve([big])


def test_operator_stack_validation_and_immutability():
    stack = OperatorStack((np.eye(2), np.ones((3, 2))))
    assert stack.ncols == 2 and len(stack) == 2
    assert not stack.mats[0].flags.writeable
    with pytest.raises(ShapeMismatch):
        OperatorStack((np.eye(2), np.eye(3)))


def test_gsv_solution_invariants_enforced():
    with pytest.raises(ValueError):
        GsvSolution(1.0, np.array([[2.0], [0.0]]), 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        GsvSolution(1.0, np.array([[1.0], [0.0]]), 1, 2.0, 0.0)


# ---------------------------------------------------------------------------
# two equal-norm columns, closed form


def test_2col_orthogonal_whole_sphere():
    sol = gsv_solve_2col_equalnorm(np.eye(2))
    assert sol.lambda_max == 1.0
    assert sol.multiplicity == 2
    assert sol.whole_sphere
    np.testing.assert_array_equal(sol.basis, np.eye(2))


def test_2col_positive_dot_against_angle_oracle():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    sol = gsv_solve_2col_equalnorm(a)
    lam_oracle, v_oracle = angle_sampling_max(a)
    assert sol.lambda_max == pytest.approx(2.0, abs=1e-15)
    assert abs(sol.lambda_max - lam_oracle) <= 1e-9
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.abs(v_oracle), atol=1e-5)
    np.testing.assert_allclose(sol.basis[:, 0], [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_2col_negative_dot_against_angle_oracle():
    a = np.array([[1.0, -1.0], [0.0, 0.0]])
    sol = gsv_solve_2col_equalnorm(a)
    lam_oracle, v_oracle = angle_sampling_max(a)
    assert sol.lambda_max == pytest.approx(2.0, abs=1e-15)
    assert abs(sol.lambda_max - lam_oracle) <= 1e-9
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.abs(v_oracle), atol=1e-5)
    # +-(-sqrt2/2, sqrt2/2) oriented by the sign convention
    np.testing.assert_allclose(sol.basis[:, 0], [SQRT_HALF, -SQRT_HALF], atol=1e-15)


def test_2col_agrees_with_eigen_solver():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(2, 30))
        a = random_equal_norm_2col(rng, m)
        dot = a[:, 0] @ a[:, 1]
        if abs(dot) < 1e-6 * (a[:, 0] @ a[:, 0]):
            continue  # degenerate-dot cases have their own branch
        closed = gsv_solve_2col_equalnorm(a)
        eig = gsv_solve([a])
        lam = closed.lambda_max
        assert abs(lam - eig.lambda_max) <= 1e-10 * max(1.0, lam)
        agree = np.allclose(closed.basis[:, 0], eig.basis[:, 0], atol=1e-8)
        agree_flipped = np.allclose(closed.basis[:, 0], -eig.basis[:, 0], atol=1e-8)
        assert agree or agree_flipped


def test_2col_errors():
    with pytest.raises(WrongShape):
        gsv_solve_2col_equalnorm(np.ones((3, 3)))
    with pytest.raises(ColumnNormMismatch):
        gsv_solve_2col_equalnorm(np.array([[1.0, 2.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# weighted solve


def test_weighted_identity_resistance_reduces_to_plain_solve():
    rng = np.random.default_rng(6)
    fields = tuple(rng.normal(size=(8, 5)) for _ in range(3))
    prob = WeightedProblem(fields, np.eye(5))
    psi, weighted = weighted_gsv_solve(prob)
    plain = gsv_solve(fields)
    assert weighted.lambda_max == plain.lambda_max
    np.testing.assert_array_equal(weighted.basis, plain.basis)
    np.testing.assert_array_equal(psi, weighted.basis[:, 0])


def test_weighted_scaled_identity_quarter_lambda():
    rng = np.random.default_rng(7)
    fields = tuple(rng.normal(size=(8, 5)) for _ in range(3))
    base_psi, base = weighted_gsv_solve(WeightedProblem(fields, np.eye(5)))
    psi, scaled = weighted_gsv_solve(WeightedProblem(fields, 4.0 * np.eye(5)))
    # C = 2I exactly, so lambda scales by 1/4 and psi = phi / 2
    assert scaled.lambda_max == pytest.approx(base.lambda_max / 4.0, rel=1e-12)
    np.testing.assert_allclose(psi, scaled.basis[:, 0] / 2.0, atol=0)
    np.testing.assert_allclose(np.abs(psi), np.abs(base_psi) / 2.0, atol=1e-12)


def test_weighted_synthetic_energy_and_kkt():
    rng = np.random.default_rng(8)
    fields = tuple(rng.normal(size=(40, 60)) for _ in range(3))
    l = rng.normal(size=(60, 60))
    r = l.T @ l + 1e-3 * np.eye(60)
    prob = WeightedProblem(fields, r)
    psi, sol = weighted_gsv_solve(prob)
    energy = psi @ prob.resistance @ psi
    assert abs(energy - 1.0) <= 1e-8
    # KKT residual of the whitened system, computed independently
    c = np.linalg.cholesky(prob.resistance).T
    whitened = [e @ np.linalg.inv(c) for e in fields]
    s = sum(a.T @ a for a in whitened)
    phi = sol.basis[:, 0]
    assert np.linalg.norm(s @ phi - sol.lambda_max * phi) <= 1e-8 * sol.lambda_max


def test_weighted_not_spd_reports_pivot():
    fields = (np.ones((2, 3)),)
    r = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotSPD) as exc_info:
        weighted_gsv_solve(WeightedProblem(fields, r))
    assert exc_info.value.pivot == 2


def test_weighted_problem_validation():
    with pytest.raises(ShapeMismatch):
        WeightedProblem((np.ones((2, 3)),), np.eye(2))
    with pytest.raises(NotSymmetric):
        WeightedProblem((np.ones((2, 2)),), np.array([[1.0, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# sampling oracle


def test_oracle_constant_objective_is_exact():
    for seed in (0, 1, 99):
        assert brute_force_max([np.eye(2)], 1000, seed) == 1.0


def test_oracle_diagonal_band():
    value = brute_force_max([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])], 10**6, seed=7)
    assert 4.0 - 1e-3 <= value <= 4.0


def test_oracle_single_matrix_against_closed_form():
    # Gram of [[2,1],[1,2]] is [[5,4],[4,5]] with lambda_max = 9
    value = brute_force_max([np.array([[2.0, 1.0], [1.0, 2.0]])], 10**6, seed=7)
    assert abs(value - 9.0) <= 1e-3


def test_oracle_sandwich_multiple_seeds():
    rng = np.random.default_rng(9)
    for _ in range(3):
        stack = [rng.normal(size=(6, 4)) for _ in range(2)]
        lam = gsv_solve(stack).lambda_max
        for seed in (0, 1, 2):
            bf = brute_force_max(stack, 10**6, seed)
            assert bf <= lam + 1e-9
            assert lam - bf <= 1e-3 * max(1.0, lam)


def test_oracle_preconditions():
    with pytest.raises(DimensionTooLarge):
        brute_force_max([np.ones((2, 11))], 10, 0)
    with pytest.raises(ValueError):
        brute_force_max([np.eye(2)], 0, 0)


def test_oracle_reproducible():
    rng = np.random.default_rng(10)
    stack = [rng.normal(size=(5, 3))]
    assert brute_force_max(stack, 10**5, 123) == brute_force_max(stack, 10**5, 123)
