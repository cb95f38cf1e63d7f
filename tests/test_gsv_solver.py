"""Tests for the generalized supporting-vector solvers and the sampling oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gsvkit import gsv_solver
from gsvkit.density_model import DensityModel
from gsvkit.errors import (
    AllZero,
    ColumnNormMismatch,
    ConvergenceFailure,
    DimensionTooLarge,
    GsvError,
    MaximumOverflow,
    NonFiniteInput,
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
from gsvkit.spectra_core import RESIDUAL_RTOL, EigenPair, gram_sum, max_eigenpair
from gsvkit.stat_norm import StatMatrix, StatVector, is_snv

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


def test_solve_matches_stacked_svd_reference():
    # independent of the Gram: sigma_1^2 and v_1 from the SVD of the stacked matrix
    rng = np.random.default_rng(14)
    for shape in [(6, 4), (40, 7), (3, 9)]:
        stack = [rng.normal(size=shape) for _ in range(3)]
        sol = gsv_solve(stack)
        _, sv, vt = np.linalg.svd(np.vstack(stack))
        assert sol.multiplicity == 1
        assert abs(sol.lambda_max - sv[0] ** 2) <= 1e-12 * sv[0] ** 2
        np.testing.assert_allclose(
            sol.basis @ sol.basis.T, np.outer(vt[0], vt[0]), rtol=0, atol=1e-10
        )


# ---------------------------------------------------------------------------
# wide stacks (fewer rows M than columns n), solved on the M x M side


def wide_stack(rng, m, n, top, scale):
    """An m x n (m < n) stack, split into up to 3 matrices, whose ``top``
    largest singular values are equal to ``scale``; the rest lie below 0.9 * scale."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)))
    v, _ = np.linalg.qr(rng.normal(size=(n, m)))
    sv = np.sort(rng.uniform(0.1, 0.9, size=m))[::-1]
    sv[:top] = 1.0
    b = scale * (u * sv) @ v.T
    cuts = np.sort(rng.choice(np.arange(1, m), size=min(m - 1, 2), replace=False))
    return np.split(b, cuts)


def test_wide_solve_matches_n_side_reference():
    rng = np.random.default_rng(17)
    for case in range(120):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, n))
        scale = 10.0 ** int(rng.choice([-4, -2, 0, 2, 4]))
        if case % 2:
            top = int(rng.integers(1, min(m, 3) + 1))
            stack = wide_stack(rng, m, n, top, scale)
        else:
            top = 1
            stack = [scale * rng.normal(size=(m, n))]
        sol = gsv_solve(stack)
        # the untouched n-side route: eigendecomposition of the n x n Gram sum
        ref = max_eigenpair(gram_sum(stack))
        assert sol.multiplicity == ref.multiplicity == top
        assert abs(sol.lambda_max - ref.value) <= 1e-12 * ref.value
        np.testing.assert_allclose(
            sol.basis @ sol.basis.T, ref.vectors @ ref.vectors.T, rtol=0, atol=1e-10
        )
        s = sum(a.T @ a for a in stack)
        bound = RESIDUAL_RTOL * sol.lambda_max
        assert 0.0 < sol.residual <= bound  # measured, not assumed
        assert np.max(np.linalg.norm(s @ sol.basis - sol.lambda_max * sol.basis, axis=0)) <= bound


def test_wide_solve_edge_cases():
    # lambda_max = 2e-12 never merges with the structural zero: the merge is relative
    sol = gsv_solve([np.array([[1e-6, 1e-6]])])
    assert sol.multiplicity == 1 and not sol.whole_sphere
    assert sol.lambda_max == pytest.approx(2e-12, rel=1e-15)
    np.testing.assert_allclose(sol.basis[:, 0], [SQRT_HALF, SQRT_HALF], rtol=0, atol=1e-16)
    # rank-deficient B: rank 1, maximizer r / ||r||
    r = np.arange(1.0, 6.0)
    sol = gsv_solve([np.vstack([r, 2.0 * r])])
    assert sol.multiplicity == 1
    assert sol.lambda_max == pytest.approx(5.0 * (r @ r), rel=1e-14)
    np.testing.assert_allclose(sol.basis[:, 0], r / np.linalg.norm(r), atol=1e-15)
    # two equal singular values
    sol = gsv_solve([np.eye(2, 4)])
    assert sol.lambda_max == 1.0 and sol.multiplicity == 2 and not sol.whole_sphere
    np.testing.assert_array_equal(sol.basis @ sol.basis.T, np.diag([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(AllZero):
        gsv_solve([np.zeros((1, 3)), np.zeros((1, 3))])


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


@pytest.mark.parametrize("h, n", [(2, 9), (5, 4)], ids=["wide", "tall"])
def test_weighted_solve_is_scale_free_bit_for_bit(h, n):
    # R times 2^(2k): C and the whitened stack scale by 2^k and 2^-k, so psi by 2^-k exactly
    rng = np.random.default_rng([33, n])
    fields = [rng.normal(size=(h, n)) for _ in range(3)]
    b = rng.normal(size=(n, n))
    r = b @ b.T / n + np.eye(n)
    psi0, base = weighted_gsv_solve(WeightedProblem(fields, r))
    for k in range(-200, 201):
        psi, sol = weighted_gsv_solve(WeightedProblem(fields, np.ldexp(r, 2 * k)))
        np.testing.assert_array_equal(psi, np.ldexp(psi0, -k), err_msg=f"k = {k}")
        np.testing.assert_array_equal(sol.basis, base.basis, err_msg=f"k = {k}")
        assert sol.multiplicity == base.multiplicity == 1
        assert sol.lambda_max == math.ldexp(base.lambda_max, -2 * k), k


def test_inputs_that_broke_the_scale_dependent_core():
    # a unique maximizer at 1e-6: the merge no longer reaches it from an absolute 1e-10
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    small, unit = gsv_solve([1e-6 * a]), gsv_solve([a])
    assert small.multiplicity == unit.multiplicity == 1
    np.testing.assert_allclose(small.basis, unit.basis, rtol=0, atol=1e-15)
    # a coil with R = 1e12 I: psi is the R = I maximizer over 1e6, not an arbitrary column
    rng = np.random.default_rng(34)
    fields = [rng.normal(size=(2, 5)) for _ in range(3)]
    psi, sol = weighted_gsv_solve(WeightedProblem(fields, 1e12 * np.eye(5)))
    psi_unit, _ = weighted_gsv_solve(WeightedProblem(fields, np.eye(5)))
    assert sol.multiplicity == 1
    np.testing.assert_allclose(psi, 1e-6 * psi_unit, rtol=1e-12, atol=0)
    # entries of 1e-170, whose squares underflow: the unique maximizer ones / sqrt(n)
    for shape in [(3, 2), (1, 3)]:
        sol = gsv_solve([np.full(shape, 1e-170)])
        assert sol.multiplicity == 1
        np.testing.assert_allclose(sol.basis[:, 0], 1.0 / np.sqrt(shape[1]), rtol=0, atol=1e-15)
    # entries of 1e200: lambda_max itself exceeds float64, named with its exponent
    for shape in [(3, 2), (1, 3)]:
        with pytest.raises(MaximumOverflow, match=r"\* 2\*\*1328 exceeds") as info:
            gsv_solve([np.full(shape, 1e200)])
        assert info.value.exit_code == 2 and not isinstance(info.value, NonFiniteInput)


def test_rescale_window_copies_nothing_inside():
    a = np.ones((2, 2))
    for peak, outside in [(2.0**100, False), (2.0**101, True), (2.0**-100, False),
                          (0.75 * 2.0**-100, True), (1e-300, True), (1e300, True)]:
        mats, e = gsv_solver._rescaled((a,), peak)
        assert (mats[0] is not a) == outside and (e != 0) == outside
        if outside:  # the peak lands in [1, 2)
            assert 1.0 <= math.ldexp(peak, -e) < 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_finds_the_peak_and_non_finite_entries(bad):
    for at in [(0, 0), (1, 2)]:
        a = np.arange(6.0).reshape(2, 3) - 1.0
        a[at] = bad
        with pytest.raises(NonFiniteInput, match="matrix 1"):
            OperatorStack((np.full((1, 3), -7.0), a))
    assert OperatorStack((np.full((1, 3), -7.0), np.eye(3))).peak == 7.0
    assert OperatorStack((np.zeros((0, 3)), np.zeros((1, 3)))).peak == 0.0


def test_validation_allocates_no_array_the_size_of_an_input():
    a = np.random.default_rng(22).normal(size=(2000, 100))
    OperatorStack((a,))  # warm-up
    tracemalloc.start()
    try:
        stack = OperatorStack((a,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.peak == np.abs(a).max()
    assert peak < a.nbytes / 16  # an isfinite mask alone is a.nbytes / 8


def test_operator_stack_validation_and_immutability():
    stack = OperatorStack((np.eye(2), np.ones((3, 2))))
    assert stack.ncols == 2 and len(stack.mats) == 2
    assert not stack.mats[0].flags.writeable
    with pytest.raises(ShapeMismatch):
        OperatorStack((np.eye(2), np.eye(3)))


def test_validation_keeps_read_only_views_of_float64_inputs():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(10, 4))
    r = np.diag(np.arange(1.0, 5.0))
    prob = WeightedProblem((a, a, a), r)
    for mats in (OperatorStack((a, a)).mats, prob.fields):
        for m in mats:
            assert np.shares_memory(m, a) and not m.flags.writeable
    assert a.flags.writeable
    # an exactly symmetric resistance is its own average: a read-only view of the caller's R
    assert np.shares_memory(prob.resistance, r) and not prob.resistance.flags.writeable
    assert r.flags.writeable
    # one asymmetric within 1e-10 is averaged into an array of its own
    r_asym = r + np.triu(np.full((4, 4), 1e-12), 1)
    prob = WeightedProblem((a, a, a), r_asym)
    assert not np.shares_memory(prob.resistance, r_asym) and not prob.resistance.flags.writeable
    np.testing.assert_array_equal(prob.resistance, (r_asym + r_asym.T) / 2)
    assert r_asym.flags.writeable


@pytest.mark.parametrize(
    "convert",
    [
        np.asfortranarray,
        lambda a: np.rint(10.0 * a).astype(int),
        lambda a: a.tolist(),
        lambda a: a.astype(">f8"),
        lambda a: np.vstack([a, a])[2:8],
    ],
    ids=["fortran", "integer", "list", "big-endian", "row-slice"],
)
def test_validation_converts_other_inputs_to_c_float64(convert):
    rng = np.random.default_rng(20)
    m = convert(rng.normal(size=(6, 4)))
    (view,) = OperatorStack((m,)).mats
    assert view.dtype == np.float64 and view.dtype.isnative
    assert view.flags.c_contiguous and not view.flags.writeable
    sol, ref = gsv_solve([m]), gsv_solve([np.array(m, dtype=float, order="C")])
    assert (sol.lambda_max, sol.residual, sol.objective_check) == (
        ref.lambda_max,
        ref.residual,
        ref.objective_check,
    )
    np.testing.assert_array_equal(sol.basis, ref.basis)


def test_solve_peak_memory_stays_below_a_quarter_of_the_stack():
    # a copy of the input on the solve path would bring the peak to about 1x
    rng = np.random.default_rng(21)
    stack = [rng.normal(size=(4000, 200)) for _ in range(3)]
    gsv_solve(stack)  # warm-up: lazy imports and caches are not measured
    tracemalloc.start()
    try:
        gsv_solve(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * sum(a.nbytes for a in stack)


def test_gsv_solution_invariants_enforced():
    with pytest.raises(ValueError):
        GsvSolution(1.0, np.array([[2.0], [0.0]]), 1.0, 0.0)
    with pytest.raises(ValueError):
        GsvSolution(1.0, np.array([[1.0], [0.0]]), 2.0, 0.0)
    # a NaN fails every check it reaches
    nan = float("nan")
    for lam, basis, check in ((nan, [[1.0], [0.0]], 1.0), (1.0, [[nan], [0.0]], 1.0),
                              (nan, [[nan], [0.0]], nan), (1.0, [[1.0], [0.0]], nan)):
        with pytest.raises(ValueError):
            GsvSolution(lam, np.array(basis), check, nan)
    # the residual lies in [0, RESIDUAL_RTOL * max(1, |lambda_max|)]: NaN, negative or above fail
    for lam, residual in ((1.0, nan), (1.0, -5.0), (1.0, -1e-300), (1.0, 2e-8), (4.0, 5e-8)):
        with pytest.raises(ValueError, match="residual"):
            GsvSolution(lam, np.array([[1.0], [0.0]]), lam, residual)
    for lam, residual in ((1.0, 0.0), (1.0, 1e-8), (4.0, 4e-8)):
        GsvSolution(lam, np.array([[1.0], [0.0]]), lam, residual)


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-300])
def test_gsv_solution_bounds_are_relative(scale):
    # both bounds scale with lambda_max: below 1 there is no absolute floor to hide under
    e1 = np.array([[1.0], [0.0]])
    GsvSolution(scale, e1, scale * (1.0 + 0.5e-8), 0.5e-8 * scale)
    with pytest.raises(ValueError, match="objective"):
        GsvSolution(scale, e1, scale * (1.0 + 2e-8), 0.0)
    with pytest.raises(ValueError, match="residual"):
        GsvSolution(scale, e1, scale, 2e-8 * scale)


@pytest.mark.parametrize("shape", [(3, 2), (5, 5)])
def test_subnormal_lambda_max_keeps_its_solution(shape):
    # entries of 1e-160: lambda_max = m n 1e-320 is subnormal, good to a few ulps of
    # 2^-1074 only, so the bounds are floored at the smallest normal float64, not at 1
    sol = gsv_solve([np.full(shape, 1e-160)])
    assert sol.multiplicity == 1
    assert sol.lambda_max == pytest.approx(shape[0] * shape[1] * 1e-320, rel=1e-4)
    np.testing.assert_allclose(sol.basis[:, 0], 1.0 / np.sqrt(shape[1]), rtol=0, atol=1e-15)


def test_gsv_solution_multiplicity_is_basis_width():
    for mats in ([np.eye(3)], [np.diag([2.0, 2.0, 1.0])], [np.diag([1.0, 3.0, 2.0])]):
        sol = gsv_solve(mats)
        assert sol.multiplicity == sol.basis.shape[1]


# Each value is derived from stored data or fixed by the published bound, so
# the public API does not take it as an argument.
@pytest.mark.parametrize(
    "build",
    [
        lambda: OperatorStack((np.eye(2),), ncols=7),
        lambda: GsvSolution(1.0, np.eye(2)[:, :1], 1, 1.0, 0.0),
        lambda: StatVector(np.array([1.0, 2.0]), mean=5.0),
        lambda: StatVector(np.array([1.0, 2.0]), std=9.0),
        lambda: DensityModel(np.array([0.5]), tail=0.9),
        lambda: max_eigenpair(np.eye(2), residual_rtol=1.0),
        lambda: EigenPair(1.0, np.eye(2)[:, :1], 0.5, rtol=1.0),
        lambda: ConvergenceFailure("m", iterations=90),
        lambda: ConvergenceFailure("m", 90),
        lambda: is_snv([1.0, -1.0], tol=1e-10),
        lambda: StatMatrix(np.eye(2), np.zeros(2), np.ones(2), True),
    ],
    ids=["ncols", "multiplicity", "mean", "std", "tail", "residual_rtol", "rtol", "iterations",
         "positional", "tol", "standardized"],
)
def test_public_api_rejects_derived_or_fixed_arguments(build):
    with pytest.raises(TypeError):
        build()


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


def test_2col_is_scale_free():
    # at 1e-170, n1**2 underflowed and the orthogonality test passed: the whole sphere
    a = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    base = gsv_solve_2col_equalnorm(a)
    assert base.multiplicity == 1 and base.lambda_max == pytest.approx(4.0, rel=1e-15)
    np.testing.assert_array_equal(base.basis[:, 0], [SQRT_HALF, SQRT_HALF])
    for k in range(-500, 501):
        sol = gsv_solve_2col_equalnorm(np.ldexp(a, k))
        assert sol.multiplicity == 1
        np.testing.assert_array_equal(sol.basis, base.basis)
        assert sol.lambda_max == math.ldexp(base.lambda_max, 2 * k), k
    sol = gsv_solve_2col_equalnorm(1e-170 * a)
    assert sol.multiplicity == 1
    np.testing.assert_array_equal(sol.basis, base.basis)
    with pytest.raises(MaximumOverflow):  # was a plain ValueError from GsvSolution
        gsv_solve_2col_equalnorm(1e200 * a)


def test_2col_errors():
    with pytest.raises(WrongShape):
        gsv_solve_2col_equalnorm(np.ones((3, 3)))
    with pytest.raises(ColumnNormMismatch):
        gsv_solve_2col_equalnorm(np.array([[1.0, 2.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "a, norms",
    [
        ([[1e-20, 3e-20], [0.0, 0.0]], "1e-20 vs 3e-20"),
        ([[1e-200, 3e-200], [0.0, 0.0]], "1e-200 vs 3e-200"),
        # the first norm, ~2.1e308, is past float max: it reads inf, not an OverflowError
        ([[1.5e308, 1e308], [1.5e308, 0.0]], "inf vs 1e+308"),
    ],
)
def test_2col_mismatch_names_the_callers_norms(a, norms):
    # plain floats at the caller's scale: not np.float64(...), nor the rescaled norms
    with pytest.raises(ColumnNormMismatch, match="^column norms differ: " + re.escape(norms) + " "):
        gsv_solve_2col_equalnorm(np.array(a))


def test_2col_norm_check_is_relative():
    # column norms 1 and 3 at every scale: inside the window too, where e = 0 and an
    # absolute floor would take 1e-20 and 3e-20 as equal and report 1e-40 on the whole sphere
    with pytest.raises(ColumnNormMismatch):
        gsv_solve_2col_equalnorm(np.array([[1e-20, 0.0], [0.0, 3e-20]]))
    for k in (-300, -66, 0, 66, 300):
        with pytest.raises(ColumnNormMismatch):
            gsv_solve_2col_equalnorm(np.ldexp(np.array([[1.0, 0.0], [0.0, 3.0]]), k))


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


def test_weighted_wide_energy_and_kkt():
    # 3 x 10 field rows below N = 60 nodes: the coil case, solved on the 30 x 30 side
    rng = np.random.default_rng(9)
    fields = tuple(rng.normal(size=(10, 60)) for _ in range(3))
    l = rng.normal(size=(60, 60))
    r = l.T @ l + 1e-3 * np.eye(60)
    psi, sol = weighted_gsv_solve(WeightedProblem(fields, r))
    assert abs(psi @ r @ psi - 1.0) <= 1e-8
    # KKT residual of the whitened system, whitened by an explicit inverse here
    c_inv = np.linalg.inv(np.linalg.cholesky(r).T)
    s = sum((e @ c_inv).T @ (e @ c_inv) for e in fields)
    phi = sol.basis[:, 0]
    assert np.linalg.norm(s @ phi - sol.lambda_max * phi) <= 1e-8 * sol.lambda_max
    np.testing.assert_allclose(c_inv @ phi, psi, rtol=0, atol=1e-10 * np.max(np.abs(psi)))


def test_weighted_solve_calls_gsv_solve_once(monkeypatch):
    # The traced coil benchmark expects one gsv_solver.gsv_solve span per weighted solve.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return gsv_solve(*args, **kwargs)

    monkeypatch.setattr(gsv_solver, "gsv_solve", counted)
    rng = np.random.default_rng(10)
    fields = tuple(rng.normal(size=(4, 12)) for _ in range(3))
    weighted_gsv_solve(WeightedProblem(fields, np.eye(12)))
    assert len(calls) == 1


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
