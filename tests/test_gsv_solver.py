"""Tests for the generalized supporting-vector solvers and the sampling oracle."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gsvkit import _lapack, gsv_solver
from gsvkit.density_model import DensityModel
from gsvkit.errors import (
    AllZero,
    ArgumentOutOfRange,
    ComplexInput,
    ConvergenceFailure,
    DimensionTooLarge,
    GsvError,
    MaximumOverflow,
    NonFiniteInput,
    NotSPD,
    NotSymmetric,
    ShapeMismatch,
)
from gsvkit.gsv_solver import (
    GsvSolution,
    OperatorStack,
    WeightedProblem,
    brute_force_max,
    gsv_solve,
    objective_value,
    weighted_gsv_solve,
)
from gsvkit.spectra_core import RESIDUAL_RTOL, EigenPair, gram_sum, max_eigenpair
from gsvkit.stat_norm import StatMatrix, is_snv, rank_by_score, score_rows

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
        assert sol.multiplicity == ref.vectors.shape[1] == top
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


def test_weighted_whitening_overflow_is_a_maximum_overflow():
    # finite fields and R = 2^-1000 I: C^-1 = 2^500 I, so fields times 2^600 whiten past
    # float64, and lambda_max, at least the square of any whitened entry, is past it too:
    # MaximumOverflow, as for fields times 2^400, which whiten finite
    rng = np.random.default_rng(5)
    fields = [rng.normal(size=(6, 4)) for _ in range(3)]
    r = np.ldexp(np.eye(4), -1000)
    for k in (400, 600):
        with pytest.raises(MaximumOverflow, match="^lambda_max ") as info:
            weighted_gsv_solve(WeightedProblem([np.ldexp(f, k) for f in fields], r))
        assert info.value.exit_code == 2 and not isinstance(info.value, NonFiniteInput)


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


def test_validation_messages_name_the_matrix():
    ok = np.ones((2, 3))
    with pytest.raises(ComplexInput, match="^matrix 1 is complex$"):
        OperatorStack((ok, ok * 1j))
    with pytest.raises(NonFiniteInput, match="^matrix 2 contains non-finite entries$"):
        OperatorStack((ok, ok, ok * np.inf))
    with pytest.raises(ShapeMismatch, match=r"^matrix 1 is not 2-D \(ndim=1\)$"):
        OperatorStack((ok, np.ones(3)))
    with pytest.raises(ShapeMismatch, match="^matrix 1 has 2 columns, expected 3$"):
        OperatorStack((ok, np.ones((2, 2))))


def test_zero_column_stack_refused_where_it_enters():
    # R^0 has no unit vector: a ShapeMismatch at validation, neither AllZero for a stack that
    # has no sphere nor a ZeroDivisionError in the oracle's panel width
    calls = [
        lambda: OperatorStack((np.zeros((3, 0)),)),
        lambda: gsv_solve([np.zeros((3, 0))]),
        lambda: gsv_solve([np.zeros((0, 0)), np.ones((2, 0))]),
        lambda: brute_force_max([np.ones((3, 0))], 10, 1),
        lambda: WeightedProblem((np.ones((2, 0)),) * 3, np.zeros((0, 0))),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatch, match="no columns"):
            call()
    # unequal column counts are named first, as before
    with pytest.raises(ShapeMismatch, match="^matrix 1 has 2 columns, expected 0$"):
        gsv_solve([np.zeros((3, 0)), np.ones((3, 2))])


def assert_same_solution(got, want):
    assert got.lambda_max == want.lambda_max and got.objective_check == want.objective_check
    assert got.residual == want.residual and got.basis.tobytes() == want.basis.tobytes()


# gsv_solve on a sequence reads the peak's range off the Gram's diagonal; an OperatorStack
# brings the exact peak.  Both must rescale, and so solve, alike on each side of the window.
DIAGONAL_RULE_STACKS = {
    "n_side": [np.arange(12.0).reshape(4, 3) - 5.5, np.ones((2, 3))],
    "m_side": [np.arange(8.0).reshape(2, 4) - 3.5, np.full((1, 4), -0.25)],
    "dominant": [np.diag([1.0, 2.0**-300, 2.0**-300]), np.full((5, 3), 2.0**-300)],
    "order_40": [np.sin(np.arange(1600.0)).reshape(40, 40)],
}


@pytest.mark.parametrize("stack", list(DIAGONAL_RULE_STACKS.values()),
                         ids=list(DIAGONAL_RULE_STACKS))
def test_diagonal_rule_has_the_bits_of_the_exact_peak(stack):
    # k crosses both window edges (peak 2^k in or out of [2^-100, 2^101)); "dominant" has one
    # entry at 2^k and every other at most 2^(k-300), so the diagonal's top is that entry squared
    for k in [0, -500, 400, *range(-112, -94), *range(95, 113)]:
        scaled = [np.ldexp(a, k) for a in stack]
        assert_same_solution(gsv_solve(scaled), gsv_solve(OperatorStack(scaled)))


def test_in_window_sequence_reads_no_peak(monkeypatch):
    calls = []
    monkeypatch.setattr(gsv_solver, "_stack_peak", lambda mats: calls.append(1) or 1.0)
    for stack in DIAGONAL_RULE_STACKS.values():
        gsv_solve(stack)
    assert not calls
    gsv_solve([np.ldexp(np.eye(2), 101)])  # the diagonal's top 2^202 is past 2^200
    assert calls == [1]


@pytest.mark.parametrize("scale", [1.0, 1e300], ids=["unit", "gram_overflows"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shapes", [[(3, 2), (4, 2)], [(1, 4), (2, 4)]], ids=["tall", "wide"])
def test_diagonal_rule_finds_every_non_finite_entry(shapes, bad, scale):
    base = [np.full(shape, scale) for shape in shapes]
    for k, shape in enumerate(shapes):
        for at in np.ndindex(shape):
            stack = [a.copy() for a in base]
            stack[k][at] = bad
            message = f"^matrix {k} contains non-finite entries$"
            for build in (gsv_solve, OperatorStack):
                with pytest.raises(NonFiniteInput, match=message):
                    build(stack)


def test_diagonal_rule_edge_inputs():
    for stack in ([np.zeros((3, 2))], [np.zeros((1, 4)), np.zeros((0, 4))], [np.zeros((0, 2))]):
        with pytest.raises(AllZero, match="^all matrices in the stack are zero$"):
            gsv_solve(stack)
    # subnormal entries alone: the squares underflow, so the exact peak decides the rescale
    for stack in ([np.full((3, 2), 5e-324), np.array([[1e-310, 0.0]])], [np.full((1, 3), 4e-320)]):
        assert_same_solution(gsv_solve(stack), gsv_solve(OperatorStack(stack)))


@pytest.mark.parametrize("shape", [(4, 3), (2, 5)], ids=["tall", "wide"])
def test_an_overflowing_gram_warns_nothing(shape):
    # 1e300 squared overflows the Gram: the rule reads the exact peak and solves 2^-e * stack,
    # whose lambda_max (at least the diagonal's top) is past float64
    stack = [np.full(shape, 1e300), np.full((1, shape[1]), -1e299)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaximumOverflow, match="exceeds the float64 range"):
            gsv_solve(stack)


def test_structural_faults_are_reported_before_non_finite_entries():
    nan = np.full((2, 3), np.nan)
    for build in (gsv_solve, OperatorStack, lambda s: WeightedProblem(s, np.eye(3))):
        with pytest.raises(ShapeMismatch, match="^matrix 1 has 2 columns, expected 3$"):
            build([nan, np.ones((2, 2))])
        with pytest.raises(ComplexInput, match="^matrix 1 is complex$"):
            build([nan, np.ones((2, 3)) * 1j])
        with pytest.raises(ShapeMismatch, match=r"^matrix 1 is not 2-D \(ndim=1\)$"):
            build([nan, np.ones(3)])


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
    with pytest.raises(ShapeMismatch, match="matrix 1 is not 2-D"):
        OperatorStack((np.eye(2), np.ones(2)))
    with pytest.raises(ShapeMismatch, match="vector length 3 != column count 2"):
        objective_value(stack, np.ones(3))


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


def test_solvers_leave_a_callers_writable_arrays_writable_and_unchanged():
    # gsv_solve holds a caller's C-ordered float64 arrays themselves: none is written or frozen
    rng = np.random.default_rng(23)
    tall = [rng.normal(size=(6, 4)), rng.normal(size=(5, 4))]
    wide = [rng.normal(size=(2, 9))]
    fields = [rng.normal(size=(2, 5)) for _ in range(3)]
    r = np.eye(5) + 0.1 * np.ones((5, 5))
    x = rng.normal(size=4)
    arrays = [*tall, *wide, *fields, r, x]
    before = [a.tobytes() for a in arrays]
    gsv_solve(tall)
    gsv_solve(wide)
    objective_value(tall, x)
    weighted_gsv_solve(WeightedProblem(fields, r))
    brute_force_max(tall, 100, 0)
    for a, data in zip(arrays, before):
        assert a.flags.writeable and a.tobytes() == data


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


def test_gsv_solution_invariants_enforced(monkeypatch):
    # gsv_solve checks the unit basis columns once, on the basis it returns; a failed
    # post-condition is a ConvergenceFailure (exit 3), and the record is read-only
    stack = [np.diag([2.0, 1.0])]
    sol = gsv_solve(stack)
    assert not sol.basis.flags.writeable
    with pytest.raises(AttributeError):
        sol.lambda_max = 5.0
    real = gsv_solver.max_eigenpair

    def scaled_basis(factor):
        def solve(*args):
            pair = real(*args)
            return pair._replace(vectors=factor * pair.vectors)
        return solve

    # a column 5e-13 off unit norm passes, one 2e-12 off fails; the objective check, off by
    # twice as much, stays within its 1e-8, so only the unit-norm check decides
    monkeypatch.setattr(gsv_solver, "max_eigenpair", scaled_basis(1.0 + 0.5e-12))
    assert gsv_solve(stack).basis[0, 0] == 1.0 + 0.5e-12
    for factor in (1.0 + 2e-12, 2.0, float("nan")):  # a doubled column, and a NaN fails too
        monkeypatch.setattr(gsv_solver, "max_eigenpair", scaled_basis(factor))
        with pytest.raises(ConvergenceFailure, match="^basis columns are not unit vectors"):
            gsv_solve(stack)


@pytest.mark.parametrize("stack", [[np.ones((2, 2))], [np.ones((3, 3)), np.diag([1.0, 0.0, 0.0])],
                                   [np.eye(2)], [np.eye(3)[:2]]],
                         ids=["one_column", "one_column_of_3", "two_columns", "wide_two_columns"])
def test_unit_check_rejects_off_nan_and_inf_columns(stack, monkeypatch):
    # one column is checked on Python floats, several on arrays: the same 1e-12 bound on each
    real = gsv_solver.max_eigenpair

    def spoiled(spoil):
        def solve(*args):
            pair = real(*args)
            vectors = pair.vectors.copy()
            spoil(vectors)
            return pair._replace(vectors=vectors)
        return solve

    def scale_last(factor):
        def spoil(v):
            v[:, -1] *= factor
        return spoil

    def put(value):
        def spoil(v):
            v[-1, -1] = value
        return spoil

    monkeypatch.setattr(gsv_solver, "max_eigenpair", spoiled(scale_last(1.0 + 0.5e-12)))
    gsv_solve(stack)  # half the bound passes
    for spoil in (scale_last(1.0 + 2e-12), scale_last(1.0 - 2e-12), put(np.nan), put(np.inf),
                  put(-np.inf)):
        monkeypatch.setattr(gsv_solver, "max_eigenpair", spoiled(spoil))
        with pytest.raises(ConvergenceFailure, match="^basis columns are not unit vectors"):
            gsv_solve(stack)


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-300])
def test_gsv_solution_bounds_are_relative(scale, monkeypatch):
    # the objective bound scales with lambda_max: below 1 there is no absolute floor to hide
    # under, and at 1e-300 the stack is solved rescaled, so the check reads the scaled-back value
    stack = [np.diag([1.0, 0.5]) * math.sqrt(scale)]
    lam = gsv_solve(stack).lambda_max
    assert lam == pytest.approx(scale, rel=1e-14)
    for factor in (1.0 + 0.5e-8, 1.0 - 0.5e-8, 1.0 + 2e-8, 1.0 - 2e-8, float("nan")):
        monkeypatch.setattr(gsv_solver, "_objective", lambda *_: lam * factor)
        if abs(factor - 1.0) < 1e-8:
            assert gsv_solve(stack).objective_check == lam * factor
        else:
            with pytest.raises(ConvergenceFailure, match="^objective check"):
                gsv_solve(stack)


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
        lambda: DensityModel(np.array([0.5]), tail=0.9),
        lambda: max_eigenpair(np.eye(2), residual_rtol=1.0),
        lambda: EigenPair(1.0, np.eye(2)[:, :1], 0.5, rtol=1.0),
        lambda: ConvergenceFailure("m", iterations=90),
        lambda: ConvergenceFailure("m", 90),
        lambda: is_snv([1.0, -1.0], tol=1e-10),
        lambda: StatMatrix(np.eye(2), np.zeros(2), np.ones(2)),
        lambda: gsv_solve([np.eye(2)], gap_rtol=1e-10),
        lambda: weighted_gsv_solve(WeightedProblem((np.eye(2),), np.eye(2)), gap_rtol=1e-10),
        lambda: max_eigenpair(np.eye(2), gap_rtol=1e-10),
        lambda: score_rows(StatMatrix(np.array([[1.0], [-1.0]])), gap_rtol=1e-10),
        lambda: rank_by_score(StatMatrix(np.array([[1.0], [-1.0]])), gap_rtol=1e-10),
    ],
    ids=["ncols", "multiplicity", "tail", "residual_rtol", "rtol", "iterations",
         "positional", "tol", "standardized", "gsv_solve_gap_rtol", "weighted_gap_rtol",
         "max_eigenpair_gap_rtol", "score_rows_gap_rtol", "rank_by_score_gap_rtol"],
)
def test_public_api_rejects_derived_or_fixed_arguments(build):
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# two equal-norm columns: the paper's closed form, reproduced by gsv_solve
#
# For one m x 2 matrix with columns a1, a2 of equal norm the maximum is ||a1||^2 + |a1 . a2|,
# at (sign(a1 . a2), 1) / sqrt(2) up to sign, and every unit vector when a1 . a2 = 0.


def test_2col_orthogonal_whole_sphere():
    sol = gsv_solve([np.eye(2)])
    assert sol.lambda_max == 1.0
    assert sol.multiplicity == 2
    assert sol.whole_sphere
    np.testing.assert_array_equal(sol.basis, np.eye(2))


def test_2col_positive_dot_against_angle_oracle():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    sol = gsv_solve([a])
    lam_oracle, v_oracle = angle_sampling_max(a)
    assert sol.lambda_max == pytest.approx(2.0, abs=1e-15)
    assert abs(sol.lambda_max - lam_oracle) <= 1e-9
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.abs(v_oracle), atol=1e-5)
    np.testing.assert_allclose(sol.basis[:, 0], [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_2col_negative_dot_against_angle_oracle():
    a = np.array([[1.0, -1.0], [0.0, 0.0]])
    sol = gsv_solve([a])
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
        lam = a[:, 0] @ a[:, 0] + abs(dot)
        closed = np.array([np.sign(dot), 1.0]) * SQRT_HALF
        eig = gsv_solve([a])
        assert abs(lam - eig.lambda_max) <= 1e-10 * max(1.0, lam)
        assert eig.multiplicity == 1
        # up to sign: the orientation rule meets a tie in |x_1| = |x_2| within rounding
        agree = np.allclose(closed, eig.basis[:, 0], atol=1e-8)
        agree_flipped = np.allclose(closed, -eig.basis[:, 0], atol=1e-8)
        assert agree or agree_flipped


def test_2col_is_scale_free():
    # a1 . a2 = 1 > 0 at every scale: no power of two may turn the point into the whole sphere
    a = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    base = gsv_solve([a])
    assert base.multiplicity == 1 and base.lambda_max == pytest.approx(4.0, rel=1e-15)
    np.testing.assert_allclose(base.basis[:, 0], [SQRT_HALF, SQRT_HALF], atol=1e-15)
    for k in range(-500, 501):
        sol = gsv_solve([np.ldexp(a, k)])
        assert sol.multiplicity == 1
        np.testing.assert_array_equal(sol.basis, base.basis)
        assert sol.lambda_max == math.ldexp(base.lambda_max, 2 * k), k
    sol = gsv_solve([1e-170 * a])
    assert sol.multiplicity == 1
    np.testing.assert_array_equal(sol.basis, base.basis)
    with pytest.raises(MaximumOverflow):
        gsv_solve([1e200 * a])


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


def test_weighted_illegal_cholesky_argument_is_a_convergence_failure(monkeypatch):
    # dpotrf's info < 0 names an argument it refused: a backend failure, exit 3, named by info
    monkeypatch.setattr(_lapack, "dpotrf", lambda a, **kwargs: (a, -4))
    with pytest.raises(ConvergenceFailure, match="^Cholesky factorization failed: dpotrf info = -4$"):
        weighted_gsv_solve(WeightedProblem((np.ones((2, 3)),), np.eye(3)))


@pytest.mark.parametrize("failing_call", [0, 1], ids=["whitening", "map_back"])
def test_weighted_triangular_solve_info_is_a_convergence_failure(monkeypatch, failing_call):
    # a nonzero dtrtrs info, on the whitening or on the map-back call, is a backend failure
    calls, real = [], _lapack.dtrtrs

    def dtrtrs(a, b, **kwargs):
        calls.append(kwargs)
        x, _ = real(a, b, **kwargs)
        return x, (-2 if len(calls) - 1 == failing_call else 0)

    monkeypatch.setattr(_lapack, "dtrtrs", dtrtrs)
    with pytest.raises(ConvergenceFailure, match=r"failed: dtrtrs info = -2$") as caught:
        weighted_gsv_solve(WeightedProblem((np.eye(3)[:2], np.ones((1, 3))), np.eye(3) * 2.0))
    assert caught.value.exit_code == 3
    assert len(calls) == failing_call + 1
    assert calls[-1].get("trans", 0) == (1 if failing_call == 0 else 0)


def test_weighted_problem_validation():
    with pytest.raises(ShapeMismatch):
        WeightedProblem((np.ones((2, 3)),), np.eye(2))
    with pytest.raises(NotSymmetric):
        WeightedProblem((np.ones((2, 2)),), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(TypeError, match="expects a WeightedProblem"):
        weighted_gsv_solve(((np.ones((2, 2)),), np.eye(2)))


def test_weighted_ill_conditioned_resistance_fails_the_energy_check():
    # R's eigenvalues span [1e-12, 1]: the whitened psi misses psi^T R psi = 1 by ~5e-6
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    prob = WeightedProblem(tuple(rng.standard_normal((3, 20)) for _ in range(3)),
                           (q * np.logspace(0, -12, 20)) @ q.T)
    with pytest.raises(ConvergenceFailure, match="too ill-conditioned"):
        weighted_gsv_solve(prob)


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
    with pytest.raises(ArgumentOutOfRange, match="got 0"):
        brute_force_max([np.eye(2)], 0, 0)
    # a whole number of another type is taken as its int
    assert brute_force_max([np.eye(2)], 2.0, np.int64(0)) == 1.0


@pytest.mark.parametrize(
    "samples, seed, message",
    [(10, -1, "seed must be at least 0, got -1"),
     (2.7, 0, "samples must be a whole number, got 2.7"),
     (math.nan, 0, "samples must be a whole number, got nan"),
     (math.inf, 0, "samples must be a whole number, got inf"),
     (10**400, 0, "samples exceeds the float64 range")],
    ids=["negative_seed", "fractional_samples", "nan_samples", "inf_samples", "huge_samples"],
)
def test_oracle_argument_domain(samples, seed, message):
    # a negative seed escaped as numpy's bare ValueError, 2.7 samples drew 2, and 10**400
    # samples escaped as float()'s bare OverflowError
    with pytest.raises(ArgumentOutOfRange, match=f"^{message}$") as exc_info:
        brute_force_max([np.eye(2)], samples, seed)
    assert exc_info.value.exit_code == 2


def test_oracle_seed_is_a_whole_number():
    # a fractional seed escaped as numpy's bare TypeError; a whole float is taken as its int
    with pytest.raises(ArgumentOutOfRange, match="^seed must be a whole number, got 1.5$"):
        brute_force_max([np.eye(2)], 10, 1.5)
    stack = [np.diag([1.0, 2.0])]
    assert brute_force_max(stack, 100, 3.0) == brute_force_max(stack, 100, 3)


def test_oracle_reproducible():
    rng = np.random.default_rng(10)
    stack = [rng.normal(size=(5, 3))]
    assert brute_force_max(stack, 10**5, 123) == brute_force_max(stack, 10**5, 123)


@pytest.mark.parametrize("shape", [(6, 4), (2, 9), (1, 1)])
def test_oracle_is_scale_free_bit_for_bit(shape):
    # at 1e153 the oracle summed squares of the unscaled stack and returned inf above lambda_max
    rng = np.random.default_rng([35, *shape])
    stack = [rng.normal(size=shape) for _ in range(3)]
    base, lam0 = brute_force_max(stack, 1000, 3), gsv_solve(stack).lambda_max
    assert base <= lam0 + 1e-9
    for k in range(-560, (1023 - math.frexp(lam0)[1]) // 2 + 1):  # up to where lambda_max fits
        scaled = [np.ldexp(a, k) for a in stack]
        value = brute_force_max(scaled, 1000, 3)
        assert math.isfinite(value) and value == math.ldexp(base, 2 * k), k
        assert value <= gsv_solve(scaled).lambda_max + math.ldexp(1e-9, 2 * k), k


def whole_chunk_oracle(stack, samples, seed):
    """Every panel drawn, concatenated and scored in one pass: the reference for the panel loop."""
    compressed = np.linalg.qr(np.vstack(stack), mode="r")
    n = compressed.shape[1]
    x = np.concatenate(list(gsv_solver._gaussian_panels(seed, n, samples)), axis=1)
    assert x.shape == (n, samples)
    y = compressed @ x
    num, den = np.einsum("ij,ij->j", y, y), np.einsum("ij,ij->j", x, x)
    ok = den > 0.0
    return float(np.max(num[ok] / den[ok])) if ok.any() else -np.inf


DEFAULT_RNG = np.random.default_rng


class ZeroDraws:
    """Seeded Gaussian draws with zero columns: sample 3 of every draw and the whole second draw."""

    def __init__(self, seed):
        self.rng = DEFAULT_RNG(seed)
        self.draws = 0

    def standard_normal(self, shape):
        x = self.rng.standard_normal(shape)
        self.draws += 1
        x[:, min(3, shape[1] - 1)] = 0.0
        if self.draws == 2:
            x[:] = 0.0
        return x


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (12, 8), (4, 10)])
def test_oracle_panels_have_the_bits_of_whole_chunks(monkeypatch, shape):
    stack = [np.random.default_rng(33).normal(size=shape) for _ in range(2)]
    p = max(1, gsv_solver._PANEL_VALUES // shape[1])
    for samples in (1, p - 1, p, p + 1, 3 * p + 5):
        for make_rng in (DEFAULT_RNG, ZeroDraws):
            monkeypatch.setattr(np.random, "default_rng", make_rng)
            want = whole_chunk_oracle(stack, samples, 5)
            got = brute_force_max(stack, samples, 5)
            monkeypatch.undo()
            assert got.hex() == want.hex(), (samples, make_rng)


@pytest.mark.parametrize("n", [1, 3, 8, 65536, 65537])
def test_gaussian_panels_split_the_count_into_seeded_draws(n):
    p = max(1, gsv_solver._PANEL_VALUES // n)
    for count in (1, p, p + 1, 3 * p + 5):
        widths = [x.shape[1] for x in gsv_solver._gaussian_panels(7, n, count)]
        assert widths == [p] * (count // p) + [count % p] * (count % p > 0)
    # up to one panel, the samples are one (n, count) draw, as they were before panels
    (one,) = gsv_solver._gaussian_panels(7, n, p)
    assert one.tobytes() == np.random.default_rng(7).standard_normal((n, p)).tobytes()


def test_oracle_peak_memory_is_one_draw():
    stack = [np.random.default_rng(34).normal(size=(12, 8))]
    brute_force_max(stack, 10, 0)  # warm-up
    tracemalloc.start()
    try:
        brute_force_max(stack, 1 << 17, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    panel = 8 * gsv_solver._PANEL_VALUES  # the doubles of one draw x, and of y = R x
    # x and y of one draw and their column sums (2.38 panels measured), released before the
    # next x is drawn: not one array of 2^17 samples, nor two draws at once
    assert peak < 2.5 * panel
