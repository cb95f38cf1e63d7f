"""Tests for the Gram-sum / maximal-eigenpair substrate."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsvkit
from gsvkit import matrix_io, spectra_core
from gsvkit.density_model import DensityModel, build_density, joint_magnitude_state
from gsvkit.errors import (
    AllZero,
    ComplexInput,
    ConvergenceFailure,
    EmptyStack,
    MaximumOverflow,
    NonFiniteInput,
    NotSymmetric,
    ShapeMismatch,
)
from gsvkit.gsv_solver import GsvSolution, WeightedProblem, gsv_solve, objective_value
from gsvkit.spectra_core import RESIDUAL_RTOL, fix_column_signs, gram_sum, max_eigenpair
from gsvkit.stat_norm import (
    CriticalSystem,
    StatMatrix,
    StatVector,
    critical_residual,
    is_snv,
    standardize,
)


def eig2x2_sym(a, b, c):
    """Closed-form maximal eigenpair of [[a, b], [b, c]] via the characteristic polynomial."""
    half_trace = (a + c) / 2.0
    disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    lam = half_trace + disc
    if b == 0.0:
        vec = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
    else:
        vec = np.array([b, lam - a])
        vec = vec / np.linalg.norm(vec)
    return lam, vec


# ---------------------------------------------------------------------------
# gram_sum


def test_gram_sum_identity():
    s = gram_sum([np.eye(2)])
    np.testing.assert_array_equal(s, np.eye(2))


def test_gram_sum_diagonal():
    s = gram_sum([np.diag([2.0, 1.0]), np.diag([0.0, 3.0])])
    np.testing.assert_array_equal(s, np.diag([4.0, 10.0]))


def test_gram_sum_hand_checked_product():
    # A^T A computed by hand for A = [[1, 1], [1, -1]]:
    # [[1*1+1*1, 1*1+1*(-1)], [sym, 1*1+(-1)*(-1)]] = [[2, 0], [0, 2]]
    s = gram_sum([np.array([[1.0, 1.0], [1.0, -1.0]])])
    np.testing.assert_array_equal(s, 2.0 * np.eye(2))


def test_gram_sum_errors():
    # gram_sum takes a validated stack: invalid ones are refused at the solve's entry
    with pytest.raises(EmptyStack):
        gsv_solve([])
    with pytest.raises(ShapeMismatch):
        gsv_solve([np.eye(2), np.zeros((2, 3))])
    with pytest.raises(NonFiniteInput):
        gsv_solve([np.array([[np.nan, 0.0]])])
    with pytest.raises(AllZero):  # decided at the solve's entry, from the stack's peak
        gsv_solve([np.zeros((2, 2)), np.zeros((4, 2))])


def test_gram_sum_all_zero_is_exact():
    zero = np.zeros((2, 3))
    for stack in ([zero, zero], [zero], [zero.T], [np.zeros((0, 3)), zero]):
        with pytest.raises(AllZero):  # never NonFiniteInput: a zero stack cannot overflow
            gsv_solve(stack)
    # nonzero entries whose squares underflow: the unscaled Gram is zero, the stack is
    # not, and the rescaled solve finds the unique maximizer on both sides
    tiny = np.full((2, 3), 1e-170)
    for s in (gram_sum((tiny,)), gram_sum((tiny.T,))):
        assert not np.any(s)
    for stack in ([tiny], [tiny.T]):
        sol = gsv_solve(stack)
        assert sol.multiplicity == 1
        np.testing.assert_allclose(sol.basis[:, 0], np.full(sol.basis.shape[0], 1.0)
                                   / np.sqrt(sol.basis.shape[0]), rtol=0, atol=1e-15)


def test_gram_sum_symmetry_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mats = [rng.normal(size=(rng.integers(1, 8), 5)) for _ in range(3)]
        s = gram_sum(mats)
        np.testing.assert_array_equal(s, s.T)


def test_gram_sum_positive_semidefinite():
    rng = np.random.default_rng(8)
    mats = [rng.normal(size=(6, 4)) for _ in range(3)]
    s = gram_sum(mats)
    for _ in range(1000):
        x = rng.normal(size=4)
        assert x @ s @ x >= -1e-12 * (x @ x)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(1, 6),
)
def test_gram_sum_properties_hypothesis(seed, k, n):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(int(rng.integers(1, 8)), n)) for _ in range(k)]
    s = gram_sum(mats)
    np.testing.assert_array_equal(s, s.T)
    x = rng.normal(size=n)
    assert x @ s @ x >= -1e-12 * (x @ x)


# ---------------------------------------------------------------------------
# max_eigenpair


def test_max_eigenpair_identity_full_multiplicity():
    pair = max_eigenpair(np.eye(3))
    assert pair.value == pytest.approx(1.0, abs=1e-14)
    assert pair.multiplicity == 3


def test_max_eigenpair_diagonal_multiplicity_two():
    pair = max_eigenpair(np.diag([4.0, 4.0, 1.0]))
    assert pair.value == pytest.approx(4.0, abs=1e-14)
    assert pair.multiplicity == 2
    # basis spans {e1, e2}: no component along e3
    np.testing.assert_allclose(pair.vectors[2, :], 0.0, atol=1e-14)
    span_check = pair.vectors @ pair.vectors.T
    np.testing.assert_allclose(span_check, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_max_eigenpair_against_closed_form_2x2():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam_oracle, vec_oracle = eig2x2_sym(2.0, 1.0, 2.0)
    assert lam_oracle == 3.0
    pair = max_eigenpair(s)
    assert pair.value == pytest.approx(lam_oracle, rel=1e-12)
    assert pair.multiplicity == 1
    np.testing.assert_allclose(
        np.abs(pair.vectors[:, 0]), np.abs(vec_oracle), atol=1e-12
    )
    # sign convention: leading component positive
    assert pair.vectors[0, 0] > 0


def test_max_eigenpair_random_against_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = rng.normal(size=3)
        s = np.array([[a, b], [b, c]])
        lam_oracle, _ = eig2x2_sym(a, b, c)
        pair = max_eigenpair(s)
        assert pair.value == pytest.approx(lam_oracle, rel=1e-10, abs=1e-10)


def test_max_eigenpair_gap_rtol_domain():
    s = np.eye(2)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            max_eigenpair(s, gap_rtol=bad)


def test_max_eigenpair_residual_bound():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        m = rng.normal(size=(n, n))
        pair = max_eigenpair(m + m.T)
        assert pair.residual <= RESIDUAL_RTOL * abs(pair.value)


def test_max_eigenpair_backend_failure_maps_to_convergence_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(ConvergenceFailure) as exc_info:
        max_eigenpair(np.eye(3))
    assert "Eigenvalues did not converge" in str(exc_info.value)
    assert "iteration budget" not in str(exc_info.value)


def test_max_eigenpair_nan_residual_fails_the_bound(monkeypatch):
    def nan_vectors(s):
        return np.array([0.0, 1.0]), np.array([[1.0, np.nan], [0.0, np.nan]])

    monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
    with pytest.raises(ConvergenceFailure):
        max_eigenpair(np.diag([0.0, 1.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-20])
def test_max_eigenpair_residual_bound_is_relative(scale, monkeypatch):
    # eigh returns e2 turned by theta for diag(1, 2) * scale: the residual is scale * sin(theta)
    # against the bound RESIDUAL_RTOL * 2 * scale, so the verdict does not depend on scale
    def turned(theta):
        c, s = np.cos(theta), np.sin(theta)
        return lambda _: (np.array([scale, 2.0 * scale]), np.array([[c, -s], [s, c]]))

    monkeypatch.setattr(np.linalg, "eigh", turned(1e-9))
    assert max_eigenpair(np.diag([scale, 2.0 * scale])).residual <= RESIDUAL_RTOL * 2.0 * scale
    monkeypatch.setattr(np.linalg, "eigh", turned(1e-7))
    with pytest.raises(ConvergenceFailure, match=r"\* \|lambda\|"):
        max_eigenpair(np.diag([scale, 2.0 * scale]))


def test_max_eigenpair_merge_boundary_is_exact():
    # exact binary eigenvalues: lambda_max - w == gap_rtol * lambda_max merges, twice that does not
    tol = 2.0**-30
    merged = max_eigenpair(np.diag([1.0 - tol, 1.0]), gap_rtol=tol)
    assert merged.multiplicity == 2 and merged.residual == tol
    assert max_eigenpair(np.diag([1.0 - 2 * tol, 1.0]), gap_rtol=tol).multiplicity == 1
    # the M side: row 1 of b holds three entries 2**-j per j, so ||row 1||^2 = 1 - 2**-30
    b = np.zeros((2, 46))
    b[0, 0] = 1.0
    b[1, 1:] = np.repeat(2.0 ** -np.arange(1, 16), 3)
    k = gram_sum((b.T,))
    np.testing.assert_array_equal(k, np.diag([1.0, 1.0 - tol]))
    pair = max_eigenpair(k, tol, b)
    assert pair.multiplicity == 2 and pair.residual <= 1e-8
    assert max_eigenpair(k, tol / 2, b).multiplicity == 1


# ---------------------------------------------------------------------------
# the top-cluster route: dsyevr subsets from _SUBSET_MIN_ORDER up

CROSSOVER = spectra_core._SUBSET_MIN_ORDER


def clustered_stack(rng, m, n, mult):
    """Three row blocks of an m x n matrix whose top singular value 2 has multiplicity mult."""
    p = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, p)))
    v, _ = np.linalg.qr(rng.standard_normal((n, p)))
    sigma = np.concatenate([np.full(mult, 2.0), rng.uniform(0.2, 1.5, p - mult)])
    return np.array_split((u * sigma) @ v.T, 3)


@pytest.fixture
def subset_calls(monkeypatch):
    """Record the subset size k of every dsyevr call."""
    from scipy.linalg import lapack

    ks, real = [], lapack.dsyevr

    def spy(a, **kw):
        ks.append(kw["iu"] - kw["il"] + 1)
        return real(a, **kw)

    monkeypatch.setattr(lapack, "dsyevr", spy)
    return ks


@pytest.mark.parametrize("mult", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [CROSSOVER, 3 * CROSSOVER + 5])
@pytest.mark.parametrize("shape", ["tall", "square", "wide"])
def test_subset_route_matches_full_eigh(shape, order, mult, subset_calls, monkeypatch):
    rng = np.random.default_rng([order, mult, len(shape)])
    m, n = {"tall": (3 * order, order), "square": (order, order), "wide": (order, 3 * order)}[shape]
    stack = clustered_stack(rng, m, n, mult)
    first, second = gsv_solve(stack), gsv_solve(stack)
    # k doubles from 2 until the smallest eigenvalue found lies below the cluster
    expected = {1: [2], 2: [2, 4], 3: [2, 4], 4: [2, 4, 8], 5: [2, 4, 8]}[mult]
    assert subset_calls == expected * 2
    monkeypatch.setattr(spectra_core, "_SUBSET_MIN_ORDER", 10**9)
    full = gsv_solve(stack)
    assert len(subset_calls) == 2 * len(expected)  # the reference ran numpy's full eigh
    assert first.lambda_max == pytest.approx(full.lambda_max, rel=1e-12)
    assert first.multiplicity == full.multiplicity == mult
    np.testing.assert_allclose(first.basis @ first.basis.T, full.basis @ full.basis.T,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(first.basis.T @ first.basis, np.eye(mult), rtol=0, atol=1e-12)
    assert first.residual <= RESIDUAL_RTOL * abs(first.lambda_max)
    assert first.lambda_max == second.lambda_max and first.residual == second.residual
    np.testing.assert_array_equal(first.basis, second.basis)


@pytest.mark.parametrize("mult", [1, 2, 3])
@pytest.mark.parametrize("shape", [(8, 3), (4, 9)], ids=["tall", "wide"])
def test_solve_is_scale_free_bit_for_bit(shape, mult):
    # 2^k * stack below the crossover: the basis and multiplicity bits of k = 0 and
    # lambda_max times 2^(2k) exactly; (8, 3) with mult 3 is the whole sphere
    stack = clustered_stack(np.random.default_rng([31, *shape, mult]), *shape, mult)
    base = gsv_solve(stack)
    assert base.multiplicity == mult
    for k in range(-500, 501):
        sol = gsv_solve([np.ldexp(a, k) for a in stack])
        assert sol.multiplicity == mult, k
        np.testing.assert_array_equal(sol.basis, base.basis, err_msg=f"k = {k}")
        assert sol.lambda_max == np.ldexp(base.lambda_max, 2 * k), k


@pytest.mark.parametrize("shape", [(90, 40), (40, 90)], ids=["tall", "wide"])
def test_subset_route_is_scale_free_to_rounding(shape, subset_calls):
    # 2^k * stack: the same subset sizes and multiplicity at every k, lambda_max to rounding.
    # dsyevr's vectors move by an ulp once the Gram's top entry falls below about 1/2, so
    # here, unlike below the crossover, the basis is compared to rounding, not bit for bit.
    rng = np.random.default_rng(list(shape))
    for mult, ks in [(1, [2]), (3, [2, 4])]:
        stack = clustered_stack(rng, *shape, mult)
        base = gsv_solve(stack)
        assert base.multiplicity == mult
        for k in range(-500, 501, 7):
            subset_calls.clear()
            sol = gsv_solve([np.ldexp(a, k) for a in stack])
            assert sol.multiplicity == mult and subset_calls == ks, k
            np.testing.assert_allclose(sol.basis @ sol.basis.T, base.basis @ base.basis.T,
                                       rtol=0, atol=1e-14, err_msg=f"k = {k}")
            assert sol.lambda_max == pytest.approx(np.ldexp(base.lambda_max, 2 * k), rel=1e-14)


def test_subset_route_merge_boundary_is_exact():
    # exact binary eigenvalues above the crossover, as in the eigh test above
    tol = 2.0**-30
    low = np.linspace(0.0, 0.5, 38)
    assert 40 >= CROSSOVER
    merged = max_eigenpair(np.diag(np.concatenate([low, [1.0 - tol, 1.0]])), gap_rtol=tol)
    assert merged.multiplicity == 2 and merged.residual == tol
    single = max_eigenpair(np.diag(np.concatenate([low, [1.0 - 2 * tol, 1.0]])), gap_rtol=tol)
    assert single.multiplicity == 1


def test_subset_route_failure_carries_lapack_info(monkeypatch):
    from scipy.linalg import lapack

    monkeypatch.setattr(lapack, "dsyevr", lambda a, **kw: (None, None, 0, None, 7))
    with pytest.raises(ConvergenceFailure, match="info = 7"):
        max_eigenpair(np.eye(CROSSOVER))


def test_rayleigh_bound_random_unit_vectors():
    rng = np.random.default_rng(13)
    mats = [rng.normal(size=(5, 4)) for _ in range(2)]
    s = gram_sum(mats)
    lam = max_eigenpair(s).value
    x = rng.normal(size=(4, 10**5))
    quotients = np.einsum("ij,ij->j", x, s @ x) / np.einsum("ij,ij->j", x, x)
    assert np.max(quotients) <= lam + 1e-9 * max(1.0, lam)


def test_trace_consistency():
    rng = np.random.default_rng(14)
    for _ in range(20):
        mats = [rng.normal(size=(6, 5)) for _ in range(3)]
        s = gram_sum(mats)
        eigenvalues = np.linalg.eigvalsh(s)
        trace = np.trace(s)
        assert abs(np.sum(eigenvalues) - trace) <= 1e-8 * trace


# ---------------------------------------------------------------------------
# stage visibility: the benchmark's tracer must see both stages of every solve

TRACED_SOLVES = r"""
import json, sys
import numpy as np
import tracer

spans = tracer.install(tracer.Tracer()).spans
import gsvkit

counts = []
for stack in ([np.arange(12.0).reshape(4, 3)], [np.arange(8.0).reshape(2, 4)],
              [np.array([[1e-6, 1e-6]])]):
    start = len(spans)
    gsvkit.gsv_solve(stack)
    names = [rec[2] for rec in spans[start:]]
    counts.append([names.count(name) for name in (
        "gsv_solver.OperatorStack", "spectra_core.gram_sum", "spectra_core.max_eigenpair",
        "gsv_solver.GsvSolution")])
print(json.dumps(counts))
"""


def test_traced_solve_records_both_stages():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(gsvkit.__file__))
    path = os.pathsep.join(
        filter(None, [os.path.join(root, "perfbench"), src, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", TRACED_SOLVES], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=False)
    assert proc.returncode == 0, proc.stderr  # install raises MissedBinding on a stale alias
    # tall 4 x 3, wide 2 x 4 and wide 1 x 2 at 1e-6: one of each stage, as every solve
    # runs on one side only.  One validation at each end: validations_per_solve stays 2.
    assert json.loads(proc.stdout) == [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]


# ---------------------------------------------------------------------------
# symmetry and orientation


# every constructor taking a square symmetric input, each through the one gate
SQUARE_BUILDS = {
    "WeightedProblem": lambda a: WeightedProblem((np.ones((2, 2)),), a),
    "joint_magnitude_state": lambda a: joint_magnitude_state([a]),
    "CriticalSystem": lambda a: CriticalSystem(a, 1.0),
}
SQUARE_INPUTS = pytest.mark.parametrize(
    "build", list(SQUARE_BUILDS.values()), ids=list(SQUARE_BUILDS)
)

# the full base pins that ||a||_F counts the diagonal; CriticalSystem gates its couplings
# alone (its diagonal is unused), so it takes the zero-diagonal base, as do the extra cases
FULL_BASE = np.array([[2.0, 1.0], [1.0, 2.0]])
ZERO_DIAGONAL_BASE = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "build, base",
    [
        pytest.param(SQUARE_BUILDS["WeightedProblem"], FULL_BASE, id="WeightedProblem"),
        pytest.param(SQUARE_BUILDS["joint_magnitude_state"], FULL_BASE, id="joint_magnitude_state"),
        pytest.param(SQUARE_BUILDS["CriticalSystem"], ZERO_DIAGONAL_BASE, id="CriticalSystem"),
        pytest.param(
            SQUARE_BUILDS["WeightedProblem"], ZERO_DIAGONAL_BASE, id="WeightedProblem-zero_diagonal"
        ),
        pytest.param(
            SQUARE_BUILDS["joint_magnitude_state"],
            ZERO_DIAGONAL_BASE,
            id="joint_magnitude_state-zero_diagonal",
        ),
    ],
)
def test_one_symmetry_rule_at_1e_10_relative(build, base):
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # ||base + t skew - (base + t skew)^T||_F / ||base||_F = 2 sqrt(2) t / ||base||_F
    per_unit = 2.0 * np.sqrt(2.0) / np.linalg.norm(base)
    for k in (-300, 0, 300):  # the rule is relative, so its verdict holds at every scale
        build(np.ldexp(base + 0.5e-10 / per_unit * skew, k))
        with pytest.raises(NotSymmetric, match="relative asymmetry 2.000e-10 exceeds 1e-10"):
            build(np.ldexp(base + 2e-10 / per_unit * skew, k))


@SQUARE_INPUTS
def test_square_input_gate_names_each_fault(build):
    for bad in (np.nan, np.inf, -np.inf):
        for at in [(0, 0), (0, 1)]:
            a = np.eye(2)
            a[at] = bad
            with pytest.raises(NonFiniteInput, match="contains non-finite entries"):
                build(a)
    for shape in [(2, 3), (2,), (1, 2, 2)]:
        with pytest.raises(NotSymmetric, match="is not square"):
            build(np.ones(shape))


def test_square_input_gate_holds_at_the_ends_of_the_float_range():
    # np.linalg.norm overflows at 1e200 and underflows at 1e-200: the gate rescales first
    for scale in (1e200, 1e-200):
        with pytest.raises(NotSymmetric):
            WeightedProblem((np.ones((2, 2)),), np.array([[1.0, 1.0], [0.0, 1.0]]) * scale)
    # (a + a.T) / 2 at 1e308 would pass through inf: the average is taken at 2^-e * a
    r = np.diag([1e308, 1e308])
    np.testing.assert_array_equal(WeightedProblem((np.ones((2, 2)),), r).resistance, r)
    with pytest.raises(MaximumOverflow):  # a finite input is never "non-finite"
        joint_magnitude_state([np.array([[1e308, 0.0], [0.0, 1.0]])])


@pytest.mark.parametrize("order", ["C", "F"])
def test_symmetric_gate_keeps_an_exactly_symmetric_input_as_a_view(order):
    b = np.random.default_rng(16).normal(size=(6, 6))
    for k in (-1000, 0, 1000):  # (a + a.T) / 2 is a itself at every scale
        a = np.array(np.ldexp(b @ b.T, k), order=order)
        out = spectra_core._symmetrized(a, "a")
        assert np.shares_memory(out, a) and not out.flags.writeable and a.flags.writeable
        np.testing.assert_array_equal(out, (a + a.T) / 2)
    with pytest.raises(NonFiniteInput):  # the NaN scan runs before the bit test
        spectra_core._symmetrized(np.full((2, 2), np.nan), "a")


def test_symmetric_gate_averages_a_mirrored_signed_zero():
    # 0.0 == -0.0, so a value test would keep -0.0; the average is +0.0 on both sides
    a = np.eye(3)
    a[0, 1], a[1, 0] = 0.0, -0.0
    out = spectra_core._symmetrized(a, "a")
    assert not np.shares_memory(out, a) and not out.flags.writeable
    assert not np.signbit(out).any() and np.signbit(a[1, 0])


SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0 + 0j, -1.0])
SNV = np.array([[1.0], [-1.0]])  # one standardized column


@pytest.mark.parametrize(
    "build",
    [
        lambda: gsv_solve([SIGMA_Y, SIGMA_Z]),  # cast to real: lambda 1.0, the truth is 2.0
        lambda: gsv_solve([SIGMA_Y]),  # cast to real: AllZero, the truth is 1.0
        lambda: gsv_solve([[[1.0, 1j]]]),  # a list: a bare TypeError
        # cast to real: lambda 1 with multiplicity 2, the truth is 4 with multiplicity 1
        lambda: joint_magnitude_state([np.array([[1, 1j], [-1j, 1]])]),
        lambda: joint_magnitude_state([[[1, 1j], [-1j, 1]]]),
        lambda: gsvkit.gsv_solve_2col_equalnorm(np.array([[1.0, 1j], [1j, 1.0]])),
        lambda: WeightedProblem((SIGMA_Y,), np.eye(2)),
        lambda: WeightedProblem((np.eye(2),), np.eye(2) + 0j),
        lambda: CriticalSystem(SIGMA_Y, 1.0),
        # Each case below failed at the float cast by a ComplexWarning (an error under
        # pytest's filterwarnings), a bare TypeError (a list) or a wrong answer.
        lambda: critical_residual(CriticalSystem.equal_coefficients(2, 1.0, 0.5), [1j, 1.0]),
        lambda: objective_value([np.eye(2)], [1j, 0.0]),
        lambda: fix_column_signs(np.array([[1j], [1.0]])),
        lambda: GsvSolution(1.0, np.array([[1.0 + 0j]]), 1.0, 0.0),
        lambda: StatVector([1j, 1.0]),
        lambda: standardize([1.0, 2j, 3.0]),
        lambda: is_snv(np.array([1 + 1j, -1 - 1j])),  # cast to real: True
        lambda: StatMatrix(SNV + 0j, np.zeros(1), np.ones(1)),
        lambda: StatMatrix(SNV, np.array([1j]), np.ones(1)),
        lambda: StatMatrix(SNV, np.zeros(1), np.array([1 + 1j])),
        # cast to real: standardizes the real parts
        lambda: StatMatrix.from_raw(np.array([[1 + 1j, 2.0], [3.0, 4 - 1j], [0.0, 1.0]])),
        lambda: DensityModel(np.array([0.5 + 0j, 0.25])),
        lambda: build_density([0.5, 0.25j]),
        lambda: build_density([0.5, 0.25]).apply(np.array([1j, 1.0])),
        # cast to real: writes only the real part
        lambda: matrix_io.write_matrix_csv(os.devnull, SIGMA_Y),
        lambda: matrix_io.write_vector_csv(os.devnull, [1j, 1.0]),
    ],
    ids=["pauli_pair", "sigma_y", "list", "joint_magnitude", "joint_magnitude_list",
         "2col", "field", "resistance", "critical_system", "critical_residual",
         "objective_value", "fix_column_signs", "gsv_solution", "stat_vector", "standardize",
         "is_snv", "stat_matrix_data", "stat_matrix_means", "stat_matrix_stds", "from_raw",
         "density_model", "build_density", "density_apply", "write_matrix", "write_vector"],
)
def test_complex_input_is_refused_before_the_float_cast(build):
    with pytest.raises(ComplexInput, match="is complex") as exc_info:
        build()  # pytest's filterwarnings = error would also fail on a ComplexWarning
    assert exc_info.value.exit_code == 2


def fix_column_signs_loop(vectors):
    """Column-by-column reference for fix_column_signs on a 2-D block."""
    v = np.array(vectors, dtype=float)
    for j in range(v.shape[1]):
        lead = np.argmax(np.abs(v[:, j]))
        if v[lead, j] < 0:
            v[:, j] = -v[:, j]
    return v


def test_fix_column_signs_matches_column_loop():
    rng = np.random.default_rng(21)
    blocks = []
    for _ in range(200):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        blocks.append(rng.normal(size=shape))
        # half-integers: tied magnitudes of both signs and zero columns
        blocks.append(0.5 * rng.integers(-2, 3, size=shape))
    blocks.append(np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, 1.0]]))
    # single columns: a negative lead, a tie in |lead| of both signs, an all-zero column
    blocks += [np.array([[0.5], [-2.0], [1.0]]), np.array([[-1.5], [1.5]]),
               np.array([[1.5], [-1.5]]), np.array([[-0.0], [0.0], [-0.0]])]
    for block in blocks:
        got, want = fix_column_signs(block), fix_column_signs_loop(block)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    vector = rng.normal(size=5)
    np.testing.assert_array_equal(
        fix_column_signs(vector), fix_column_signs_loop(vector[:, None])[:, 0]
    )


def test_fix_column_signs_orientation():
    v = np.array([[-0.8, 0.6], [0.6, 0.8]])
    fixed = fix_column_signs(v)
    assert fixed[0, 0] == 0.8 and fixed[1, 0] == -0.6
    assert fixed[1, 1] == 0.8
    # ties on |max|: the first such component decides
    tied = fix_column_signs(np.array([-0.70710678, 0.70710678]))
    assert tied[0] > 0
