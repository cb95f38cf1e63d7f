"""Tests for the Gram-sum / maximal-eigenpair substrate."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsvkit
from gsvkit import _lapack, matrix_io, spectra_core
from gsvkit.density_model import DensityModel, joint_magnitude_state
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
from gsvkit.gsv_solver import (
    OperatorStack,
    WeightedProblem,
    gsv_solve,
    objective_value,
)
from gsvkit.spectra_core import (
    GAP_RTOL,
    RESIDUAL_RTOL,
    SIGN_TIE_RTOL,
    fix_column_signs,
    gram_sum,
    max_eigenpair,
)
from gsvkit.stat_norm import StatMatrix, is_snv


def standardized(x):
    """``x`` standardized as the one column of ``StatMatrix.from_raw``: a read-only view."""
    return StatMatrix.from_raw(np.reshape(x, (-1, 1))).data[:, 0]


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
    assert pair.vectors.shape[1] == 3


def test_max_eigenpair_diagonal_multiplicity_two():
    pair = max_eigenpair(np.diag([4.0, 4.0, 1.0]))
    assert pair.value == pytest.approx(4.0, abs=1e-14)
    assert pair.vectors.shape[1] == 2
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
    assert pair.vectors.shape[1] == 1
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

    monkeypatch.setattr(_lapack, "eigh", boom)
    with pytest.raises(ConvergenceFailure) as exc_info:
        max_eigenpair(np.eye(3))
    assert "Eigenvalues did not converge" in str(exc_info.value)
    assert "iteration budget" not in str(exc_info.value)


def test_max_eigenpair_nan_residual_fails_the_bound(monkeypatch):
    def nan_vectors(s):
        return np.array([0.0, 1.0]), np.array([[1.0, np.nan], [0.0, np.nan]])

    monkeypatch.setattr(_lapack, "eigh", nan_vectors)
    with pytest.raises(ConvergenceFailure):
        max_eigenpair(np.diag([0.0, 1.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-20])
def test_max_eigenpair_residual_bound_is_relative(scale, monkeypatch):
    # eigh returns e2 turned by theta for diag(1, 2) * scale: the residual is scale * sin(theta)
    # against the bound RESIDUAL_RTOL * 2 * scale, so the verdict does not depend on scale
    def turned(theta):
        c, s = np.cos(theta), np.sin(theta)
        return lambda _: (np.array([scale, 2.0 * scale]), np.array([[c, -s], [s, c]]))

    monkeypatch.setattr(_lapack, "eigh", turned(1e-9))
    assert max_eigenpair(np.diag([scale, 2.0 * scale])).residual <= RESIDUAL_RTOL * 2.0 * scale
    monkeypatch.setattr(_lapack, "eigh", turned(1e-7))
    with pytest.raises(ConvergenceFailure, match=r"\* \|lambda\|"):
        max_eigenpair(np.diag([scale, 2.0 * scale]))


def test_max_eigenpair_merge_boundary_is_exact():
    # exact integer eigenvalues at the published tolerance, GAP_RTOL * 1e10 == 1.0 exactly:
    # lambda_max - w == GAP_RTOL * lambda_max merges, twice that does not
    assert GAP_RTOL * 1e10 == 1.0
    merged = max_eigenpair(np.diag([1e10 - 1, 1e10]))
    assert merged.vectors.shape[1] == 2 and merged.residual == 1.0
    assert max_eigenpair(np.diag([1e10 - 2, 1e10])).vectors.shape[1] == 1
    # the M side: row 1 of b holds integers whose squares sum to 1e10 - 1 (merges) or
    # 1e10 - 2 (does not), so the Gram b b^T is exact
    for tail, second, mult in [([99999, 447, 12, 6, 3], 1e10 - 1, 2),
                               ([99999, 447, 12, 6, 2, 2], 1e10 - 2, 1)]:
        b = np.zeros((2, 8))
        b[0, 0] = 1e5
        b[1, 1 : 1 + len(tail)] = tail
        k = gram_sum((b.T,))
        np.testing.assert_array_equal(k, np.diag([1e10, second]))
        pair = max_eigenpair(k, b)
        assert pair.vectors.shape[1] == mult and pair.residual <= RESIDUAL_RTOL * 1e10


def test_max_eigenpair_maps_the_kernels_invalid_flag_to_numpys_error(monkeypatch):
    # the kernel runs under numpy.linalg.eigh's floating-point state: an invalid flag raised
    # inside it is eigh's LinAlgError, so ConvergenceFailure with numpy's message ...
    real = _lapack._eigh_lo

    def flagged(s, signature):
        np.sqrt(np.full(2, -1.0))
        return real(s, signature=signature)

    monkeypatch.setattr(_lapack, "_eigh_lo", flagged)
    with pytest.raises(ConvergenceFailure,
                       match="^eigendecomposition failed: Eigenvalues did not converge$"):
        max_eigenpair(np.diag([1.0, 2.0]))

    # ... while overflow, division by zero and underflow pass silently, as in eigh
    def quiet(s, signature):
        np.float64(1e300) * np.float64(1e300), np.divide(1.0, np.zeros(1)), np.float64(1e-300) ** 2
        return real(s, signature=signature)

    monkeypatch.setattr(_lapack, "_eigh_lo", quiet)
    pair = max_eigenpair(np.diag([1.0, 2.0]))
    assert pair.value == 2.0 and pair.vectors.tolist() == [[0.0], [1.0]]


SMALL_STREAM_DIGEST = r"""
import hashlib, sys
import numpy as np
if sys.argv[1] == "fallback":
    sys.modules["numpy.linalg._umath_linalg"] = None  # the kernel's import fails
from gsvkit import _lapack, gsv_solve
assert (_lapack.eigh is np.linalg.eigh) == (sys.argv[1] == "fallback")
rng = np.random.default_rng(35)
digest = hashlib.sha256()
for _ in range(400):  # many_small's shapes: tall and wide, n below the subset route
    n = int(rng.integers(1, 13))
    stack = [rng.standard_normal((int(rng.integers(1, 21)), n)) for _ in range(rng.integers(1, 6))]
    for sol in (gsv_solve(stack), gsv_solve([np.kron(np.eye(2), a) for a in stack])):
        digest.update(f"{sol.lambda_max.hex()} {sol.objective_check.hex()} {sol.residual.hex()}"
                      .encode())
        digest.update(sol.basis.tobytes())
print(digest.hexdigest())
"""


def package_env():
    """The environment of a child interpreter that imports the gsvkit under test."""
    src = os.path.dirname(os.path.dirname(gsvkit.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_eigh_fallback_binding_keeps_every_output_bit():
    # where numpy's kernel cannot be imported, _lapack.eigh is numpy.linalg.eigh itself: the four
    # outputs of a seeded small-stack stream keep their bits (each stack doubled block-diagonally
    # has a two-fold maximum)
    out = {}
    for binding in ("kernel", "fallback"):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", SMALL_STREAM_DIGEST, binding],
                              capture_output=True, text=True, env=package_env(), check=False)
        assert proc.returncode == 0, proc.stderr
        out[binding] = proc.stdout
    assert out["kernel"] == out["fallback"]


@pytest.mark.parametrize("order, where, value", [
    (2, (0, 1), "inf"), (2, (0, 1), "nan"), (40, (0, 1), "inf"), (40, (0, 1), "nan"),
    (3, (0, 0), "nan"),  # lambda_max comes back finite: the NaN residual finds it
    (12, (0, 0), "-inf"),  # lambda_max comes back NaN: read before a matmul can warn
    (5, (2, 0), "nan"),  # the kernel's invalid flag: numpy's "did not converge"
], ids=["inf_pair", "nan_pair", "inf_pair_dsyevr", "nan_pair_dsyevr", "nan_diagonal",
        "inf_diagonal", "not_converged"])
def test_max_eigenpair_refuses_a_non_finite_matrix(order, where, value):
    # [[1, inf], [inf, 1]] and its NaN twin escaped as numpy's zero-size ValueError, an order-40
    # identity with an inf pair as "dsyevr info = 0", and with a NaN pair dsyevr spun for
    # minutes: run in a child process, so a hang fails the test instead of stalling the suite
    i, j = where
    code = (f"import numpy as np; from gsvkit.spectra_core import max_eigenpair\n"
            f"s = np.eye({order}); s[{i}, {j}] = s[{j}, {i}] = float('{value}')\n"
            f"try:\n    max_eigenpair(s)\nexcept Exception as exc:\n"
            f"    print(type(exc).__name__, exc)")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NonFiniteInput eigenproblem matrix contains non-finite entries\n"


@pytest.mark.parametrize("order, entry", [(2, 1e308), (40, 1e307)], ids=["eigh", "dsyevr"])
def test_max_eigenpair_of_a_finite_matrix_past_float64_is_maximum_overflow(order, entry):
    # lambda_max = order * entry overflows: eigh returned (inf, (1, -1) / sqrt(2), inf), a wrong
    # pair, and dsyevr's inf ended as "residual nan"; now the prescaled pair's scale-back refuses it
    with pytest.raises(MaximumOverflow,
                       match=r"^lambda_max = \S+ \* 2\*\*\d+ exceeds the float64 range$"):
        max_eigenpair(np.full((order, order), entry))


@pytest.mark.parametrize("order", [5, 40], ids=["eigh", "dsyevr"])
def test_max_eigenpair_residual_is_finite_where_only_its_squares_overflow(order):
    # at 1e200 the residual, ~1e185, is in range but its square is not: it was inf, a
    # ConvergenceFailure; the pair is the rescaled one's, lambda_max to rounding
    a = np.random.default_rng(order).standard_normal((order, order))
    base = max_eigenpair(a @ a.T)
    for scale in (1e150, 1e200, 1e300, 1e305):
        pair = max_eigenpair(a @ a.T * scale)
        assert 0.0 < pair.residual <= RESIDUAL_RTOL * pair.value < np.inf, scale
        assert pair.value == pytest.approx(base.value * scale, rel=1e-13), scale
        np.testing.assert_allclose(pair.vectors, base.vectors, rtol=0, atol=1e-12)


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
    ks, real = [], _lapack.dsyevr

    def spy(a, **kw):
        ks.append(kw["iu"] - kw["il"] + 1)
        return real(a, **kw)

    monkeypatch.setattr(_lapack, "dsyevr", spy)
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


def exactly_scaled(a, k):
    """``2^k a`` if every entry scales exactly (nothing overflows or loses a bit), else None."""
    with np.errstate(over="ignore"):
        out = np.ldexp(a, k)
    return out if np.array_equal(np.ldexp(out, -k), a) else None


def gram_exponent(s):
    """The f with ``2^-2f s`` peaked in [1, 4): max_eigenpair's prescale, 0 inside ``2^±2W``."""
    f = (math.frexp(float(np.abs(s).max()))[1] - 1) >> 1
    return f if abs(f) > spectra_core._EXP_WINDOW else 0


@pytest.mark.parametrize("mult", [1, 2])
@pytest.mark.parametrize("order, side", [(6, "n"), (4, "M"), (40, "n"), (40, "M")],
                         ids=["eigh", "eigh_M", "dsyevr", "dsyevr_M"])
def test_max_eigenpair_is_exactly_scaled_at_every_exponent(order, side, mult):
    # at every k where 2^k s (and 2^k rows) is exact: lambda_max and the residual are exactly
    # 2^k (2^2k on the M side) times a reference and the basis has its bits, or MaximumOverflow
    # where lambda_max leaves float64.  The reference is the unscaled pair on the eigh route; on
    # the dsyevr route, that of the prescaled matrix, as dsyevr's vectors move by an ulp with the
    # scale inside the window, where the pair is compared to rounding instead.
    m, n = (order, 3 * order) if side == "M" else (3 * order, order)
    b = np.concatenate(clustered_stack(np.random.default_rng([order, mult, m]), m, n, mult))
    rows = b if side == "M" else None
    s = gram_sum((b.T,) if side == "M" else (b,))
    base = max_eigenpair(s, rows)
    assert base.vectors.shape[1] == mult
    refs = {}
    checked = 0
    for k in range(-1100, 1100):
        ks = 2 * k if side == "M" else k
        s_k, rows_k = exactly_scaled(s, ks), None if rows is None else exactly_scaled(rows, k)
        if s_k is None or (side == "M" and rows_k is None):
            continue
        checked += 1
        f = gram_exponent(s_k)
        if order < CROSSOVER or f:
            if order < CROSSOVER:
                ref, shift = base, ks
            else:  # the matrix the prescale produces: one reference for each
                j = ks - 2 * f
                if j not in refs:
                    refs[j] = max_eigenpair(np.ldexp(s, j), None if rows is None
                                            else np.ldexp(rows, j // 2))
                ref, shift = refs[j], 2 * f
            try:
                want = math.ldexp(ref.value, shift)
            except OverflowError:
                with pytest.raises(MaximumOverflow):
                    max_eigenpair(s_k, rows_k)
                continue
            pair = max_eigenpair(s_k, rows_k)
            assert pair.value == want, k
            assert pair.residual == math.ldexp(ref.residual, shift), k
            np.testing.assert_array_equal(pair.vectors, ref.vectors, err_msg=f"k = {k}")
        else:  # dsyevr inside the window
            pair = max_eigenpair(s_k, rows_k)
            assert pair.value == pytest.approx(math.ldexp(base.value, ks), rel=1e-14), k
            assert pair.vectors.shape[1] == mult, k
            np.testing.assert_allclose(pair.vectors @ pair.vectors.T,
                                       base.vectors @ base.vectors.T, rtol=0, atol=1e-14)
    assert checked > (900 if side == "M" else 1900)


def test_max_eigenpair_near_the_top_of_float64_is_one_prescaled_solve(subset_calls):
    # an order-40 Gram with its peak in [2^1023, 2^1024): dsyevr's own rescale left an inf - inf
    # in the top-cluster test (a RuntimeWarning, an error here) and asked for k = 2 up to 40
    # before lambda_max overflowed; the prescaled matrix takes one call
    a = np.random.default_rng(40).standard_normal((40, 40))
    s = a @ a.T
    s = np.ldexp(s, 1023 - (math.frexp(float(s.max()))[1] - 1))
    assert 2.0 ** 1023 <= s.max() < np.inf
    with pytest.raises(MaximumOverflow, match=r"^lambda_max = \S+ \* 2\*\*1022 exceeds"):
        max_eigenpair(s)
    assert subset_calls == [2]


def test_subset_route_merge_boundary_is_exact():
    # exact integer eigenvalues above the crossover, as in the eigh test above
    low = np.linspace(0.0, 5e9, 38)
    assert 40 >= CROSSOVER
    merged = max_eigenpair(np.diag(np.concatenate([low, [1e10 - 1, 1e10]])))
    assert merged.vectors.shape[1] == 2 and merged.residual == 1.0
    single = max_eigenpair(np.diag(np.concatenate([low, [1e10 - 2, 1e10]])))
    assert single.vectors.shape[1] == 1


def test_subset_route_failure_carries_lapack_info(monkeypatch):
    monkeypatch.setattr(_lapack, "dsyevr", lambda a, **kw: (None, None, 0, None, 7))
    with pytest.raises(ConvergenceFailure, match="info = 7"):
        max_eigenpair(np.eye(CROSSOVER))


def test_subset_route_asks_again_when_mrrr_drops_pairs(monkeypatch):
    # dsyevr can return m < k pairs with info 0 and zero vectors in their place; the first
    # answer here drops both, as LAPACK did on the 40 x 40 Grams of the next test
    stack = clustered_stack(np.random.default_rng(5), 120, 40, 1)
    want = gsv_solve(stack)
    calls, real = [], _lapack.dsyevr

    def drop_first(a, **kw):
        w, v, m, isuppz, info = real(a, **kw)
        calls.append(kw["iu"] - kw["il"] + 1)
        if len(calls) == 1:
            v, m = np.zeros_like(v), 0
        return w, v, m, isuppz, info

    monkeypatch.setattr(_lapack, "dsyevr", drop_first)
    sol = gsv_solve(stack)
    assert calls == [2, 4] and sol.multiplicity == 1
    assert sol.lambda_max == pytest.approx(want.lambda_max, rel=1e-14)
    np.testing.assert_allclose(sol.basis, want.basis, rtol=0, atol=1e-12)
    # never an endless loop: too few pairs even for k = n is a ConvergenceFailure
    monkeypatch.setattr(_lapack, "dsyevr", lambda a, **kw: (np.zeros(40), None, 0, None, 0))
    with pytest.raises(ConvergenceFailure, match="^eigendecomposition failed: dsyevr info = 0$"):
        max_eigenpair(np.eye(40))


@pytest.mark.parametrize("seed", [24, 94, 145, 282, 290])
def test_subset_route_top_pair_under_a_39_fold_second_eigenvalue(seed):
    # Q diag(1, 0.5, ..., 0.5) Q^T in two row blocks: the Gram's second eigenvalue 0.25 is
    # 39-fold.  With OpenBLAS 0.3.31's LAPACK, dsyevr asked for the top 2 pairs of each of these
    # Grams returns none (m = 0, info = 0).  Unchecked, the zero vectors passed the residual
    # bound and the solve ended in gsv_solve's unit check (seed 24 escaped by chance).
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((40, 40)))
    a = (q * np.concatenate([[1.0], np.full(39, 0.5)])) @ q.T
    sol = gsv_solve([a[:20], a[20:]])
    assert sol.multiplicity == 1
    assert sol.lambda_max == pytest.approx(1.0, rel=1e-14)
    assert abs(sol.basis[:, 0] @ q[:, 0]) == pytest.approx(1.0, rel=1e-14)


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
        "spectra_core.validated_matrices", "spectra_core.gram_sum", "spectra_core.max_eigenpair",
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
    # runs on one side only.  One validation, at entry, by validated_matrices: a sequence builds
    # no OperatorStack, and GsvSolution is a record with no span.
    assert json.loads(proc.stdout) == [[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0]]


# ---------------------------------------------------------------------------
# symmetry and orientation


# every constructor taking a square symmetric input, each through the one gate
SQUARE_BUILDS = {
    "WeightedProblem": lambda a: WeightedProblem((np.ones((2, 2)),), a),
    "joint_magnitude_state": lambda a: joint_magnitude_state([a]),
}
SQUARE_INPUTS = pytest.mark.parametrize(
    "build", list(SQUARE_BUILDS.values()), ids=list(SQUARE_BUILDS)
)

# the full base pins that ||a||_F counts the diagonal; the zero-diagonal base pins the rule on a
# matrix whose norm is its mirrored off-diagonal pair alone
FULL_BASE = np.array([[2.0, 1.0], [1.0, 2.0]])
ZERO_DIAGONAL_BASE = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "build, base",
    [
        pytest.param(SQUARE_BUILDS["WeightedProblem"], FULL_BASE, id="WeightedProblem"),
        pytest.param(SQUARE_BUILDS["joint_magnitude_state"], FULL_BASE, id="joint_magnitude_state"),
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


@pytest.mark.parametrize("order", ["C", "F"])
def test_symmetric_gate_compares_every_panel(order):
    # the bit test runs over 64-row panels: one ulp anywhere, either side of the diagonal
    b = np.random.default_rng(17).normal(size=(150, 150))
    s = np.array(b @ b.T, order=order)
    assert np.shares_memory(spectra_core._symmetrized(s, "s"), s)
    for i, j in [(0, 1), (63, 64), (64, 63), (65, 64), (70, 149), (149, 0), (149, 148)]:
        a = s.copy(order=order)
        a[i, j] = np.nextafter(a[i, j], np.inf)
        out = spectra_core._symmetrized(a, "a")
        assert not np.shares_memory(out, a)
        assert out[i, j] == out[j, i] == (a[i, j] + a[j, i]) / 2


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
        lambda: WeightedProblem((SIGMA_Y,), np.eye(2)),
        lambda: WeightedProblem((np.eye(2),), np.eye(2) + 0j),
        # Each case below failed at the float cast by a ComplexWarning (an error under
        # pytest's filterwarnings), a bare TypeError (a list) or a wrong answer.
        lambda: objective_value([np.eye(2)], [1j, 0.0]),
        lambda: fix_column_signs(np.array([[1j], [1.0]])),
        lambda: standardized([1.0, 2j, 3.0]),
        lambda: is_snv(np.array([1 + 1j, -1 - 1j])),  # cast to real: True
        lambda: StatMatrix(SNV + 0j),
        # cast to real: standardizes the real parts
        lambda: StatMatrix.from_raw(np.array([[1 + 1j, 2.0], [3.0, 4 - 1j], [0.0, 1.0]])),
        lambda: DensityModel(np.array([0.5 + 0j, 0.25])),
        lambda: DensityModel([0.5, 0.25j]),
        # cast to real: writes only the real part
        lambda: matrix_io.write_matrix_csv(os.devnull, SIGMA_Y),
        lambda: matrix_io.write_vector_csv(os.devnull, [1j, 1.0]),
    ],
    ids=["pauli_pair", "sigma_y", "list", "joint_magnitude", "joint_magnitude_list",
         "field", "resistance", "objective_value", "fix_column_signs",
         "standardize", "is_snv", "stat_matrix_data", "from_raw", "density_model",
         "density_model_list", "write_matrix", "write_vector"],
)
def test_complex_input_is_refused_before_the_float_cast(build):
    with pytest.raises(ComplexInput, match="is complex") as exc_info:
        build()  # pytest's filterwarnings = error would also fail on a ComplexWarning
    assert exc_info.value.exit_code == 2


# Each validating constructor, with a NaN or an inf put into each array or scalar it stores.
NON_FINITE_BUILDS = {
    "operator_stack": lambda v: OperatorStack((np.eye(2), np.array([[1.0, v]]))),
    "field": lambda v: WeightedProblem((np.eye(2), np.array([[v, 1.0]])), np.eye(2)),
    "resistance": lambda v: WeightedProblem((np.eye(2),), np.diag([1.0, v])),
    "density_model": lambda v: DensityModel([0.25, v]),
    "stat_matrix": lambda v: StatMatrix(np.array([[1.0, v], [-1.0, 1.0]])),
    "from_raw": lambda v: StatMatrix.from_raw(np.array([[1.0, 2.0], [3.0, v], [0.0, 1.0]])),
    "standardize": lambda v: standardized([1.0, v, 3.0]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", NON_FINITE_BUILDS.values(), ids=NON_FINITE_BUILDS.keys())
def test_non_finite_input_is_refused_by_every_constructor(build, value):
    with pytest.raises(NonFiniteInput, match="non-finite"):
        build(value)


# Each function taking a vector, with an array of another ndim.  Each flattened it before:
# objective_value([np.eye(4)], np.eye(2)) returned 2.0, and DensityModel took 2 x 2 as 4 states.
VECTOR_BUILDS = {
    "objective_value": lambda x: objective_value([np.eye(4)], x),
    "is_snv": is_snv,
    "density_model": DensityModel,
}


@pytest.mark.parametrize("x", [np.eye(2) / 10, np.float64(0.5)], ids=["2-D", "0-D"])
@pytest.mark.parametrize("build", VECTOR_BUILDS.values(), ids=VECTOR_BUILDS.keys())
def test_vector_arguments_must_be_1_d(build, x):
    with pytest.raises(ShapeMismatch, match=r"^expected a 1-D vector, got shape \("):
        build(x)


def fix_column_signs_loop(vectors):
    """Column-by-column reference for fix_column_signs on a 2-D block."""
    v = np.array(vectors, dtype=float)
    for j in range(v.shape[1]):
        a = np.abs(v[:, j])
        lead = np.flatnonzero(a >= (1.0 - SIGN_TIE_RTOL) * a.max())[0]
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
    blocks.append(np.ones((3, 0)))  # rows and no column: comes back unchanged
    # single columns: a negative lead, a tie in |lead| of both signs, an all-zero column
    blocks += [np.array([[0.5], [-2.0], [1.0]]), np.array([[-1.5], [1.5]]),
               np.array([[1.5], [-1.5]]), np.array([[-0.0], [0.0], [-0.0]])]
    # near-ties before the largest magnitude, within the tie tolerance and outside it
    near = np.array([[1 - 5e-13, -(1 - 5e-13), 1 - 1e-11], [-1.0, 1.0, -1.0]])
    blocks += [near, near[:, :1], near[:, 1:2], near[:, 2:]]
    for block in blocks:
        got, want = fix_column_signs(block), fix_column_signs_loop(block)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    vector = rng.normal(size=5)
    np.testing.assert_array_equal(
        fix_column_signs(vector), fix_column_signs_loop(vector[:, None])[:, 0]
    )


def sign_battery(rng):
    """Seeded columns for the sign rule: NaN first, inside and everywhere, +-0.0, zero columns,
    infinities, and ties within and just outside SIGN_TIE_RTOL, on both sides of the length
    at which fix_column_signs leaves Python floats for arrays."""
    near = [1 - 5e-13, 1 - 1e-12, 1 - 2e-12, 1 - 1e-11, 1.0]
    for _ in range(400):
        n = int(rng.integers(1, 2 * spectra_core._SUBSET_MIN_ORDER))
        signs = rng.choice([-1.0, 1.0], size=n)
        for col in (rng.standard_normal(n), 0.5 * rng.integers(-2, 3, size=n),
                    rng.choice([-0.0, 0.0], size=n), rng.choice(near, size=n) * signs):
            yield col
            for value in (np.nan, np.inf, -np.inf, -0.0):
                for where in {0, n // 2, n - 1}:
                    spoiled = col.copy()
                    spoiled[where] = value
                    yield spoiled
            yield np.full(n, np.nan)
            yield -np.abs(col)


def test_one_column_sign_lead_is_the_array_rule():
    # the one-column lead, on Python floats below the subset order, against the lead the
    # vectorized branch of fix_column_signs takes for the same column in a block
    count = 0
    for col in sign_battery(np.random.default_rng(35)):
        a = np.abs(col[:, None])
        lead = int((a >= (1.0 - SIGN_TIE_RTOL) * np.maximum.reduce(a, 0)).argmax(axis=0)[0])
        assert spectra_core._sign_lead(col.tolist()) == lead, col
        want = -col if col[lead] < 0 else col
        for got in (fix_column_signs(col), fix_column_signs(col[:, None])[:, 0]):
            assert got.tobytes() == want.tobytes(), col
        count += 1
    assert count > 10000


@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (0, 0), (2, 2, 2)])
def test_fix_column_signs_takes_a_vector_or_a_block_with_a_row(shape):
    # a 3-D array came back oriented along a meaningless axis, an empty vector or row-less block
    # escaped as numpy's bare ValueError, and a 0-d array as an IndexError
    with pytest.raises(ShapeMismatch, match=r"^expected a 1-D or 2-D array with a row, got shape"):
        fix_column_signs(np.ones(shape))


def test_fix_column_signs_orientation():
    v = np.array([[-0.8, 0.6], [0.6, 0.8]])
    fixed = fix_column_signs(v)
    assert fixed[0, 0] == 0.8 and fixed[1, 0] == -0.6
    assert fixed[1, 1] == 0.8
    # ties on |max|: the first such component decides
    tied = fix_column_signs(np.array([-0.70710678, 0.70710678]))
    assert tied[0] > 0
    # a last-bit difference between tied components does not decide the sign: component 0 does
    assert fix_column_signs(np.array([0.7071067811865475, -0.7071067811865476]))[0] > 0
    block = np.array([[0.7071067811865475, -0.7071067811865475],
                      [-0.7071067811865476, 0.7071067811865476]])
    np.testing.assert_array_equal(fix_column_signs(block)[0], [0.7071067811865475] * 2)
