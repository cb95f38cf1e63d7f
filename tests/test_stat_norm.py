"""Tests for standardization, critical systems, pair identities and ranking."""

import importlib.resources
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvkit.errors import (
    ComplexInput,
    ConstantVector,
    NonFiniteInput,
    NotStandardized,
    ShapeMismatch,
    TooShort,
)
from gsvkit import spectra_core
from gsvkit.gsv_solver import gsv_solve
from gsvkit.matrix_io import read_table_csv
from gsvkit.stat_norm import StatMatrix, is_snv, rank_by_score, score_rows

from helpers import standardized


def random_unit_snv(rng, n):
    """Unit-norm multiple of a statistically normalized vector of R^n."""
    v = standardized(rng.normal(size=n))
    return v / np.linalg.norm(v)


def snv_from_free_tail(m, tail, sign):
    """Closed-form zero-mean radius-sqrt(m) vectors: first two components from the rest."""
    tail = np.asarray(tail, dtype=float)
    s = float(np.sum(tail))
    q = float(np.sum(tail**2))
    disc = (m - q) / 2.0 - s**2 / 4.0
    assert disc >= -1e-12, "tail outside the admissible region"
    root = np.sqrt(max(disc, 0.0))
    x1 = -s / 2.0 - sign * root
    x2 = -s / 2.0 + sign * root
    return np.concatenate([[x1, x2], tail])


# ---------------------------------------------------------------------------
# standardization: one column through StatMatrix.from_raw


def test_standardize_two_points_exact():
    np.testing.assert_array_equal(standardized([1.0, -1.0]), [1.0, -1.0])
    np.testing.assert_array_equal(standardized([0.0, 2.0]), [-1.0, 1.0])
    np.testing.assert_array_equal(standardized([5.0, 3.0]), [1.0, -1.0])


def test_standardize_three_points_direct_computation():
    # mu = 2, sigma^2 = ((1-2)^2 + 0 + (3-2)^2) / 3 = 2/3
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    result = standardized([1.0, 2.0, 3.0])
    np.testing.assert_allclose(result, expected, atol=1e-15)
    assert is_snv(result)


def test_standardize_returns_a_read_only_float64_array():
    x = np.array([3.0, 1.0, -1.0, 2.0])
    v = standardized(x)
    assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (4,)
    assert not v.flags.writeable and not np.shares_memory(v, x)
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 0.0


def test_standardize_errors():
    with pytest.raises(TooShort, match=r"m >= 2 rows, got m=1$"):
        standardized([1.0])
    with pytest.raises(ConstantVector, match=r"^vector is constant \(column 0\)$"):
        standardized([3.0, 3.0, 3.0])
    with pytest.raises(ComplexInput, match="^data matrix is complex$"):
        standardized([1.0, 2j, 3.0])


@pytest.mark.parametrize("k", [-500, -200, -101, -100, -70, 0, 40, 100, 101, 300, 500])
def test_standardize_is_invariant_under_power_of_two_scaling(k):
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(standardized(x * 2.0**k), standardized(x))


def test_standardize_keeps_absolute_accuracy_on_subnormal_entries():
    # inside the 2^±100 window the moments are taken of x itself, so an entry on the
    # subnormal grid is accurate to about 2^-1074 / std, not relative to itself: the mean
    # 2^-1074 / 3 rounds to 0, and entry 2 reads 6.98e-306 where it is 4.65e-306
    a, d = 2.0**-60, 5e-324
    v = standardized(np.array([a, -a, d]))
    sigma = a * math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(v[:2], [math.sqrt(1.5), -math.sqrt(1.5)], rtol=1e-15)
    assert abs(v[2] - 2.0 / 3.0 * (d / sigma)) <= 0.5 * (d / sigma)


@pytest.mark.parametrize("c", [3.0, 3e-20, 1e200, 0.1, 1.0 / 3.0])
def test_constant_vector_raises_at_every_scale(c):
    with pytest.raises(ConstantVector):
        standardized(np.full(5, c))


def test_non_finite_entries_raise_non_finite_input():
    for bad in ([1.0, np.nan], [1.0, np.inf, 2.0]):
        with pytest.raises(NonFiniteInput):
            standardized(bad)


def test_standardize_norm_squared_is_m():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        x = rng.normal(loc=rng.normal() * 10, scale=rng.uniform(0.1, 5.0), size=m)
        assert abs(np.sum(standardized(x) ** 2) - m) <= 1e-10 * m


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40))
def test_standardize_roundtrip_is_snv(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=m) * rng.uniform(0.5, 20.0) + rng.normal() * 100.0
    assert is_snv(standardized(x))


# ---------------------------------------------------------------------------
# is_snv


def test_is_snv_examples():
    assert is_snv([1.0, -1.0])
    assert not is_snv([1.0, 1.0])


def test_is_snv_closed_form_family_m3():
    for tail in (0.0, 0.5, -1.0, 1.2, np.sqrt(2.0)):
        for sign in (-1.0, 1.0):
            x = snv_from_free_tail(3, [tail], sign)
            assert is_snv(x), x


def test_is_snv_closed_form_family_larger_m():
    rng = np.random.default_rng(22)
    for m in (4, 6, 10):
        hits = 0
        while hits < 20:
            tail = rng.uniform(-1.0, 1.0, size=m - 2)
            if 2 * m - 2 * np.sum(tail**2) - np.sum(tail) ** 2 < 0:
                continue
            for sign in (-1.0, 1.0):
                assert is_snv(snv_from_free_tail(m, tail, sign))
            hits += 1


def accepts(gate, v):
    """True when ``gate(v)`` returns, False when it raises NotStandardized."""
    try:
        gate(v)
    except NotStandardized:
        return False
    return True


# (scale, shift, inside): sum x^2 - m moves by ~2 (scale - 1) m, sum x by shift * m
SNV_PERTURBATIONS = [
    (1.0, 0.0, True),
    (1.0 + 4e-11, 0.0, True),
    (1.0 - 4e-11, 0.0, True),
    (1.0 + 6e-11, 0.0, False),
    (1.0 - 6e-11, 0.0, False),
    (1.0, 8e-11, True),
    (1.0, -8e-11, True),
    (1.0, 1.2e-10, False),
    (1.0, -1.2e-10, False),
]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60))
def test_every_standardized_gate_is_is_snv(seed, m):
    base = standardized(np.random.default_rng(seed).normal(size=m))
    for scale, shift, inside in SNV_PERTURBATIONS:
        v = base * scale + shift
        assert is_snv(v) == inside
        assert accepts(lambda u: StatMatrix(u[:, None]), v) == inside


def test_gates_accept_an_snv_within_the_published_bound():
    # sum x^2 = 4 (1 + 2e-11): inside 1e-10 * m, though std - 1 = 1e-11 exceeds 1e-12
    v = np.array([1.0, -1.0, 1.0, -1.0]) * (1.0 + 1e-11)
    assert is_snv(v)
    StatMatrix(v[:, None])


def test_is_snv_is_false_and_warning_free_off_the_rule():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_snv([])
        assert not is_snv([2.0])
        assert not is_snv([1e200, -1e200])  # sum x^2 overflows to inf
        assert not is_snv([1e308] * 4 + [-1e308] * 4)  # the pairwise sum meets inf - inf
        with pytest.raises(NotStandardized):
            StatMatrix(np.array([[1e200], [-1e200]]))


# ---------------------------------------------------------------------------
# pair identities: |x . y| <= m and x . y = (||x + y||^2 - 2m) / 2 for SNVs x, y of R^m


def pair_identities(x, y):
    """``(x . y, |x . y| <= m within 1e-10 m, the identity's defect)`` as plain expressions."""
    m = x.shape[0]
    dot = float(x @ y)
    return dot, abs(dot) <= m + 1e-10 * m, abs(dot - (float(np.sum((x + y) ** 2)) - 2.0 * m) / 2.0)


def test_pair_identities_equal_vectors_tight_bound():
    x = np.array([1.0, -1.0])
    dot, bound_ok, gap = pair_identities(x, x)
    assert dot == 2.0 and bound_ok and gap <= 1e-12


def test_pair_identities_antisymmetric():
    x = standardized([3.0, 1.0, -1.0, 2.0])
    y = -x
    dot, bound_ok, gap = pair_identities(x, y)
    assert dot == pytest.approx(-4.0, abs=1e-12)
    assert bound_ok and gap <= 1e-10 * 4


def test_pair_identities_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = standardized(rng.normal(size=50))
        y = standardized(rng.normal(size=50))
        dot, bound_ok, gap = pair_identities(x, y)
        assert bound_ok
        assert gap <= 1e-10 * 50
        assert abs(dot) <= 50 + 1e-10 * 50


# ---------------------------------------------------------------------------
# critical system: the sphere-constrained Lagrange system S x = lambda x, x . x = 1, checked
# at gsv_solve's returned basis with the Gram sum S formed here.  With equal couplings c the
# system matrix is c (J - I) up to a multiple of I.


def kkt_defects(stack, sol):
    """Largest ``||S x - lambda x|| / lambda`` and ``|x . x - 1|`` over the basis columns x."""
    s = sum(a.T @ a for a in stack)
    b = sol.basis
    stationarity = np.linalg.norm(s @ b - sol.lambda_max * b, axis=0).max() / sol.lambda_max
    return stationarity, np.abs(np.sum(b * b, axis=0) - 1.0).max()


def test_critical_residual_snv_points():
    # c < 0: c (J - I) - (n - 1) c I = n |c| (I - J / n), the Gram of one n x n matrix (the
    # solve's tall side), is maximal on the zero-sum plane, n - 1 fold: every unit SNV is critical
    rng = np.random.default_rng(24)
    for n in range(2, 9):
        for c in (-3.0, -0.5, -2.0):
            stack = [np.sqrt(-n * c) * (np.eye(n) - 1.0 / n)]
            sol = gsv_solve(stack)
            assert sol.multiplicity == n - 1
            assert sol.lambda_max == pytest.approx(-n * c, rel=1e-12)
            stationarity, sphere = kkt_defects(stack, sol)
            assert stationarity <= 1e-8 and sphere <= 1e-12
            s = stack[0].T @ stack[0]
            for _ in range(100):
                x = random_unit_snv(rng, n)
                assert np.linalg.norm(s @ x - sol.lambda_max * x) <= 1e-8 * sol.lambda_max
                assert np.linalg.norm(sol.basis @ (sol.basis.T @ x) - x) <= 1e-12


def test_critical_residual_uniform_point_n3():
    # c > 0: c (J - I) + c I = c J, the Gram of the row sqrt(c) (1, 1, 1) (the solve's wide
    # side), is maximal at the uniform points +-(1, 1, 1) / sqrt(3) alone
    x = np.ones(3) / np.sqrt(3.0)
    for c in (0.5, 2.0, 3.0):
        stack = [np.full((1, 3), np.sqrt(c))]
        sol = gsv_solve(stack)
        assert sol.multiplicity == 1 and sol.lambda_max == pytest.approx(3.0 * c, rel=1e-14)
        np.testing.assert_allclose(sol.basis[:, 0], x, atol=1e-15)
        stationarity, sphere = kkt_defects(stack, sol)
        assert stationarity <= 1e-8 and sphere <= 1e-12
        for v in (x, -x):
            assert np.linalg.norm(c * np.ones((3, 3)) @ v - sol.lambda_max * v) <= 1e-12 * c


def test_critical_residual_generic_point_is_large():
    # a generic unit x is no critical point: S x leaves the line through x
    rng = np.random.default_rng(25)
    stack = [rng.normal(size=(6, 4))]
    s = stack[0].T @ stack[0]
    for _ in range(20):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        assert np.linalg.norm(s @ x - (x @ s @ x) * x) > 0.1


def test_critical_system_determinant_factorization_n3():
    # singular multipliers of the equal-coupling system: lambda in {c/2 (double), -c}
    for c in (-3.0, 0.5, 2.0):
        off = c * (np.ones((3, 3)) - np.eye(3))
        candidates = np.sort(np.linalg.eigvalsh(-off / 2.0))
        expected = np.sort([c / 2.0, c / 2.0, -c])
        np.testing.assert_allclose(candidates, expected, atol=1e-12)
        # and the determinant of 2 lam I + off is 2 (2 lam - c)^2 (lam + c) off the roots
        for lam in (-2.0, 0.1, 1.0, 3.0):
            det = np.linalg.det(2.0 * lam * np.eye(3) + off)
            assert det == pytest.approx(2 * (2 * lam - c) ** 2 * (lam + c), rel=1e-10)


# ---------------------------------------------------------------------------
# ranking


def test_rank_single_column_scores_equal_column():
    rng = np.random.default_rng(26)
    raw = rng.normal(size=(12, 1))
    m = StatMatrix.from_raw(raw)
    scores, _ = score_rows(m)
    np.testing.assert_allclose(scores, m.data[:, 0], atol=1e-14)
    ranking = rank_by_score(m)
    expected_order = list(np.argsort(-m.data[:, 0], kind="stable"))
    assert [i for i, _ in ranking] == expected_order


def test_rank_duplicated_column_scores_sqrt2():
    # two identical columns: the equal-norm closed form picks (sqrt2/2, sqrt2/2)
    rng = np.random.default_rng(27)
    col = standardized(rng.normal(size=15))
    m = StatMatrix(np.column_stack([col, col]))
    scores, sol = score_rows(m)
    np.testing.assert_allclose(scores, np.sqrt(2.0) * col, atol=1e-10)
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.sqrt(2.0) / 2.0, atol=1e-12)


def test_rank_bundled_sample_stable_across_gap_rtol(monkeypatch):
    # GAP_RTOL is fixed, not an option; moving it 100x either way must not move this ranking,
    # as the sample's top eigenvalue is simple by far more than any such tolerance
    path = importlib.resources.files("gsvkit") / "data" / "sample_locations.csv"
    ids, _, raw = read_table_csv(str(path))
    assert len(ids) == 52 and raw.shape == (52, 3)
    m = StatMatrix.from_raw(raw)
    rankings = []
    for g in (1e-8, 1e-10, 1e-12):
        monkeypatch.setattr(spectra_core, "GAP_RTOL", g)
        _, sol = score_rows(m)
        assert sol.multiplicity == 1
        rankings.append(rank_by_score(m))
    assert rankings[0] == rankings[1] == rankings[2]


def test_two_column_ranking_ignores_last_bit_changes():
    # two standardized columns have the top eigenvector (1, +-1) / sqrt(2) exactly, so which of
    # its components comes out an ulp larger must not set the sign: restandardizing a
    # standardized table moves only last bits, and once reversed the whole ranking
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(30)
        t = StatMatrix.from_raw(np.column_stack([x, -0.6 * x + 0.8 * rng.standard_normal(30)]))
        again, kept = rank_by_score(StatMatrix.from_raw(t.data)), rank_by_score(t)
        assert [i for i, _ in again] == [i for i, _ in kept], seed


def test_rank_scale_invariance():
    rng = np.random.default_rng(28)
    raw = rng.normal(size=(20, 3)) + 5.0
    order_base = [i for i, _ in rank_by_score(StatMatrix.from_raw(raw))]
    scaled = raw * np.array([3.0, 0.25, 40.0])
    order_scaled = [i for i, _ in rank_by_score(StatMatrix.from_raw(scaled))]
    assert order_base == order_scaled


def test_rank_does_not_turn_on_round_off_in_the_column_sums():
    # both offsets pass is_snv; the sign of the score total 1^T M x = +-1e-9 x_j is round-off
    rng = np.random.default_rng(3)
    data = StatMatrix.from_raw(rng.standard_normal((50, 3))).data
    for j in range(3):
        orders = []
        for offset in (2e-11, -2e-11):
            shifted = data.copy()
            shifted[:, j] += offset
            orders.append([i for i, _ in rank_by_score(StatMatrix(shifted))])
        assert orders[0] == orders[1], j


def test_rank_ties_broken_by_original_index():
    col = standardized([2.0, 1.0, 2.0, -1.0, 2.0, -6.0])
    m = StatMatrix(col[:, None])
    ranking = rank_by_score(m)
    tied = [i for i, s in ranking if s == ranking[0][1]]
    assert tied == sorted(tied)


def test_stat_matrix_constructor_applies_is_snv_per_column():
    raw = np.array([[5.0, 1.0], [6.0, 2.0], [7.0, 9.0]])
    with pytest.raises(NotStandardized, match="column 0"):
        score_rows(StatMatrix(raw))  # ranked the raw rows before
    m = StatMatrix.from_raw(raw)
    StatMatrix(m.data)
    with pytest.raises(NotStandardized, match="column 1"):
        StatMatrix(np.column_stack([m.data[:, 0], raw[:, 1]]))
    with pytest.raises(NonFiniteInput):
        StatMatrix(np.array([[1.0, np.nan], [-1.0, 1.0]]))
    for bad in (np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            StatMatrix(bad)


def test_from_raw_centers_columns_whose_spread_is_small_next_to_their_mean():
    # Unix timestamps within one hour, and columns of relative spread 1e-6: one centering pass
    # left an error of about eps |mean| / std in the values, enough to miss is_snv
    rng = np.random.default_rng(1618)
    stamps = 1.7e9 + rng.uniform(0.0, 3600.0, size=(500, 8))
    narrow = 1e6 * (1.0 + 1e-6 * rng.standard_normal((500, 8)))
    for raw in (stamps, narrow):
        m = StatMatrix.from_raw(raw)
        assert all(is_snv(m.data[:, j]) for j in range(8))
        scores, _ = score_rows(m)
        assert np.all(np.isfinite(scores))


def test_from_raw_names_a_column_that_misses_is_snv(monkeypatch):
    from gsvkit import stat_norm

    exact = stat_norm._standardized
    monkeypatch.setattr(stat_norm, "_standardized", lambda x: exact(x) + 1e-6)
    with pytest.raises(NotStandardized, match="column 'b'") as exc_info:
        StatMatrix.from_raw(np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 4.0]]), columns=["b", "c"])
    assert exc_info.value.column == "b"


@pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "c", "d"]], ids=["few", "many"])
def test_from_raw_needs_one_name_per_column(names):
    # too few names raised a bare IndexError; too many were ignored
    raw = np.arange(12.0).reshape(4, 3) ** 2
    with pytest.raises(ShapeMismatch, match=f"{len(names)} column names for 3 columns"):
        StatMatrix.from_raw(raw, columns=names)


def test_rank_errors():
    rng = np.random.default_rng(29)
    with pytest.raises(NotStandardized):
        StatMatrix(rng.normal(size=(10, 2)) + 3.0)
    raw = np.column_stack([rng.normal(size=8), np.full(8, 2.0)])
    with pytest.raises(ConstantVector) as exc_info:
        StatMatrix.from_raw(raw, columns=["a", "b"])
    assert exc_info.value.column == "b"
    m = StatMatrix.from_raw(rng.normal(size=(3, 3)) + np.eye(3))
    with pytest.raises(ShapeMismatch):
        rank_by_score(m)  # needs more rows than columns
    with pytest.raises(TypeError, match="expects a StatMatrix"):
        score_rows(m.data)
    with pytest.raises(ShapeMismatch, match="2-D data matrix"):
        StatMatrix.from_raw(rng.normal(size=8))
    with pytest.raises(TooShort, match="m=1"):
        StatMatrix.from_raw(rng.normal(size=(1, 3)))
