"""Tests for standardization, critical systems, pair identities and ranking."""

import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvkit.errors import (
    ConstantVector,
    LengthMismatch,
    NonFiniteInput,
    NotStandardized,
    NotSymmetric,
    ShapeMismatch,
    TooShort,
    ZeroVector,
)
from gsvkit.matrix_io import read_table_csv
from gsvkit.stat_norm import (
    CriticalSystem,
    StatMatrix,
    StatVector,
    critical_residual,
    is_snv,
    rank_by_score,
    score_rows,
    snv_pair_identities,
    standardize,
)


def random_unit_snv(rng, n):
    """Unit-norm multiple of a statistically normalized vector of R^n."""
    v = standardize(rng.normal(size=n)).values
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
# standardize


def test_standardize_two_points_exact():
    np.testing.assert_array_equal(standardize([1.0, -1.0]).values, [1.0, -1.0])
    np.testing.assert_array_equal(standardize([0.0, 2.0]).values, [-1.0, 1.0])
    np.testing.assert_array_equal(standardize([5.0, 3.0]).values, [1.0, -1.0])


def test_standardize_three_points_direct_computation():
    # mu = 2, sigma^2 = ((1-2)^2 + 0 + (3-2)^2) / 3 = 2/3
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    result = standardize([1.0, 2.0, 3.0])
    np.testing.assert_allclose(result.values, expected, atol=1e-15)
    assert result.standardized


def test_standardize_errors():
    with pytest.raises(TooShort):
        standardize([1.0])
    with pytest.raises(ConstantVector):
        standardize([3.0, 3.0, 3.0])


@pytest.mark.parametrize("k", [-200, -70, 0, 40, 300])
def test_standardize_is_invariant_under_power_of_two_scaling(k):
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(standardize(x * 2.0**k).values, standardize(x).values)


@pytest.mark.parametrize("c", [3.0, 3e-20, 1e200, 0.1, 1.0 / 3.0])
def test_constant_vector_raises_at_every_scale(c):
    with pytest.raises(ConstantVector):
        standardize(np.full(5, c))


def test_non_finite_entries_raise_non_finite_input():
    for bad in ([1.0, np.nan], [1.0, np.inf, 2.0]):
        with pytest.raises(NonFiniteInput):
            StatVector(bad)
        with pytest.raises(NonFiniteInput):
            standardize(bad)


def test_standardize_norm_squared_is_m():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        x = rng.normal(loc=rng.normal() * 10, scale=rng.uniform(0.1, 5.0), size=m)
        st_vec = standardize(x)
        assert abs(np.sum(st_vec.values**2) - m) <= 1e-10 * m


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40))
def test_standardize_roundtrip_is_snv(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=m) * rng.uniform(0.5, 20.0) + rng.normal() * 100.0
    assert is_snv(standardize(x).values)


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


# ---------------------------------------------------------------------------
# pair identities


def test_pair_identities_equal_vectors_tight_bound():
    x = StatVector([1.0, -1.0])
    dot, bound_ok, gap = snv_pair_identities(x, x)
    assert dot == 2.0 and bound_ok and gap <= 1e-12


def test_pair_identities_antisymmetric():
    x = standardize([3.0, 1.0, -1.0, 2.0])
    y = StatVector(-x.values)
    dot, bound_ok, gap = snv_pair_identities(x, y)
    assert dot == pytest.approx(-4.0, abs=1e-12)
    assert bound_ok and gap <= 1e-10 * 4


def test_pair_identities_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = standardize(rng.normal(size=50))
        y = standardize(rng.normal(size=50))
        dot, bound_ok, gap = snv_pair_identities(x, y)
        assert bound_ok
        assert gap <= 1e-10 * 50
        assert abs(dot) <= 50 + 1e-10 * 50


def test_pair_identities_errors():
    a = standardize([1.0, 2.0, 3.0])
    b = standardize([1.0, 2.0])
    with pytest.raises(LengthMismatch):
        snv_pair_identities(a, b)
    with pytest.raises(NotStandardized):
        snv_pair_identities(StatVector([1.0, 2.0, 3.0]), a)


# ---------------------------------------------------------------------------
# critical system


def test_critical_residual_snv_points():
    # with equal couplings and lambda = c/2 the system reduces to the
    # zero-sum unit-sphere system, solved by unit multiples of SNVs
    rng = np.random.default_rng(24)
    for n in range(2, 9):
        for c in (-3.0, 0.5, 2.0):
            sys = CriticalSystem.equal_coefficients(n, c, lam=c / 2.0)
            for _ in range(100):
                x = random_unit_snv(rng, n)
                assert critical_residual(sys, x) <= 1e-12 * max(1.0, abs(c))


def test_critical_residual_uniform_point_n3():
    for c in (-3.0, 0.5, 2.0):
        sys = CriticalSystem.equal_coefficients(3, c, lam=-c)
        x = np.ones(3) / np.sqrt(3.0)
        assert critical_residual(sys, x) <= 1e-12 * max(1.0, abs(c))
        assert critical_residual(sys, -x) <= 1e-12 * max(1.0, abs(c))


def test_critical_residual_generic_point_is_large():
    rng = np.random.default_rng(25)
    sys = CriticalSystem.equal_coefficients(4, 2.0, lam=1.7)
    for _ in range(20):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        assert critical_residual(sys, x) > 0.1


def test_critical_residual_direct_evaluation():
    sys = CriticalSystem(np.array([[0.0, 1.0], [1.0, 0.0]]), lam=0.25)
    x = np.array([1.0, 2.0])
    # matrix [[0.5, 1], [1, 0.5]] @ (1, 2) = (2.5, 2.0); sphere defect = 4
    expected = np.linalg.norm([2.5, 2.0, 4.0])
    assert critical_residual(sys, x) == pytest.approx(expected, rel=1e-15)


def test_critical_residual_errors():
    sys = CriticalSystem.equal_coefficients(3, 1.0, lam=0.5)
    with pytest.raises(ShapeMismatch):
        critical_residual(sys, [1.0, 0.0])
    with pytest.raises(ZeroVector):
        critical_residual(sys, [0.0, 0.0, 0.0])
    with pytest.raises(NotSymmetric):
        CriticalSystem(np.array([[0.0, 1.0], [2.0, 0.0]]), lam=1.0)


def test_critical_system_determinant_factorization_n3():
    # singular multipliers of the equal-coupling system: lambda in {c/2 (double), -c}
    for c in (-3.0, 0.5, 2.0):
        off = c * (np.ones((3, 3)) - np.eye(3))
        candidates = np.sort(np.linalg.eigvalsh(-off / 2.0))
        expected = np.sort([c / 2.0, c / 2.0, -c])
        np.testing.assert_allclose(candidates, expected, atol=1e-12)
        # and the determinant matches 2 (2 lam - c)^2 (lam + c) off the roots
        for lam in (-2.0, 0.1, 1.0, 3.0):
            sys = CriticalSystem.equal_coefficients(3, c, lam)
            det = np.linalg.det(sys.matrix())
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
    col = standardize(rng.normal(size=15)).values
    m = StatMatrix.from_standardized(np.column_stack([col, col]))
    scores, sol = score_rows(m)
    np.testing.assert_allclose(scores, np.sqrt(2.0) * col, atol=1e-10)
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.sqrt(2.0) / 2.0, atol=1e-12)


def test_rank_bundled_sample_stable_across_gap_rtol():
    path = importlib.resources.files("gsvkit") / "data" / "sample_locations.csv"
    ids, _, raw = read_table_csv(str(path))
    assert len(ids) == 52 and raw.shape == (52, 3)
    m = StatMatrix.from_raw(raw)
    rankings = [rank_by_score(m, gap_rtol=g) for g in (1e-8, 1e-10, 1e-12)]
    assert rankings[0] == rankings[1] == rankings[2]


def test_rank_scale_invariance():
    rng = np.random.default_rng(28)
    raw = rng.normal(size=(20, 3)) + 5.0
    order_base = [i for i, _ in rank_by_score(StatMatrix.from_raw(raw))]
    scaled = raw * np.array([3.0, 0.25, 40.0])
    order_scaled = [i for i, _ in rank_by_score(StatMatrix.from_raw(scaled))]
    assert order_base == order_scaled


def test_rank_ties_broken_by_original_index():
    col = standardize([2.0, 1.0, 2.0, -1.0, 2.0, -6.0]).values
    m = StatMatrix.from_standardized(col[:, None])
    ranking = rank_by_score(m)
    tied = [i for i, s in ranking if s == ranking[0][1]]
    assert tied == sorted(tied)


def test_rank_errors():
    rng = np.random.default_rng(29)
    with pytest.raises(NotStandardized):
        StatMatrix.from_standardized(rng.normal(size=(10, 2)) + 3.0)
    raw = np.column_stack([rng.normal(size=8), np.full(8, 2.0)])
    with pytest.raises(ConstantVector) as exc_info:
        StatMatrix.from_raw(raw, columns=["a", "b"])
    assert exc_info.value.column == "b"
    m = StatMatrix.from_raw(rng.normal(size=(3, 3)) + np.eye(3))
    with pytest.raises(ShapeMismatch):
        rank_by_score(m)  # needs more rows than columns


def test_stat_matrix_records_provenance():
    raw = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    m = StatMatrix.from_raw(raw)
    np.testing.assert_allclose(m.col_means, [2.0, 20.0], atol=1e-15)
    np.testing.assert_allclose(
        m.col_stds, [np.sqrt(2.0 / 3.0), 10 * np.sqrt(2.0 / 3.0)], rtol=1e-15
    )
