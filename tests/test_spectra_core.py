"""Tests for the Gram-sum / maximal-eigenpair substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvkit.density_model import joint_magnitude_state
from gsvkit.errors import (
    AllZero,
    ConvergenceFailure,
    EmptyStack,
    NonFiniteInput,
    NotSymmetric,
    ShapeMismatch,
    ZeroVector,
)
from gsvkit.gsv_solver import WeightedProblem
from gsvkit.spectra_core import (
    EigenPair,
    SymmetricMatrix,
    fix_column_signs,
    gram_sum,
    max_eigenpair,
    rayleigh_quotient,
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
    np.testing.assert_array_equal(s.entries, np.eye(2))


def test_gram_sum_diagonal():
    s = gram_sum([np.diag([2.0, 1.0]), np.diag([0.0, 3.0])])
    np.testing.assert_array_equal(s.entries, np.diag([4.0, 10.0]))


def test_gram_sum_hand_checked_product():
    # A^T A computed by hand for A = [[1, 1], [1, -1]]:
    # [[1*1+1*1, 1*1+1*(-1)], [sym, 1*1+(-1)*(-1)]] = [[2, 0], [0, 2]]
    s = gram_sum([np.array([[1.0, 1.0], [1.0, -1.0]])])
    np.testing.assert_array_equal(s.entries, 2.0 * np.eye(2))


def test_gram_sum_errors():
    with pytest.raises(EmptyStack):
        gram_sum([])
    with pytest.raises(ShapeMismatch):
        gram_sum([np.eye(2), np.zeros((2, 3))])
    with pytest.raises(AllZero):
        gram_sum([np.zeros((2, 2)), np.zeros((4, 2))])
    with pytest.raises(NonFiniteInput):
        gram_sum([np.array([[np.nan, 0.0]])])


def test_gram_sum_symmetry_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mats = [rng.normal(size=(rng.integers(1, 8), 5)) for _ in range(3)]
        s = gram_sum(mats).entries
        np.testing.assert_array_equal(s, s.T)


def test_gram_sum_positive_semidefinite():
    rng = np.random.default_rng(8)
    mats = [rng.normal(size=(6, 4)) for _ in range(3)]
    s = gram_sum(mats).entries
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
    s = gram_sum(mats).entries
    np.testing.assert_array_equal(s, s.T)
    x = rng.normal(size=n)
    assert x @ s @ x >= -1e-12 * (x @ x)


# ---------------------------------------------------------------------------
# max_eigenpair


def test_max_eigenpair_identity_full_multiplicity():
    pair = max_eigenpair(SymmetricMatrix(np.eye(3)))
    assert pair.value == pytest.approx(1.0, abs=1e-14)
    assert pair.multiplicity == 3


def test_max_eigenpair_diagonal_multiplicity_two():
    pair = max_eigenpair(SymmetricMatrix(np.diag([4.0, 4.0, 1.0])))
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
    pair = max_eigenpair(SymmetricMatrix(s))
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
        pair = max_eigenpair(SymmetricMatrix(s))
        assert pair.value == pytest.approx(lam_oracle, rel=1e-10, abs=1e-10)


def test_max_eigenpair_gap_rtol_domain():
    s = SymmetricMatrix(np.eye(2))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            max_eigenpair(s, gap_rtol=bad)


def test_max_eigenpair_residual_bound():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        m = rng.normal(size=(n, n))
        pair = max_eigenpair(SymmetricMatrix(m + m.T))
        assert pair.residual <= 1e-8 * max(1.0, abs(pair.value))


def test_max_eigenpair_backend_failure_maps_to_convergence_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(ConvergenceFailure) as exc_info:
        max_eigenpair(SymmetricMatrix(np.eye(3)))
    assert "Eigenvalues did not converge" in str(exc_info.value)
    assert "iteration budget" not in str(exc_info.value)


def test_rayleigh_bound_random_unit_vectors():
    rng = np.random.default_rng(13)
    mats = [rng.normal(size=(5, 4)) for _ in range(2)]
    s = gram_sum(mats)
    lam = max_eigenpair(s).value
    x = rng.normal(size=(4, 10**5))
    quotients = np.einsum("ij,ij->j", x, s.entries @ x) / np.einsum("ij,ij->j", x, x)
    assert np.max(quotients) <= lam + 1e-9 * max(1.0, lam)


def test_trace_consistency():
    rng = np.random.default_rng(14)
    for _ in range(20):
        mats = [rng.normal(size=(6, 5)) for _ in range(3)]
        s = gram_sum(mats).entries
        eigenvalues = np.linalg.eigvalsh(s)
        trace = np.trace(s)
        assert abs(np.sum(eigenvalues) - trace) <= 1e-8 * trace


# ---------------------------------------------------------------------------
# rayleigh_quotient


def test_rayleigh_quotient_identity():
    assert rayleigh_quotient(SymmetricMatrix(np.eye(2)), [3.0, 4.0]) == pytest.approx(1.0)


def test_rayleigh_quotient_eigenvector():
    s = SymmetricMatrix(np.diag([4.0, 1.0]))
    assert rayleigh_quotient(s, [1.0, 0.0]) == 4.0


def test_rayleigh_quotient_direct_evaluation():
    # x^T S x = (1,1) . (3,3) = 6; x^T x = 2; quotient = 3
    s = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert rayleigh_quotient(s, [1.0, 1.0]) == pytest.approx(3.0, rel=1e-15)


def test_rayleigh_quotient_zero_vector():
    with pytest.raises(ZeroVector):
        rayleigh_quotient(SymmetricMatrix(np.eye(2)), [0.0, 0.0])
    with pytest.raises(ShapeMismatch):
        rayleigh_quotient(SymmetricMatrix(np.eye(2)), [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# types


def test_symmetric_matrix_symmetrizes_roundoff():
    a = np.array([[1.0, 1e-12], [0.0, 1.0]])
    s = SymmetricMatrix(a)
    np.testing.assert_array_equal(s.entries, s.entries.T)
    assert s.dim == 2


def test_symmetric_matrix_rejects_gross_asymmetry():
    with pytest.raises(NotSymmetric):
        SymmetricMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_symmetric_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        SymmetricMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        SymmetricMatrix(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "build",
    [
        SymmetricMatrix,
        lambda a: WeightedProblem((np.ones((2, 2)),), a),
        lambda a: joint_magnitude_state([a]),
    ],
    ids=["SymmetricMatrix", "WeightedProblem", "joint_magnitude_state"],
)
def test_one_symmetry_rule_at_1e_10_relative(build):
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # ||base + t skew - (base + t skew)^T||_F / ||base||_F = 2 sqrt(2) t / sqrt(10)
    per_unit = 2.0 * np.sqrt(2.0) / np.linalg.norm(base)
    build(base + 0.5e-10 / per_unit * skew)
    with pytest.raises(NotSymmetric):
        build(base + 2e-10 / per_unit * skew)


def test_eigenpair_validates_orthonormality_and_residual():
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    EigenPair(1.0, good, 0.0)
    with pytest.raises(ValueError):
        EigenPair(1.0, np.array([[1.0, 1.0], [0.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        EigenPair(1.0, good, residual=1.0)


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
