"""Tests for the truncated probability-density-operator model."""

import tracemalloc

import numpy as np
import pytest

from gsvkit.density_model import (
    _CHAIN_CHUNK,
    _CHAIN_PANEL,
    DensityModel,
    build_density,
    check_positivity_chain,
    density_norm,
    density_trace,
    joint_magnitude_state,
)
from gsvkit.errors import MassExceedsOne, NegativeProbability, NotSymmetric, ShapeMismatch
from gsvkit.gsv_solver import brute_force_max, gsv_solve

HALVING = 0.5 ** np.arange(1, 31)  # rho_n = 2^-n truncated at N = 30


def random_model(rng, n):
    p = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 1.0)
    return build_density(p)


# ---------------------------------------------------------------------------
# construction


def test_build_pure_state():
    d = build_density([1.0])
    assert d.tail == 0.0 and d.n_states == 1


def test_build_halving_tail_exact():
    d = build_density(HALVING)
    assert d.tail == 2.0**-30


def test_build_uniform_two_state():
    d = build_density([0.5, 0.5])
    assert d.tail == 0.0


def test_build_errors():
    with pytest.raises(NegativeProbability):
        build_density([0.5, -0.1])
    with pytest.raises(MassExceedsOne):
        build_density([0.7, 0.4])
    # a sum overshooting 1 by strictly less than the tolerance is accepted
    d = build_density([1.0, 1e-13])
    assert d.tail == 0.0


def test_mass_conservation_property():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 40)))
        assert abs(np.sum(d.probs) + d.tail - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# norm / trace


def test_norm_halving_model():
    assert density_norm(build_density(HALVING)) == (0.5, 1)


def test_norm_tie_breaks_to_smallest_index():
    assert density_norm(build_density([0.5, 0.5])) == (0.5, 1)


def test_norm_direct_max():
    assert density_norm(build_density([0.1, 0.7, 0.2])) == (0.7, 2)


def test_norm_is_sup_of_probs_property():
    rng = np.random.default_rng(32)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 25)))
        norm, idx = density_norm(d)
        assert norm == np.max(d.probs)
        assert d.probs[idx - 1] == norm


def test_trace_examples():
    assert density_trace(build_density([1.0])) == 1.0
    assert density_trace(build_density(HALVING)) == 1.0 - 2.0**-30
    d = build_density([0.25, 0.25])
    assert density_trace(d) == 0.5 and d.tail == 0.5


# ---------------------------------------------------------------------------
# positivity chain


def test_chain_projection_boundary():
    assert check_positivity_chain(build_density([1.0, 0.0, 0.0]), 100, seed=0)


def test_chain_halving_model():
    assert check_positivity_chain(build_density(HALVING), 10**4, seed=0)


def test_chain_strict_gap_two_state():
    d = build_density([0.3, 0.7])
    assert check_positivity_chain(d, 1000, seed=0)
    # on x = e1 the first form is 0.3 and the second 0.09
    x = np.array([1.0, 0.0])
    assert float(d.probs @ x**2) == 0.3
    assert float((d.probs**2) @ x**2) == pytest.approx(0.09, abs=1e-15)


def test_chain_random_models():
    rng = np.random.default_rng(33)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 20)))
        assert check_positivity_chain(d, 200, seed=int(rng.integers(2**31)))


def test_chain_preconditions():
    with pytest.raises(ValueError):
        check_positivity_chain(build_density([1.0]), 0, seed=0)


def test_chain_reproducible():
    d = build_density([0.2, 0.5, 0.3])
    assert check_positivity_chain(d, 500, seed=9) == check_positivity_chain(
        d, 500, seed=9
    )


def full_array_chain(d, trials, seed):
    """The chain as one ``(n, chunk)`` array per chunk, dividing before the dot products."""
    rng = np.random.default_rng(seed)
    rho = d.probs
    rho_sq = rho * rho
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, _CHAIN_CHUNK)
        x = rng.standard_normal((d.n_states, chunk))
        sq_norms = np.sum(x**2, axis=0)
        ok = sq_norms > 0.0
        xsq = x[:, ok] ** 2 / sq_norms[ok]
        first = rho @ xsq
        second = rho_sq @ xsq
        if not (np.all(first >= second) and np.all(second >= -1e-12)):
            return False
        remaining -= chunk
    return True


def chain_models(n, rng):
    """Models of ``n`` states: exact 0/1 entries, 1 - 2^-53, halving, random, and mass just over 1."""
    one_first = np.zeros(n)
    one_first[0] = 1.0
    one_last = np.zeros(n)
    one_last[-1] = 1.0
    near_one = np.zeros(n)
    near_one[n // 2] = 1.0 - 2.0**-53
    over = np.full(n, 4e-13 / max(n - 1, 1))
    over[0] = 1.0 + (5e-13 if n > 1 else 1e-12)
    models = [one_first, one_last, near_one, 0.5 ** np.arange(1, n + 1), over,
              rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 1.0)]
    return [build_density(p) for p in models]


PANEL_ROWS = _CHAIN_PANEL // _CHAIN_CHUNK
CHAIN_TRIALS = (1, _CHAIN_CHUNK - 1, _CHAIN_CHUNK, _CHAIN_CHUNK + 1, 40000)


@pytest.mark.parametrize("n", sorted({1, 2, 3, PANEL_ROWS - 1, PANEL_ROWS, PANEL_ROWS + 1}))
def test_chain_verdict_matches_full_array_formula(n):
    rng = np.random.default_rng(36 + n)
    verdicts = set()
    for d in chain_models(n, rng):
        for trials in CHAIN_TRIALS:
            for seed in (0, 1, 2):
                expected = full_array_chain(d, trials, seed)
                assert check_positivity_chain(d, trials, seed) == expected, (d.probs, trials, seed)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_chain_verdict_matches_full_array_formula_on_many_states():
    # 1000 rows: panels of 4 rows for a full chunk, then 9 rows (the last one 1) for 7232 samples
    halving, over, random = chain_models(1000, np.random.default_rng(37))[-3:]
    cases = [(halving, 1), (over, 1), (random, 1),
             (over, _CHAIN_CHUNK + 7232), (random, _CHAIN_CHUNK + 7232)]
    verdicts = []
    for d, trials in cases:
        expected = full_array_chain(d, trials, 5)
        assert check_positivity_chain(d, trials, 5) == expected, trials
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_chain_false_on_mass_just_over_one():
    # rho^2 > rho on the first state, so a sample weighted on it breaks D >= D^2
    single = build_density([1 + 1e-12])
    pair = build_density([1 + 5e-13, 5e-13])
    assert [check_positivity_chain(single, t, seed=0) for t in (1, 100, 20000)] == [False] * 3
    assert [check_positivity_chain(pair, t, seed=0) for t in (1, 100, 20000)] == [True, False, False]


def test_chain_peak_memory_is_bounded():
    # one (1000, 10000) draw alone would take 80 MB
    d = build_density(np.full(1000, 1e-3))
    check_positivity_chain(d, 10000, seed=0)  # warm-up: lazy imports and caches are not measured
    tracemalloc.start()
    try:
        assert check_positivity_chain(d, 10000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# truncation


def test_truncation_operator_norm_difference():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        d = random_model(rng, n)
        k = int(rng.integers(1, n))
        shrunk = d.truncated(k)
        # diagonal difference operator has norm max_{n>k} rho_n,
        # dominated by the dropped mass sum_{n>k} rho_n
        diff_norm = float(np.max(d.probs[k:]))
        assert diff_norm <= float(np.sum(d.probs[k:])) + 1e-15
        assert shrunk.n_states == k
        assert shrunk.tail == pytest.approx(d.tail + np.sum(d.probs[k:]), abs=1e-12)


def test_truncation_bounds():
    d = build_density([0.5, 0.25])
    with pytest.raises(ValueError):
        d.truncated(0)
    with pytest.raises(ValueError):
        d.truncated(3)


def test_diagonal_action():
    d = build_density([0.5, 0.25])
    np.testing.assert_array_equal(d.apply([2.0, 4.0]), [1.0, 1.0])


@pytest.mark.parametrize("x", [[2.0], [1.0, 2.0]], ids=["broadcast", "short"])
def test_diagonal_action_needs_one_coordinate_per_state(x):
    # a length-1 x would broadcast to probs * 2, a length-2 x would fail inside numpy
    with pytest.raises(ShapeMismatch, match=f"vector length {len(x)} != number of states 3"):
        build_density([0.5, 0.25, 0.125]).apply(x)


# ---------------------------------------------------------------------------
# joint magnitude state


def test_joint_halving_diagonal():
    sol = joint_magnitude_state([np.diag(HALVING)])
    assert sol.lambda_max == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(np.abs(sol.basis[:, 0]), np.eye(30)[:, 0], atol=1e-12)
    assert sol.multiplicity == 1


def test_joint_identity_whole_sphere():
    sol = joint_magnitude_state([np.eye(3)])
    assert sol.lambda_max == pytest.approx(1.0, abs=1e-14)
    assert sol.whole_sphere


def test_joint_two_diagonals_constant_objective():
    ops = [np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]
    sol = joint_magnitude_state(ops)
    assert sol.lambda_max == pytest.approx(5.0, abs=1e-14)
    assert sol.multiplicity == 2
    # the objective is constant on the sphere, so sampling attains it
    assert brute_force_max(ops, 10**4, seed=3) == pytest.approx(5.0, abs=1e-9)


def test_joint_single_matrix_matches_gsv_solve_exactly():
    rng = np.random.default_rng(35)
    t = rng.normal(size=(6, 6))
    t = (t + t.T) / 2.0
    a = joint_magnitude_state([t])
    b = gsv_solve([t])
    assert a.lambda_max == b.lambda_max
    np.testing.assert_array_equal(a.basis, b.basis)


def test_joint_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        joint_magnitude_state([np.array([[1.0, 2.0], [0.0, 1.0]])])
    with pytest.raises(NotSymmetric):
        joint_magnitude_state([np.ones((2, 3))])


def test_density_model_immutable():
    d = build_density([0.5, 0.5])
    assert not d.probs.flags.writeable
    assert isinstance(d, DensityModel)
