"""Tests for the truncated probability-density-operator model."""

import tracemalloc

import numpy as np
import pytest

from gsvkit import gsv_solver
from gsvkit.density_model import (
    DensityModel,
    chain_margin,
    check_positivity_chain,
    density_norm,
    density_trace,
    joint_magnitude_state,
)
from gsvkit.errors import (
    ArgumentOutOfRange,
    MassExceedsOne,
    NegativeProbability,
    NotSymmetric,
    ShapeMismatch,
)
from gsvkit.gsv_solver import _PANEL_VALUES, _gaussian_panels, brute_force_max, gsv_solve

HALVING = 0.5 ** np.arange(1, 31)  # rho_n = 2^-n truncated at N = 30


def random_model(rng, n):
    p = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 1.0)
    return DensityModel(p)


# ---------------------------------------------------------------------------
# construction


def test_build_pure_state():
    d = DensityModel([1.0])
    assert d.tail == 0.0 and d.n_states == 1


def test_build_halving_tail_exact():
    d = DensityModel(HALVING)
    assert d.tail == 2.0**-30


def test_build_uniform_two_state():
    d = DensityModel([0.5, 0.5])
    assert d.tail == 0.0


def test_build_errors():
    # a GsvError, as every contract violation is: the CLI maps it to an exit code
    with pytest.raises(ShapeMismatch, match="at least one probability"):
        DensityModel([])
    with pytest.raises(NegativeProbability):
        DensityModel([0.5, -0.1])
    with pytest.raises(MassExceedsOne):
        DensityModel([0.7, 0.4])
    # a sum overshooting 1 by strictly less than the tolerance is accepted
    d = DensityModel([1.0, 1e-13])
    assert d.tail == 0.0


def test_mass_conservation_property():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 40)))
        assert abs(np.sum(d.probs) + d.tail - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# norm / trace


def test_norm_halving_model():
    assert density_norm(DensityModel(HALVING)) == (0.5, 1)


def test_norm_tie_breaks_to_smallest_index():
    assert density_norm(DensityModel([0.5, 0.5])) == (0.5, 1)


def test_norm_direct_max():
    assert density_norm(DensityModel([0.1, 0.7, 0.2])) == (0.7, 2)


def test_norm_is_sup_of_probs_property():
    rng = np.random.default_rng(32)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 25)))
        norm, idx = density_norm(d)
        assert norm == np.max(d.probs)
        assert d.probs[idx - 1] == norm


def test_trace_examples():
    assert density_trace(DensityModel([1.0])) == 1.0
    assert density_trace(DensityModel(HALVING)) == 1.0 - 2.0**-30
    d = DensityModel([0.25, 0.25])
    assert density_trace(d) == 0.5 and d.tail == 0.5


# ---------------------------------------------------------------------------
# positivity chain


def test_chain_projection_boundary():
    assert check_positivity_chain(DensityModel([1.0, 0.0, 0.0]))


def test_chain_halving_model():
    assert check_positivity_chain(DensityModel(HALVING))


def test_chain_strict_gap_two_state():
    d = DensityModel([0.3, 0.7])
    assert check_positivity_chain(d)
    # on x = e1 the first form is 0.3 and the second 0.09
    x = np.array([1.0, 0.0])
    assert float(d.probs @ x**2) == 0.3
    assert float((d.probs**2) @ x**2) == pytest.approx(0.09, abs=1e-15)


def test_chain_random_models():
    rng = np.random.default_rng(33)
    for _ in range(100):
        d = random_model(rng, int(rng.integers(1, 20)))
        assert check_positivity_chain(d)


def test_chain_takes_the_model_only():
    # the verdict is exact: no sample count or seed reaches it
    with pytest.raises(TypeError):
        check_positivity_chain(DensityModel([1.0]), 10**4, 0)


def test_chain_reproducible():
    d = DensityModel([0.2, 0.5, 0.3])
    assert check_positivity_chain(d) == check_positivity_chain(d)


@pytest.mark.parametrize("rho", [1.0, 1.0 - 2.0**-53, 5e-324, 0.0])
def test_chain_exact_on_edge_values(rho):
    d = DensityModel([rho])
    assert chain_margin(d) >= 0.0
    assert check_positivity_chain(d) is True


def test_chain_draws_no_samples(monkeypatch):
    def refuse(*args):
        raise AssertionError("the chain drew a sample")

    monkeypatch.setattr(gsv_solver, "_gaussian_panels", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    d = DensityModel(HALVING)
    assert check_positivity_chain(d) is True
    assert chain_margin(d) == 2.0**-30 - 2.0**-60


def full_array_chain(d, trials, seed):
    """The chain on every panel's draws concatenated, dividing before the dot products."""
    rho = d.probs
    rho_sq = rho * rho
    x = np.concatenate(list(_gaussian_panels(seed, d.n_states, trials)), axis=1)
    assert x.shape == (d.n_states, trials)
    sq_norms = np.sum(x**2, axis=0)
    ok = sq_norms > 0.0
    xsq = x[:, ok] ** 2 / sq_norms[ok]
    first = rho @ xsq
    second = rho_sq @ xsq
    return bool(np.all(first >= second) and np.all(second >= -1e-12))


def chain_models(n, rng):
    """Models of ``n`` states: exact 0/1 entries, 1 - 2^-53, halving and random."""
    one_first = np.zeros(n)
    one_first[0] = 1.0
    one_last = np.zeros(n)
    one_last[-1] = 1.0
    near_one = np.zeros(n)
    near_one[n // 2] = 1.0 - 2.0**-53
    models = [one_first, one_last, near_one, 0.5 ** np.arange(1, n + 1),
              rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 1.0)]
    return [DensityModel(p) for p in models]


def mass_just_over_one(n):
    """rho_1 just above 1, the sum within the 1e-12 mass tolerance: refused where it enters."""
    over = np.full(n, 4e-13 / max(n - 1, 1))
    over[0] = 1.0 + (5e-13 if n > 1 else 1e-12)
    return over


def panel_counts(n):
    """Sample counts around one panel of p samples, and over several: 1, p - 1, p, p + 1, 3p + 7."""
    p = max(1, _PANEL_VALUES // n)
    return sorted({1, p - 1, p, p + 1, 3 * p + 7} - {0})


# full panels (n divides _PANEL_VALUES) and partial ones, up to one state-vector per draw
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024, 1025, 65536, 65537])
def test_chain_verdict_matches_full_array_formula(n):
    with pytest.raises(MassExceedsOne, match="above 1 at index 1"):
        DensityModel(mass_just_over_one(n))
    rng = np.random.default_rng(36 + n)
    verdicts = set()
    for d in chain_models(n, rng):
        exact = check_positivity_chain(d)
        for trials in panel_counts(n):
            for seed in (0, 1, 2):
                verdicts.add((exact, full_array_chain(d, trials, seed)))
    # the exact verdict, and the sampled reference, on every model that is accepted
    assert verdicts == {(True, True)}


def test_chain_verdict_matches_full_array_formula_on_many_states():
    # 1000 states: draws of 65 samples, 61 of them and then one of 35 for 4000 samples
    with pytest.raises(MassExceedsOne, match="above 1 at index 1"):
        DensityModel(mass_just_over_one(1000))
    halving, random = chain_models(1000, np.random.default_rng(37))[-2:]
    for d, trials in [(halving, 1), (random, 1), (halving, 4000), (random, 4000)]:
        assert check_positivity_chain(d) is True
        assert full_array_chain(d, trials, 5) is True, trials


# each sums to within the 1e-12 mass tolerance, yet rho^2 > rho on one state breaks D >= D^2
MASS_JUST_OVER_ONE = [
    ([1 + 3e-14] + [9.7e-16] * 1000, 1),
    ([1 + 1e-14], 1),
    ([1 + 1e-12], 1),
    ([1 + 5e-13, 5e-13], 1),
    ([5e-13, 1 + 5e-13], 2),
]


def test_chain_false_on_mass_just_over_one():
    # such a model is refused where it enters, so no chain verdict is ever asked of it
    for probs, index in MASS_JUST_OVER_ONE:
        with pytest.raises(MassExceedsOne, match=f"probability above 1 at index {index}$"):
            DensityModel(probs)


def test_chain_peak_memory_is_bounded():
    # one (1000, 10000) draw alone would take 80 MB
    d = DensityModel(np.full(1000, 1e-3))
    check_positivity_chain(d)  # warm-up: lazy imports and caches are not measured
    tracemalloc.start()
    try:
        assert check_positivity_chain(d)
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
    d = DensityModel([0.5, 0.25])
    for k in (0, 3):
        with pytest.raises(ArgumentOutOfRange, match=rf"\[1, 2\], got {k}$"):
            d.truncated(k)


def test_truncation_index_is_a_whole_number():
    # a fractional k escaped as the slice's bare TypeError; a whole float or numpy int is its int
    d = DensityModel(np.array([0.2, 0.3, 0.1]))
    for k in (1.5, "2"):  # a string is no number, whole or not
        message = f"^truncation index must be a whole number, got {k}$"
        with pytest.raises(ArgumentOutOfRange, match=message):
            d.truncated(k)
    for k in (2.0, np.int64(2)):
        assert d.truncated(k).probs.tolist() == [0.2, 0.3]


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
    d = DensityModel([0.5, 0.5])
    assert not d.probs.flags.writeable
    assert isinstance(d, DensityModel)
