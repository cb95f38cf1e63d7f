"""An exact oracle for gsv_solve's lambda_max and multiplicity, in rational arithmetic.

The Gram sum ``S = sum_i A_i^T A_i`` of the float inputs is formed exactly in
``fractions.Fraction``.  By Sylvester's law of inertia, the number of eigenvalues of S above
mu is the number of positive pivots of one exact symmetric elimination of ``S - mu I``, as
long as no pivot is zero.  A zero pivot moves mu both ways (see :func:`eigenvalues_above`).

A solve is certified when no eigenvalue lies above ``lambda_hat * (1 + 1e-12)`` and exactly
``multiplicity`` of them lie above ``lambda_hat * (1 - 1e-12)``: then lambda_hat is the exact
maximum to 1e-12 relative, and the basis width is its exact multiplicity.
"""

from fractions import Fraction

import numpy as np
import pytest

from gsvkit.gsv_solver import gsv_solve

WINDOW = Fraction(1, 10**12)
# A zero pivot at mu is met by counting at mu * (1 -+ _SHIFT), halving the shift if needed.
_SHIFT = Fraction(1, 2**60)


def exact_gram(stack):
    """``sum_i A_i^T A_i`` of float matrices as an n x n list of Fractions, with no rounding."""
    n = stack[0].shape[1]
    s = [[Fraction(0)] * n for _ in range(n)]
    for a in stack:
        cols = [[Fraction(x) for x in col] for col in np.asarray(a, dtype=float).T.tolist()]
        for i in range(n):
            for j in range(i, n):
                s[i][j] += sum(x * y for x, y in zip(cols[i], cols[j]))
    for i in range(n):
        for j in range(i):
            s[i][j] = s[j][i]
    return s


def _positive_pivots(s, mu):
    """Positive pivots of the exact elimination of ``s - mu I``, or None at a zero pivot."""
    n = len(s)
    m = [[s[i][j] - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    count = 0
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return None
        count += pivot > 0
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return count


def eigenvalues_above(s, mu, shift=_SHIFT):
    """``(low, high)`` bounds on the number of eigenvalues of the exact symmetric s above mu > 0.

    Without a zero pivot both are the exact count.  A zero pivot means mu is an eigenvalue of a
    leading block of ``s - mu I`` (maybe of s): mu is moved up and down by ``shift * mu``, and
    the counts there bound the count at mu, since the count never rises as mu grows.
    """
    count = _positive_pivots(s, mu)
    if count is not None:
        return count, count
    return (eigenvalues_above(s, mu * (1 + shift), shift / 2)[0],
            eigenvalues_above(s, mu * (1 - shift), shift / 2)[1])


def certify(stack, sol):
    """Assert that sol's lambda_max and multiplicity are exact for the float stack."""
    s = exact_gram(stack)
    lam = Fraction(sol.lambda_max)
    assert eigenvalues_above(s, lam * (1 + WINDOW))[1] == 0, "an eigenvalue above lambda_hat"
    assert eigenvalues_above(s, lam * (1 - WINDOW)) == (sol.multiplicity, sol.multiplicity)


def test_inertia_counts_through_zero_pivots():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1; at mu = 1 its first pivot is exactly zero
    s = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    assert _positive_pivots(s, Fraction(1)) is None
    assert eigenvalues_above(s, Fraction(1)) == (1, 1)
    # mu on an eigenvalue of s itself: the bounds straddle it, and the exact count is 1
    d = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert eigenvalues_above(d, Fraction(1)) == (1, 2)
    assert eigenvalues_above(d, Fraction(3, 2)) == (1, 1)
    assert eigenvalues_above(d, Fraction(5, 2)) == (0, 0)


def many_small_like(rng, wide):
    """A stack like the benchmark's many_small stream (n <= 8), tall or wide."""
    n = int(rng.integers(2, 9))
    if wide:  # fewer rows in all than columns, in two blocks (one may be empty): B B^T
        total = int(rng.integers(1, n))
        cut = int(rng.integers(0, total + 1))
        sizes = [cut, total - cut]
    else:
        sizes = rng.integers(1, 21, size=int(rng.integers(1, 6)))
        sizes[0] = max(sizes[0], n)
    return [rng.standard_normal((int(m), n)) for m in sizes]


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_certified_on_a_many_small_stream(wide):
    rng = np.random.default_rng([22, wide])
    for _ in range(48):
        stack = many_small_like(rng, wide)
        assert (sum(a.shape[0] for a in stack) < stack[0].shape[1]) == wide
        certify(stack, gsv_solve(stack))


def integer_rotation(n, rng):
    """An n x n integer matrix with orthogonal columns of squared norm 25^(n-1).

    A product of 5 times the rational rotations [[3, -4], [4, 3]] / 5 on the planes of a
    shuffled chain of coordinates; every entry is an integer below 5^(n-1), exact in float64.
    """
    g = np.eye(n, dtype=np.int64)
    order = rng.permutation(n)
    for i, j in zip(order[:-1], order[1:]):
        rot = 5 * np.eye(n, dtype=np.int64)
        rot[[i, i, j, j], [i, j, i, j]] = [3, -4, 4, 3]
        g = g @ rot
    return g


@pytest.mark.parametrize("n", range(2, 9))
def test_certified_on_designed_multiplicities(n):
    # A = G diag(s) G^T with s = 2 on r chosen columns of G and 1 elsewhere: the Gram
    # 25^(n-1) G diag(s^2) G^T has the exact top eigenvalue 4 * 625^(n-1), r-fold
    rng = np.random.default_rng([22, n])
    g = integer_rotation(n, rng)
    for r in range(2, n + 1):
        s = np.ones(n, dtype=np.int64)
        top = rng.choice(n, size=r, replace=False)
        s[top] = 2
        a = ((g * s) @ g.T).astype(float)
        assert np.array_equal(g.T @ g, 25 ** (n - 1) * np.eye(n, dtype=np.int64))
        for stack in ([a], np.array_split(a * 2.0**-300, 3), [a[:1], a[1:]]):
            sol = gsv_solve(stack)
            assert sol.multiplicity == r
            certify(stack, sol)
        if r < n:  # the wide side: r rows of weight 2 and n - r - 1 of weight 1, fewer than n
            rest = np.setdiff1d(np.arange(n), top)[: n - r - 1]
            b = np.concatenate([2 * g[:, top].T, g[:, rest].T]).astype(float)
            sol = gsv_solve([b])
            assert sol.multiplicity == r
            certify([b], sol)
