"""gsv_solve's four outputs, bit for bit, against the plain ndarray expressions they stand for.

The solve path calls the ufuncs behind ``ndarray.max``, ``.sum`` and ``** 2`` directly
(``np.maximum.reduce``, ``np.add.reduce``, ``np.square``).  :func:`reference_solve` is the
same pipeline written with the plain expressions, ``max(a.max(), -a.min())``,
``((a @ x) ** 2).sum()`` and ``np.sqrt((d * d).sum(axis=0)).max()``; every output must keep
its bits.
"""

import math

import numpy as np
import pytest

from gsvkit.gsv_solver import gsv_solve
from gsvkit.spectra_core import (
    _EXP_WINDOW,
    _SUBSET_MIN_ORDER,
    GAP_RTOL,
    _top_eigenpairs,
    fix_column_signs,
)


def reference_solve(stack):
    """``(lambda_max, basis, objective_check, residual)`` of gsv_solve, by plain expressions."""
    mats = [np.asarray(a, dtype=float, order="C") for a in stack]
    peak = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in mats)
    e = math.frexp(peak)[1] - 1
    e = e if abs(e) > _EXP_WINDOW else 0
    scaled = [np.ldexp(a, -e) for a in mats] if e else mats
    n = mats[0].shape[1]
    rows = np.concatenate(scaled) if sum(a.shape[0] for a in scaled) < n else None
    if rows is None:
        s = scaled[0].T @ scaled[0]
        for a in scaled[1:]:
            s += a.T @ a
    else:
        s = rows @ rows.T
    if s.shape[0] >= _SUBSET_MIN_ORDER:
        w, v = _top_eigenpairs(s)
    else:
        w, v = np.linalg.eigh(s)
    lam = float(w[-1])
    keep = lam - w <= GAP_RTOL * abs(lam)
    if rows is None:
        basis = fix_column_signs(v[:, keep])
        image = s @ basis
    else:
        x = rows.T @ v[:, keep]
        basis = fix_column_signs(x / np.sqrt((x * x).sum(axis=0)))
        image = rows.T @ (rows @ basis)
    d = image - lam * basis
    residual = float(np.sqrt((d * d).sum(axis=0)).max())
    x0 = basis[:, 0]
    objective = float(sum(((a @ x0) ** 2).sum() for a in mats))
    return math.ldexp(lam, 2 * e), basis, objective, math.ldexp(residual, 2 * e)


def stream(rng):
    """Seeded stacks: tall and wide, multiplicity above 1, peaks inside and outside 2^+-100."""
    for _ in range(300):  # many_small's shapes, with wider n
        n = int(rng.integers(2, 13))
        yield [rng.standard_normal((int(rng.integers(0, 21)), n))
               for _ in range(int(rng.integers(1, 6)))]
    for n in (2, 3, 5, 8, 9, 12, 16, 40):
        for r in sorted({2, min(3, n), n}):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.full(n, 0.5)
            s[:r] = 1.0
            a = (q * s) @ q.T  # an r-fold top singular value, to rounding
            b = q[:, : r + (r < n)].T * s[: r + (r < n), None]  # the wide side, if below n rows
            for scale in (1.0, 2.0**100, 2.0**150, 2.0**-101, 2.0**-150):
                yield np.array_split(a * scale, 3)
                if b.shape[0] < n:
                    yield [b * scale]


def test_outputs_keep_the_bits_of_the_plain_expressions():
    kinds = {"wide": 0, "multiple": 0, "rescaled": 0}
    for stack in stream(np.random.default_rng(2024)):
        if not any(a.size for a in stack):
            continue  # an all-zero stack is refused, as the reference is not
        sol = gsv_solve(stack)
        lam, basis, objective, residual = reference_solve(stack)
        assert sol.lambda_max.hex() == lam.hex()
        assert sol.residual.hex() == residual.hex()
        assert sol.objective_check.hex() == objective.hex()
        assert sol.basis.shape == basis.shape and sol.basis.tobytes() == basis.tobytes()
        peak = max(np.abs(a).max(initial=0.0) for a in stack)
        kinds["wide"] += sum(a.shape[0] for a in stack) < stack[0].shape[1]
        kinds["multiple"] += sol.multiplicity > 1
        kinds["rescaled"] += not 2.0**-100 <= peak < 2.0**101
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("n", [3, 8])
def test_plain_reference_matches_on_fortran_and_strided_inputs(n):
    # _real passes a C-ordered float64 array through; any other layout or dtype is converted
    rng = np.random.default_rng(n)
    a = rng.standard_normal((2 * n, n))
    for view in (np.asfortranarray(a), a[::2], a.astype(np.float32), a.tolist()):
        stack = [view, a]
        sol = gsv_solve(stack)
        lam, basis, objective, residual = reference_solve(stack)
        assert (sol.lambda_max, sol.objective_check, sol.residual) == (lam, objective, residual)
        np.testing.assert_array_equal(sol.basis, basis)
