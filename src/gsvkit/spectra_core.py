"""Dense symmetric linear-algebra substrate: the two stages of every solve.

:func:`gram_sum` accumulates ``S = sum_i A_i^T A_i`` and :func:`max_eigenpair`
extracts its maximal eigenpair, with explicit multiplicity and a checked
residual, from inputs that ``OperatorStack`` validated once.  A stack ``B``
with fewer rows than columns is solved from the smaller ``B B^T`` (the method
of snapshots).  The backend is LAPACK: below order ``_SUBSET_MIN_ORDER`` the
full ``numpy.linalg.eigh``, from it up ``dsyevr`` (MRRR) for the top eigenvalues
only.  The contract is the post-condition and residual bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ComplexInput,
    ConvergenceFailure,
    EmptyStack,
    NonFiniteInput,
    NotSymmetric,
    ShapeMismatch,
)

# Relative Frobenius asymmetry above this is a caller bug, not round-off.
ASYMMETRY_RTOL = 1e-10

# Peak in [2^e, 2^(e+1)), |e| > _EXP_WINDOW: work on 2^-e * a, dsyev's rescale but exact.
# Inside, the Gram's top entry lies in [2^(2e), K 2^(2e+2)] (K < 2^53 rows or columns), within
# [2^-485, 2^255], where eigh's dsyevd and dsyevr never rescale (sqrt(safmin/eps), safmin^(-1/4)).
_EXP_WINDOW = 100

# From this Gram order up, max_eigenpair computes only the top eigenvalues.  Below
# it, one numpy eigh beats a subset solve that needs a second call for a cluster,
# and small solves never pay the ~0.2 s scipy import (README.md has the timings).
_SUBSET_MIN_ORDER = 32

# The published residual bound: ||S v - lambda v||_2 <= RESIDUAL_RTOL * |lambda|.
RESIDUAL_RTOL = 1e-8


def _peak(a, message):
    """``max |a_ij|`` of a float array, by ``a.max()`` and ``-a.min()``: no temporary the size of a.

    Raises NonFiniteInput(message) when ``a`` holds a NaN or an inf.
    """
    # a NaN leads (both ends are NaN), so max keeps it
    peak = max(a.max(initial=0.0), -a.min(initial=0.0))
    if not peak < np.inf:
        raise NonFiniteInput(message)
    return float(peak)


def _rescaled(mats, peak):
    """``(2^-e * mats, e)``, the peak scaled into [1, 2), outside the window; else ``(mats, 0)``."""
    e = math.frexp(peak)[1] - 1
    return (tuple(np.ldexp(a, -e) for a in mats), e) if abs(e) > _EXP_WINDOW else (mats, 0)


def _real(a, message, order=None):
    """``a`` as a float64 array, copied only to convert it: the one float cast of a caller's array.

    ComplexInput(message) if complex: numpy's cast would drop the imaginary part with a warning.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ComplexInput(message)
    return np.asarray(a, dtype=float, order=order)


def _frozen_array(a, message):
    """A C-ordered, read-only float64 copy of ``a``; ComplexInput(message) if ``a`` is complex."""
    out = np.array(_real(a, message), order="C")
    out.setflags(write=False)
    return out


def _symmetrized(a, name):
    """``(a + a.T) / 2``, read-only: the package's one gate for a symmetric input.

    An ``a`` equal to ``a.T`` bit for bit is its own average, at every scale: it comes back as a
    read-only view of the caller's array, so do not write into it while it is in use.  Any other
    ``a`` is averaged into a fresh C-ordered array.  Raises NotSymmetric when ``a`` is not square
    or ``||a - a.T||_F > ASYMMETRY_RTOL * ||a||_F``, ComplexInput for a complex ``a``, and
    NonFiniteInput when it holds a NaN or an inf.  A peak outside ``2^±_EXP_WINDOW`` is checked
    and averaged as ``2^-e * a``, then scaled back, so the rule holds at every scale.
    """
    a = _real(a, f"{name} is complex")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"{name} is not square: shape {a.shape}")
    peak = _peak(a, f"{name} contains non-finite entries")
    # bits, not values: a mirrored 0.0 / -0.0 pair averages to 0.0 on both sides
    if np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        out = a.view()  # the caller's array keeps its own write flag
    else:
        (a,), e = _rescaled((a,), peak)
        out = a.T.copy()  # the one strided pass
        asym, norm = np.linalg.norm(a - out), np.linalg.norm(a)
        if asym > ASYMMETRY_RTOL * norm:
            raise NotSymmetric(
                f"{name} is not symmetric: relative asymmetry {asym / norm:.3e} "
                f"exceeds {ASYMMETRY_RTOL:.0e}"
            )
        out += a
        out /= 2.0
        out = np.ldexp(out, e, out=out) if e else out
    out.flags.writeable = False
    return out


def validated_matrices(mats):
    """Validate a sequence of real matrices sharing a column count, reading each once.

    Returns read-only views of 2-D C-ordered float64 arrays (only a list, another dtype or
    byte order, or a non-C layout is copied, to convert it) and their peak ``max |a_ij|``.
    Raises EmptyStack, ShapeMismatch (a non-2-D input, unequal column counts), ComplexInput
    or NonFiniteInput.
    """
    arrays, peak = [], 0.0
    for k, m in enumerate(mats):
        a = _real(m, f"matrix {k} is complex", order="C")
        if a.ndim != 2:
            raise ShapeMismatch(f"matrix {k} is not 2-D (ndim={a.ndim})")
        peak = max(_peak(a, f"matrix {k} contains non-finite entries"), peak)
        arrays.append(a.view())  # the caller's array keeps its own write flag
        arrays[-1].setflags(write=False)
    if not arrays:
        raise EmptyStack("no matrices supplied")
    ncols = arrays[0].shape[1]
    for k, a in enumerate(arrays):
        if a.shape[1] != ncols:
            raise ShapeMismatch(
                f"matrix {k} has {a.shape[1]} columns, expected {ncols}"
            )
    return tuple(arrays), peak


def fix_column_signs(vectors):
    """Flip column signs so the first component of largest magnitude is positive.

    Deterministic orientation for eigenvectors, whose sign is otherwise arbitrary.  Returns
    a new array; zero columns are left unchanged.  Raises ComplexInput for complex vectors.
    """
    v = _real(vectors, "vector array is complex")
    if v.ndim == 1 or v.shape[1] == 1:  # one column, as in nearly every solve
        return -v if v.flat[np.abs(v).argmax()] < 0 else v.copy()
    # Exact: a column is multiplied by +-1, or a zero column by sign(0.0) = +0.0.
    return v * np.sign(v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])])


class EigenPair(NamedTuple):
    """Maximal eigenvalue with an orthonormal basis of its merged eigenspace.

    ``vectors`` is n x r with r the multiplicity; ``residual`` is the max over
    columns v of ``||S v - value * v||_2``, which :func:`max_eigenpair` has
    already held to ``RESIDUAL_RTOL * |value|``.
    """

    value: float
    vectors: np.ndarray
    residual: float

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


def gram_sum(mats):
    """``S = sum_i A_i^T A_i`` in stack order, from a validated stack scaled as ``gsv_solve`` does.

    ``gram_sum((B.T,))`` is the Gram ``B B^T`` of B's rows.  Returns a plain ndarray,
    exactly symmetric as is: numpy forms ``a.T @ a`` by a mirrored rank-k update.
    """
    s = mats[0].T @ mats[0]
    for a in mats[1:]:
        s += a.T @ a
    return s


def _top_eigenpairs(s, gap_rtol):
    """The top k eigenvalues of ``s`` (ascending) and their vectors, by ``dsyevr`` (MRRR).

    k starts at 2 and doubles until the smallest eigenvalue found lies outside the
    merge tolerance, or k = n: the merged top cluster is then complete.
    """
    # Deferred: importing scipy.linalg costs ~0.2 s, which small solves never pay.
    from scipy.linalg import lapack

    n = s.shape[0]
    k = min(2, n)
    while True:
        # s.T is s, F-ordered: f2py makes a plain copy, not a transposing one
        w, v, _, _, info = lapack.dsyevr(s.T, range="I", il=n - k + 1, iu=n)
        if info:
            raise ConvergenceFailure(f"eigendecomposition failed: dsyevr info = {info}")
        w = w[:k]
        if k == n or w[-1] - w[0] > gap_rtol * abs(w[-1]):
            return w, v
        k = min(2 * k, n)


def max_eigenpair(s, gap_rtol=1e-10, rows=None):
    """Largest eigenvalue of ``s`` and an orthonormal basis of its merged eigenspace.

    ``s`` must be finite and exactly symmetric, as :func:`gram_sum` returns it.
    Eigenvalues within ``gap_rtol * |lambda_max|`` of the maximum merge, a rule
    that does not depend on the units of ``s``; columns are oriented by
    :func:`fix_column_signs`.  With ``rows`` = B (M x n, M < n) and ``s = B B^T``,
    the pair is that of ``B^T B``, never formed: u maps to ``B^T u / ||B^T u||``.
    Raises ValueError unless 0 < gap_rtol < 1, and ConvergenceFailure when the
    backend fails (naming dsyevr's ``info``) or the residual exceeds
    ``RESIDUAL_RTOL * |lambda|``.
    """
    if not 0.0 < gap_rtol < 1.0:
        raise ValueError(f"gap_rtol must lie in (0, 1), got {gap_rtol}")
    if s.shape[0] >= _SUBSET_MIN_ORDER:
        w, v = _top_eigenpairs(s, gap_rtol)
    else:
        try:
            w, v = np.linalg.eigh(s)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    lam = float(w[-1])
    keep = lam - w <= gap_rtol * abs(lam)  # w ascends to lam: the same as |w - lam| <= tol
    if rows is None:
        basis = fix_column_signs(v[:, keep])
        image = s @ basis
    else:
        x = rows.T @ v[:, keep]
        basis = fix_column_signs(x / np.sqrt((x * x).sum(axis=0)))
        image = rows.T @ (rows @ basis)
    d = image - lam * basis
    residual = float(np.sqrt((d * d).sum(axis=0)).max())
    if not residual <= RESIDUAL_RTOL * abs(lam):  # a NaN fails too
        raise ConvergenceFailure(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |lambda|")
    return EigenPair(lam, basis, residual)
