"""Dense symmetric linear-algebra substrate: the two stages of every solve.

:func:`gram_sum` accumulates ``S = sum_i A_i^T A_i`` and :func:`max_eigenpair`
extracts its maximal eigenpair, with explicit multiplicity and a checked
residual, from inputs that :func:`validated_matrices` checked once.  A stack ``B``
with fewer rows than columns is solved from the smaller ``B B^T`` (the method
of snapshots).  LAPACK is reached through ``_lapack``; the contract is the
post-condition and residual bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import (ComplexInput, ConvergenceFailure, EmptyStack, MaximumOverflow, NonFiniteInput,
                     NotSymmetric, ShapeMismatch)

# Relative Frobenius asymmetry above this is a caller bug, not round-off.
ASYMMETRY_RTOL = 1e-10

# Peak in [2^e, 2^(e+1)), |e| > _EXP_WINDOW: work on 2^-e * a, dsyev's rescale but exact.  A Gram
# peak outside 2^±2W (W = _EXP_WINDOW): work on 2^-2f s, peak in [1, 4).  Each matrix decomposed is
# in [2^-485, 2^255], where dsyevd (eigh) and dsyevr never rescale: sqrt(safmin/eps), safmin^-1/4.
_EXP_WINDOW = 100
_GRAM_MIN, _GRAM_MAX = 2.0 ** (-2 * _EXP_WINDOW), 2.0 ** (2 * _EXP_WINDOW)

# From this Gram order up, max_eigenpair computes only the top eigenvalues.  Below
# it, one numpy eigh beats a subset solve that needs a second call for a cluster,
# and small solves never pay the ~0.2 s scipy import (README.md has the timings).
_SUBSET_MIN_ORDER = 32

# The published residual bound: ||S v - lambda v||_2 <= RESIDUAL_RTOL * |lambda|.
RESIDUAL_RTOL = 1e-8

# The merge tolerance: eigenvalues within GAP_RTOL * |lambda_max| of the maximum merge.
GAP_RTOL = 1e-10

# The sign tie: components within SIGN_TIE_RTOL of a column's largest magnitude tie for the lead.
SIGN_TIE_RTOL = 1e-12

# numpy's float64 dtype is one object, so _real tests an array's dtype by identity.
_FLOAT = np.dtype(float)

# max_eigenpair's message for a NaN or an inf in the matrix it decomposes.
_NON_FINITE = "eigenproblem matrix contains non-finite entries"


def _peak(a, message):
    """``max |a_ij|`` of a float array, by its max and -min: no temporary the size of a.

    Raises NonFiniteInput(message) when ``a`` holds a NaN or an inf.
    """
    # a.max(initial=0.0) without the frame in numpy's _methods; a NaN leads (both ends are NaN)
    peak = max(np.maximum.reduce(a, None, None, None, False, 0.0),
               -np.minimum.reduce(a, None, None, None, False, 0.0))
    if not peak < np.inf:
        raise NonFiniteInput(message)
    return float(peak)


def _rescaled(mats, peak):
    """``(2^-e * mats, e)``, the peak scaled into [1, 2), outside the window; else ``(mats, 0)``."""
    e = math.frexp(peak)[1] - 1
    return (tuple(np.ldexp(a, -e) for a in mats), e) if abs(e) > _EXP_WINDOW else (mats, 0)


def _scaled_back(lam, residual, e):
    """``(lam, residual) * 2^(2e)``; MaximumOverflow, before numpy can warn, past float64."""
    if not e:
        return lam, residual  # what ldexp(x, 0) returns
    if math.frexp(lam)[1] + 2 * e > 1024:
        raise MaximumOverflow(f"lambda_max = {lam!r} * 2**{2 * e} exceeds the float64 range")
    return math.ldexp(lam, 2 * e), math.ldexp(residual, 2 * e)


def _prescaled(s, rows, peak):
    """``(2^-2f s, 2^-f rows, f)``, the Gram peak scaled into [1, 4), outside 2^±2W; else f = 0."""
    f = (math.frexp(peak)[1] - 1) >> 1
    if abs(f) <= _EXP_WINDOW:
        return s, rows, 0
    return np.ldexp(s, -2 * f), None if rows is None else np.ldexp(rows, -f), f


def _real(a, message, order=None):
    """``a`` as a float64 array, copied only to convert it: the one float cast of a caller's array.

    ComplexInput(message) if complex: numpy's cast would drop the imaginary part with a warning.
    """
    if type(a) is np.ndarray and a.dtype is _FLOAT and (order is None or a.flags.c_contiguous):
        return a  # what the two asarray calls below would return
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ComplexInput(message)
    return np.asarray(a, dtype=float, order=order)


def _vector(x, message):
    """``_real(x, message)`` if it is 1-D, else ShapeMismatch: the package's one vector rule."""
    x = _real(x, message)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D vector, got shape {x.shape}")
    return x


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
    # bits, not values: a mirrored 0.0 / -0.0 pair averages to 0.0 on both sides; the upper
    # triangle is compared with the lower in 64-row panels, so no N x N temporary is made
    u = a.view(np.uint64)
    if all(np.array_equal(u[i : i + 64, i:], u[i:, i : i + 64].T) for i in range(0, len(u), 64)):
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
    """Check the structure of a sequence of real matrices sharing a column count, not its values.

    Returns read-only views of 2-D C-ordered float64 arrays (only a list, another dtype or
    byte order, or a non-C layout is copied, to convert it).  Raises EmptyStack, ShapeMismatch
    (a non-2-D input or unequal column counts, carrying the matrix's ``index``; no column: R^0
    has no unit vector) or ComplexInput.  No entry is read: ``_stack_peak`` finds a NaN or an
    inf, or ``gsv_solve`` reads it off the Gram's diagonal.
    """
    arrays = []
    for k, m in enumerate(mats):
        try:
            a = _real(m, "is complex", order="C")
        except ComplexInput as exc:  # named here, only when raised
            raise ComplexInput(f"matrix {k} {exc}") from None
        if a.ndim != 2:
            raise ShapeMismatch(f"matrix {k} is not 2-D (ndim={a.ndim})", index=k)
        arrays.append(a.view())  # the caller's array keeps its own write flag
        arrays[-1].setflags(write=False)
    if not arrays:
        raise EmptyStack("no matrices supplied")
    ncols = arrays[0].shape[1]
    for k, a in enumerate(arrays):
        if a.shape[1] != ncols:
            raise ShapeMismatch(f"matrix {k} has {a.shape[1]} columns, expected {ncols}", index=k)
    if ncols == 0:
        raise ShapeMismatch("the matrices have no columns: R^0 has no unit vector")
    return tuple(arrays)


def _stack_peak(arrays):
    """The exact ``max |a_ij|`` of validated matrices; NonFiniteInput names the first non-finite."""
    return max(_peak(a, f"matrix {k} contains non-finite entries") for k, a in enumerate(arrays))


def fix_column_signs(vectors):
    """Flip column signs so the first component of largest magnitude, up to ties, is positive.

    Deterministic orientation for eigenvectors.  Of the magnitudes within ``SIGN_TIE_RTOL``
    (relative) of the largest, the first leads: a last-bit difference, as in ``(1, -1) / sqrt(2)``,
    cannot flip a column.  Returns a new array, zero columns unchanged.  Raises ComplexInput if
    complex, and ShapeMismatch unless ``vectors`` is 1-D or 2-D with at least one row.
    """
    v = _real(vectors, "vector array is complex")
    ndim = v.ndim  # read once: the one-column branch below is on every solve's path
    if not (0 < ndim < 3 and len(v)):  # an (n, 0) block passes, and comes back unchanged
        raise ShapeMismatch(f"expected a 1-D or 2-D array with a row, got shape {v.shape}")
    if ndim == 1 or v.shape[1] == 1:  # one column, as in nearly every solve
        if len(v) < _SUBSET_MIN_ORDER:  # short, as on the small route: floats beat numpy calls
            col = (v if ndim == 1 else v[:, 0]).tolist()
            lead = _sign_lead(col)
            return -v if col[lead] < 0 else v.copy()
        a = np.abs(v)
        lead = (a >= (1.0 - SIGN_TIE_RTOL) * a.flat[a.argmax()]).argmax()
        return -v if v.flat[lead] < 0 else v.copy()
    a = np.abs(v)
    lead = (a >= (1.0 - SIGN_TIE_RTOL) * np.maximum.reduce(a, 0)).argmax(axis=0)
    # Exact: a column is multiplied by +-1, or a zero column by sign(0.0) = +0.0.
    return v * np.sign(v[lead, np.arange(v.shape[1])])


def _sign_lead(col):
    """The array rule's lead of one column, as a list of floats: 0 if it holds a NaN."""
    a = list(map(abs, col))
    if math.isnan(sum(a)):  # a.argmax() finds the first NaN, and no entry is >= a NaN cut
        return 0
    cut = (1.0 - SIGN_TIE_RTOL) * max(a)
    for i, x in enumerate(a):
        if x >= cut:
            return i


class EigenPair(NamedTuple):
    """Maximal eigenvalue with an orthonormal basis of its merged eigenspace.

    ``vectors`` is n x r with r the multiplicity; ``residual`` is the max over
    columns v of ``||S v - value * v||_2``, which :func:`max_eigenpair` has
    already held to ``RESIDUAL_RTOL * |value|``.
    """

    value: float
    vectors: np.ndarray
    residual: float


def gram_sum(mats):
    """``S = sum_i A_i^T A_i`` in stack order, from a validated stack scaled as ``gsv_solve`` does.

    ``gram_sum((B.T,))`` is the Gram ``B B^T`` of B's rows.  Returns a plain ndarray,
    exactly symmetric as is: numpy forms ``a.T @ a`` by a mirrored rank-k update.
    """
    s = mats[0].T @ mats[0]
    for a in mats[1:]:
        s += a.T @ a
    return s


def _top_eigenpairs(s):
    """The top k eigenvalues of ``s`` (ascending) and their vectors, by ``dsyevr`` (MRRR).

    k starts at 2 and doubles until all k pairs came back and the smallest eigenvalue found
    lies outside the merge tolerance, or k = n: the merged top cluster is then complete.
    """
    n = s.shape[0]
    k = min(2, n)
    while True:
        # s.T is s, F-ordered: f2py makes a plain copy, not a transposing one
        w, v, m, _, info = _lapack.dsyevr(s.T, range="I", il=n - k + 1, iu=n)
        # m < k == n: the whole spectrum came back short
        _lapack.check(info, "eigendecomposition", "dsyevr", short=m < k == n)
        # MRRR may return m < k pairs with info 0 (here: none of the top 2 of a 40 x 40 Gram whose
        # second eigenvalue is 39-fold), zero vectors in their place: then ask for more
        if m == k and (k == n or w[k - 1] - w[0] > GAP_RTOL * abs(w[k - 1])):
            return w[:k], v
        k = min(2 * k, n)


def max_eigenpair(s, rows=None):
    """Largest eigenvalue of ``s`` and an orthonormal basis of its merged eigenspace.

    ``s`` must be exactly symmetric, as :func:`gram_sum` returns it.  Below order
    ``_SUBSET_MIN_ORDER`` it is decomposed whole by ``_lapack.eigh``; from that order up, the
    top cluster only, by ``_lapack.dsyevr``.  Eigenvalues within ``GAP_RTOL * |lambda_max|`` of
    the maximum merge, a rule that does not depend on the units of ``s``; columns are oriented
    by :func:`fix_column_signs`.  With ``rows`` = B (M x n, M < n) and ``s = B B^T``, the pair
    is that of ``B^T B``, never formed: u maps to ``B^T u / ||B^T u||``.  A peak of ``s`` outside
    ``2^±2W`` (W = ``_EXP_WINDOW``) is solved exactly, as ``2^-2f s`` (peak in [1, 4)) with
    ``2^-f rows``, and lambda_max and the residual scaled back by ``2^2f``.  Raises NonFiniteInput
    for a NaN or an inf in ``s`` (read before ``dsyevr``, which a NaN can keep spinning; on the full
    route only outside the window or once a step fails), MaximumOverflow when lambda_max of a finite
    ``s`` is past float64, and ConvergenceFailure when the backend fails (naming dsyevr's ``info``,
    or numpy's "Eigenvalues did not converge") or the residual exceeds ``RESIDUAL_RTOL * |lambda|``.
    """
    if s.shape[0] >= _SUBSET_MIN_ORDER:
        s, rows, f = _prescaled(s, rows, _peak(s, _NON_FINITE))  # O(n^2) beside O(n^3)
        w, v = _top_eigenpairs(s)
    else:
        f = 0
        try:
            w, v = _lapack.eigh(s)
            # |w_min| + |w_max| is in [peak, 2n peak]: outside the window (a NaN too), read the peak
            if not _GRAM_MIN <= abs(w.item(0)) + abs(w.item(-1)) <= _GRAM_MAX:  # floats: no warning
                s, rows, f = _prescaled(s, rows, _peak(s, _NON_FINITE))
                w, v = _lapack.eigh(s)
        except np.linalg.LinAlgError as exc:
            _peak(s, _NON_FINITE)
            raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    lam = float(w[-1])
    tol = GAP_RTOL * abs(lam)
    # w ascends to lam: the cluster is the tail lam - w <= tol, the same as |w - lam| <= tol
    if len(w) == 1 or not lam - w[-2] <= tol:  # one column, as in nearly every solve
        top = v[:, -1:]
    else:
        top = v[:, lam - w <= tol]
    if rows is None:
        basis = fix_column_signs(top)  # a fresh array, whatever the layout of top
        image = s @ basis
    else:
        x = rows.T @ np.ascontiguousarray(top)  # unit stride, as the mask gives: the same gemv
        basis = fix_column_signs(x / np.sqrt(np.add.reduce(x * x, 0)))  # (x * x).sum(axis=0)
        image = rows.T @ (rows @ basis)
    d = image - lam * basis  # sqrt((d * d).sum(axis=0)).max(), by the ufuncs behind the methods
    residual = float(np.maximum.reduce(np.sqrt(np.add.reduce(d * d, 0)), None))
    if not residual <= RESIDUAL_RTOL * abs(lam):  # a NaN fails too
        _peak(s, _NON_FINITE)
        raise ConvergenceFailure(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |lambda|")
    lam, residual = _scaled_back(lam, residual, f)
    return EigenPair(lam, basis, residual)
