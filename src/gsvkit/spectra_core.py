"""Dense symmetric linear-algebra substrate.

Accumulates Gram sums ``S = sum_i A_i^T A_i``, extracts the maximal eigenpair
with explicit multiplicity semantics, and reports residual diagnostics.  A
stack ``B`` with fewer rows than columns is solved from the smaller ``B B^T``
(the method of snapshots).  The eigendecomposition backend is LAPACK's dense
symmetric driver (via ``numpy.linalg.eigh``); the contract is the
post-condition and residual bound, not the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    ConvergenceFailure,
    EmptyStack,
    NonFiniteInput,
    NotSymmetric,
    ShapeMismatch,
    ZeroVector,
)

# Relative Frobenius asymmetry above this is a caller bug, not round-off.
ASYMMETRY_RTOL = 1e-10

# The published residual bound: ||S v - lambda v||_2 <= RESIDUAL_RTOL * max(1, |lambda|).
RESIDUAL_RTOL = 1e-8


def _frozen_array(a, dtype=float):
    """Return a C-contiguous, read-only float copy of ``a``."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _symmetrized(a, name):
    """``(a + a.T) / 2`` for a finite square ``a``: the package's one symmetry rule.

    Raises NotSymmetric when ``||a - a.T||_F > ASYMMETRY_RTOL * ||a||_F``.
    """
    asym = np.linalg.norm(a - a.T)
    bound = ASYMMETRY_RTOL * np.linalg.norm(a)
    if asym > bound:
        raise NotSymmetric(
            f"{name} is not symmetric: asymmetry {asym:.3e} exceeds "
            f"{ASYMMETRY_RTOL:.0e} * ||A||_F = {bound:.3e}"
        )
    return (a + a.T) / 2.0


def validated_matrices(mats):
    """Validate a sequence of real matrices sharing a column count.

    Returns a tuple of read-only 2-D float arrays.  Raises EmptyStack,
    ShapeMismatch (inconsistent column counts or non-2-D input) or
    NonFiniteInput.
    """
    arrays = []
    for k, m in enumerate(mats):
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ShapeMismatch(f"matrix {k} is not 2-D (ndim={a.ndim})")
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput(f"matrix {k} contains non-finite entries")
        arrays.append(_frozen_array(a))
    if not arrays:
        raise EmptyStack("no matrices supplied")
    ncols = arrays[0].shape[1]
    for k, a in enumerate(arrays):
        if a.shape[1] != ncols:
            raise ShapeMismatch(
                f"matrix {k} has {a.shape[1]} columns, expected {ncols}"
            )
    return tuple(arrays)


def fix_column_signs(vectors):
    """Flip column signs so the first component of largest magnitude is positive.

    Deterministic orientation for eigenvectors, whose sign is otherwise
    arbitrary.  Returns a new array; zero columns are left unchanged.
    """
    v = np.array(vectors, dtype=float)
    cols = v if v.ndim == 2 else v[:, None]  # a view: the flips land in v
    # Exact: a column is multiplied by +-1, or a zero column by sign(0.0) = +0.0.
    cols *= np.sign(cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])])
    return v


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix, exactly symmetrized on construction.

    Entries are stored as ``(A + A.T) / 2``; asymmetry beyond
    ``ASYMMETRY_RTOL`` times the Frobenius norm raises NotSymmetric instead
    of being silently absorbed.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ShapeMismatch("dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("symmetric matrix contains non-finite entries")
        object.__setattr__(self, "entries", _frozen_array(_symmetrized(a, "matrix")))

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenPair:
    """Maximal eigenvalue with an orthonormal basis of its merged eigenspace.

    ``vectors`` is n x r with r the multiplicity; ``residual`` is the max over
    columns v of ``||S v - value * v||_2`` and must satisfy
    ``residual <= RESIDUAL_RTOL * max(1, |value|)``.
    """

    value: float
    vectors: np.ndarray
    residual: float

    def __post_init__(self):
        v = _frozen_array(self.vectors)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ShapeMismatch("eigenvector block must be a 2-D array with r >= 1")
        gram = v.T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-10:
            raise ValueError("eigenvector columns are not orthonormal to 1e-10")
        if self.residual > RESIDUAL_RTOL * max(1.0, abs(self.value)):
            raise ValueError(
                f"residual {self.residual:.3e} violates the bound "
                f"{RESIDUAL_RTOL:.0e} * max(1, |value|)"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


def _gram(mats):
    """``sum_i A_i^T A_i`` over validated matrices; raises AllZero or NonFiniteInput.

    ``_gram((B.T,))`` is the Gram ``B B^T`` of the rows of B.  Exactly symmetric
    as is: numpy forms ``a.T @ a`` by a mirrored rank-k update.
    """
    if all(not np.any(a) for a in mats):
        raise AllZero("all matrices in the stack are zero")
    n = mats[0].shape[1]
    s = np.zeros((n, n), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for a in mats:
            s += a.T @ a
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("symmetric matrix contains non-finite entries")
    return s


def gram_sum(stack):
    """Accumulate ``S = sum_i A_i^T A_i`` over a stack of matrices.

    ``stack`` is an OperatorStack or any sequence of real m_i x n arrays with
    a shared column count.  Summation order is the fixed sequential order of
    the stack.

    Raises EmptyStack, ShapeMismatch, NonFiniteInput, or AllZero when every
    matrix is identically zero (degenerate maximization).
    """
    mats = stack.mats if hasattr(stack, "mats") else validated_matrices(stack)
    return SymmetricMatrix(_gram(mats))


def _top_eigenspace(s, gap_rtol, rows=None):
    """Eigensolve core shared by ``gsv_solve`` and :func:`max_eigenpair`.

    ``s`` must be finite and exactly symmetric; returns EigenPair's
    ``(value, vectors, residual)``.  With ``rows`` = B (M x n, M < n) and
    ``s = B B^T``, they are those of ``B^T B``, never formed: u maps to
    ``B^T u / ||B^T u||``.  None then means the merge reaches ``B^T B``'s zeros.
    """
    if not 0.0 < gap_rtol < 1.0:
        raise ValueError(f"gap_rtol must lie in (0, 1), got {gap_rtol}")
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    lam = float(w[-1])
    tol = gap_rtol * max(1.0, lam)
    # lambda_max <= tol merges with zero; ROADMAP.md's relative merge rule ends this.
    if rows is not None and lam <= tol:
        return None
    keep = np.abs(w - lam) <= tol
    if rows is None:
        basis = fix_column_signs(v[:, keep])
        image = s @ basis
    else:
        x = rows.T @ v[:, keep]
        basis = fix_column_signs(x / np.linalg.norm(x, axis=0))
        image = rows.T @ (rows @ basis)
    residual = float(np.max(np.linalg.norm(image - lam * basis, axis=0)))
    if residual > RESIDUAL_RTOL * max(1.0, abs(lam)):
        raise ConvergenceFailure(
            f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * max(1, |lambda|)"
        )
    return lam, basis, residual


def max_eigenpair(s, gap_rtol=1e-10):
    """Largest eigenvalue of a symmetric matrix with its merged eigenspace.

    Eigenvalues within ``gap_rtol * max(1, lambda_max)`` of the maximum are
    merged into a single eigenspace; the returned basis is orthonormal with
    the deterministic sign orientation of :func:`fix_column_signs`.

    Parameters
    ----------
    s : SymmetricMatrix or array_like
        Input matrix (arrays are validated and symmetrized).
    gap_rtol : float
        Relative-with-floor eigenvalue merge tolerance, in (0, 1).

    Raises
    ------
    ConvergenceFailure
        If the backend fails, or the residual bound ``RESIDUAL_RTOL`` cannot be met.
    """
    if not isinstance(s, SymmetricMatrix):
        s = SymmetricMatrix(s)
    return EigenPair(*_top_eigenspace(s.entries, gap_rtol))


def rayleigh_quotient(s, x):
    """Evaluate ``x^T S x / x^T x`` for a nonzero vector ``x``."""
    if not isinstance(s, SymmetricMatrix):
        s = SymmetricMatrix(s)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != s.dim:
        raise ShapeMismatch(f"vector length {x.shape[0]} != matrix dim {s.dim}")
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        raise ZeroVector("Rayleigh quotient is undefined at the zero vector")
    return float(x @ (s.entries @ x)) / nrm2
