"""Dense symmetric linear-algebra substrate.

Accumulates Gram sums ``S = sum_i A_i^T A_i``, extracts the maximal eigenpair
with explicit multiplicity semantics, and reports residual diagnostics.  The
eigendecomposition backend is LAPACK's dense symmetric driver (via
``numpy.linalg.eigh``); the contract is the post-condition and residual bound,
not the algorithm.
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

# Sweep budget the LAPACK symmetric driver enforces per off-diagonal element;
# reported when the backend signals non-convergence (it exposes no count).
_LAPACK_SWEEP_BUDGET = 30


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
    if v.ndim == 1:
        v = v[:, None]
        squeeze = True
    else:
        squeeze = False
    for j in range(v.shape[1]):
        lead = np.argmax(np.abs(v[:, j]))
        if v[lead, j] < 0:
            v[:, j] = -v[:, j]
    return v[:, 0] if squeeze else v


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
    ``residual <= rtol * max(1, |value|)`` for the ``rtol`` declared here.
    """

    value: float
    vectors: np.ndarray
    residual: float
    rtol: float = 1e-8

    def __post_init__(self):
        v = _frozen_array(self.vectors)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ShapeMismatch("eigenvector block must be a 2-D array with r >= 1")
        gram = v.T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-10:
            raise ValueError("eigenvector columns are not orthonormal to 1e-10")
        if self.residual > self.rtol * max(1.0, abs(self.value)):
            raise ValueError(
                f"residual {self.residual:.3e} violates the declared bound "
                f"{self.rtol:.0e} * max(1, |value|)"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


def _gram(mats):
    """``sum_i A_i^T A_i`` over validated matrices; raises AllZero or NonFiniteInput.

    Exactly symmetric as is: numpy forms ``a.T @ a`` by a mirrored rank-k update.
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


def _top_eigenspace(s, gap_rtol, residual_rtol=1e-8):
    """Eigensolve core shared by ``gsv_solve`` and :func:`max_eigenpair`.

    ``s`` must be finite and exactly symmetric; returns EigenPair's
    ``(value, vectors, residual)``.
    """
    if not 0.0 < gap_rtol < 1.0:
        raise ValueError(f"gap_rtol must lie in (0, 1), got {gap_rtol}")
    budget = _LAPACK_SWEEP_BUDGET * s.shape[0]
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}", budget) from exc
    lam = float(w[-1])
    keep = np.abs(w - lam) <= gap_rtol * max(1.0, lam)
    basis = fix_column_signs(v[:, keep])
    residual = float(np.max(np.linalg.norm(s @ basis - lam * basis, axis=0)))
    if residual > residual_rtol * max(1.0, abs(lam)):
        raise ConvergenceFailure(
            f"residual {residual:.3e} exceeds {residual_rtol:.0e} * max(1, |lambda|)",
            budget,
        )
    return lam, basis, residual


def max_eigenpair(s, gap_rtol=1e-10, residual_rtol=1e-8):
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
    residual_rtol : float
        Residual bound declared on the returned EigenPair.

    Raises
    ------
    ConvergenceFailure
        If the backend fails, or the residual bound cannot be met.
    """
    if not isinstance(s, SymmetricMatrix):
        s = SymmetricMatrix(s)
    lam, basis, residual = _top_eigenspace(s.entries, gap_rtol, residual_rtol)
    return EigenPair(lam, basis, residual, rtol=residual_rtol)


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
