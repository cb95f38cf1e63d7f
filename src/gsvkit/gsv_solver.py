"""Solvers for unit-sphere maximizers of ``sum_i ||A_i x||^2``.

The general solver reduces the problem to the maximal eigenpair of the Gram
sum ``sum_i A_i^T A_i``.  Also provided: the closed form for a single m x 2
matrix with equal-norm columns, the Cholesky-whitened weighted variant
(quadratic energy constraint ``psi^T R psi``), and a seeded sphere-sampling
lower-bound oracle kept deliberately independent of the eigen path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZero,
    ColumnNormMismatch,
    ConvergenceFailure,
    DimensionTooLarge,
    MaximumOverflow,
    NotSPD,
    ShapeMismatch,
    WrongShape,
)
from .spectra_core import (
    RESIDUAL_RTOL,
    _frozen_array,
    _real,
    _rescaled,
    _symmetrized,
    fix_column_signs,
    gram_sum,
    max_eigenpair,
    validated_matrices,
)

_ORACLE_MAX_DIM = 10
_ORACLE_CHUNK = 1 << 17
# GsvSolution's bounds are relative to |lambda_max| down to here: a subnormal has no 1e-8 to give.
_NORMAL_MIN = float(np.finfo(float).tiny)


def _scaled_back(lam, residual, e):
    """``(lam, residual) * 2^(2e)``; MaximumOverflow, before numpy can warn, past float64."""
    if math.frexp(lam)[1] + 2 * e > 1024:
        raise MaximumOverflow(f"lambda_max = {lam!r} * 2**{2 * e} exceeds the float64 range")
    return math.ldexp(lam, 2 * e), math.ldexp(residual, 2 * e)


@dataclass(frozen=True)
class OperatorStack:
    """Read-only views of real m_i x n matrices sharing the column count n; ``peak`` is max |a_ij|.

    The stack does not own its arrays: do not write into an input while it is in use.
    """

    mats: tuple
    peak: float = field(init=False)

    def __post_init__(self):
        mats, peak = validated_matrices(self.mats)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "peak", peak)

    @property
    def ncols(self):
        return self.mats[0].shape[1]


def as_stack(stack):
    """Coerce a stack-like object (OperatorStack or matrix sequence)."""
    if isinstance(stack, OperatorStack):
        return stack
    return OperatorStack(tuple(stack))


def objective_value(stack, x):
    """Evaluate ``sum_i ||A_i x||^2`` directly from the stack matrices."""
    stack = as_stack(stack)
    x = _real(x, "vector is complex").reshape(-1)
    if x.shape[0] != stack.ncols:
        raise ShapeMismatch(f"vector length {x.shape[0]} != column count {stack.ncols}")
    return float(sum(((a @ x) ** 2).sum() for a in stack.mats))


@dataclass(frozen=True)
class GsvSolution:
    """Maximum value and maximizer basis of the stacked objective.

    ``basis`` is an orthonormal n x r block spanning the merged maximal
    eigenspace of the Gram sum; every unit vector in its span (intersected
    with the unit sphere) attains ``lambda_max``.  ``objective_check`` is the
    objective re-evaluated from the stack at the first basis column, never
    from the Gram matrix.  ``residual`` lies in ``[0, RESIDUAL_RTOL * |lambda_max|]``,
    with ``|lambda_max|`` floored at the smallest normal float64 in both checks.
    """

    lambda_max: float
    basis: np.ndarray
    objective_check: float
    residual: float

    def __post_init__(self):
        basis = _frozen_array(self.basis, "basis is complex")
        if basis.ndim != 2 or basis.shape[1] < 1:
            raise ShapeMismatch("basis must be a 2-D array with r >= 1 columns")
        norms = np.sqrt((basis * basis).sum(axis=0))
        if not np.abs(norms - 1.0).max() <= 1e-12:  # "not <=": a NaN fails each check
            raise ValueError("basis columns must be unit vectors to 1e-12")
        scale = max(abs(self.lambda_max), _NORMAL_MIN)  # a NaN leads, so max keeps it
        if not abs(self.objective_check - self.lambda_max) <= 1e-8 * scale:
            raise ValueError(
                "objective re-evaluation disagrees with lambda_max beyond 1e-8"
            )
        if not 0.0 <= self.residual <= RESIDUAL_RTOL * scale:
            raise ValueError("residual must lie in [0, RESIDUAL_RTOL * |lambda_max|]")
        object.__setattr__(self, "basis", basis)

    @property
    def multiplicity(self):
        return self.basis.shape[1]

    @property
    def whole_sphere(self):
        """True when the eigenspace is the whole space, so every unit vector is optimal."""
        return self.multiplicity == self.basis.shape[0]


def gsv_solve(stack, gap_rtol=1e-10):
    """Solve ``max sum_i ||A_i x||^2`` over unit vectors x, exactly.

    Returns a GsvSolution with the largest eigenvalue of the Gram sum, an
    orthonormal basis of its (gap-merged) eigenspace, and a direct
    re-evaluation of the objective at the first basis column.

    The stack is validated once, by OperatorStack; a peak beyond ``2^±_EXP_WINDOW``
    is solved as ``2^-e * stack``, exactly, and lambda_max scaled back by ``2^(2e)``.
    Then ``gram_sum`` and ``max_eigenpair`` run on the smaller Gram: ``B B^T`` when
    ``B = vstack(A_i)`` has fewer rows than columns (u maps to ``B^T u / ||B^T u||``).
    Raises EmptyStack, ShapeMismatch or NonFiniteInput for an invalid stack, AllZero
    for an all-zero one, MaximumOverflow past float64, and ConvergenceFailure.
    """
    stack = as_stack(stack)
    if stack.peak == 0.0:
        raise AllZero("all matrices in the stack are zero")
    mats, e = _rescaled(stack.mats, stack.peak)
    wide = sum(a.shape[0] for a in mats) < stack.ncols
    rows = np.concatenate(mats) if wide else None
    lam, basis, residual = max_eigenpair(gram_sum((rows.T,) if wide else mats), gap_rtol, rows)
    lam, residual = _scaled_back(lam, residual, e)
    return GsvSolution(
        lambda_max=lam,
        basis=basis,
        objective_check=objective_value(stack, basis[:, 0]),
        residual=residual,
    )


def gsv_solve_2col_equalnorm(a):
    """Closed-form maximizer for one m x 2 matrix with equal-norm columns.

    With columns a1, a2 of equal Euclidean norm, the maximum is
    ``||a1||^2 + |a1 . a2|`` and the maximizers split into three cases on the
    sign of the dot product: orthogonal columns make every unit vector
    optimal (basis e1, e2, whole sphere), a positive dot selects
    ``(sqrt(2)/2, sqrt(2)/2)`` up to sign, a negative dot selects
    ``(-sqrt(2)/2, sqrt(2)/2)`` up to sign.  The deterministic orientation of
    :func:`fix_column_signs` is applied to the returned vector.

    Raises ComplexInput for a complex matrix, WrongShape unless it has exactly two columns,
    and ColumnNormMismatch if the column norms, rescaled as in :func:`gsv_solve`,
    differ beyond ``1e-12 * max(||a1||, ||a2||)``.
    """
    a = _real(a, "matrix is complex")
    if a.ndim != 2 or a.shape[1] != 2:
        raise WrongShape(f"expected an m x 2 matrix, got shape {a.shape}")
    (scaled,), e = _rescaled(*validated_matrices((a,)))
    a1, a2 = scaled[:, 0], scaled[:, 1]
    n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
    if abs(n1 - n2) > 1e-12 * max(n1, n2):
        raise ColumnNormMismatch(
            # 2.0**e is exact and the product gives inf, where ldexp would raise, past float max
            f"column norms differ: {float(n1) * 2.0**e!r} vs {float(n2) * 2.0**e!r}"
            " beyond 1e-12 relative"
        )
    dot = float(a1 @ a2)
    lam = float(n1**2 + abs(dot))
    half = np.sqrt(2.0) / 2.0
    if abs(dot) <= 1e-12 * n1**2:
        basis = np.eye(2)
    elif dot > 0:
        basis = fix_column_signs(np.array([[half], [half]]))
    else:
        basis = fix_column_signs(np.array([[-half], [half]]))
    gram = scaled.T @ scaled
    residual = float(np.max(np.linalg.norm(gram @ basis - lam * basis, axis=0)))
    lam, residual = _scaled_back(lam, residual, e)
    return GsvSolution(
        lambda_max=lam,
        basis=basis,
        objective_check=float(np.sum((a @ basis[:, 0]) ** 2)),
        residual=residual,
    )


@dataclass(frozen=True)
class WeightedProblem:
    """Field matrices E_x, E_y, E_z (each H x N) with an SPD resistance R (N x N).

    The solve maximizes the summed squared field responses subject to the quadratic energy
    constraint ``psi^T R psi = 1``.  ``fields`` are read-only views, as in OperatorStack, and so
    is ``resistance`` when R is exactly symmetric (else it is R's average with R^T, see
    ``_symmetrized``): do not write into either while the problem is in use.
    """

    fields: tuple
    resistance: np.ndarray

    def __post_init__(self):
        fields, _ = validated_matrices(self.fields)
        n = fields[0].shape[1]
        r = _symmetrized(self.resistance, "resistance matrix")  # read-only, a view if symmetric
        if r.shape != (n, n):
            raise ShapeMismatch(
                f"resistance must be {n} x {n} to match the field matrices, got {r.shape}"
            )
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "resistance", r)


def _upper_cholesky(r):
    """Upper-triangular C with ``R = C^T C``; NotSPD carries the failing pivot."""
    # Deferred: importing scipy.linalg costs ~0.2 s and only the coil path needs it.
    from scipy.linalg import lapack

    # r.T is r (exactly symmetric), F-ordered: f2py makes a plain copy, not a transposing one.
    # The strict lower triangle of c is left as dpotrf found it: the solves read only the upper.
    c, info = lapack.dpotrf(r.T, lower=0, clean=0)
    if info > 0:
        raise NotSPD(info)
    if info < 0:
        raise ValueError(f"illegal value in Cholesky argument {-info}")
    return c


def weighted_gsv_solve(prob, gap_rtol=1e-10):
    """Solve the energy-constrained problem via Cholesky whitening.

    Factors ``R = C^T C`` (upper-triangular C), whitens every field matrix to
    ``A_i = E_i C^{-1}`` by one in-place triangular solve on the stacked fields (C is never
    inverted explicitly), runs :func:`gsv_solve` on the row blocks of the result and maps the
    first basis column phi back through ``psi = C^{-1} phi``.  Since
    ``||phi|| = 1``, the returned psi satisfies ``psi^T R psi = 1`` within
    1e-8.  With 3H field rows below N nodes, that solve eigendecomposes the
    3H x 3H ``B R^{-1} B^T`` of the stacked fields B, not an N x N matrix.

    Returns ``(psi, solution)``.  Raises NotSPD (with the failing pivot
    index, no automatic regularization) and propagates solver errors.
    """
    from scipy.linalg import solve_triangular  # deferred like _upper_cholesky's lapack

    if not isinstance(prob, WeightedProblem):
        raise TypeError("weighted_gsv_solve expects a WeightedProblem")
    c = _upper_cholesky(prob.resistance)
    # (vstack E)^T is F-ordered and fresh, so the solve overwrites it in place
    w = solve_triangular(c, np.concatenate(prob.fields).T, trans="T", lower=False,
                         overwrite_b=True, check_finite=False).T
    ends = np.cumsum([e.shape[0] for e in prob.fields])
    solution = gsv_solve(np.split(w, ends[:-1]), gap_rtol=gap_rtol)
    phi = solution.basis[:, 0]
    psi = solve_triangular(c, phi, lower=False, check_finite=False)
    energy = float(psi @ (prob.resistance @ psi))
    if abs(energy - 1.0) > 1e-8:
        raise ConvergenceFailure(
            f"whitened solution violates psi^T R psi = 1 (got {energy!r}); "
            "resistance matrix is too ill-conditioned"
        )
    return psi, solution


def brute_force_max(stack, samples, seed):
    """Sampled lower bound for the stacked objective over the unit sphere.

    Evaluates ``sum_i ||A_i x||^2`` at ``samples`` uniformly distributed unit
    vectors (normalized Gaussian draws from a generator seeded with ``seed``)
    and returns the maximum.  The value never exceeds the true maximum; it is
    a desk-scale oracle, so the ambient dimension is capped at 10.
    """
    stack = as_stack(stack)
    n = stack.ncols
    if n > _ORACLE_MAX_DIM:
        raise DimensionTooLarge(
            f"sampling oracle supports n <= {_ORACLE_MAX_DIM}, got {n}"
        )
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    # Row-compress the stacked matrix through its isometric QR factor:
    # ||vstack(A) x|| == ||R x||, so per-sample cost drops to O(n^2).
    compressed = np.linalg.qr(np.vstack(stack.mats), mode="r")
    rng = np.random.default_rng(seed)
    best = -np.inf
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _ORACLE_CHUNK)
        x = rng.standard_normal((n, chunk))
        y = compressed @ x
        num = np.einsum("ij,ij->j", y, y)
        den = np.einsum("ij,ij->j", x, x)
        if np.any(den == 0.0):  # measure-zero draw; drop rather than divide
            ok = den > 0.0
            num, den = num[ok], den[ok]
            if num.size == 0:
                remaining -= chunk
                continue
        best = max(best, float(np.max(num / den)))
        remaining -= chunk
    return best
