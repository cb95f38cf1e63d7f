"""Solvers for unit-sphere maximizers of ``sum_i ||A_i x||^2``.

The general solver reduces the problem to the maximal eigenpair of the Gram
sum ``sum_i A_i^T A_i``; the paper's closed forms (two equal-norm columns,
say) are special cases it solves.  Also provided: the Cholesky-whitened
weighted variant (quadratic energy constraint ``psi^T R psi``), and a seeded
sphere-sampling lower-bound oracle kept deliberately independent of the eigen
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import (AllZero, ArgumentOutOfRange, ConvergenceFailure, DimensionTooLarge, GsvError,
                     MaximumOverflow, NonFiniteInput, NotSPD, ShapeMismatch)
from .spectra_core import (_GRAM_MAX, _GRAM_MIN, _read_only, _rescaled, _scaled_back, _stack_peak,
                           _symmetrized, _vector, _whole, gram_sum, max_eigenpair,
                           validated_matrices)

_ORACLE_MAX_DIM = 10
# Values per seeded Gaussian draw of the oracle: its memory is bounded by it, not by the count.
_PANEL_VALUES = 1 << 16
# The objective bound is relative to |lambda_max| down to here: a subnormal has no 1e-8 to give.
_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class OperatorStack:
    """Read-only views of real m_i x n matrices sharing the column count n; ``peak`` is max |a_ij|.

    The views are made here, so a caller's array keeps its write flag.  Building one reads every
    entry for the exact peak, so a NaN or an inf raises NonFiniteInput here.  The stack does not
    own its arrays: do not write into an input while it is in use.
    """

    mats: tuple
    peak: float = field(init=False)

    def __post_init__(self):
        mats = tuple(map(_read_only, validated_matrices(self.mats)))
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "peak", _stack_peak(mats))

    @property
    def ncols(self):
        return self.mats[0].shape[1]


def as_stack(stack):
    """Coerce a stack-like object (OperatorStack or matrix sequence)."""
    if isinstance(stack, OperatorStack):
        return stack
    return OperatorStack(tuple(stack))


def objective_value(stack, x):
    """Evaluate ``sum_i ||A_i x||^2`` directly from the stack matrices.

    Raises ComplexInput for a complex x, and ShapeMismatch unless x is 1-D of length n.
    """
    stack = as_stack(stack)
    x = _vector(x, "vector is complex")
    if x.shape[0] != stack.ncols:
        raise ShapeMismatch(f"vector length {x.shape[0]} != column count {stack.ncols}")
    return _objective(stack.mats, x)


def _objective(mats, x):
    """``sum_i ||A_i x||^2`` of validated matrices at a real vector of their column count."""
    # ((a @ x) ** 2).sum() by the ufuncs behind ** 2 and .sum, without numpy's _methods frame,
    # added in stack order from 0, as sum() adds them
    total = 0.0
    for a in mats:
        total += np.add.reduce(np.square(a @ x), None)
    return float(total)


def _gram(mats, wide):
    """``(S, B)``: the Gram ``gram_sum`` forms on the smaller side, and B = vstack(A_i) if wide."""
    rows = np.concatenate(mats) if wide else None
    return gram_sum((rows.T,) if wide else mats), rows


class GsvSolution(NamedTuple):
    """Maximum value and maximizer basis of the stacked objective, as ``gsv_solve`` checked them.

    ``basis`` is a read-only orthonormal n x r block spanning the merged maximal eigenspace of the
    Gram sum; every unit vector in its span attains ``lambda_max``.  Each column's first component
    of largest magnitude (ties within ``SIGN_TIE_RTOL`` relative) is positive.  ``objective_check``
    is the objective re-evaluated from the stack at the first basis column, never from the Gram
    matrix.  ``residual`` lies in ``[0, RESIDUAL_RTOL * |lambda_max|]``.
    """

    lambda_max: float
    basis: np.ndarray
    objective_check: float
    residual: float

    @property
    def multiplicity(self):
        return self.basis.shape[1]

    @property
    def whole_sphere(self):
        """True when the eigenspace is the whole space, so every unit vector is optimal."""
        return self.multiplicity == self.basis.shape[0]


def gsv_solve(stack):
    """Solve ``max sum_i ||A_i x||^2`` over unit vectors x, exactly.

    Returns a GsvSolution: the largest eigenvalue of the Gram sum, an orthonormal basis of
    its (gap-merged) eigenspace, and the objective re-evaluated at the first basis column.

    ``gram_sum`` and ``max_eigenpair`` run on the smaller Gram: ``B B^T`` when
    ``B = vstack(A_i)`` has fewer rows than columns (u maps to ``B^T u / ||B^T u||``).
    A peak beyond ``2^±_EXP_WINDOW`` is solved as ``2^-e * stack``, exactly, and lambda_max
    scaled back by ``2^(2e)``.  Every stack's values are read once, by the Gram, whose diagonal
    shows a NaN or an inf and places the peak in the window; only a stack it cannot place has
    its exact peak read (and its Gram formed again if outside).
    Each post-condition is checked once: ``max_eigenpair`` bounds the residual; here, scaled
    back, the basis columns must be unit to 1e-12 and the objective, evaluated on the unscaled
    stack, lie within ``1e-8 * max(|lambda_max|, smallest normal float64)`` of lambda_max.
    Raises EmptyStack, ShapeMismatch or NonFiniteInput for an invalid stack (a structural
    fault first), AllZero for an all-zero one, MaximumOverflow past float64, and
    ConvergenceFailure when the eigensolve or a post-condition fails.
    """
    mats = stack.mats if isinstance(stack, OperatorStack) else validated_matrices(stack)
    m, n = sum(a.shape[0] for a in mats), mats[0].shape[1]
    wide = m < n
    # S_jj sums the K = max(m, n) squares of column j (of row j of B when wide), so exactly
    # peak^2 <= max_j S_jj <= K peak^2.  Computed in any order, a sum of K squares is within
    # a factor 2 of the exact one while K u <= 1/2 (K <= 2^52: any stack in memory), and a
    # NaN or an inf makes its own diagonal entry NaN or inf.  So with W = _EXP_WINDOW, a top
    # within [4 K 2^(-2W), 2^(2W)] puts the peak in [2^-W, 2^(W+1)): finite, and left as it
    # is by _rescaled.  Any other top (NaN, inf, zero, near or outside the window) asks for
    # the exact peak, which raises NonFiniteInput or AllZero.
    with np.errstate(over="ignore", invalid="ignore"):
        s, rows = _gram(mats, wide)
    top = float(np.maximum.reduce(s.diagonal(), None, None, None, False, 0.0))  # NaN leads
    e = 0
    if not 4 * max(m, n) * _GRAM_MIN <= top <= _GRAM_MAX:
        peak = _stack_peak(mats)
        if peak == 0.0:
            raise AllZero("all matrices in the stack are zero")
        scaled, e = _rescaled(mats, peak)
        if e:
            s, rows = _gram(scaled, wide)
    lam, basis, residual = max_eigenpair(s, rows)
    lam, residual = _scaled_back(lam, residual, e)
    basis.setflags(write=False)  # fix_column_signs' fresh array: the record shares it with no one
    if basis.shape[1] == 1:  # a check, not an output: on Python floats, by hypot's norm
        off = abs(math.hypot(*basis.ravel().tolist()) - 1.0)
    else:
        off = np.maximum.reduce(np.abs(np.sqrt(np.add.reduce(basis * basis, 0)) - 1.0), None)
    if not off <= 1e-12:  # a NaN fails each check
        raise ConvergenceFailure("basis columns are not unit vectors to 1e-12")
    check = _objective(mats, basis[:, 0])
    if not abs(check - lam) <= 1e-8 * max(abs(lam), _NORMAL_MIN):  # a NaN leads, so max keeps it
        raise ConvergenceFailure(f"objective check {check!r} != lambda_max {lam!r} to 1e-8")
    return GsvSolution(lam, basis, check, residual)


@dataclass(frozen=True)
class WeightedProblem:
    """Field matrices E_x, E_y, E_z (H_i x N, any heights) with an SPD resistance R (N x N).

    The solve maximizes the summed squared field responses subject to the quadratic energy
    constraint ``psi^T R psi = 1``.  ``fields`` are read-only views made here, as in
    OperatorStack, and ``resistance`` is one made by ``_symmetrized`` when R is exactly symmetric
    (else it is R's average with R^T): do not write into either while the problem is in use.
    """

    fields: tuple
    resistance: np.ndarray

    def __post_init__(self):
        fields = tuple(map(_read_only, validated_matrices(self.fields)))
        _stack_peak(fields)  # NonFiniteInput here, where the problem is built
        n = fields[0].shape[1]
        try:  # a fault of R carries its position after the fields, as a field's carries its own
            r = _symmetrized(self.resistance, "resistance matrix")  # read-only, a view if symmetric
            if r.shape != (n, n):
                raise ShapeMismatch(
                    f"resistance must be {n} x {n} to match the field matrices, got {r.shape}"
                )
        except GsvError as exc:
            exc.index = len(fields)
            raise
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "resistance", r)


def weighted_gsv_solve(prob):
    """Solve the energy-constrained problem via Cholesky whitening.

    Factors ``R = C^T C`` (upper-triangular C, ``dpotrf``), whitens every field matrix to
    ``A_i = E_i C^{-1}`` by one in-place ``dtrtrs`` on the stacked fields (C is never
    inverted explicitly), runs :func:`gsv_solve` on the row blocks of the result and maps the
    first basis column phi back through ``psi = C^{-1} phi`` (``dtrtrs`` again).  Since
    ``||phi|| = 1``, the returned psi satisfies ``psi^T R psi = 1`` within
    1e-8.  With 3H field rows below N nodes, that solve eigendecomposes the
    3H x 3H ``B R^{-1} B^T`` of the stacked fields B, not an N x N matrix.

    Returns ``(psi, solution)``.  Raises NotSPD (with the failing pivot
    index, no automatic regularization), MaximumOverflow when a whitened entry overflows
    float64 (the maximum is at least its square), ConvergenceFailure naming the routine and
    its code for any other nonzero LAPACK ``info``, and propagates solver errors.
    """
    if not isinstance(prob, WeightedProblem):
        raise TypeError("weighted_gsv_solve expects a WeightedProblem")
    # R.T is R (exactly symmetric), F-ordered: f2py makes a plain copy, not a transposing one.
    # The strict lower triangle of c is left as dpotrf found it: dtrtrs reads only the upper.
    c, info = _lapack.dpotrf(prob.resistance.T, lower=0, clean=0)
    if info > 0:
        raise NotSPD(info)
    _lapack.check(info, "Cholesky factorization", "dpotrf")
    # C^T W^T = (vstack E)^T, which is F-ordered and fresh, so dtrtrs overwrites it in place
    wt, info = _lapack.dtrtrs(c, np.concatenate(prob.fields).T, lower=0, trans=1, overwrite_b=1)
    _lapack.check(info, "whitening", "dtrtrs")
    ends = np.cumsum([e.shape[0] for e in prob.fields])
    try:
        solution = gsv_solve(np.split(wt.T, ends[:-1]))
    except NonFiniteInput:  # the fields and R were finite: the whitening overflowed
        raise MaximumOverflow("lambda_max exceeds the float64 range: "
                              "the whitened fields E_i C^-1 overflow") from None
    psi, info = _lapack.dtrtrs(c, solution.basis[:, 0], lower=0)
    _lapack.check(info, "mapping phi back", "dtrtrs")
    energy = float(psi @ (prob.resistance @ psi))
    if abs(energy - 1.0) > 1e-8:
        raise ConvergenceFailure(
            f"whitened solution violates psi^T R psi = 1 (got {energy!r}); "
            "resistance matrix is too ill-conditioned"
        )
    return psi, solution


def _gaussian_panels(seed, n, count):
    """``count`` seeded standard-normal n-vectors, yielded as ``(n, p)`` draws of one generator.

    ``p = max(1, _PANEL_VALUES // n)`` and the last draw is narrower, so the samples are fixed
    by ``(seed, n, count)``, and a count of at most p is one ``(n, count)`` draw.
    """
    rng = np.random.default_rng(seed)
    p = max(1, _PANEL_VALUES // n)
    for start in range(0, count, p):
        yield rng.standard_normal((n, min(p, count - start)))


def brute_force_max(stack, samples, seed):
    """Sampled lower bound for the stacked objective over the unit sphere.

    Evaluates ``sum_i ||A_i x||^2`` at ``samples`` uniformly distributed unit
    vectors (normalized Gaussian draws of ``_gaussian_panels(seed, n, samples)``)
    and returns the maximum.  The value never exceeds the true maximum; it is
    a desk-scale oracle, so the ambient dimension is capped at 10.  Memory is one
    draw and its products, whatever ``samples`` is.  The stack is sampled rescaled as in
    :func:`gsv_solve` and the value scaled back, so it is finite wherever lambda_max is.
    Raises DimensionTooLarge past that cap, and ArgumentOutOfRange unless ``samples`` and
    ``seed`` are whole numbers within the float64 range (see ``_whole``), ``samples`` at least 1
    and ``seed`` at least 0.
    """
    stack = as_stack(stack)
    n = stack.ncols
    if n > _ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"sampling oracle supports n <= {_ORACLE_MAX_DIM}, got {n}")
    samples = _whole(samples, "samples")
    if samples < 1:
        raise ArgumentOutOfRange(f"samples must be at least 1, got {samples}")
    seed = _whole(seed, "seed")
    if seed < 0:
        raise ArgumentOutOfRange(f"seed must be at least 0, got {seed}")
    mats, e = _rescaled(stack.mats, stack.peak)
    # Row-compress the stacked matrix through its isometric QR factor:
    # ||vstack(A) x|| == ||R x||, so per-sample cost drops to O(n^2).
    compressed = np.linalg.qr(np.vstack(mats), mode="r")
    best = -np.inf
    for x in _gaussian_panels(seed, n, samples):
        y = compressed @ x
        num = np.einsum("ij,ij->j", y, y)
        den = np.einsum("ij,ij->j", x, x)
        del x, y  # released before the generator draws the next panel
        if not den.all():  # measure-zero draw; drop rather than divide
            num, den = num[den > 0.0], den[den > 0.0]
            if num.size == 0:
                continue
        best = max(best, float((num / den).max()))
    return _scaled_back(best, 0.0, e)[0]
