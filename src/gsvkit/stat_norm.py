"""Statistically normalized vectors, Lagrangian critical systems, and score ranking.

A vector is statistically normalized when its mean is zero and its population
standard deviation (divisor m) is one; such vectors live on the radius-sqrt(m)
sphere intersected with the zero-sum hyperplane.  :func:`is_snv` is the one
membership rule: ``StatVector.standardized``, the ``StatMatrix`` constructor (per
column) and :func:`snv_pair_identities` all apply it.  This module also provides the
standardization transform, which scales through the solve's one rescale rule,
residuals of the sphere-constrained Lagrangian critical system, and the
multivariate ranking pipeline built on the supporting-vector solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantVector,
    LengthMismatch,
    NotStandardized,
    ShapeMismatch,
    TooShort,
    ZeroVector,
)
from .gsv_solver import gsv_solve
from .spectra_core import _frozen_array, _peak, _real, _rescaled, _symmetrized

# The published membership bound: |sum x| and |sum x^2 - m| at most _SNV_RTOL * m.
_SNV_RTOL = 1e-10


def _standardized(x):
    """``(values, mean, std)`` of a 1-D float array with m >= 2; see ``standardize``.

    The moments are taken of ``_rescaled``'s ``y = 2^-e x`` (x itself inside the
    window), so nothing overflows; scaling by a power of two is exact, so ``mean``
    and ``std`` are x's own.  Raises NonFiniteInput for a NaN or inf entry.
    """
    peak = _peak(x, "vector contains non-finite entries")
    (y,), e = _rescaled((x,), peak)
    mean = float(np.mean(y))
    centered = y - mean
    # a second pass removes the first mean's rounding, about eps |mean| / std in the values:
    # a column whose spread is small next to its mean would otherwise miss is_snv's bound
    centered -= np.mean(centered)
    std = float(np.sqrt(np.mean(centered**2)))
    sigma = math.ldexp(std, e)
    if sigma <= 1e-14 * peak:
        raise ConstantVector()
    if x.shape[0] == 2:
        # the only standardized vectors in R^2 are +-(1, -1); avoid round-off
        values = np.array([1.0, -1.0]) if x[0] > x[1] else np.array([-1.0, 1.0])
    else:
        values = centered / std
    return values, math.ldexp(mean, e), sigma


@dataclass(frozen=True)
class StatVector:
    """Finite real vector, stored as a read-only copy (else ComplexInput, NonFiniteInput)."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values, "vector is complex").reshape(-1)  # a view, read-only too
        _peak(v, "vector contains non-finite entries")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]

    @property
    def standardized(self):
        """True when the stored values are statistically normalized, by :func:`is_snv`."""
        return is_snv(self.values)


def standardize(x):
    """Center and scale ``x`` to zero mean and unit population standard deviation.

    Uses the population convention (divisor m), so the output has squared
    Euclidean norm m.  The two-point case is computed exactly: it always
    standardizes to ``(1, -1)`` or ``(-1, 1)``.

    Raises ComplexInput for a complex x, TooShort for m < 2 and ConstantVector when the
    standard deviation vanishes relative to the vector's own magnitude (at most
    ``1e-14 * max|x|``), so the verdict does not depend on the input's units.
    """
    x = _real(x, "vector is complex").reshape(-1)
    if x.shape[0] < 2:
        raise TooShort(f"standardization needs m >= 2, got m={x.shape[0]}")
    return StatVector(_standardized(x)[0])


def is_snv(x):
    """Membership test for statistically normalized vectors: the package's one rule.

    True iff ``m >= 2``, ``|sum x_i| <= 1e-10 * m`` and ``|sum x_i^2 - m| <= 1e-10 * m``,
    i.e. x lies on the radius-sqrt(m) sphere inside the zero-sum hyperplane.
    False for any vector holding a NaN or inf; a complex x raises ComplexInput.
    """
    x = _real(x, "vector is complex").reshape(-1)
    m = x.shape[0]
    # a huge finite x overflows to inf (or inf - inf to NaN), which fails the rule
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(
            m >= 2
            and abs(float(np.sum(x))) <= _SNV_RTOL * m
            and abs(float(np.sum(x * x)) - m) <= _SNV_RTOL * m
        )


@dataclass(frozen=True)
class StatMatrix:
    """Column-standardized data matrix with provenance of the raw means and stds.

    The constructor applies :func:`is_snv` to every column of ``data``: NotStandardized names
    the first column off the rule; else ComplexInput, ShapeMismatch (not 2-D) or NonFiniteInput.
    """

    data: np.ndarray
    col_means: np.ndarray
    col_stds: np.ndarray

    def __post_init__(self):
        data = _frozen_array(self.data, "data matrix is complex")
        if data.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D data matrix, got shape {data.shape}")
        _peak(data, "data matrix contains non-finite entries")
        for j in range(data.shape[1]):
            if not is_snv(data[:, j]):
                raise NotStandardized("data matrix is not standardized", column=j)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "col_means", _frozen_array(self.col_means, "col_means is complex"))
        object.__setattr__(self, "col_stds", _frozen_array(self.col_stds, "col_stds is complex"))

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def from_raw(cls, raw, columns=None):
        """Standardize every column of ``raw``, recording its mean and std.

        ``columns``, one name per column (else ShapeMismatch), names the column in a ConstantVector,
        or in a NotStandardized should a standardized column still miss :func:`is_snv`.
        """
        raw = _real(raw, "data matrix is complex")
        if raw.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D data matrix, got shape {raw.shape}")
        m, n = raw.shape
        names = range(n) if columns is None else columns
        if len(names) != n:
            raise ShapeMismatch(f"{len(names)} column names for {n} columns")
        if m < 2:
            raise TooShort(f"standardization needs m >= 2 rows, got m={m}")
        data = np.empty_like(raw)
        means, stds = np.empty(n), np.empty(n)
        for j in range(n):
            try:
                data[:, j], means[j], stds[j] = _standardized(raw[:, j])
            except ConstantVector:
                raise ConstantVector(column=names[j]) from None
        try:
            return cls(data, means, stds)
        except NotStandardized as err:
            raise NotStandardized("standardizing missed is_snv's bound",
                                  column=names[err.column]) from None

    @classmethod
    def from_standardized(cls, data):
        """Wrap data whose columns are already standardized: each must pass :func:`is_snv`."""
        cols = np.shape(data)[1:]  # (n,) for a matrix; the constructor rejects any other shape
        return cls(data, np.zeros(cols), np.ones(cols))


@dataclass(frozen=True)
class CriticalSystem:
    """Coefficients of the sphere-constrained Lagrangian critical system.

    The stationarity equations place ``2 * lam`` on the diagonal and the
    symmetric couplings ``c_jk`` off the diagonal; the diagonal of ``coeffs``
    is unused, zeroed before the symmetry gate and stored as zero.
    """

    coeffs: np.ndarray
    lam: float

    def __post_init__(self):
        c = _real(self.coeffs, "coefficient matrix is complex").copy()
        if c.ndim == 2:  # the gate sees the couplings only; the diagonal gets its own scan
            _peak(c.diagonal(), "coefficient matrix contains non-finite entries")
            np.fill_diagonal(c, 0.0)
        c = _symmetrized(c, "coefficient matrix")  # read-only; a view of the copy c if symmetric
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def n(self):
        return self.coeffs.shape[0]

    @classmethod
    def equal_coefficients(cls, n, c, lam):
        """System with every off-diagonal coupling equal to ``c``."""
        coeffs = np.full((n, n), float(c))
        np.fill_diagonal(coeffs, 0.0)
        return cls(coeffs, lam)

    def matrix(self):
        """The critical-system matrix: 2*lam on the diagonal, c_jk off it."""
        m = self.coeffs.copy()
        np.fill_diagonal(m, 2.0 * self.lam)
        return m


def critical_residual(sys, x):
    """Euclidean norm of the stacked critical-system residual at ``x``.

    Stacks the stationarity residual (the system matrix applied to x, which
    must vanish) with the sphere defect ``sum x_j^2 - 1``.
    """
    x = _real(x, "vector is complex").reshape(-1)
    if x.shape[0] != sys.n:
        raise ShapeMismatch(f"vector length {x.shape[0]} != system size {sys.n}")
    if not np.any(x):
        raise ZeroVector("critical residual requires a nonzero vector")
    stationarity = sys.matrix() @ x
    sphere = float(np.sum(x * x)) - 1.0
    return float(np.linalg.norm(np.append(stationarity, sphere)))


def score_rows(m, gap_rtol=1e-10):
    """Oriented supporting-vector scores for the rows of a standardized matrix.

    Solves ``max ||M x||^2`` over unit vectors and orients x so the score
    total ``1^T M x`` is nonnegative (scores predominantly positive, high
    score = best row).  A total within ``1e-12 * sum |s_i|`` of zero, a purely
    relative band, keeps the solver's orientation.  Returns ``(scores, solution)``.
    """
    if not isinstance(m, StatMatrix):
        raise TypeError("score_rows expects a StatMatrix")
    rows, cols = m.shape
    if rows <= cols:
        raise ShapeMismatch(f"need more rows than columns, got {rows} x {cols}")
    solution = gsv_solve([m.data], gap_rtol=gap_rtol)
    scores = m.data @ solution.basis[:, 0]
    total = float(np.sum(scores))
    if total < -1e-12 * float(np.sum(np.abs(scores))):
        scores = -scores
    return scores, solution


def rank_by_score(m, gap_rtol=1e-10):
    """Rank the rows of a standardized matrix by their supporting-vector scores.

    Returns ``[(row_index, score), ...]`` sorted by descending score with
    ties broken by ascending original index.
    """
    scores, _ = score_rows(m, gap_rtol=gap_rtol)
    order = np.argsort(-scores, kind="stable")
    return [(int(i), float(scores[i])) for i in order]


def snv_pair_identities(x, y):
    """Dot-product identities for a pair of statistically normalized vectors.

    Returns ``(dot, bound_ok, formula_gap)`` where ``bound_ok`` checks
    ``|x . y| <= m`` (within is_snv's 1e-10 * m) and ``formula_gap`` is the
    defect of the identity ``x . y = (||x + y||^2 - 2m) / 2``.  Raises
    NotStandardized unless both vectors pass :func:`is_snv`.
    """
    if not isinstance(x, StatVector) or not isinstance(y, StatVector):
        raise TypeError("snv_pair_identities expects StatVector operands")
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    if not (x.standardized and y.standardized):
        raise NotStandardized("both vectors must be standardized")
    m = len(x)
    dot = float(x.values @ y.values)
    bound_ok = abs(dot) <= m + _SNV_RTOL * m
    formula = (float(np.sum((x.values + y.values) ** 2)) - 2.0 * m) / 2.0
    return dot, bound_ok, abs(dot - formula)
