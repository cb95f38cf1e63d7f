"""Statistically normalized vectors, Lagrangian critical systems, and score ranking.

A vector is statistically normalized when its mean is zero and its population
standard deviation (divisor m) is one; such vectors live on the radius-sqrt(m)
sphere intersected with the zero-sum hyperplane.  This module provides the
standardization transform, membership checks, residuals of the
sphere-constrained Lagrangian critical system, paired-vector identities, and
the multivariate ranking pipeline built on the supporting-vector solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .spectra_core import _frozen_array, _peak, _symmetrized

_STANDARDIZED_ATOL = 1e-12
_SNV_RTOL = 1e-10


def _moments(x):
    """Mean and population std of a 1-D float array, computed without overflow.

    Works on ``y = x * 2**-e``, the power of two putting ``max|x|`` in
    [0.5, 1), and returns ``(y - mean_y, std_y, mean, std, max|x|)``, where
    ``x``'s own ``mean`` and ``std`` are ``mean_y * 2**e`` and ``std_y * 2**e``.
    Scaling by a power of two is exact, so in range these equal the unscaled
    values bit for bit.  Raises NonFiniteInput for a NaN or inf entry.
    """
    peak = _peak(x, "vector contains non-finite entries")
    e = math.frexp(peak)[1]
    y = np.ldexp(x, -e)
    mean = float(np.mean(y))
    centered = y - mean
    std = float(np.sqrt(np.mean(centered**2)))
    return centered, std, math.ldexp(mean, e), math.ldexp(std, e), peak


def _standardized(x):
    """``(values, mean, std)`` of a 1-D float array with m >= 2; see ``standardize``."""
    centered, std, mu, sigma, peak = _moments(x)
    if sigma <= 1e-14 * peak:
        raise ConstantVector()
    if x.shape[0] == 2:
        # the only standardized vectors in R^2 are +-(1, -1); avoid round-off
        values = np.array([1.0, -1.0]) if x[0] > x[1] else np.array([-1.0, 1.0])
    else:
        values = centered / std
    return values, mu, sigma


@dataclass(frozen=True)
class StatVector:
    """Real vector together with its own mean and population standard deviation."""

    values: np.ndarray
    mean: float = field(init=False)
    std: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        _, _, mean, std, _ = _moments(v)
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def __len__(self):
        return self.values.shape[0]

    @property
    def standardized(self):
        """True when the stored values have zero mean and unit population std."""
        return (
            len(self) >= 2
            and abs(self.mean) <= _STANDARDIZED_ATOL
            and abs(self.std - 1.0) <= _STANDARDIZED_ATOL
        )


def standardize(x):
    """Center and scale ``x`` to zero mean and unit population standard deviation.

    Uses the population convention (divisor m), so the output has squared
    Euclidean norm m.  The two-point case is computed exactly: it always
    standardizes to ``(1, -1)`` or ``(-1, 1)``.

    Raises TooShort for m < 2 and ConstantVector when the standard deviation
    vanishes relative to the vector's own magnitude (at most
    ``1e-14 * max|x|``), so the verdict does not depend on the input's units.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    m = x.shape[0]
    if m < 2:
        raise TooShort(f"standardization needs m >= 2, got m={m}")
    return StatVector(_standardized(x)[0])


def is_snv(x):
    """Membership test for statistically normalized vectors.

    True iff ``|sum x_i| <= 1e-10 * m`` and ``|sum x_i^2 - m| <= 1e-10 * m``,
    i.e. x lies on the radius-sqrt(m) sphere inside the zero-sum hyperplane.
    Total over finite vectors; meaningful for m >= 2.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    m = x.shape[0]
    return bool(
        abs(float(np.sum(x))) <= _SNV_RTOL * m
        and abs(float(np.sum(x * x)) - m) <= _SNV_RTOL * m
    )


@dataclass(frozen=True)
class StatMatrix:
    """Column-standardized data matrix with provenance of the raw means and stds."""

    data: np.ndarray
    col_means: np.ndarray
    col_stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))
        object.__setattr__(self, "col_means", _frozen_array(self.col_means))
        object.__setattr__(self, "col_stds", _frozen_array(self.col_stds))

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def from_raw(cls, raw, columns=None):
        """Standardize every column of ``raw``, recording its mean and std.

        ``columns`` optionally names the columns for error reporting;
        ConstantVector is raised naming the offending column.
        """
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D data matrix, got shape {raw.shape}")
        m, n = raw.shape
        if m < 2:
            raise TooShort(f"standardization needs m >= 2 rows, got m={m}")
        data = np.empty_like(raw)
        means = np.empty(n)
        stds = np.empty(n)
        for j in range(n):
            name = columns[j] if columns is not None else j
            try:
                data[:, j], means[j], stds[j] = _standardized(raw[:, j])
            except ConstantVector:
                raise ConstantVector(column=name) from None
        return cls(data, means, stds)

    @classmethod
    def from_standardized(cls, data):
        """Wrap data whose columns are already standardized; validates each column."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D data matrix, got shape {data.shape}")
        n = data.shape[1]
        for j in range(n):
            if not StatVector(data[:, j]).standardized:
                raise NotStandardized(f"column {j} is not standardized")
        return cls(data, np.zeros(n), np.ones(n))


@dataclass(frozen=True)
class CriticalSystem:
    """Coefficients of the sphere-constrained Lagrangian critical system.

    The stationarity equations place ``2 * lam`` on the diagonal and the
    symmetric couplings ``c_jk`` off the diagonal; the diagonal of ``coeffs``
    is unused and stored as zero.
    """

    coeffs: np.ndarray
    lam: float

    def __post_init__(self):
        c = _symmetrized(self.coeffs, "coefficient matrix")  # fresh, filled and frozen in place
        np.fill_diagonal(c, 0.0)
        c.flags.writeable = False
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
    x = np.asarray(x, dtype=float).reshape(-1)
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
    score = best row).  A score total within round-off of zero keeps the
    solver's deterministic orientation.  Returns ``(scores, solution)``.
    """
    if not isinstance(m, StatMatrix):
        raise TypeError("score_rows expects a StatMatrix")
    rows, cols = m.shape
    if rows <= cols:
        raise ShapeMismatch(f"need more rows than columns, got {rows} x {cols}")
    solution = gsv_solve([m.data], gap_rtol=gap_rtol)
    scores = m.data @ solution.basis[:, 0]
    total = float(np.sum(scores))
    if total < -1e-12 * max(1.0, float(np.sum(np.abs(scores)))):
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
    ``|x . y| <= m`` (within 1e-10 * m) and ``formula_gap`` is the defect of
    the identity ``x . y = (||x + y||^2 - 2m) / 2``.
    """
    if not isinstance(x, StatVector) or not isinstance(y, StatVector):
        raise TypeError("snv_pair_identities expects StatVector operands")
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    if not (x.standardized and y.standardized):
        raise NotStandardized("both vectors must be standardized")
    m = len(x)
    dot = float(x.values @ y.values)
    bound_ok = abs(dot) <= m + 1e-10 * m
    formula = (float(np.sum((x.values + y.values) ** 2)) - 2.0 * m) / 2.0
    return dot, bound_ok, abs(dot - formula)
