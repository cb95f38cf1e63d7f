"""Statistically normalized vectors and the multivariate ranking built on them.

A vector is statistically normalized when its mean is zero and its population
standard deviation (divisor m) is one; such vectors live on the radius-sqrt(m)
sphere intersected with the zero-sum hyperplane.  :func:`is_snv` is the one
membership rule, which the ``StatMatrix`` constructor applies per column.
``StatMatrix.from_raw`` standardizes a raw table through the solve's one rescale
rule, and the ranking pipeline is built on the supporting-vector solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantVector, NotStandardized, ShapeMismatch, TooShort
from .gsv_solver import gsv_solve
from .spectra_core import _peak, _read_only, _real, _rescaled, _vector

# The published membership bound: |sum x| and |sum x^2 - m| at most _SNV_RTOL * m.
_SNV_RTOL = 1e-10


def _standardized(x):
    """The standardized values of a 1-D float array with m >= 2; see ``StatMatrix.from_raw``.

    The moments are taken of ``_rescaled``'s ``y = 2^-e x`` (x itself inside the
    window), so nothing overflows; scaling by a power of two is exact, so the values
    are x's own.  Raises NonFiniteInput for a NaN or inf entry.
    """
    peak = _peak(x, "vector contains non-finite entries")
    (y,), e = _rescaled((x,), peak)
    centered = y - float(np.mean(y))
    # a second pass removes the first mean's rounding, about eps |mean| / std in the values:
    # a column whose spread is small next to its mean would otherwise miss is_snv's bound
    centered -= np.mean(centered)
    std = float(np.sqrt(np.mean(centered**2)))
    if math.ldexp(std, e) <= 1e-14 * peak:
        raise ConstantVector()
    if x.shape[0] == 2:
        # the only standardized vectors in R^2 are +-(1, -1); avoid round-off
        return np.array([1.0, -1.0]) if x[0] > x[1] else np.array([-1.0, 1.0])
    return centered / std


def is_snv(x):
    """Membership test for statistically normalized vectors: the package's one rule.

    True iff ``m >= 2``, ``|sum x_i| <= 1e-10 * m`` and ``|sum x_i^2 - m| <= 1e-10 * m``,
    i.e. x lies on the radius-sqrt(m) sphere inside the zero-sum hyperplane.
    False for any vector holding a NaN or inf; a complex x raises ComplexInput, and an x
    that is not 1-D ShapeMismatch.
    """
    x = _vector(x, "vector is complex")
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
    """Column-standardized data, a read-only view of a caller's C-ordered float64 array (do not
    write into it while in use) or of its one conversion; ``from_raw`` standardizes a raw table.

    The constructor applies :func:`is_snv` to every column of ``data``: NotStandardized names
    the first column off the rule; else ComplexInput, ShapeMismatch (not 2-D) or NonFiniteInput.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _read_only(_real(self.data, "data matrix is complex", order="C"))
        if data.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D data matrix, got shape {data.shape}")
        _peak(data, "data matrix contains non-finite entries")
        for j in range(data.shape[1]):
            if not is_snv(data[:, j]):
                raise NotStandardized("data matrix is not standardized", column=j)
        object.__setattr__(self, "data", data)

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def from_raw(cls, raw, columns=None):
        """Center and scale every column of ``raw`` to zero mean and unit population std.

        The divisor is m, so each column has squared norm m; a two-point column comes out exactly
        ``(1, -1)`` or ``(-1, 1)``.  Raises ComplexInput, ShapeMismatch unless ``raw`` is 2-D,
        TooShort for m < 2 rows, NonFiniteInput, and ConstantVector when a column's std is at most
        ``1e-14 * max|column|``, so the verdict does not depend on the input's units.  ``columns``,
        one name per column (else ShapeMismatch), names the column in a ConstantVector, or in a
        NotStandardized should a standardized column still miss :func:`is_snv`.
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
        data = np.empty(raw.shape)  # C-ordered, so the constructor keeps it without a copy
        for j in range(n):
            try:
                data[:, j] = _standardized(raw[:, j])
            except ConstantVector:
                raise ConstantVector(column=names[j]) from None
        try:
            return cls(data)
        except NotStandardized as err:
            raise NotStandardized("standardizing missed is_snv's bound",
                                  column=names[err.column]) from None


def score_rows(m):
    """Supporting-vector scores ``M x`` for the rows of a standardized matrix.

    x maximizes ``||M x||^2`` over unit vectors: the solver's first basis column, whose first
    weight of largest magnitude (ties within 1e-12 relative) is positive.  The total ``1^T M x``
    orients nothing, as standardized columns sum to zero.  Returns ``(scores, solution)``.
    """
    if not isinstance(m, StatMatrix):
        raise TypeError("score_rows expects a StatMatrix")
    rows, cols = m.shape
    if rows <= cols:
        raise ShapeMismatch(f"need more rows than columns, got {rows} x {cols}")
    solution = gsv_solve([m.data])
    return m.data @ solution.basis[:, 0], solution


def rank_by_score(m):
    """Rank the rows of a standardized matrix by their supporting-vector scores.

    Returns ``[(row_index, score), ...]`` sorted by descending score with
    ties broken by ascending original index.
    """
    scores, _ = score_rows(m)
    order = np.argsort(-scores, kind="stable")
    return [(int(i), float(scores[i])) for i in order]

