"""Exception hierarchy shared by all gsvkit modules.

Every error raised on a documented contract violation derives from
:class:`GsvError`.  Each class carries the CLI exit status of its failure
kind in ``exit_code``, so the CLI maps errors to exit codes without string
matching or a list of classes.
"""

from __future__ import annotations

import copyreg


class GsvError(Exception):
    """Base class for all gsvkit contract violations; ``exit_code`` 2 is an input error."""
    exit_code = 2

    def __init__(self, message):  # one message: no stray argument reaches the CLI's line
        super().__init__(message)

    def __reduce__(self):  # unpickle from args and attributes, not a subclass __init__
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


# ---------------------------------------------------------------------------
# input / construction errors


class EmptyStack(GsvError):
    """An operator stack contained no matrices."""


class ShapeMismatch(GsvError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class NonFiniteInput(GsvError):
    """An input array contains NaN or infinite entries."""


class ComplexInput(GsvError):
    """An input array is complex: the solvers are real, and a float cast would drop its imaginary part."""


class MaximumOverflow(GsvError):
    """The maximum of a finite input, ``sum_i ||A_i x||^2``, exceeds the float64 range."""


class AllZero(GsvError):
    """Every matrix in the stack is identically zero; the maximization is degenerate."""
    exit_code = 3


class NotSymmetric(GsvError):
    """A matrix required to be symmetric deviates beyond round-off tolerance."""


class WrongShape(GsvError):
    """A matrix does not have the shape required by a closed-form solver."""


class ColumnNormMismatch(GsvError):
    """The two columns do not share the same Euclidean norm."""


class DimensionTooLarge(GsvError):
    """The sampling oracle only supports small ambient dimensions."""


class ZeroVector(GsvError):
    """A nonzero vector was required."""


class ParseError(GsvError):
    """A data file could not be parsed; carries file and line context."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = int(line)


# ---------------------------------------------------------------------------
# solver errors


class ConvergenceFailure(GsvError):
    """The eigensolve failed: the backend's own error message, or a violated post-condition."""
    exit_code = 3


class NotSPD(GsvError):
    """Cholesky factorization failed; ``pivot`` is the 1-based failing pivot index."""
    exit_code = 4

    def __init__(self, pivot):
        super().__init__(
            f"matrix is not symmetric positive definite (Cholesky pivot {pivot} failed)"
        )
        self.pivot = int(pivot)


# ---------------------------------------------------------------------------
# statistics errors


class ConstantVector(GsvError):
    """A vector (or column) has no variability, so it cannot be standardized."""
    exit_code = 5

    def __init__(self, message="vector is constant", column=None):
        if column is not None:
            message = f"{message} (column {column!r})"
        super().__init__(message)
        self.column = column


class TooShort(GsvError):
    """Standardization needs at least two components."""


class NotStandardized(GsvError):
    """Input was required to be column-standardized (zero mean, unit population std)."""

    def __init__(self, message="vector is not standardized", column=None):
        if column is not None:
            message = f"{message} (column {column!r})"
        super().__init__(message)
        self.column = column


class LengthMismatch(GsvError):
    """Two vectors that must share a length do not."""


# ---------------------------------------------------------------------------
# probability model errors


class NegativeProbability(GsvError):
    """A probability entry is negative."""
    exit_code = 6


class MassExceedsOne(GsvError):
    """Probabilities sum to more than one beyond tolerance."""
    exit_code = 6
