"""Exception hierarchy shared by all gsvkit modules.

Every error raised on a documented contract violation derives from :class:`GsvError`; no
gsvkit check raises a bare ``ValueError``.  Each class carries the CLI exit status of its
failure kind in ``exit_code``, so the CLI maps errors to exit codes without string matching
or a list of classes.  Each subclass names a failure that some gsvkit function raises: a
class that nothing raises is not kept here.
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
    """Matrix or vector dimensions are inconsistent with the operation; ``index`` is the 0-based
    input position of the matrix at fault, where one is (a WeightedProblem's R follows its fields)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


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


class DimensionTooLarge(GsvError):
    """The sampling oracle only supports small ambient dimensions."""


class ArgumentOutOfRange(GsvError, ValueError):
    """A scalar argument lies outside its documented range; a ValueError too, as numpy's are."""


class ParseError(GsvError):
    """A data file could not be parsed; carries file and line context."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = int(line)


# ---------------------------------------------------------------------------
# solver errors


class ConvergenceFailure(GsvError):
    """A solve failed: a LAPACK routine's own error, or a post-condition its answer violates."""
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


class _NamesColumn:
    """Shared constructor: the message (else the class's ``_default``) names ``column`` if given."""

    def __init__(self, message=None, column=None):
        message = self._default if message is None else message
        if column is not None:
            message = f"{message} (column {column!r})"
        super().__init__(message)
        self.column = column


class ConstantVector(_NamesColumn, GsvError):
    """A vector (or column) has no variability, so it cannot be standardized."""
    exit_code = 5
    _default = "vector is constant"


class TooShort(GsvError):
    """Standardization needs at least two rows."""


class NotStandardized(_NamesColumn, GsvError):
    """Input was required to be column-standardized (zero mean, unit population std)."""
    _default = "vector is not standardized"


# ---------------------------------------------------------------------------
# probability model errors


class NegativeProbability(GsvError):
    """A probability entry is negative."""
    exit_code = 6


class MassExceedsOne(GsvError):
    """A probability exceeds one, or the probabilities sum to more than one beyond tolerance."""
    exit_code = 6
