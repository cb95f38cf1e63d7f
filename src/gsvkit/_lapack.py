"""The package's one LAPACK binding, read by attribute so a test's fake reaches every caller.

``eigh`` is ``numpy.linalg.eigh``'s ``dsyevd`` kernel, ``eigh_lo``, under eigh's floating-point
state and with its bits but without its checks and casts (``numpy.linalg.eigh`` itself where the
kernel cannot be imported).  ``dsyevr`` (MRRR), ``dpotrf`` and ``dtrtrs`` are scipy's f2py
wrappers, bound on first use: ``import scipy.linalg`` takes ~0.2 s, which small solves never pay.
"""

import numpy as np

from .errors import ConvergenceFailure

try:  # the gufunc numpy.linalg.eigh calls, without the wrapper's checks and casts
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:  # a numpy that keeps it elsewhere: the wrapper, with the same bits
    eigh = np.linalg.eigh
else:
    @np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")  # eigh's state
    def eigh(s):
        """``numpy.linalg.eigh(s)`` of a square float matrix, bit for bit and error for error."""
        try:
            return _eigh_lo(s, signature="d->dd")
        except FloatingPointError:  # the kernel's invalid flag, which numpy.linalg.eigh maps so
            raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


def __getattr__(name):
    """Bind scipy's three routines at the first lookup of any of them (PEP 562)."""
    if name not in ("dsyevr", "dpotrf", "dtrtrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack

    globals().update(dsyevr=lapack.dsyevr, dpotrf=lapack.dpotrf, dtrtrs=lapack.dtrtrs)
    return globals()[name]


def check(info, what, routine, short=False):
    """ConvergenceFailure ``<what> failed: <routine> info = <info>`` if info or ``short`` is set."""
    if info or short:
        raise ConvergenceFailure(f"{what} failed: {routine} info = {info}")
