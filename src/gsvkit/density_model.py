"""Truncated probability-density-operator model over an orthonormal state family.

The operator acts diagonally in the state basis, scaling the k-th coordinate
by the probability rho_k.  Truncating the convex probability series at N
states leaves an explicit ``tail`` mass; the operator norm, trace, supporting
state, and the positivity chain ``D >= D^2 >= 0`` are all computable exactly
in this diagonal representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentOutOfRange, MassExceedsOne, NegativeProbability, ShapeMismatch
from .gsv_solver import gsv_solve
from .spectra_core import _peak, _read_only, _symmetrized, _vector, _whole

_MASS_ATOL = 1e-12


@dataclass(frozen=True)
class DensityModel:
    """Real, finite probabilities (rho_1 ... rho_N) in [0, 1], summing to at most 1 (within
    1e-12), a read-only view of a caller's C-ordered float64 array (do not write into it while
    in use) or of its one conversion; the remainder ``1 - sum`` is the recorded ``tail`` mass.
    Raises ComplexInput, ShapeMismatch (not a nonempty 1-D vector), NonFiniteInput,
    NegativeProbability or MassExceedsOne."""

    probs: np.ndarray
    tail: float = field(init=False)

    def __post_init__(self):
        message = "probability vector is complex"
        p = _read_only(_vector(self.probs, message, order="C"))
        if p.shape[0] < 1:
            raise ShapeMismatch("at least one probability is required")
        _peak(p, "probabilities contain non-finite entries")
        if np.any(p < 0.0):
            raise NegativeProbability(f"negative probability at index {int(np.argmin(p)) + 1}")
        if np.any(p > 1.0):
            raise MassExceedsOne(f"probability above 1 at index {int(np.argmax(p)) + 1}")
        total = float(np.sum(p))
        if total > 1.0 + _MASS_ATOL:
            raise MassExceedsOne(f"probabilities sum to {total!r} > 1")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "tail", max(0.0, 1.0 - total))

    @property
    def n_states(self):
        return self.probs.shape[0]

    def truncated(self, k):
        """The first ``k`` states, the rest in the tail, a view of this model's array;
        ArgumentOutOfRange unless ``k`` is a whole number in [1, N]."""
        k = _whole(k, "truncation index")
        if not 1 <= k <= self.n_states:
            raise ArgumentOutOfRange(f"truncation index must lie in [1, {self.n_states}], got {k}")
        return DensityModel(self.probs[:k])


def density_norm(d):
    """Operator norm and supporting state of the diagonal model.

    Returns ``(norm, support_index)`` where ``norm = max rho_n`` and
    ``support_index`` is the smallest 1-based index attaining it; the
    corresponding unit state is a supporting vector of the operator (the
    state of highest probability).
    """
    idx = int(np.argmax(d.probs))
    return float(d.probs[idx]), idx + 1


def density_trace(d):
    """Trace of the truncated model, ``sum rho_n = 1 - tail``."""
    return float(np.sum(d.probs))


def chain_margin(d):
    """Exact margin ``min_n (rho_n - rho_n^2)`` of ``D >= D^2``; never negative, as every
    rho lies in [0, 1], where ``fl(rho * rho) <= rho`` (rounding is monotone, rho exact)."""
    return float(np.min(d.probs - d.probs * d.probs))


def check_positivity_chain(d):
    """Decide ``D >= D^2 >= 0`` exactly: True iff :func:`chain_margin` is at least 0.

    The chain holds iff every ``0 <= rho_n <= 1``, which ``DensityModel`` enforces.
    """
    return chain_margin(d) >= 0.0


def joint_magnitude_state(ops):
    """Pure state jointly maximizing the summed squared actions of observables.

    ``ops`` is a stack of symmetric matrices (finite truncations of
    selfadjoint observables); for symmetric T the Gram term T^T T equals T^2,
    so the solve delegates directly to :func:`gsv_solve`.

    Each observable is symmetrized under the package's one symmetry rule.
    Raises NotSymmetric for a non-square matrix, or when the relative
    Frobenius asymmetry ``||T - T^T|| / ||T||`` exceeds 1e-10, and
    NonFiniteInput for a NaN or inf entry.
    """
    return gsv_solve([_symmetrized(t, f"observable {k}") for k, t in enumerate(ops)])
