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

from .errors import MassExceedsOne, NegativeProbability, ShapeMismatch
from .gsv_solver import gsv_solve
from .spectra_core import _frozen_array, _peak, _real, _symmetrized

_MASS_ATOL = 1e-12
_CHAIN_CHUNK = 1 << 14
_CHAIN_PANEL = 1 << 16


@dataclass(frozen=True)
class DensityModel:
    """Real probabilities (rho_1 ... rho_N), a read-only copy, and the tail; see build_density."""

    probs: np.ndarray
    tail: float = field(init=False)

    def __post_init__(self):
        p = _frozen_array(self.probs, "probability vector is complex").reshape(-1)  # read-only view
        if p.shape[0] < 1:
            raise ValueError("at least one probability is required")
        _peak(p, "probabilities contain non-finite entries")
        if np.any(p < 0.0):
            raise NegativeProbability(f"negative probability at index {int(np.argmin(p)) + 1}")
        total = float(np.sum(p))
        if total > 1.0 + _MASS_ATOL:
            raise MassExceedsOne(f"probabilities sum to {total!r} > 1")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "tail", max(0.0, 1.0 - total))

    @property
    def n_states(self):
        return self.probs.shape[0]

    def truncated(self, k):
        """Model keeping only the first ``k`` states; the rest joins the tail."""
        if not 1 <= k <= self.n_states:
            raise ValueError(f"truncation index must lie in [1, {self.n_states}]")
        return DensityModel(self.probs[:k])

    def apply(self, x):
        """Diagonal action: scale coordinate k by rho_k.  Raises ComplexInput or ShapeMismatch."""
        x = _real(x, "vector is complex").reshape(-1)
        if x.shape[0] != self.n_states:
            raise ShapeMismatch(f"vector length {x.shape[0]} != number of states {self.n_states}")
        return self.probs * x


def build_density(probs):
    """Build a truncated density model from real, finite, nonnegative probabilities.

    They must sum to at most 1 (within 1e-12); the remainder ``1 - sum`` becomes the recorded
    tail mass.  Raises ComplexInput, NonFiniteInput, NegativeProbability or MassExceedsOne.
    """
    return DensityModel(probs)


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


def check_positivity_chain(d, trials, seed):
    """Verify ``D >= D^2 >= 0`` on sampled unit vectors.

    Draws ``trials`` seeded Gaussian-normalized unit vectors x and checks the
    diagonal quadratic forms ``sum rho_n x_n^2 >= sum rho_n^2 x_n^2 >= -1e-12``
    for every sample.  Returns True iff the chain holds throughout.

    Each chunk of up to ``_CHAIN_CHUNK`` samples is the ``(n, chunk)`` Gaussian
    array of one ``standard_normal`` call, drawn in row panels of about
    ``_CHAIN_PANEL`` values into one reused buffer: numpy fills C-order arrays
    in sequence, so the panels hold the same draws in bounded memory.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = d.n_states
    # rows of the per-sample sums: |x|^2, rho . x^2 and rho^2 . x^2
    weights = np.stack([np.ones(n), d.probs, d.probs * d.probs])
    buf = np.empty(min(n * min(trials, _CHAIN_CHUNK), _CHAIN_PANEL))
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, _CHAIN_CHUNK)
        rows = _CHAIN_PANEL // chunk
        sums = np.zeros((3, chunk))
        for start in range(0, n, rows):
            panel = buf[: min(rows, n - start) * chunk].reshape(-1, chunk)
            rng.standard_normal(out=panel)
            np.square(panel, out=panel)
            sums += weights[:, start : start + panel.shape[0]] @ panel
        sq_norms, first, second = sums
        ok = sq_norms > 0.0
        first = first[ok] / sq_norms[ok]
        second = second[ok] / sq_norms[ok]
        if not (np.all(first >= second) and np.all(second >= -1e-12)):
            return False
        remaining -= chunk
    return True


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
