"""gsvkit: exact unit-sphere maximizers of summed squared matrix norms.

The core solver computes the generalized supporting vectors of a family of
real matrices A_1..A_k — the unit vectors maximizing
``sum_i ||A_i x||^2`` — via the maximal eigenpair of the Gram sum
``sum_i A_i^T A_i``, together with a Cholesky-whitened solver for quadratic
energy constraints, and application pipelines for multivariate ranking and
truncated probability density operators.
"""

from . import errors
from .density_model import (DensityModel, check_positivity_chain, density_norm, density_trace,
                            joint_magnitude_state)
from .gsv_solver import (GsvSolution, OperatorStack, WeightedProblem, brute_force_max, gsv_solve,
                         objective_value, weighted_gsv_solve)
from .spectra_core import fix_column_signs
from .stat_norm import StatMatrix, is_snv, rank_by_score, score_rows

__version__ = "0.1.0"

__all__ = [
    "DensityModel",
    "GsvSolution",
    "OperatorStack",
    "StatMatrix",
    "WeightedProblem",
    "brute_force_max",
    "check_positivity_chain",
    "density_norm",
    "density_trace",
    "errors",
    "fix_column_signs",
    "gsv_solve",
    "is_snv",
    "joint_magnitude_state",
    "objective_value",
    "rank_by_score",
    "score_rows",
    "weighted_gsv_solve",
]
