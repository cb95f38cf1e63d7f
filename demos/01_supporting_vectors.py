#!/usr/bin/env python3
"""Tour of the core solver: exact maximizers of sum_i ||A_i x||^2 on the unit sphere."""

import numpy as np

from gsvkit import brute_force_max, fix_column_signs, gsv_solve, objective_value

# --- a stack where the answer is obvious -----------------------------------
# A1 picks out the first coordinate, A2 doubles the second.  The Gram sum is
# diag(1, 4), so the best unit vector is e2 with objective 4.
stack = [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])]
sol = gsv_solve(stack)
print("diagonal stack")
print("  lambda_max        ", sol.lambda_max)
print("  maximizer         ", sol.basis[:, 0])
print("  objective at v    ", sol.objective_check)

# --- a random stack, checked against blind sampling ------------------------
rng = np.random.default_rng(0)
stack = [rng.normal(size=(6, 4)) for _ in range(3)]
sol = gsv_solve(stack)
lower = brute_force_max(stack, samples=10**6, seed=0)
print("\nrandom 3-matrix stack (6x4 each)")
print("  lambda_max        ", sol.lambda_max)
print("  sampled lower bound", lower)
print("  gap               ", sol.lambda_max - lower)

# every basis column attains the maximum
for j in range(sol.multiplicity):
    print(f"  objective at column {j}:", objective_value(stack, sol.basis[:, j]))

# --- the two-equal-norm-column closed form ----------------------------------
# For a single m x 2 matrix whose columns a1, a2 share their norm, the maximum
# is ||a1||^2 + |a1 . a2|, attained at (sign(a1 . a2), 1) / sqrt(2): a
# particular case the general solver reproduces.
a = np.column_stack([rng.normal(size=8), rng.normal(size=8)])
a[:, 1] *= np.linalg.norm(a[:, 0]) / np.linalg.norm(a[:, 1])
dot = a[:, 0] @ a[:, 1]
closed_lambda = np.linalg.norm(a[:, 0]) ** 2 + abs(dot)
closed_vector = fix_column_signs(np.array([np.sign(dot), 1.0]) * (np.sqrt(2.0) / 2.0))
eig = gsv_solve([a])
print("\nequal-norm two-column matrix")
print("  closed-form lambda", closed_lambda)
print("  eigen lambda      ", eig.lambda_max)
print("  closed-form vector", closed_vector)
print("  eigen vector      ", eig.basis[:, 0])

# orthogonal columns: every unit vector is optimal
whole = gsv_solve([np.eye(2)])
print("\northogonal columns -> whole sphere optimal:", whole.whole_sphere)
