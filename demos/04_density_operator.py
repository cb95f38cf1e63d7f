#!/usr/bin/env python3
"""Truncated probability density operator: norm, trace, supporting state.

A mixed state assigns probability rho_n to the n-th basis state; the density
operator scales coordinate n by rho_n.  Its operator norm is the largest
probability, attained at the most likely state, and the truncation at N
states drops an explicit tail mass.
"""

import numpy as np

from gsvkit import (
    DensityModel,
    check_positivity_chain,
    density_norm,
    density_trace,
    joint_magnitude_state,
)

# geometric mixture rho_n = 2^-n truncated at N = 30
model = DensityModel(0.5 ** np.arange(1, 31))
norm, support = density_norm(model)

print("halving mixture, 30 states")
print("  operator norm   ", norm)
print("  supporting state", support, "(the most probable state)")
print("  trace           ", density_trace(model))
print("  truncation tail ", model.tail)

# positivity chain D >= D^2 >= 0, decided exactly: it holds iff every rho_n lies in [0, 1]
print("  D >= D^2 >= 0   ", check_positivity_chain(model))

# truncating further moves mass into the tail
short = model.truncated(10)
print("\ntruncated at 10 states: trace", density_trace(short), "tail", short.tail)

# --- jointly optimal pure state for several observables ---------------------
# for symmetric operators T, the same machinery finds the single pure state
# maximizing the summed squared magnitudes
ops = [np.diag([1.0, 2.0, 0.5]), np.diag([2.0, 1.0, 0.5])]
joint = joint_magnitude_state(ops)
print("\ntwo diagonal observables")
print("  joint maximum   ", joint.lambda_max)
print("  multiplicity    ", joint.multiplicity)
print("  pure state basis\n", joint.basis)
