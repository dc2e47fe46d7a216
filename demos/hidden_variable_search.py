"""
How close can a hidden-variable model get?
==========================================

A local model draws a latent value, then answers each detector from its own
response table.  Two numerical probes of the entangled target:

1. a quadrature witness showing that no square-integrable response profile
   reproduces the correlation (its amplitude would have to exceed 1), and
2. a direct search for the model minimizing the worst cell deviation m.
"""

import math

from bellmodel import (
    TSIRELSON_ANGLES,
    DetectorAngle,
    fourier_witness_check,
    lhv_predicted_probs,
    m_separability_search,
)

witness = fourier_witness_check(grid_size=10_000)
print("quadrature witness of the required response profile:")
print("  first moment  |.| =", witness.first_moment_abs)
print("  second moment |.| =", witness.second_moment_abs)
print("  power             =", witness.power, "= pi/2 =", math.pi / 2)
print("  amplitude max     =", witness.response_amplitude_max, "(sqrt(2) > 1)")
print("  contradiction     =", witness.contradiction)
print()

# 16 latent points cover the support of the optimal mixture of deterministic
# strategies (8 of them here), so the exact LP optimum comes back directly
result = m_separability_search(TSIRELSON_ANGLES, grid_size=16, restarts=8, seed=7)
bound = (2 * math.sqrt(2) - 2) / 16
print("best worst-cell deviation m_hat =", result.m_hat)
print("certified lower bound (LP dual) =", result.lower_bound)
print("gap m_hat - lower bound         =", result.gap)
print("analytic lower bound            =", bound)
print()

# the returned model is inspectable: its table sits m_hat away from the target
model = result.model
print("latent points:", model.size)
print("predicted column at setting pair (a0, b0):")
for xy, p in lhv_predicted_probs(model, 0, 0).items():
    print(f"  P{xy} = {p:.6f}")
print()

# coarser latent grids cannot do better, and refining never hurts
for grid in (2, 4, 8):
    r = m_separability_search(TSIRELSON_ANGLES, grid_size=grid, restarts=2, seed=3)
    print(f"grid {grid:2d}: m_hat = {r.m_hat:.12f}  gap to the bound = {r.gap:.3e}")
print()

# a separable target is matched exactly
flat_angles = tuple(DetectorAngle(f * math.pi) for f in (0.0, 0.5, 0.25, 0.75))
flat = m_separability_search(flat_angles, grid_size=4, restarts=2, seed=0)
print("separable target m_hat =", flat.m_hat)
