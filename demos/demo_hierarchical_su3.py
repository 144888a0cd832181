"""Hierarchical peel for a three-level system.

The evolution operator of an N-level problem factors into a column factor
U1(z) times a block-diagonal fiber; for block size 1 the fiber corner is a
pure phase and the remaining (N-1)-level block is governed by an effective
(N-1)-level Hamiltonian.  Peeling one level at a time reduces SU(3) to
SU(2) to a phase.  This script runs the peel on a smooth random three-level
Hamiltonian and compares against the brute-force propagator.
"""

import numpy as np

from unitint import compare, hierarchical_solve, propagate, trig_random

h = trig_random(3, seed=42, scale=0.6)
t_end, steps = 2.0, 2000

res = hierarchical_solve(h, t_end, steps)
oracle = propagate(h, t_end, 4 * steps)

cmp = compare(res.U_samples[-1], oracle.U_final)
print(f"endpoint distance to oracle     : {cmp.plain:.3e}")
print(f"  phase-insensitive             : {cmp.phase_insensitive:.3e}")

defect = max(
    np.linalg.norm(U.conj().T @ U - np.eye(3)) for U in res.U_samples[::100]
)
print(f"worst unitarity defect          : {defect:.3e}")

print("\nper-level corner phases at t_end:")
for lvl in range(2):
    print(
        f"  level {lvl}: mu = {res.level_mu[-1, lvl]: .6f}"
        f"  geometric = {res.level_geo[-1, lvl]: .6f}"
        f"  dynamical = {res.level_dyn[-1, lvl]: .6f}"
        f"  trace phase = {res.trace_phases[-1, lvl]: .6f}"
    )
