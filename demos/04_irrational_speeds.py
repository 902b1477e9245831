"""Approximating irrational speeds by a ladder of rational ones.

Speeds sqrt(2) and sqrt(3) cannot be evolved exactly, but their continued
fraction convergents can.  The ladder of exact flows converges to the
traced true flow; the tables below show the errors falling with the
velocity error of each rung, for the resolvent (strong norm) and the
semigroup (weak pairings).

Run: python3 demos/04_irrational_speeds.py
"""

import math
from fractions import Fraction as F

from netflow import (
    ApproximationSchedule,
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    resolvent_convergence,
    semigroup_convergence,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="loop",
)
vel = VelocityProfile({1: math.sqrt(2), 2: math.sqrt(3)})
f = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
)

sched = ApproximationSchedule.build(vel, range(1, 7))
print("convergent speeds per level")
for idx, prof in enumerate(sched.profiles):
    speeds = ", ".join(f"{j}: {prof.velocity(j)}" for j in g.edge_ids)
    print(f"  level {sched.levels[idx]}: {speeds}"
          f"   velocity error = {float(sched.velocity_error(idx)):.2e}")

table = resolvent_convergence(g, vel, 2.0, f, ApproximationSchedule.build(vel, range(4, 10)), M=256)
print("\nresolvent ladder (lambda = 2)")
for row in table.rows:
    print(f"  level {row.level}  velocity error {float(row.velocity_error):.2e}"
          f"  strong error {float(row.strong_error):.2e}")
slope, residual = table.fit()
print(f"  fit: strong ~ {slope:.2f} * velocity error (rms residual {residual:.1e})")

gs = [
    NetworkState.constant(SparseVector({1: F(1)})),
    NetworkState(
        [F(0), F(1, 4), F(3, 4), F(1)],
        [SparseVector({1: F(1)}),
         SparseVector({1: F(1, 2), 2: F(1, 2)}),
         SparseVector({2: F(1)})],
    ),
]
table = semigroup_convergence(g, vel, f, F(1), gs, sched, grid=512)
print(f"\nsemigroup ladder (t = 1, reference: {table.metadata['reference']})")
for row in table.rows:
    weak = "  ".join(f"{float(w):.2e}" for w in row.weak_errors)
    print(f"  level {row.level}  strong {float(row.strong_error):.2e}  weak {weak}")
