"""Exact evolution with per-edge rational speeds.

evolve_rational follows characteristics backward: a parcel either still
sat on its edge, or it crossed the tail at an earlier time and carries
its feeders' head outflow from then.  The characteristic tracer gets the
same values differently: it follows one parcel at a time back to t = 0,
with no history shared between sample points.  This demo runs a loop
with speeds 1/2 and 1 and checks every grid sample of the evolved state,
and one interior point per edge, against the tracer, exactly.

Run: python3 demos/02_mixed_speeds.py
"""

from fractions import Fraction as F

from netflow import (
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    evolve_rational,
    sample,
    trace_samples,
    trace_value,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="loop",
)
vel = VelocityProfile({1: F(1, 2), 2: F(1)})
for j in g.edge_ids:
    print(f"edge {j}: speed {vel.velocity(j)}, crossed in time {1 / vel.velocity(j)}")
print()

f = NetworkState(
    [F(0), F(1, 4), F(1)],
    [SparseVector({2: F(3)}), SparseVector()],
)

for t in (F(1, 8), F(1, 2), F(2)):
    ft = evolve_rational(g, vel, f, t)
    print(f"t = {str(t):>4}   mass = {ft.total_mass()}   pieces = {len(ft.values)}")
    # every sample on a 24-grid, traced point by point, is the same exactly
    assert sample(ft, 24) == trace_samples(g, vel, f, t, 24), t
    # and so is one interior point per edge, off that grid
    for j in g.edge_ids:
        x = F(1, 7)
        traced = trace_value(g, vel, f, j, x, t)
        stepped = ft.value_at(x).get(j)
        assert traced == stepped, (j, traced, stepped)
print("\nthe tracer agrees with the characteristic evolution, exactly")
