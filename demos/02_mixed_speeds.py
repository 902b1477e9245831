"""Exact evolution with per-edge rational speeds.

evolve_rational follows characteristics backward: a parcel either still
sat on its edge, or it crossed the tail at an earlier time and carries
its feeders' head outflow from then.  The paper's construction gets the
same flow differently: a loop with speeds 1/2 and 1 is cut into sub-edges
of equal crossing time, the unit flow runs on the cut graph, and the
result is mapped back.  This demo shows that construction and uses it,
together with the characteristic tracer, as an exact check.

Run: python3 demos/02_mixed_speeds.py
"""

from fractions import Fraction as F

from netflow import (
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    evolve_rational,
    evolve_unit,
    lift_state,
    project_state,
    subdivide,
    trace_value,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="loop",
)
vel = VelocityProfile({1: F(1, 2), 2: F(1)})

plan = subdivide(g, vel)
print(f"speed multiplier c = {plan.c}")
for j in g.edge_ids:
    print(f"edge {j}: speed {vel.velocity(j)}, cut into {plan.ell[j]} piece(s)"
          f" -> sub-edges {plan.sub_edge_map[j]}")
print()

f = NetworkState(
    [F(0), F(1, 4), F(1)],
    [SparseVector({2: F(3)}), SparseVector()],
)

for t in (F(1, 8), F(1, 2), F(2)):
    ft = evolve_rational(g, vel, f, t)
    print(f"t = {str(t):>4}   mass = {ft.total_mass()}   pieces = {len(ft.values)}")
    # the subdivided unit flow, mapped back, is the same state exactly
    cut = project_state(plan, evolve_unit(plan.operator, lift_state(plan, f), plan.c * t))
    assert cut == ft, t
    # spot-check one interior point per edge against the tracer
    for j in g.edge_ids:
        x = F(1, 3)
        traced = trace_value(g, vel, f, j, x, t)
        stepped = ft.value_at(x).get(j)
        assert traced == stepped, (j, traced, stepped)
print("\nsubdivision and tracer agree with the characteristic evolution, exactly")
