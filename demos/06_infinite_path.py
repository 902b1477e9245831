"""Finite propagation speed on an infinite graph.

The graph is a bi-infinite path described lazily by two callbacks; no
edge list is ever materialised.  A pulse started on one edge reaches at
most t+1 edges after time t, and at unit speed the evolution is a pure
translate, reproduced here exactly.

Edges may also carry their own speeds: a few listed edges run faster
than the default.  The answer at time t then depends only on the forward
cone of the initial state, the edges inflow reaches before t, so a
finite cycle holding that cone carries exactly the same flow, with and
without absorption.

Resolvents run on the lazy path too, at any speeds, irrational ones
included: the series reads only the routing closure of the state, as
deep as the tolerance needs, and a cycle one edge longer than that
closure gives the same samples within the two certified tails.

Run: python3 demos/06_infinite_path.py
"""

import math
from fractions import Fraction as F

from netflow import (
    AbsorptionProfile,
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    evolve_absorbing,
    evolve_rational,
    evolve_unit,
    resolvent_general,
    sample,
)

path = MetricGraph.lazy(
    column_fn=lambda j: [(j + 1, F(1))],
    endpoints_fn=lambda j: (j, j + 1),
    name="bi-infinite path",
)
op = build_adjacency(path)

f = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({0: F(1)}), SparseVector({0: F(2)})],
)

for t in (F(0), F(1, 2), F(5, 2), F(7)):
    ft = evolve_unit(op, f, t)
    print(f"t = {str(t):>4}   support on edges {sorted(ft.support())}")

# the flow moves toward parameter 0, and edge j feeds edge j+1, so after
# time t the pulse sits t edges downstream, shifted within the edge by
# the fractional part
want = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({2: F(2)}), SparseVector({3: F(1)})],
)
assert evolve_unit(op, f, F(5, 2)) == want
print("\nt = 5/2 matches the hand translate exactly")

# edges 1, 2 and 5 run at 3, 2 and 4, every other edge at the default 1;
# by t = 4 the cone ends at edge 6, well inside a 16-edge cycle
fast = {1: F(3), 2: F(2), 5: F(4)}
vel = VelocityProfile(fast, default=F(1))
n = 16
cycle = MetricGraph.finite(
    [(j, j, (j + 1) % n) for j in range(n)],
    {((j + 1) % n, j): F(1) for j in range(n)},
    name="16-edge cycle",
)
cycle_vel = VelocityProfile({j: vel.velocity(j) for j in range(n)})
print("\nlisted faster edges", {j: str(c) for j, c in fast.items()}, "over default 1")
for t in (F(1, 2), F(2), F(4)):
    ft = evolve_rational(path, vel, f, t)
    assert ft == evolve_rational(cycle, cycle_vel, f, t)
    assert ft.total_mass() == f.total_mass()
    print(f"t = {str(t):>4}   support on edges {sorted(ft.support())}, "
          f"mass {ft.total_mass()}, equal to the cycle")

# a constant rate q0 on every edge multiplies the flow by exp(q0 t)
q0, t = F(-1, 3), F(4)
q = AbsorptionProfile.constant({j: q0 for j in range(n)})
res = evolve_absorbing(path, vel, q, f, t, grid=32)
assert res == evolve_absorbing(cycle, cycle_vel, q, f, t, grid=32)
ref = sample(evolve_rational(path, vel, f, t), 32).scale(math.exp(float(q0 * t)))
err = res.state.distance(ref)
assert err <= res.error_bound < 1e-13
print(f"absorbing at q0 = {q0}, t = {t}: equal to the cycle, distance to "
      f"exp(q0 t) times the transport {err:.2e} <= bound {res.error_bound:.2e}")

# resolvents at irrational listed speeds over an irrational default
irr = VelocityProfile({1: math.sqrt(3), 3: math.pi / 2}, default=math.sqrt(2))
print("\nlisted speeds sqrt(3), pi/2 over default sqrt(2)")
for lam in (2.0, 0.5, 1 + 1j):
    lazy = resolvent_general(path, irr, f, lam, grid=32)
    m = len(lazy.state.edges) + 1
    ring = MetricGraph.finite(
        [(j, j, (j + 1) % m) for j in range(m)],
        {((j + 1) % m, j): F(1) for j in range(m)},
    )
    ring_res = resolvent_general(ring, irr, f, lam, grid=32)
    err = lazy.state.distance(ring_res.state)
    assert err <= lazy.tail_bound + ring_res.tail_bound
    print(f"resolvent at lambda = {lam}: closure of {m - 1} edges, {lazy.terms} terms, "
          f"distance to a {m}-edge cycle {err:.2e} <= tails {lazy.tail_bound + ring_res.tail_bound:.2e}")
