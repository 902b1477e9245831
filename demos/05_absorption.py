"""Transport with pointwise absorption, in closed form along characteristics.

A constant absorption rate commutes with the flow, so the damped
evolution is exp(q0 t) times the undamped one; the demo measures the
closed form against it next to its reported error bound, which covers
nothing but the floating rounding of the final read.  A rate that varies
along the edges has no such reference, but the output must stay positive
and below the undamped flow scaled by exp(q_max t).

Run: python3 demos/05_absorption.py
"""

import math
from fractions import Fraction as F

from netflow import (
    AbsorptionProfile,
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    evolve_absorbing,
    evolve_rational,
    sample,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="loop",
)
vel = VelocityProfile({1: F(1), 2: F(1)})
f = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({1: F(1)}), SparseVector({2: F(1, 4)})],
)

q0 = F(1, 4)
q = AbsorptionProfile.constant({1: q0, 2: q0})
print("constant rate against exp(q0 t) times the transport")
for t in (F(1, 2), F(2), F(7, 2)):
    ref = sample(evolve_rational(g, vel, f, t), 128).scale(math.exp(float(q0 * t)))
    res = evolve_absorbing(g, vel, q, f, t, grid=128)
    d = res.state.distance(ref)
    print(f"  t = {t}  bound {res.error_bound:.2e}  actual {d:.2e}")
    assert d <= res.error_bound, t

# a rate that varies along the edges
t = F(1, 2)
undamped = sample(evolve_rational(g, vel, f, t), 128)
q_var = AbsorptionProfile({
    1: ([F(0), F(1, 2), F(1)], [F(1, 2), F(1, 8)]),
    2: ([F(0), F(1)], [F(1, 4)]),
})
res = evolve_absorbing(g, vel, q_var, f, t, grid=128)
cap = math.exp(float(F(1, 2) * t))
slack = res.error_bound
ok = all(
    -slack <= res.state.samples[m].get(j)
    <= undamped.samples[m].get(j) * cap + slack
    for m in range(129)
    for j in (1, 2)
)
print(f"\nvarying rate: error bound {res.error_bound:.2e},"
      f" samples positive and capped: {ok}")
assert ok
