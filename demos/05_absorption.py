"""Transport with pointwise absorption via the iterated series.

A constant absorption rate commutes with the flow, so the damped
evolution has the closed form exp(q0 t) times the undamped one; the demo
measures the series against it and against its own reported tail bound,
then shows the bound collapsing as the truncation order grows.

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
t = F(1, 2)

q0 = F(1, 4)
q = AbsorptionProfile.constant({1: q0, 2: q0})
undamped = sample(evolve_rational(g, vel, f, t), 128)

print("truncation order vs actual error (constant rate, closed-form reference)")
ref = undamped.scale(math.exp(float(q0 * t)))
for order in (1, 2, 4, 8):
    res = evolve_absorbing(g, vel, q, f, t, order=order, quad_steps=256, grid=128)
    d = res.state.distance(ref)
    print(f"  order {order}  tail bound {res.tail_bound:.2e}"
          f"  quad bound {res.quad_bound:.2e}  actual {d:.2e}"
          f"  within: {d <= res.error_bound}")

# a rate that varies along the edges; no closed form, but the output must
# stay positive and below the undamped flow scaled by exp(q_max t)
q_var = AbsorptionProfile({
    1: ([F(0), F(1, 2), F(1)], [F(1, 2), F(1, 8)]),
    2: ([F(0), F(1)], [F(1, 4)]),
})
res = evolve_absorbing(g, vel, q_var, f, t, order=8, quad_steps=256, grid=128)
cap = math.exp(float(F(1, 2) * t))
slack = res.error_bound  # proven series tail plus the quadrature estimate
ok = all(
    -slack <= res.state.samples[m].get(j)
    <= undamped.samples[m].get(j) * cap + slack
    for m in range(129)
    for j in (1, 2)
)
print(f"\nvarying rate: error budget {res.error_bound:.2e},"
      f" samples positive and capped: {ok}")
