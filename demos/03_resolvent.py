"""Resolvent by boundary series, cross-checked two independent ways.

First against the Laplace transform of the flow, R(lambda) f =
int_0^inf e^{-lambda t} T(t) f dt, summed exactly in time up to a horizon
over the characteristic histories, with a proven bound on its rounding
and on the tail it drops; at unit speed and at mixed speeds.  Then by
feeding the output back through the defining equation (transport
derivative plus lambda) and watching the residual shrink quadratically
with the sample grid.

Run: python3 demos/03_resolvent.py
"""

import math
from fractions import Fraction as F

from netflow import (
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    laplace_oracle,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="loop",
)
op = build_adjacency(g)
f = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
)
mixed = VelocityProfile({1: F(2), 2: F(1, 3)})

print("resolvent vs Laplace transform of the flow")
for lam in (1.0, 2.0, 1 + 1j):
    # e^{-Re(lambda) t_max} <= e^{-32} leaves the tail far below rounding
    t_max = math.ceil(32 / complex(lam).real)
    for label, vel, res in (
        ("unit ", None, resolvent_unit(op, f, lam, grid=256)),
        ("mixed", mixed, resolvent_general(g, mixed, f, lam, grid=256)),
    ):
        lr = laplace_oracle(build_adjacency(g, vel), f, lam, t_max=t_max, grid=256)
        d = res.state.distance(lr.state)
        budget = res.tail_bound + lr.error_bound
        print(f"  {label} lambda = {lam!s:>6}  terms = {res.terms:3d}  distance = {d:.3e}"
              f"  budget = {budget:.3e}  within: {d <= budget}")

print("\nresidual of (lambda - d/ds) R f = f under grid refinement")
prev = None
for grid in (256, 512, 1024, 2048):
    rep = resolvent_identity_check(op, f, 1.0, grid=grid)
    ratio = "" if prev is None else f"  ratio = {prev / rep.interior:.2f}"
    print(f"  grid = {grid:4d}  interior = {rep.interior:.3e}"
          f"  trace = {rep.trace:.1e}{ratio}")
    prev = rep.interior
