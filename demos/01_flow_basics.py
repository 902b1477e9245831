"""A pulse circulating on a two-edge loop, evolved exactly.

Builds the loop, validates it, pushes a half-edge pulse around for a few
rational times and prints the pieces.  Everything stays in Fractions, so
the printed breakpoints and values are exact.

Run: python3 demos/01_flow_basics.py
"""

from fractions import Fraction as F

from netflow import (
    MetricGraph,
    NetworkState,
    SparseVector,
    build_adjacency,
    evolve_unit,
    validate_graph,
)

g = MetricGraph.finite(
    [(1, 1, 2), (2, 2, 1)],
    {(1, 2): F(1), (2, 1): F(1)},
    name="two-edge loop",
)
report = validate_graph(g)
print(report.summary())
print()

op = build_adjacency(g)
f = NetworkState(
    [F(0), F(1, 2), F(1)],
    [SparseVector({1: F(1)}), SparseVector()],
)

for t in (F(0), F(1, 4), F(1, 2), F(1), F(5, 2)):
    ft = evolve_unit(op, f, t)
    pieces = ", ".join(
        f"[{a},{b}) -> {v.to_dict() or 0}"
        for a, b, v in zip(ft.breakpoints, ft.breakpoints[1:], ft.values)
    )
    print(f"t = {str(t):>4}   mass = {ft.total_mass()}   {pieces}")

# the flow moves toward parameter 0; after one time unit the pulse has
# crossed the vertex onto the other edge, after two it is back where it began
assert evolve_unit(op, f, F(2)) == f
print("\nperiod 2 confirmed exactly")
