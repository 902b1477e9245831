"""Characteristic reference for transport with absorption.

Independent of the library's iterated series: the value at (edge, x, t) is
summed over the backward paths of the parcel now at x.  Each path
contributes the initial value at its origin, times the velocity-conjugated
routing weights (c_k / c_j) w_jk at every vertex it crossed, times
exp of the exact rational integral of q along the path.  A positive rate
grows mass, as exp(q0 t).  Time spent crossing [a, b] on edge j at speed
c_j is (b - a) / c_j, so the exponent picks up (1 / c_j) * int_a^b q_j.

Seam conventions follow `netflow.tracing`: side="right" reads the
right-open piece and routes a characteristic landing exactly on the tail;
side="left" reads the left limit, used for the final sample at 1.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integral(q, edge, a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of the step function q_edge over [a, b]."""
    total = Fraction(0)
    for lo, hi, v in q.pieces():
        lo, hi = max(lo, a), min(hi, b)
        if lo < hi:
            total += (hi - lo) * v.get(edge)
    return total


def absorbed_value(g, vel, q, f, edge, x: Fraction, t: Fraction, side: str) -> float:
    total = 0.0

    def at(j, x, t, weight, expo):
        nonlocal total
        c = vel.exact(j)
        y = x + c * t
        if y < 1 or (side == "left" and y == 1):
            val = f.value_at(y, side).get(j)
            if val != 0:
                total += float(weight * val) * math.exp(expo + _integral(q, j, x, y) / c)
            return
        expo += _integral(q, j, x, Fraction(1)) / c
        t_entry = t - (1 - x) / c
        for k, w in g.feeders(j).items():
            at(k, Fraction(0), t_entry, weight * w * vel.exact(k) / c, expo)

    at(edge, x, t, Fraction(1), Fraction(0))
    return total


def absorbed_samples(g, vel, q, f, t: Fraction, grid: int) -> list:
    """Per-sample {edge: value} dicts at s = m/grid, the last one a left limit."""
    out = []
    for m in range(grid + 1):
        side = "left" if m == grid else "right"
        s = Fraction(m, grid)
        out.append({j: absorbed_value(g, vel, q, f, j, s, t, side) for j in g.edge_ids})
    return out
