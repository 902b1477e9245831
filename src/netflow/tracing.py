"""Point evaluation of the transport flow by backward characteristics.

The value of the flow at (edge j, position x, time t) is found by following
the flow line backward: the parcel now at x sat at x + c_j*t if that is
still on the edge, otherwise it entered at the tail (parameter 1) at the
time remaining after the crossing and its value is the weighted sum of the
feeding edges' head values at that earlier time, with the conjugated
weights (c_k / c_j) w_jk.

This is an evaluation scheme completely independent of the shift-and-route
evolution in semigroup.py: no subdivision, no shared grid, works for any
positive velocities including irrational ones (exact Fractions in, exact
Fractions out; floats in, floats out).  Cost grows with the number of
boundary crossings and the vertex branching, so it is a point oracle and a
reference for sampled comparisons, not a bulk evolution method.

Two seam conventions are supported.  side="right" (default) matches the
exact evolution formula: a characteristic landing exactly on the tail
routes through the vertex, and interior positions read the right-open
piece.  side="left" evaluates the left limit in x instead, which is what
the piecewise representation assigns to the point 1; trace_samples uses
it for its final sample so that sampled comparisons line up at every
grid point.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import MetricGraph, SparseVector, VelocityProfile
from .states import NetworkState, SampledState

__all__ = ["trace_value", "trace_samples"]


def trace_value(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                edge, x, t, side: str = "right"):
    """Value of the flow on `edge` at position x in [0,1] after time t >= 0.

    Exact when velocities, x and t are rational; floating otherwise.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not (0 <= x <= 1):
        raise ValueError(f"position must lie in [0,1], got {x}")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return _trace(g, vel, f, edge, x, t, side, {})


def _trace(g, vel, f, edge, x, t, side, memo):
    c = vel.velocity(edge)
    y = x + c * t
    if y < 1 or (side == "left" and y == 1):
        return f.value_at(y, side).get(edge)
    t_entry = t - (1 - x) / c
    return _at_tail(g, vel, f, edge, t_entry, side, memo)


def _at_tail(g, vel, f, edge, t, side, memo):
    """Tail (parameter 1) value of `edge` at remaining backward time t: the
    routing condition turns it into the feeders' head values."""
    c = vel.velocity(edge)
    out = 0
    for k, w in g.feeders(edge).items():
        contrib = _head(g, vel, f, k, t, side, memo)
        if contrib != 0:
            out = out + (vel.velocity(k) / c) * w * contrib
    return out


def _head(g, vel, f, edge, t, side, memo):
    """Head (parameter 0) value of `edge` traced back over time t."""
    key = (edge, t)
    if key in memo:
        return memo[key]
    c = vel.velocity(edge)
    y = c * t
    if y < 1 or (side == "left" and y == 1):
        out = f.value_at(y, side).get(edge)
    else:
        out = _at_tail(g, vel, f, edge, t - 1 / c, side, memo)
    memo[key] = out
    return out


def trace_samples(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                  t, grid: int, edges=None) -> SampledState:
    """Sample the traced flow at positions m/grid on the given edges
    (default: all edges of a finite graph).  The final sample takes the
    left limit, matching NetworkState.sample's convention at 1.  One memo
    table per side is shared across points, so repeated vertex histories
    are traced once."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if edges is None:
        edges = g.edge_ids
    samples = []
    for side in ("right", "left"):
        memo: dict = {}
        ms = range(grid) if side == "right" else (grid,)
        for m in ms:
            s = Fraction(m, grid)
            vec = {}
            for j in edges:
                val = _trace(g, vel, f, j, s, t, side, memo)
                if val != 0:
                    vec[j] = val
            samples.append(SparseVector(vec))
    return SampledState(grid, samples)
