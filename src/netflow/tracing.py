"""Evaluation of the transport flow by backward characteristics.

The value of the flow at (edge j, position x, time t) is found by following
the flow line backward: the parcel now at x sat at x + c_j*t if that is
still on the edge, otherwise it entered at the tail (parameter 1) at the
time remaining after the crossing and its value is the weighted sum of the
feeding edges' head values at that earlier time, with the conjugated
weights (c_k / c_j) w_jk.  Equivalently, edge j at x reads its head history
H_j at backward time t + x/c_j: H_j(s) = f_j(c_j s) while s < 1/c_j, and
after that the feeders' histories, weighted and delayed by 1/c_j.

This is an evaluation scheme independent of the shift-and-route evolution
in semigroup.py: no subdivision, no shared grid, and nothing read from its
histories.  `trace_value` walks one point back, one call per tail crossing
with the heads it meets memoised, for any positive speeds, irrational ones
included (exact Fractions in, exact Fractions out; floats in, floats out).
`trace_samples` at an exact time and exact speeds walks no point: it works
on an integer tick lattice and keeps each head history it reads as the
segments on which that history is constant, shared by every sample point
and edge, so it costs one bisect per sample plus one feeder sum per
segment read.  A float time or speed walks each point.  Either way a
trace deeper than the interpreter stack is refused with
WidthOverflowError.

Two seam conventions are supported.  side="right" (default) matches the
exact evolution formula: a characteristic landing exactly on the tail
routes through the vertex, and interior positions read the right-open
piece.  side="left" evaluates the left limit in x instead, which is what
the piecewise representation assigns to the point 1; trace_samples takes
it for its final sample (on ticks, the tick before 1), so that sampled
comparisons line up at every grid point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction

from .errors import WidthOverflowError
from .exact import is_rational
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
    _known(g, f, [edge])
    with _stack_bound(t):
        return _trace(g, vel, f, edge, x, t, side, {})


def _known(g: MetricGraph, f: NetworkState, edges):
    """Refuse an edge of f or a requested edge that a finite graph lacks."""
    for j in [*f.support(), *edges] if g.is_finite else ():
        g.endpoints(j)


@contextmanager
def _stack_bound(t):
    """Refuse a trace to t that crosses more edges than the stack holds."""
    try:
        yield
    except RecursionError:
        raise WidthOverflowError(f"tracing to t = {t} crosses more edges than the "
                                 "interpreter stack holds") from None


def _trace(g, vel, f, edge, x, t, side, memo):
    """Value of `edge` at x after time t by its backward characteristic: a
    foot still on the edge reads f, one past the tail the feeders' heads
    (x = 0) at the time left, weighted (c_k / c_j) w_jk.  Heads are kept in
    `memo` by (edge, t), so routes that meet share them."""
    if x == 0 and (edge, t) in memo:
        return memo[edge, t]
    c = vel.velocity(edge)
    y = x + c * t
    if y < 1 or (side == "left" and y == 1):
        out = f.value_at(y, side).get(edge)
    else:
        s = t - (1 - x) / c
        out = 0
        for k, w in g.feeders(edge).items():
            v = _trace(g, vel, f, k, 0, s, side, memo)
            if v != 0:
                out = out + (vel.velocity(k) / c) * w * v
    if x == 0:
        memo[edge, t] = out
    return out


def _histories(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t: Fraction, grid: int):
    """(head, t N, N): `head(k, T)` is the segment (lo, hi, value)
    of edge k's head history H_k that holds the backward time T, in ticks
    of 1/N.  N = lcm(den t, grid, f's breakpoint dens) times the lcm of the
    profile's speed numerators, so t, each m/grid, each breakpoint and each
    delay L_k = 1/c_k is a whole number of ticks.  H_k is f_k's piece p on
    [b_p L_k, b_{p+1} L_k) while T < L_k; from L_k on it is constant on the
    intersection of its feeders' segments, shifted by L_k, where it is the
    sum of (c_i / c_k) w_ki H_i(T - L_k) in feeder order, zeros skipped,
    as _trace adds it.  Each edge keeps the segments read so far, sorted:
    a read is one bisect, and a miss reads the feeders only."""
    A = math.lcm(t.denominator, grid, *(b.denominator for b in f.breakpoints))
    M = math.lcm(*(c.numerator for c in [*vel.values.values(), vel.default] if c is not None))
    cuts = [b.numerator * (A // b.denominator) for b in f.breakpoints]  # in ticks of 1/A
    kept = {}  # edge -> [los, his, values, L / A, L, feeders]

    def head(k, T):
        h = kept.get(k)
        if h is None:
            r = int(M / vel.exact(k))
            h = kept[k] = [[], [], [], r, r * A, None]
        los, his, vals, r, L, feeders = h
        n = bisect_right(los, T)
        if n and T < his[n - 1]:
            return los[n - 1], his[n - 1], vals[n - 1]
        if T < L:
            p = bisect_right(cuts, T // r) - 1
            lo, hi, val = cuts[p] * r, cuts[p + 1] * r, f.values[p].get(k)
        else:
            if feeders is None:
                c = vel.exact(k)
                feeders = h[5] = [(i, (vel.exact(i) / c) * w) for i, w in g.feeders(k).items()]
            lo, hi, val = L, math.inf, 0
            for i, coef in feeders:
                a, b, v = head(i, T - L)
                lo, hi = max(lo, a + L), min(hi, b + L)
                if v != 0:
                    val = val + coef * v
            n = bisect_right(los, lo)  # a cycle may have read edge k on the way
        los.insert(n, lo)
        his.insert(n, hi)
        vals.insert(n, val)
        return lo, hi, val

    return head, t.numerator * (A // t.denominator) * M, A * M


def trace_samples(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                  t, grid: int, edges=None) -> SampledState:
    """Sample the traced flow at positions m/grid on the given edges
    (default: all edges of a finite graph).  The final sample takes the
    left limit, matching NetworkState.sample's convention at 1.

    At an exact time and exact speeds every sample is read from
    _histories: edge j at m/grid is H_j at t + m/(grid c_j), and its left
    limit at 1 is the segment that holds the tick before t + 1/c_j (every
    segment bound is a whole tick, so H_j is constant on that tick).  The
    segments are shared by every point and edge, so a sample costs one
    bisect and each segment read one feeder sum.  A float time or speed
    has no tick lattice (a float foot moved across a breakpoint changes a
    sample by a whole jump), so its points are walked one by one, with one
    memo of heads per side."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    _known(g, f, edges or ())
    if edges is None:
        edges = g.edge_ids
    with _stack_bound(t):
        if is_rational(t) and vel.is_rational():
            head, Tt, N = _histories(g, vel, f, Fraction(t), grid)
            # m/grid is m L_j / grid ticks past t, L_j = N / c_j; 1's left limit a tick less
            step = {j: int(N / vel.exact(j)) // grid for j in edges}
            samples = [SparseVector({j: head(j, Tt + m * step[j] - (m == grid))[2] for j in edges})
                       for m in range(grid + 1)]
        else:
            memos = {"right": {}, "left": {}}
            sides = ["right"] * grid + ["left"]
            samples = [SparseVector({j: _trace(g, vel, f, j, Fraction(m, grid), t, side, memos[side])
                                     for j in edges}) for m, side in enumerate(sides)]
    return SampledState(grid, samples)
