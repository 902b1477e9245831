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
histories.  `trace_value` and `trace_samples` read every value from one
integer tick lattice, keeping each head history read as the segments on
which it is constant.  A float time, position, speed or state value is
read as the dyadic rational it holds, so the trace runs exactly at any
positive speeds; when any input was a float, each value is rounded once,
correctly.  Complex states run as two real traces.  nan and inf are
refused with PrecisionError, and a trace past MAX_STAGE_EDGES stage-edges
or MAX_HISTORY_BREAKPOINTS kept segments with WidthOverflowError.

Two seam conventions are supported.  side="right" (default) matches the
exact evolution formula: a characteristic landing exactly on the tail
routes through the vertex, and interior positions read the right-open
piece.  side="left" evaluates the left limit in x instead, which is what
the piecewise representation assigns to the point 1; trace_samples takes
it for its final sample, so sampled comparisons line up at every point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from . import semigroup
from .errors import PrecisionError, WidthOverflowError
from .exact import by_value_kind, is_rational
from .graph import MetricGraph, SparseVector, VelocityProfile
from .states import NetworkState, SampledState, checked_grid

__all__ = ["trace_value", "trace_samples"]


def trace_value(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                edge, x, t, side: str = "right"):
    """Value of the flow on `edge` at position x in [0,1] after time t >= 0,
    read by _read on the lattice where x is a whole tick."""
    if not (0 <= x <= 1):
        raise ValueError(f"position must lie in [0,1], got {x}")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    m, grid = Fraction(x).as_integer_ratio()
    return _read(g, vel, f, t, grid, [edge], [(m, side)], is_rational(x)).get((edge, m))


def _read(g, vel, f, t, grid: int, edges, marks, exact: bool) -> SparseVector:
    """{(j, m): value} of the flow after time t on each of `edges` at each
    mark (m, side), position m/grid: H_j of _histories at the tick
    t + m/(grid c_j), for side="left" the tick before (clamped at 0), which
    holds the left limit.  Float t and speeds are read as the rationals
    they hold, and by_value_kind rounds each value once unless `exact`, t,
    the speeds and f are exact.  Edges a finite graph lacks are refused."""
    for j in [*f.support(), *edges] if g.is_finite else ():
        g.endpoints(j)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if isinstance(t, float) and not math.isfinite(t):
        raise PrecisionError(f"time {t!r} is not finite")
    exact, T = exact and is_rational(t) and vel.is_rational(), Fraction(t)
    if not vel.is_rational():
        vel = VelocityProfile({j: Fraction(c) for j, c in vel.items()},
                              default=None if vel.default is None else Fraction(vel.default))
    speed = {j: vel.exact(j) for j in (g.edge_ids if g.is_finite else f.support())}
    semigroup._stage_budget(T, semigroup._distinct(speed.values()), speed)  # _network's budget

    def run(h):
        head, Tt, N = _histories(g, vel, h, T, grid)
        step = {j: int(N / vel.exact(j)) // grid for j in edges}
        return SparseVector({(j, m): head(j, max(Tt + m * step[j] - (side == "left"), 0))[2]
                             for m, side in marks for j in edges})

    return by_value_kind(f, run, exact)


def _histories(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t: Fraction, grid: int):
    """(head, t N, N): `head(k, T)` is the segment (lo, hi, value)
    of edge k's head history H_k that holds the backward time T, in ticks
    of 1/N.  N = lcm(den t, grid, f's breakpoint dens) times the lcm of the
    profile's speed numerators, so t, each m/grid, each breakpoint and each
    delay L_k = 1/c_k is a whole number of ticks.  H_k is f_k's piece p on
    [b_p L_k, b_{p+1} L_k) while T < L_k; from L_k on it is constant on the
    intersection of its feeders' segments, shifted by L_k, where it is the
    sum of (c_i / c_k) w_ki H_i(T - L_k) in feeder order, zeros skipped.
    Kept segments, sorted per edge and at most MAX_HISTORY_BREAKPOINTS in
    all, make a read one bisect; a miss stacks its feeders' reads."""
    A = math.lcm(t.denominator, grid, *(b.denominator for b in f.breakpoints))
    M = math.lcm(*(c.numerator for c in [*vel.values.values(), vel.default] if c is not None))
    cuts = [b.numerator * (A // b.denominator) for b in f.breakpoints]  # in ticks of 1/A
    kept, size = {}, 0  # edge -> [los, his, values, L / A, L, feeders]; segments kept

    def head(k, T):
        nonlocal size
        work, segs = [(k, T)], []  # reads (edge, tick) pending, (edge, None) joining the feeders'
        while work:
            k, T = work.pop()
            if k not in kept:
                r = int(M / vel.exact(k))
                kept[k] = [[], [], [], r, r * A, None]
            h = los, his, vals, r, L, feeders = kept[k]
            if T is None:  # the feeders' reads are the last len(feeders) of segs
                s, lo, hi, val = len(segs) - len(feeders), L, math.inf, 0
                for (i, coef), (a, b, v) in zip(feeders, segs[s:]):
                    lo, hi = max(lo, a + L), min(hi, b + L)
                    if v != 0:
                        val = val + coef * v
                del segs[s:]
                n = bisect_right(los, lo)  # a cycle may have read edge k on the way
            elif (n := bisect_right(los, T)) and T < his[n - 1]:
                segs.append((los[n - 1], his[n - 1], vals[n - 1]))
                continue
            elif T < L:
                p = bisect_right(cuts, T // r) - 1
                lo, hi, val = cuts[p] * r, cuts[p + 1] * r, f.values[p].get(k)
            else:
                if feeders is None:
                    c = vel.exact(k)
                    feeders = h[5] = [(i, (vel.exact(i) / c) * w) for i, w in g.feeders(k).items()]
                work += [(k, None), *((i, T - L) for i, _ in reversed(feeders))]
                continue
            for xs, x in zip(h, (lo, hi, val)):
                xs.insert(n, x)
            segs.append((lo, hi, val))
            if (size := size + 1) > semigroup.MAX_HISTORY_BREAKPOINTS:
                raise WidthOverflowError(f"traced head histories exceed {size - 1} segments")
        return segs[0]

    return head, t.numerator * (A // t.denominator) * M, A * M


def trace_samples(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                  t, grid: int, edges=None) -> SampledState:
    """Sample the traced flow at positions m/grid on the given edges
    (default: all edges of a finite graph), read by _read: one bisect a
    sample.  The final sample takes the left limit, matching
    NetworkState.sample's convention at 1."""
    grid = checked_grid(grid)
    edges = g.edge_ids if edges is None else edges
    marks = list(enumerate(["right"] * grid + ["left"]))
    out = _read(g, vel, f, t, grid, edges, marks, True)
    return SampledState(grid, [{j: out.get((j, m)) for j in edges} for m, _ in marks])
