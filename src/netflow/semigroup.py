"""Exact transport semigroups on the edge bundle.

The unit-velocity flow has a closed form: shift the profile toward the
head by t, and every time the argument would leave [0,1) route it through
the adjacency operator.  Concretely, with B the routing matrix,

    (T(t) f)(s) = B^n f(t + s - n)   where n <= t + s < n + 1.

Everything here is arranged so this formula is evaluated in exact rational
arithmetic: breakpoints shift by exact amounts, values pass through B with
Fraction weights, and two evolutions compose to exactly the evolution of
the summed time.

Rational velocity profiles are evolved along backward characteristics.
A parcel at x on edge j either still sat on the edge at x + c_j t, or it
crossed the tail at time t - (1 - x)/c_j and carries the feeders' head
outflow from that moment, weighted (c_k / c_j) w_jk.  Each head outflow
H_k is an exact step function of time: f_k(c_k s) until the initial
profile has drained, the tail inflow delayed by 1/c_k afterwards.  The
histories are extended together in stages of the shortest traversal
time, so the cost follows the number of breakpoints in the answer, not
the speeds' lcm.  Times are integer ticks of one lattice.  Values are
exact (a float is the dyadic rational it holds) and take one of two
paths, chosen in _exact_flow by predicted work.  Per edge, they are
(numerator, denominator) int pairs in lowest terms: a stage sums each
inflow on ints over the lcm of the denominators it reads, and a gcd per
value cancels what that lcm carried beyond the value's own.  Past
EDGE_FLOW_WORK steps per numpy pass, while the lattice times the edges
fits in int64, _array_flow (in _arrays) holds every history as flat
int64 arrays over one denominator and runs each stage as one pass; its
numerators may start past 2^63, as a float's do, and go on in Python
ints, but a flow whose numerators grow past it goes back to the per-edge
histories.  Each distinct answer value is built once: a Fraction, or
for float f a float rounded once, correctly.  An array kernel's exact
answer holds its integer rows and builds its Fractions, and its dicts,
on the first read of any entry, so a caller that only samples and
writes it builds neither.  An answer of more than MAX_ANSWER_ENTRIES
entries is refused before it is built.

The three exact verbs share one front, _network: t an exact time >= 0,
rational speeds, and the edges the answer needs: all of a finite graph,
and on a lazy graph the forward cone of supp f, the edges inflow enters
before t by earliest arrival along traversal times 1/c_j, walked as the
resolvent's closure is; one work budget at the flow's fastest edge holds
for every kernel.  evolve_unit is evolve_rational at c = 1 on the
caller's operator's graph; the closed form above runs wherever those
edges share one speed and the per-edge histories' work would pass its
one numpy pass, as int64 arrays (Python ints past 2^63) over the graph's
feeders or the cone.  Float and complex values run the same
exact kernels, each part read exactly and each answer value rounded.

The paper's construction reduces rational speeds to the unit case
instead: subdivide every edge j into ell_j pieces of equal traversal time
1/c, where c is the smallest rational making every ell_j = c / c_j a
whole number, run the unit flow on the subdivided graph for time c*t and
map back.  The vertex coupling of the subdivided graph must be the
velocity-conjugated matrix (entries (c_j / c_i) w_ij), because that is
what couples the traces of the original system; inserted vertices just
pass values through with weight one.  The subdivided columns then no
longer sum to one when speeds differ, which is expected: the conserved
functional picks up the weights 1/ell_j (see weighted_mass below).  No
product path runs this construction: it is not exported, and the tests
use it as an independent exact oracle for evolve_rational.

Absorption enters through a pointwise step-function rate q, and along a
characteristic it only multiplies a parcel by exp of the exact rational
integral of q over the path.  The same stage loop therefore builds the
absorbing head outflows: while edge j drains, its outflow is
f_j(c_j s) exp((1/c_j) int_0^{c_j s} q_j), and crossing the whole edge
multiplies by exp(Q_j / c_j), Q_j = int_0^1 q_j.  Every history value is
a short sum of terms r exp(beta + b s) with r, beta and b exact, and
floats enter only when the answer is read at the grid points, on integer
ticks, each exponent rounded to a float once, correctly, by int division.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from ._arrays import (_INT64_MAX, _array_flow, _int_steps, _kept_steps, _route_exact,
                      _unit_answer)
from .errors import (
    MalformedGraphError,
    NotRationalError,
    PrecisionError,
    WidthOverflowError,
    WrongOperatorError,
)
from .exact import (as_exact, as_exact_time, by_value_kind, coprime_fraction, exact_values,
                    frac_part, is_rational)
from .graph import (
    AdjacencyOperator,
    MetricGraph,
    SparseVector,
    VelocityProfile,
    build_adjacency,
)
from .states import NetworkState, SampledState, _refine, checked_grid, grid_pieces, sample

__all__ = [
    "evolve_unit",
    "evolve_rational",
    "AbsorptionProfile",
    "AbsorbingResult",
    "evolve_absorbing",
]

# Guard rails for runaway subdivisions.
MAX_WIDTH = 2**63
MAX_SUBEDGES = 2_000_000
# Guard rails for runaway characteristic histories, counted as they grow:
# one per breakpoint of a flow, the terms of every value of an absorbing
# run; and the one work budget of both exact kernels, checked in _network:
# stages (t times the flow's fastest speed) times the edges of the flow.
MAX_HISTORY_BREAKPOINTS = 1_000_000
MAX_STAGE_EDGES = 2_000_000
# And an exact flow's answer, counted before any piece is built: its
# entries, each piece's support summed.
MAX_ANSWER_ENTRIES = 10_000_000
# the per-edge histories' steps (edges times pieces times stages) that cost
# about one numpy pass of the array kernels: measured crossover in fresh
# processes, where the per-edge loop's fixed cost is the smaller
EDGE_FLOW_WORK = 128
# speed 1 everywhere
_UNIT = VelocityProfile({}, default=Fraction(1))


def evolve_unit(op: AdjacencyOperator, f: NetworkState, t) -> NetworkState:
    """Exact unit-velocity evolution T(t) f: evolve_rational at c = 1 on
    op's graph.

    `op` must be unscaled: the unit flow belongs to the plain routing
    matrix, and passing a velocity-conjugated operator here silently
    computes the wrong dynamics, hence the hard error.  `t` must be an
    exact rational; floats raise PrecisionError rather than quietly
    contaminating the grid.  On a finite graph a state on an edge the
    graph lacks raises MalformedGraphError, at any t, and a run over
    evolve_rational's work budget WidthOverflowError, before any routing.
    """
    if op.scaled:
        raise WrongOperatorError(
            "evolve_unit needs the unscaled routing operator; "
            "use evolve_rational for velocity profiles"
        )
    return _flow(op.graph, _UNIT, f, t)


def _unit_flow(steps: tuple, f: NetworkState, t: Fraction, number) -> NetworkState:
    """T(t) f at unit speed, for exact t >= 0, on the edges of `steps`: B^n
    of f's pieces as `number`s, routed at once by _route_exact, in int64 up
    to 2^63 - 1 and in Python ints past it.  An exact answer merges its
    equal neighbours from the kernel's rows (_unit_answer); a rounded one
    takes the checking constructor."""
    n0 = t.numerator // t.denominator
    theta = t - n0
    bps, values = f.breakpoints, f.values
    powers = [n0] * len(values)
    if theta:
        # s in [0, 1-theta): argument t+s stays below n0+1, shift only; these
        # are the pieces from `first` on.  s in [1-theta, 1): argument wrapped
        # once more through the routing; these are the `wrapped` pieces left
        # of theta, the last one cut at theta.
        first = bisect.bisect_right(bps, theta) - 1
        wrapped = bisect.bisect_left(bps, theta)
        rest = 1 - theta
        bps = ([Fraction(0)] + [b - theta for b in bps[first + 1:]]
               + [b + rest for b in bps[1:wrapped]] + [Fraction(1)])
        values = values[first:] + values[:wrapped]
        powers = powers[first:] + [n0 + 1] * wrapped
    values = _route_exact(steps, values, powers, number)
    if number is Fraction:
        return _unit_answer(bps, values, powers)
    return NetworkState(bps, values)


def _steps(g: MetricGraph, speed: Mapping, rows) -> tuple:
    """_int_steps of a lazy graph's forward cone, as _network read it, or _kept_steps."""
    return _kept_steps(g) if g.is_finite else _int_steps(list(speed), rows)


# The paper's subdivision, the tests' oracle for evolve_rational.  It stays
# here while perfbench/tracer.py wraps subdivide, lift_state and
# project_state by module path (ROADMAP item 1), then moves to tests/oracles.py.
def common_multiplier(vel: VelocityProfile, edges: Sequence | None = None):
    """Smallest rational c with c / c_j a whole number for every edge.

    For c_j = p_j / q_j in lowest terms this is lcm(p_j) / gcd(q_j).
    Returns (c, {edge: ell_j}) with ell_j = c / c_j.  Velocities must be
    exact rationals; the lcm is capped so a pathological profile fails
    loudly, naming the edges that blew the width, instead of allocating
    a graph that cannot exist.
    """
    if edges is None:
        edges = sorted(vel.values)
    speeds = {}
    for j in edges:
        c_j = vel.exact(j)  # raises NotRationalError on floats
        speeds[j] = c_j
    if not speeds:
        raise MalformedGraphError("no edges to subdivide")

    num = 1
    den = 0
    culprits: list = []
    for j, c_j in speeds.items():
        num = num * c_j.numerator // math.gcd(num, c_j.numerator)
        den = math.gcd(den, c_j.denominator)
        culprits.append(j)
        if num > MAX_WIDTH:
            raise WidthOverflowError(
                f"common multiplier exceeds configured width {MAX_WIDTH}",
                edges=culprits,
            )
    c = Fraction(num, den)
    ell = {}
    for j, c_j in speeds.items():
        r = c / c_j
        assert r.denominator == 1, "common multiplier failed to clear a denominator"
        ell[j] = r.numerator
    if sum(ell.values()) > MAX_SUBEDGES:
        worst = sorted(ell, key=ell.get, reverse=True)[:4]
        raise WidthOverflowError(
            f"subdivision would create {sum(ell.values())} edges",
            edges=worst,
        )
    return c, ell


@dataclass
class SubdivisionPlan:
    """Everything needed to move between a graph and its subdivided twin.

    `sub_edge_map[j]` lists the ell_j sub-edge ids of edge j ordered from
    the head side: the first sub-edge covers [0, 1/ell_j) of the original
    parameter and contains the head, the last contains the tail.  Unless
    the plan is the identity, sub-edge k of j has id (j, k), so the ids
    sort together whenever the graph's own do.  The `graph` carries
    pass-through weight one at inserted vertices and the
    velocity-conjugated weights at original vertices; its `operator` is
    deliberately unscaled (the scaling already lives in the weights).
    """

    source: MetricGraph
    velocities: VelocityProfile
    c: Fraction
    ell: dict
    sub_edge_map: dict
    graph: MetricGraph
    operator: AdjacencyOperator
    owner: dict = field(default_factory=dict)

    @property
    def is_identity(self) -> bool:
        return self.graph is self.source

    def sub_edges(self) -> int:
        return sum(self.ell.values())

    def weighted_mass(self, h: NetworkState):
        """The functional sum_e (1/ell) * integral h_e; conserved by the unit flow."""
        total = 0
        for b1, b2, v in h.pieces():
            total += (b2 - b1) * sum(x / self.ell[self.owner[e]] for e, x in v.items())
        return total


def subdivide(g: MetricGraph, vel: VelocityProfile) -> SubdivisionPlan:
    """Build the equal-traversal-time subdivision for a rational profile
    on a finite graph."""
    if not vel.is_rational():
        raise NotRationalError("subdivision needs exact rational velocities")

    ids = g.edge_ids
    c, ell = common_multiplier(vel, ids)

    if all(L == 1 for L in ell.values()):
        # uniform speed: same graph, same coupling, time runs c times faster
        return SubdivisionPlan(
            source=g,
            velocities=vel,
            c=c,
            ell=ell,
            sub_edge_map={j: (j,) for j in ids},
            graph=g,
            operator=build_adjacency(g),
            owner={j: j for j in ids},
        )

    sub_map: dict = {}
    owner: dict = {}
    edges = []
    for j in ids:
        tail, head = g.endpoints(j)
        L = ell[j]
        sub_ids = tuple((j, k) for k in range(L))
        sub_map[j] = sub_ids
        inserted = [("sub", j, k) for k in range(1, L)]
        for k in range(1, L + 1):
            t_k = inserted[k - 1] if k < L else tail
            h_k = inserted[k - 2] if k > 1 else head
            edges.append((sub_ids[k - 1], t_k, h_k))
        for e in sub_ids:
            owner[e] = j

    weights: dict = {}
    for j in ids:
        for k in range(1, ell[j]):
            weights[(sub_map[j][k - 1], sub_map[j][k])] = Fraction(1)
        c_j = vel.exact(j)
        for i, w_ij in g.column(j).items():
            weights[(sub_map[i][-1], sub_map[j][0])] = w_ij * c_j / vel.exact(i)

    name = f"{g.name}~{c}" if g.name else f"subdivided~{c}"
    gt = MetricGraph.finite(edges, weights, name=name)
    return SubdivisionPlan(
        source=g,
        velocities=vel,
        c=c,
        ell=ell,
        sub_edge_map=sub_map,
        graph=gt,
        operator=build_adjacency(gt),
        owner=owner,
    )


def lift_state(plan: SubdivisionPlan, f: NetworkState) -> NetworkState:
    """Cut f along the plan: sub-edge k of edge j carries f_j restricted to
    [(k-1)/ell_j, k/ell_j), stretched to [0,1).  Values are copied, not
    rescaled; the mass functional picks up the 1/ell weights instead."""
    if plan.is_identity:
        return f
    support = sorted(j for j in f.support() if j in plan.ell)
    grid = {Fraction(0), Fraction(1)}
    for b in f.breakpoints[1:-1]:
        for j in support:
            grid.add(frac_part(plan.ell[j] * b))
    bps = sorted(grid)
    pieces = []
    for m in range(len(bps) - 1):
        beta = bps[m]
        vec = {}
        for j in support:
            L = plan.ell[j]
            sub_ids = plan.sub_edge_map[j]
            for k in range(L):
                x = (k + beta) / L
                val = f.value_at(x).get(j)
                if val != 0:
                    vec[sub_ids[k]] = val
        pieces.append(SparseVector(vec))
    return NetworkState(bps, pieces)


def project_state(plan: SubdivisionPlan, h: NetworkState) -> NetworkState:
    """Inverse of lift_state: reassemble sub-edge profiles onto the original
    edges.  Exact round trip: project(lift(f)) == f canonically."""
    if plan.is_identity:
        return h
    edges = sorted({plan.owner[e] for e in h.support() if e in plan.owner})
    grid = {Fraction(0), Fraction(1)}
    for j in edges:
        L = plan.ell[j]
        for beta in h.breakpoints:
            for k in range(L):
                grid.add((k + beta) / L)
    bps = sorted(b for b in grid if 0 <= b <= 1)
    pieces = []
    for m in range(len(bps) - 1):
        a = bps[m]
        vec = {}
        for j in edges:
            L = plan.ell[j]
            pos = L * a
            k = pos.numerator // pos.denominator
            local = pos - k
            val = h.value_at(local).get(plan.sub_edge_map[j][k])
            if val != 0:
                vec[j] = val
        pieces.append(SparseVector(vec))
    return NetworkState(bps, pieces)


def _window(starts: list, values: list, a, b) -> list:
    """(start, value) segments of a step function on [a, b); the first
    start is clamped to a."""
    m = bisect.bisect_right(starts, a) - 1
    out = [(a, values[m])]
    for m in range(m + 1, len(starts)):
        if starts[m] >= b:
            break
        out.append((starts[m], values[m]))
    return out


def _inflow(a, windows: list) -> list:
    """Tail inflow sum_k (p_k / q_k) H_k on [a, b) as (start, value)
    segments, from each feeder's coefficient and its window of H_k.

    Values are (numerator, denominator) int pairs in lowest terms.  Every
    term goes over the window's common denominator L, the sum changes only
    where one term does, and one gcd per value cancels what L carried
    beyond the answer's own denominator.
    """
    L = math.lcm(*{q * d for _, q, win in windows for _, (_, d) in win})
    steps = {a: 0}
    for p, q, win in windows:
        last = 0
        for s, (n, d) in win:
            x = p * n * (L // (q * d))
            steps[s] = steps.get(s, 0) + x - last
            last = x
    out, total = [], 0
    for s in sorted(steps):
        total += steps[s]
        g = math.gcd(total, L)
        out.append((s, (total // g, L // g)))
    return out


def _loose_inflow(a, windows: list) -> list:
    """_inflow for evolve_absorbing's _ExpSum values, which are not exact
    rationals: sum_k coef_k H_k summed in the feeders' order at every
    start of the window."""
    if not windows:
        return [(a, 0)]
    windows = [(Fraction(p, q), win) for p, q, win in windows]
    out = []
    at = [0] * len(windows)
    for s in sorted({s for _, win in windows for s, _ in win}):
        total = 0
        for n, (coef, win) in enumerate(windows):
            p = at[n]
            while p + 1 < len(win) and win[p + 1][0] <= s:
                p += 1
            at[n] = p
            if win[p][1]:
                total += coef * win[p][1]
        out.append((s, total))
    return out


def _network(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t) -> tuple:
    """The exact verbs' front: t an exact time >= 0, rational speeds, and
    (t, speed, rows, speeds, stages) of the edges the flow from f depends
    on up to time t, speeds a list of their distinct speeds.  A finite graph
    keeps every edge and its rows, and refuses f on an edge it lacks.  A
    lazy one keeps the forward cone of supp f, by MetricGraph._walk in
    ticks: supp f outflows from time 0, any other edge 1/c_j after its
    earliest inflow, and an edge is in when inflow enters it before t; only
    edges that outflow before t are read, and rows keep only those.  There
    are `stages` = ceil(t c_max) stages of 1/c_max, c_max the fastest edge
    so far; all but the first times the edges past MAX_STAGE_EDGES are
    refused, checked as edges join."""
    t = as_exact_time(t, "evolution time")
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    if not vel.is_rational():
        raise NotRationalError("exact flows need exact rational velocities")
    seeds = g.edge_ids if g.is_finite else sorted(f.support(), key=repr)
    # the default, then the seeds' listed speeds: no vel.exact per edge
    speed = dict.fromkeys(seeds, vel.default)
    if g.is_finite:
        for j in f.support() - speed.keys():
            g.column(j)  # an edge the graph lacks raises MalformedGraphError
    listed = {j: c for j, c in vel.values.items() if j in speed}
    speed.update(listed)
    speeds = _distinct(listed.values())
    if len(listed) < len(speed):  # the default, or MissingVelocityError for the first unlisted seed
        c = vel.velocity(next(j for j in speed if j not in listed))
        speeds.setdefault(c.as_integer_ratio(), c)
    stages = max((-(-t.numerator * n // (t.denominator * d)) for n, d in speeds), default=0) - 1
    if stages * len(speed) > MAX_STAGE_EDGES:
        fastest = sorted(speed, key=speed.get, reverse=True)[:4]
        raise WidthOverflowError(f"{stages} stages over {len(speed)} edges exceed "
                                 f"{MAX_STAGE_EDGES} stage-edges", edges=fastest)
    if g.is_finite:
        return t, speed, g.feeders, list(speeds.values()), stages + 1
    # outflow times in ticks of 1/N, N the lcm of the profile's exact speed
    # numerators, so every 1/c_j is a whole number of ticks; a tick is
    # before t exactly when it is below ceil(t N)
    N = math.lcm(*(c.numerator for c in [*vel.values.values(), vel.default] if is_rational(c)))

    def lag(i):  # 1/c_i in ticks, and ceil(t c_i) - 1 = ceil(t N / ticks) - 1 stages
        nonlocal stages
        c = speed[i] = vel.exact(i)
        ticks = N // c.numerator * c.denominator
        stages = max(stages, -(-t.numerator * N // (t.denominator * ticks)) - 1)
        if stages * len(speed) > MAX_STAGE_EDGES:
            raise WidthOverflowError(f"forward cone exceeds {MAX_STAGE_EDGES // stages} edges "
                                     f"at {stages} stages", edges=(i,))
        return ticks

    cone = {j: {} for j in speed}
    for j, column in g._walk(seeds, lag, -(-t.numerator * N // t.denominator)):
        for i, w in column.items():
            cone.setdefault(i, {})[j] = w
    return t, speed, cone.__getitem__, list(_distinct(speed.values()).values()), stages + 1


def _distinct(speeds) -> dict:
    """The distinct exact speeds by (numerator, denominator): no Fraction hash."""
    return {c.as_integer_ratio(): c for c in speeds}


def _histories(speed: Mapping, speeds: list, rows, t: Fraction, cuts, drain, delay=None):
    """Head outflows H_j on [0, t + 1/c_j) of the edges in `speed`, of
    distinct speeds `speeds`, in ticks of 1/D.  Edge j at x leaves the head
    at t + x/c_j, so H_j there is the answer at x, up to the rate picked up on the way.

    `drain(j)` gives edge j's outflow while its initial profile drains: one
    value a piece [y_m, y_m+1) of the `cuts` 0 = y_0 < ... < 1, from time
    y_m / c_j on.  After draining, H_j is the tail inflow sum_k (c_k / c_j)
    w_jk H_k over the feeders k in `rows(j)` 1/c_j earlier: exact (n, d)
    pairs summed by _inflow, or _ExpSum values summed by _loose_inflow and
    passed through `delay(j, value)` when one is given.  All histories
    grow together in stages of the shortest traversal time, each stage
    reading only what earlier stages built.  Past MAX_HISTORY_BREAKPOINTS
    they are refused, counting a delayed (absorbing) value by its terms
    and any other by one.  Returns (history, D, T, lag): H_j as (start
    ticks, values), the ticks per time unit, and t and every 1/c_j in ticks.
    """
    ids = list(speed)
    den = math.lcm(*(y.denominator for y in cuts))
    D, T, lag = _ticks(speed, speeds, t, den)
    # stages of the shortest traversal time each visit every edge,
    # whatever the size of the answer; _network bounds their work
    step = min(lag.values())

    # (c_k / c_j) w_jk = lag_j w_jk / lag_k as p / q in lowest terms
    feeders = {}
    for j in ids:
        feeders[j] = []
        for k, w in rows(j).items():
            p, q = lag[j] * w.numerator, lag[k] * w.denominator
            g = math.gcd(p, q)
            feeders[j].append((k, p // g, q // g))
    # head outflow H_j: first edge j's own drain on [0, lag[j])
    at = [y.numerator * (den // y.denominator) for y in cuts[:-1]]  # y den
    history, size = {}, 0
    for j in ids:
        starts, values = history[j] = [], []
        for y, v in zip(at, drain(j)):
            if not values or v != values[-1]:
                starts.append(y * (lag[j] // den))  # y / c_j in ticks: den divides lag[j]
                values.append(v)
        size += len(starts)

    # then the tail inflow delayed by lag[j], read up to inflow time u in
    # stages of the shortest traversal time.  A stage reads feeders only
    # up to u, and an edge waits while its history already reaches the
    # next stage's u.
    read = dict.fromkeys(ids, 0)
    u = 0
    while u < T:
        u = min(u + step, T)
        for j in ids:
            a = read[j]
            if u < T and a + lag[j] >= min(u + step, T):
                continue
            starts, values = history[j]
            windows = [(p, q, _window(*history[k], a, u)) for k, p, q in feeders[j]]
            for s, v in (_loose_inflow if delay else _inflow)(a, windows):
                if delay and v:
                    v = delay(j, v)
                if v != values[-1]:
                    starts.append(s + lag[j])
                    values.append(v)
                    size += len(v) if delay and v else 1
            read[j] = u
            if size > MAX_HISTORY_BREAKPOINTS:
                worst = sorted(ids, key=lambda k: len(history[k][0]), reverse=True)[:4]
                raise WidthOverflowError(
                    f"characteristic histories exceed {MAX_HISTORY_BREAKPOINTS} "
                    f"{'terms' if delay else 'breakpoints'}", edges=worst)
    return history, D, T, lag


def _ticks(speed: Mapping, speeds: list, t: Fraction, den: int) -> tuple:
    """(D, T, lag): ticks of 1/D hold every breakpoint over den, lag and stage
    end whole; t is T ticks, 1/c_j lag[j], once a distinct speed of `speeds`."""
    D = math.lcm(t.denominator, den * math.lcm(*(c.numerator for c in speeds)))
    lags = {(c.numerator, c.denominator): D // c.numerator * c.denominator for c in speeds}
    return D, t.numerator * (D // t.denominator), {
        j: lags[c.as_integer_ratio()] for j, c in speed.items()}


def _flow_histories(speed: Mapping, speeds: list, rows, f: NetworkState, t: Fraction) -> tuple:
    """_histories of the flow from f, with nothing picked up on the way:
    edge j drains as f_j(c_j s).

    Every history value is exact, held as a (numerator, denominator) pair
    in lowest terms, f's from as_integer_ratio: _inflow sums a window on
    ints over the lcm of the denominators it reads and cancels it again,
    so a value is never larger than the Fraction it stands for.
    """
    zero = [(0, 1)] * len(f.values)
    drains = {j: zero.copy() for j in f.support()}
    for m, v in enumerate(f.values):
        for j, x in v.items():
            drains[j][m] = x.as_integer_ratio()
    return _histories(speed, speeds, rows, t, f.breakpoints, lambda j: drains.get(j, zero))


def evolve_rational(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t) -> NetworkState:
    """Exact evolution at rational velocities along backward characteristics.

    The edges come from _network: every edge of a finite graph, or the
    forward cone of supp f on a lazy one.  The head outflow H_j of each is
    built as an exact step function of time by _histories: f_j(c_j s)
    while the initial profile drains, then the tail inflow
    sum_k (c_k / c_j) w_jk H_k delayed by 1/c_j.  Edge j at x then reads
    H_j(t + x/c_j).  When those edges share one speed c, the unit flow
    runs for time c*t instead.  Float values run exactly and are rounded
    once (see _flow).
    """
    return _flow(g, vel, f, t)


def _flow(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t) -> NetworkState:
    """evolve_rational, and evolve_unit at c = 1, on the graph alone; float
    and complex f run exactly and are rounded once by by_value_kind."""
    t, speed, rows, speeds, stages = _network(g, vel, f, t)
    return by_value_kind(f, lambda h, n: _exact_flow(g, speed, rows, speeds, stages, h, t, n))


def _exact_flow(g: MetricGraph, speed: Mapping, rows, speeds: list, stages: int,
                f: NetworkState, t: Fraction, number) -> NetworkState:
    """The flow from f over _network's edges, f's values read exactly by
    as_integer_ratio, each answer value number(numerator, denominator), and
    the one place a kernel is chosen, by predicted work.  The per-edge
    _histories take the edges times f's pieces times the ceil(t c_max)
    stages in steps; they run while that is at most EDGE_FLOW_WORK times
    the numpy passes of the array kernel in their place: one for the closed
    form _unit_flow at one speed, and for _array_flow at several its set-up
    and one a stage.  Past it, at one speed _unit_flow; at several
    _array_flow, if the edges times the ticks to t plus the slowest lag,
    and the lcm of the lags, fit in int64, and while its numerators do
    (they may start past int64, as a float's do, but not grow past it);
    else the per-edge _histories.  An answer of more than
    MAX_ANSWER_ENTRIES entries is refused before any piece is built."""
    if t == 0 or not speed:
        return f
    passes = 1 if len(speeds) == 1 else 1 + stages
    if len(speed) * len(f.values) * stages > EDGE_FLOW_WORK * passes:
        if len(speeds) == 1:
            return _unit_flow(_steps(g, speed, rows), f, speeds[0] * t, number)
        _, T, lag = _ticks(speed, speeds, t, math.lcm(*(b.denominator for b in f.breakpoints)))
        P = math.lcm(*set(lag.values()))
        if max(len(speed) * (T + max(lag.values())), P) <= _INT64_MAX:
            out = _array_flow(_steps(g, speed, rows), f, T, list(lag.values()), P,
                              (MAX_HISTORY_BREAKPOINTS, MAX_ANSWER_ENTRIES), number)
            if out is not None:
                return out

    history, _, T, lag = _flow_histories(speed, speeds, rows, f, t)
    # H_j on [T, T + lag_j) is edge j at x = (s - T) / lag_j, collected as
    # value changes keyed by x's numerator over P = lcm(lag), 0 among them
    # (histories hold no equal neighbours); each pair, in lowest terms, read once
    exact, memo, changes, P = number is Fraction, {}, {}, math.lcm(*set(lag.values()))
    read = coprime_fraction if exact else number
    for j in speed:
        scale = P // lag[j]
        for s, v in _window(*history[j], T, T + lag[j]):
            x = memo.get(v)
            if x is None:
                x = memo[v] = read(*v)
            changes.setdefault((s - T) * scale, []).append((j, x))
    del history  # the pieces below need only the changes
    bps = sorted(changes)
    if len(bps) * len(speed) > MAX_ANSWER_ENTRIES:  # count each piece's support
        support, entries = set(), 0
        for x in bps:
            for j, v in changes[x]:
                (support.add if v else support.discard)(j)
            entries += len(support)
        if entries > MAX_ANSWER_ENTRIES:
            changed = collections.Counter(j for c in changes.values() for j, _ in c)
            raise WidthOverflowError(f"the answer's {entries} entries exceed {MAX_ANSWER_ENTRIES}",
                                     edges=[j for j, _ in changed.most_common(4)])
    current, pieces = {}, []
    for x in bps:
        for j, v in changes[x]:
            if v:
                current[j] = v
            else:
                current.pop(j, None)
        pieces.append(SparseVector._from_nonzero(dict(current)))
    bps = [coprime_fraction(x // g, P // g) for x in bps for g in (math.gcd(x, P),)]
    return (NetworkState._canonical if exact else NetworkState)((*bps, Fraction(1)), tuple(pieces))


class AbsorptionProfile:
    """Per-edge absorption rates as step functions of the edge parameter.

    Breakpoints and rates must be exact rationals, since every rate
    integral stays exact until the answer is sampled; anything else
    raises NotRationalError.  Edges not listed absorb nothing.
    """

    def __init__(self, profiles: Mapping):
        rows = [NetworkState.zero()]
        for j, (bps, vals) in sorted(profiles.items(), key=lambda kv: repr(kv[0])):
            bps = [as_exact(b, what=f"absorption breakpoint on edge {j!r}") for b in bps]
            vals = [as_exact(v, what=f"absorption rate on edge {j!r}") for v in vals]
            if len(vals) != len(bps) - 1:
                raise MalformedGraphError(
                    f"absorption profile on edge {j!r}: {len(bps)} breakpoints "
                    f"need {len(bps) - 1} values"
                )
            rows.append(NetworkState(bps, [SparseVector({j: v}) for v in vals]))
        # one state over the union of the cuts, each piece's rates in the
        # order the edges were read; the rows' supports are disjoint
        bps, aligned = _refine(rows)
        self._state = NetworkState(bps, [
            SparseVector._from_nonzero({j: r for v in piece for j, r in v.items()})
            for piece in zip(*aligned)
        ])

    @classmethod
    def constant(cls, rates: Mapping) -> "AbsorptionProfile":
        return cls({j: ([Fraction(0), Fraction(1)], [r]) for j, r in rates.items()})

    @classmethod
    def zero(cls) -> "AbsorptionProfile":
        return cls({})

    def as_state(self) -> NetworkState:
        return self._state

    def __repr__(self):
        return f"AbsorptionProfile({len(self._state.support())} edges)"


@dataclass
class AbsorbingResult:
    """Sampled absorbing evolution and a proven bound on its error: the sup
    over the grid of the l1 distance to the exact answer.  The closed form
    truncates nothing, so the bound covers the floating rounding of the
    final read (see _float_sum)."""

    state: SampledState
    error_bound: float


class _ExpSum(dict):
    """The function s -> sum of r exp(beta + b s) over entries
    {(beta, b): r}, all exact rationals.  Never empty: the zero function
    is the plain 0, as in the exact histories."""

    __slots__ = ()

    def __add__(self, other):
        if not other:
            return self
        out = _ExpSum(self)
        for key, r in other.items():
            r += out.get(key, 0)
            if r:
                out[key] = r
            else:
                del out[key]
        return out or 0

    __radd__ = __add__

    def __rmul__(self, a):
        return _ExpSum({key: a * r for key, r in self.items()})


def _float_sum(terms: list, m: int) -> tuple:
    """sum of r exp(x) in floating point over the terms (r, n0, n1, den),
    r a float and x = (n0 + m n1) / den, and a proven bound on its error,
    barring underflow; an exp beyond the float range raises PrecisionError.

    In Higham's sense, with u = 2^-53, term i with exponent x_i is
    rounded at most k_i = 6 + ceil|x_i| times: r to float (1), x_i to
    float (a relative error u moves exp(x_i) by a factor within
    (1 + u)^(ceil|x_i| + 1)), exp itself (within one ulp, 2u relative,
    counted as 3) and the product (1); recursive summation of n terms
    adds n - 1.  So the error is at most gamma_K sum_i |t_i| with
    K = max k_i + n - 1 and gamma_K = K u / (1 - K u).  Reporting
    gamma_2K times the computed sum of |t_i| also covers the rounding of
    the computed |t_i|, of their sum and of the bound itself.  x_i is
    rounded once, by int true division, which rounds correctly as
    float(Fraction) does, and ceil|x_i| comes from the same ints.
    """
    value = size = 0.0
    k = 0
    for r, n0, n1, den in terms:
        n = n0 + m * n1
        try:
            term = r * math.exp(n / den)
        except OverflowError:
            raise PrecisionError(
                f"absorbed value overflows a float at exponent {Fraction(n, den)}") from None
        value += term
        size += abs(term)
        k = max(k, -(-abs(n) // den))
    Ku = 2 * (k + 5 + len(terms)) * 2.0**-53
    return value, Ku / (1 - Ku) * size


def evolve_absorbing(
    g: MetricGraph,
    vel: VelocityProfile,
    q: AbsorptionProfile,
    f: NetworkState,
    t,
    grid: int = 128,
) -> AbsorbingResult:
    """Transport with pointwise absorption, in closed form along characteristics.

    Samples, on the uniform grid, the flow whose generator is c d/ds + q:
    a positive rate grows mass (a constant q0 multiplies it by
    exp(q0 t)), a negative one absorbs it.  _histories builds the head
    outflows as sums r exp(beta + b s): edge j drains as f_j(c_j s)
    exp((1/c_j) int_0^{c_j s} q_j), in windows cut at the breakpoints of
    f_j and q_j, and crossing it multiplies by exp(Q_j / c_j), where
    Q_j = int_0^1 q_j.  Edge j at x then reads H_j(t + x/c_j)
    exp(-(1/c_j) int_0^x q_j) (see _absorbing_read).  The edges come
    from _network, as in evolve_rational: a lazy graph runs on the
    forward cone of supp f.  A finite graph refuses f or rates on an edge
    it lacks, at every t.  Velocities and the values of f must be exact
    rationals (NotRationalError), even at t = 0, when the input is
    returned sampled, with bound zero: the bound takes every history
    coefficient exact until its one rounding.  Histories past
    MAX_HISTORY_BREAKPOINTS terms raise WidthOverflowError.
    """
    grid = checked_grid(grid)
    t, speed, rows, speeds, _ = _network(g, vel, f, t)
    if not exact_values(f):
        raise NotRationalError("evolve_absorbing needs exact rational state values")
    qs = q.as_state()
    if g.is_finite:
        for j in qs.support():
            g.column(j)  # rates on an edge the graph lacks raise MalformedGraphError
    if t == 0 or not speed:
        return AbsorbingResult(sample(f, grid), 0.0)

    # per edge and piece of the common grid: (f_j, q_j, int_0^start q_j)
    cuts = sorted(set(f.breakpoints) | set(qs.breakpoints))
    starts = cuts[:-1]
    profile, Q = {}, {}
    for j in speed:
        pieces, area = [], Fraction(0)
        for lo, hi in zip(starts, cuts[1:]):
            b = qs.value_at(lo).get(j)
            pieces.append((f.value_at(lo).get(j), b, area))
            area += b * (hi - lo)
        profile[j], Q[j] = pieces, area

    def drain(j):
        return [_ExpSum({((area - b * y) / speed[j], b): v}) if v else 0
                for y, (v, b, area) in zip(starts, profile[j])]

    def delay(j, v):
        return _ExpSum({(beta + (Q[j] - b) / speed[j], b): r for (beta, b), r in v.items()})

    history, D, T, _ = _histories(speed, speeds, rows, t, cuts, drain, delay)
    array, error_bound = _absorbing_read(speed, grid, cuts, profile, history, D, T)
    return AbsorbingResult(SampledState.from_array(speed, array), error_bound)


def _absorbing_read(speed: Mapping, grid: int, cuts: list, profile: dict, history: dict,
                    D: int, T: int) -> tuple:
    """(edges x (grid + 1) array, error bound) of H_j(t + x/c_j)
    exp(-(1/c_j) int_0^x q_j) at x = m / grid, read on integer ticks: the
    floor of T + m D/(grid c_j) finds H_j's segment (H_j stops short of
    x = 1, a left limit, as in `sample`), and on one segment and piece
    [a, b) of `cuts`, with rate b_q and area int_0^a q_j, each term's
    exponent beta + b T/D + (b_q a - area)/c_j + m (b - b_q)/(grid c_j) is
    affine in m.  Points add terms in the history's order, the bound adds
    the edges' in `speed` order."""
    pieces = grid_pieces(cuts, grid)
    columns, errors = [], [0.0] * (grid + 1)
    for j, c in speed.items():
        starts, values = history[j]
        step, over = D * c.denominator, grid * c.numerator
        at = [bisect.bisect_right(starts, T + m * step // over) - 1 for m in range(grid + 1)]
        col, read = [0.0] * (grid + 1), {}
        for m, (k, lo) in enumerate(zip(at, pieces)):
            if not values[k]:
                continue
            terms = read.get((k, lo))
            if terms is None:
                _, bq, area = profile[j][lo]
                p0 = (bq * cuts[lo] - area) / c
                terms = read[k, lo] = []
                for (beta, b), r in values[k].items():
                    try:
                        r = float(r)
                    except OverflowError:
                        bits = r.numerator.bit_length() - r.denominator.bit_length()
                        raise PrecisionError("absorbed value overflows a float: coefficient "
                                             f"of about 2^{bits} on edge {j!r}") from None
                    a0 = beta + Fraction(b * T, D) + p0
                    a1 = (b - bq) / (grid * c)
                    den = math.lcm(a0.denominator, a1.denominator)
                    terms.append((r, int(a0 * den), int(a1 * den), den))
            col[m], e = _float_sum(terms, m)
            errors[m] += e
        columns.append(col)
    return np.array(columns), max([0.0, *errors])
