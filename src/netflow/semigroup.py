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
the speeds' lcm.

The paper's construction reduces rational speeds to the unit case
instead: subdivide every edge j into ell_j pieces of equal traversal time
1/c, where c is the smallest rational making every ell_j = c / c_j a
whole number, run the unit flow on the subdivided graph for time c*t and
map back.  The vertex coupling of the subdivided graph must be the
velocity-conjugated matrix (entries (c_j / c_i) w_ij), because that is
what couples the traces of the original system; inserted vertices just
pass values through with weight one.  The subdivided columns then no
longer sum to one when speeds differ, which is expected: the conserved
functional picks up the weights 1/ell_j (see weighted_mass below).  The
subdivided unit flow is kept as an independent exact cross-check of
evolve_rational, and its ell_j set the norm of the absorption tail bound.

Absorption enters through a pointwise multiplier q.  The perturbed flow
is summed as an iterated-integral series

    S_0(t) = T(t),   S_{k+1}(t) f = integral_0^t T(t-s) M_q S_k(s) f ds,

truncated at a requested order, each level integrated by composite
midpoint quadrature, every T an exact evolve_rational on the graph
itself.  The series is linear and products with q commute with lifting,
so it equals the series run on the subdivided graph and mapped back.
Midpoint nodes are deliberate: with rational data the integrand is
piecewise constant in s with jumps on the panel lattice, so sampling
panel midpoints never reads a value straddling a jump.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    MalformedGraphError,
    NotRationalError,
    WidthOverflowError,
    WrongOperatorError,
)
from .exact import as_exact, as_exact_time, frac_part
from .graph import (
    AdjacencyOperator,
    MetricGraph,
    SparseVector,
    VelocityProfile,
    build_adjacency,
)
from .states import NetworkState, SampledState, sample

__all__ = [
    "evolve_unit",
    "common_multiplier",
    "SubdivisionPlan",
    "subdivide",
    "lift_state",
    "project_state",
    "evolve_rational",
    "AbsorptionProfile",
    "AbsorbingResult",
    "evolve_absorbing",
]

# Guard rails for runaway subdivisions.
MAX_WIDTH = 2**63
MAX_SUBEDGES = 2_000_000
# Guard rails for runaway characteristic histories in evolve_rational,
# and for runs whose stage count (t times the fastest speed) times the
# edge count predicts minutes of work.
MAX_HISTORY_BREAKPOINTS = 1_000_000
MAX_STAGE_EDGES = 2_000_000


def evolve_unit(op: AdjacencyOperator, f: NetworkState, t) -> NetworkState:
    """Exact unit-velocity evolution T(t) f.

    `op` must be unscaled: the unit flow belongs to the plain routing
    matrix, and passing a velocity-conjugated operator here silently
    computes the wrong dynamics, hence the hard error.  `t` must be an
    exact rational; floats raise PrecisionError rather than quietly
    contaminating the grid.
    """
    if op.scaled:
        raise WrongOperatorError(
            "evolve_unit needs the unscaled routing operator; "
            "use evolve_rational for velocity profiles"
        )
    t = as_exact_time(t, "evolution time")
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    n0 = t.numerator // t.denominator
    theta = t - n0
    bps, values = f.breakpoints, f.values
    if theta == 0:
        return NetworkState(bps, op.apply_stack(values, n0))

    # s in [0, 1-theta): argument t+s stays below n0+1, shift only; these
    # are the pieces from `first` on.  s in [1-theta, 1): argument wrapped
    # once more through the routing; these are the `wrapped` pieces left of
    # theta, the last one cut at theta.
    first = bisect.bisect_right(bps, theta) - 1
    wrapped = bisect.bisect_left(bps, theta)
    rest = 1 - theta
    out_bps = [Fraction(0)]
    out_bps += [b - theta for b in bps[first + 1:]]
    out_bps += [b + rest for b in bps[1:wrapped]]
    out_bps.append(Fraction(1))
    out_vals = op.apply_stack(
        values[first:] + values[:wrapped],
        [n0] * (len(values) - first) + [n0 + 1] * wrapped,
    )
    return NetworkState(out_bps, out_vals)


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
    parameter and contains the head, the last contains the tail.  The
    `graph` carries pass-through weight one at inserted vertices and the
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

    def piece_weight(self, sub_edge) -> Fraction:
        """Weight 1/ell_j of a sub-edge in the conserved mass functional."""
        return Fraction(1, self.ell[self.owner[sub_edge]])

    def weighted_mass(self, h: NetworkState):
        """The functional sum_e (1/ell) * integral h_e; conserved by the unit flow."""
        total = 0
        for b1, b2, v in h.pieces():
            total += (b2 - b1) * sum(self.piece_weight(e) * x for e, x in v.items())
        return total


def _lazy_speed(vel: VelocityProfile) -> Fraction:
    """The one speed a lazy graph may carry: an infinite graph cannot be
    followed edge by edge, only rescaled in time."""
    pool = set(Fraction(v) for v in vel.values.values())
    if vel.default is not None:
        pool.add(Fraction(vel.default))
    if not pool:
        raise MalformedGraphError("velocity profile carries no speeds")
    if len(pool) != 1:
        raise MalformedGraphError(
            "a lazy graph can only be evolved at a uniform velocity"
        )
    return pool.pop()


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

    int_ids = [e for e in ids if isinstance(e, int)]
    next_id = max(int_ids) + 1 if int_ids else 0
    sub_map: dict = {}
    owner: dict = {}
    edges = []
    for j in ids:
        tail, head = g.endpoints(j)
        L = ell[j]
        if L == 1:
            sub_ids = (j,)
        else:
            sub_ids = tuple(range(next_id, next_id + L))
            next_id += L
        sub_map[j] = sub_ids
        inserted = [("sub", j, k) for k in range(1, L)]
        for k in range(1, L + 1):
            t_k = inserted[k - 1] if k < L else tail
            h_k = inserted[k - 2] if k > 1 else head
            edges.append((sub_ids[k - 1], t_k, h_k))
        for e in sub_ids:
            owner[e] = j

    weights: dict = {}
    stochastic = True
    for j in ids:
        for k in range(1, ell[j]):
            weights[(sub_map[j][k - 1], sub_map[j][k])] = Fraction(1)
        c_j = vel.exact(j)
        col_sum = Fraction(0)
        for i, w_ij in g.column(j).items():
            w = w_ij * c_j / vel.exact(i)
            weights[(sub_map[i][-1], sub_map[j][0])] = w
            col_sum += w
        if col_sum != 1:
            stochastic = False

    name = f"{g.name}~{c}" if g.name else f"subdivided~{c}"
    gt = MetricGraph.finite(edges, weights, name=name, stochastic=stochastic)
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


def _inflow(history: dict, feeders: list, a, b) -> list:
    """Tail inflow sum_k coef_k H_k(s) on [a, b) as (start, value) segments."""
    if not feeders:
        return [(a, 0)]
    windows = [(coef, _window(*history[k], a, b)) for k, coef in feeders]
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


def evolve_rational(g: MetricGraph, vel: VelocityProfile, f: NetworkState, t) -> NetworkState:
    """Exact evolution at rational velocities along backward characteristics.

    On a finite graph, the head outflow H_k of every edge is built as an
    exact step function of time on [0, t): f_k(c_k s) while the initial
    profile drains, then the tail inflow sum_i (c_i / c_k) w_ki H_i
    delayed by 1/c_k.  All histories grow together in stages of the
    shortest traversal time, each stage reading only what earlier stages
    built.  Edge j then reads f_j(x + c_j t) where that stays on the edge
    and the tail inflow at time t - (1 - x)/c_j elsewhere.  A graph whose
    edges share one speed c, as every lazy graph must, runs the unit flow
    for time c*t instead.
    """
    if not vel.is_rational():
        raise NotRationalError("evolve_rational needs exact rational velocities")
    t = as_exact_time(t, "evolution time")
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    if g.is_finite:
        ids = g.edge_ids
        speed = {j: vel.exact(j) for j in ids}
        uniform = set(speed.values())
    else:
        uniform = {_lazy_speed(vel)}
    if len(uniform) == 1:
        return evolve_unit(build_adjacency(g), f, uniform.pop() * t)
    if t == 0:
        return f

    # f_j as a step function of the edge parameter, per edge
    profile = {j: ([Fraction(0)], [0]) for j in ids}
    for j in f.support():
        starts, values = [], []
        for lo, _, v in f.pieces():
            x = v.get(j)
            if not values or x != values[-1]:
                starts.append(lo)
                values.append(x)
        profile[j] = (starts, values)
    feeders = {
        j: [(k, speed[k] / speed[j] * w) for k, w in g.feeders(j).items()]
        for j in ids
    }

    # time runs in ticks of 1/D: every breakpoint, lag and stage end
    # below is a whole number of ticks, so histories hold integers
    f_den = math.lcm(*(b.denominator for b in f.breakpoints))
    D = math.lcm(t.denominator, f_den * math.lcm(*(c.numerator for c in speed.values())))
    T = t.numerator * (D // t.denominator)
    lag = {j: D // c.numerator * c.denominator for j, c in speed.items()}
    # stages of the shortest traversal time end at step, 2 step, ..., T;
    # each visits every edge, whatever the size of the answer
    step = min(lag.values())
    stages = -(-T // step) - 1
    if stages * len(ids) > MAX_STAGE_EDGES:
        fastest = sorted(ids, key=lag.get)[:4]
        raise WidthOverflowError(
            f"{stages} stages over {len(ids)} edges exceed {MAX_STAGE_EDGES} stage-edges",
            edges=fastest,
        )

    # head outflow H_j on [0, reach[j]): first f_j(c_j s) while edge j drains
    history, reach = {}, {}
    for j in ids:
        c_j = speed[j]
        reach[j] = min(lag[j], T)
        segments = _window(*profile[j], Fraction(0), c_j * Fraction(reach[j], D))
        history[j] = (
            [y.numerator * (D // (y.denominator * c_j.numerator)) * c_j.denominator
             for y, _ in segments],
            [v for _, v in segments],
        )
    size = sum(len(starts) for starts, _ in history.values())

    # then the tail inflow delayed by lag[j], one stage of the shortest
    # traversal time at a time: a stage ending at `end` reads histories
    # only up to end - min(lag), which earlier stages have built
    end = step
    while end < T:
        end = min(end + step, T)
        for j in ids:
            if reach[j] >= end:
                continue
            starts, values = history[j]
            for s, v in _inflow(history, feeders[j], reach[j] - lag[j], end - lag[j]):
                if v != values[-1]:
                    starts.append(s + lag[j])
                    values.append(v)
                    size += 1
            reach[j] = end
            if size > MAX_HISTORY_BREAKPOINTS:
                worst = sorted(ids, key=lambda k: len(history[k][0]), reverse=True)[:4]
                raise WidthOverflowError(
                    f"characteristic histories exceed {MAX_HISTORY_BREAKPOINTS} breakpoints",
                    edges=worst,
                )

    # edge j at x: f_j(x + c_j t) on the edge, else the tail inflow at
    # time t - (1 - x)/c_j; collected as value changes keyed by position
    changes: dict = {}
    for j in ids:
        c_j = speed[j]
        segments = []
        if c_j * t < 1:
            segments += [(y - c_j * t, v) for y, v in _window(*profile[j], c_j * t, 1)]
        # x = 1 - c_j (T - s) / D
        den = c_j.denominator * D
        segments += [
            (Fraction(den - c_j.numerator * (T - s), den), v)
            for s, v in _inflow(history, feeders[j], max(0, T - lag[j]), T)
        ]
        prev = 0
        for x, v in segments:
            if v != prev:
                changes.setdefault(x, []).append((j, v))
                prev = v

    bps = sorted(changes.keys() | {Fraction(0)})
    current: dict = {}
    pieces = []
    for x in bps:
        for j, v in changes.get(x, ()):
            if v == 0:
                current.pop(j, None)
            else:
                current[j] = v
        pieces.append(SparseVector(current))
    return NetworkState(bps + [Fraction(1)], pieces)


class AbsorptionProfile:
    """Per-edge absorption rates as step functions of the edge parameter.

    Breakpoints must be exact rationals (they join the evolution lattice);
    values may be any reals.  Edges not listed absorb nothing.
    """

    def __init__(self, profiles: Mapping):
        states = []
        for j, (bps, vals) in sorted(profiles.items(), key=lambda kv: repr(kv[0])):
            bps = [as_exact(b, what=f"absorption breakpoint on edge {j!r}") for b in bps]
            if len(vals) != len(bps) - 1:
                raise MalformedGraphError(
                    f"absorption profile on edge {j!r}: {len(bps)} breakpoints "
                    f"need {len(bps) - 1} values"
                )
            states.append(
                NetworkState(bps, [SparseVector({j: v}) for v in vals])
            )
        if states:
            merged = states[0]
            for s in states[1:]:
                merged = merged + s
        else:
            merged = NetworkState.zero()
        self._state = merged
        self.sup_bound = max(
            (abs(x) for v in merged.values for _, x in v.items()), default=0
        )

    @classmethod
    def constant(cls, rates: Mapping) -> "AbsorptionProfile":
        return cls({j: ([Fraction(0), Fraction(1)], [r]) for j, r in rates.items()})

    @classmethod
    def zero(cls) -> "AbsorptionProfile":
        return cls({})

    def as_state(self) -> NetworkState:
        return self._state

    def __repr__(self):
        return f"AbsorptionProfile({len(self._state.support())} edges, bound {self.sup_bound})"


@dataclass
class AbsorbingResult:
    """Sampled perturbed evolution plus the numbers that qualify it.

    `tail_bound` dominates the dropped series orders.  `quad_bound` is not
    a proven bound: it is twice the sup distance between the run and one
    with half the panels, an estimate of the quadrature error (zero when
    the panel lattice makes the midpoint rule exact).  `error_bound`,
    their sum, is therefore a proven tail plus an estimate, not a
    guarantee.  Rates act with the sign they have: a constant positive
    q0 grows mass as exp(q0 t), a negative one absorbs it.
    """

    state: SampledState
    tail_bound: float
    quad_bound: float
    order: int
    quad_steps: int

    @property
    def error_bound(self) -> float:
        return self.tail_bound + self.quad_bound


def _weighted_sup_norm(f: NetworkState, ell: Mapping):
    """sup over beta of sum_j (1/ell_j) sum_k |f_j((k + beta) / ell_j)|:
    the norm the subdivided flow contracts, read off f without building
    the subdivided graph.  Edges missing from `ell` count as ell_j = 1."""
    support = sorted(f.support())
    grid = {Fraction(0)}
    for b in f.breakpoints[1:-1]:
        for j in support:
            grid.add(frac_part(ell.get(j, 1) * b))
    best = 0
    for beta in grid:
        n = 0
        for j in support:
            L = ell.get(j, 1)
            for k in range(L):
                n += Fraction(1, L) * abs(f.value_at((k + beta) / L).get(j))
        if n > best:
            best = n
    return best


def _absorb_series(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                   q: NetworkState, t: Fraction, order: int,
                   quad_steps: int) -> NetworkState:
    """Truncated perturbation series on the graph itself, every transport
    step an exact evolve_rational.  Midpoint panels, one shared node
    lattice per level."""
    P = quad_steps
    h = t / P

    total = evolve_rational(g, vel, f, t)
    if order == 0 or q.is_zero():
        return total

    nodes = []
    v = evolve_rational(g, vel, f, h / 2)
    nodes.append(v)
    for _ in range(1, P):
        v = evolve_rational(g, vel, v, h)
        nodes.append(v)

    zero = NetworkState.zero()
    for _ in range(1, order + 1):
        gs = [node.hadamard(q) for node in nodes]
        acc = zero
        new_nodes = []
        for p in range(P):
            # value at node p: full panels below it plus its own half panel
            new_nodes.append(acc.scale(h) + gs[p].scale(h / 2))
            if p < P - 1:
                acc = evolve_rational(g, vel, acc + gs[p], h)
            else:
                final = evolve_rational(g, vel, acc + gs[p], h / 2).scale(h)
        total = total + final
        nodes = new_nodes
    return total


def evolve_absorbing(
    g: MetricGraph,
    vel: VelocityProfile,
    q: AbsorptionProfile,
    f: NetworkState,
    t,
    order: int = 6,
    quad_steps: int = 64,
    grid: int = 128,
) -> AbsorbingResult:
    """Transport with pointwise absorption, as a truncated iterated series.

    Returns samples of sum_{k<=order} S_k(t) f on the uniform grid, for
    the generator d/ds + q: a positive rate grows mass (a constant q0
    multiplies it by exp(q0 t)), a negative rate absorbs it.  The series
    runs on the characteristic flow of evolve_rational; the paper's
    subdivision is not built, but its ell_j = c / c_j (see
    common_multiplier) set the norm of the reported tail bound

        (sum_j ell_j) * (|q| t)^{K+1} / (K+1)! * (geometric tail factor) * |f|

    with |f| = sup_beta sum_j (1/ell_j) sum_k |f_j((k + beta) / ell_j)|,
    the norm the subdivided flow contracts; at a uniform velocity the
    leading factor is 1 and this reduces to the familiar series
    remainder.  Velocities must be exact rationals, and uniform on a lazy
    graph, even at t = 0.  The quadrature figure is an estimate, not
    a bound: the run is repeated with half the quad_steps and the sup
    distance doubled, so exact-on-the-lattice runs report zero.  At t = 0
    the input is returned sampled, with both figures zero, without
    running the series.
    """
    t = as_exact_time(t, "evolution time")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    if quad_steps < 1:
        raise ValueError(f"quad_steps must be >= 1, got {quad_steps}")
    if grid < 1:
        raise ValueError(f"output grid must be >= 1, got {grid}")

    if not vel.is_rational():
        raise NotRationalError("absorption needs exact rational velocities")
    if g.is_finite:
        ell = common_multiplier(vel, g.edge_ids)[1]
    else:
        _lazy_speed(vel)  # refuses a non-uniform profile
        ell = {}
    if t == 0:
        # the series at h = 0 returns its input, and both bounds vanish
        return AbsorbingResult(sample(f, grid), 0.0, 0.0, order, quad_steps)
    q_state = q.as_state()

    out = sample(_absorb_series(g, vel, f, q_state, t, order, quad_steps), grid)
    if quad_steps >= 2 and not q_state.is_zero():
        half = _absorb_series(g, vel, f, q_state, t, order, quad_steps // 2)
        quad_bound = 2.0 * float(out.distance(sample(half, grid)))
    else:
        quad_bound = 0.0

    x = float(q.sup_bound) * float(t)
    k1 = order + 1
    lead = x**k1 / math.factorial(k1)
    corr = 1.0 / (1.0 - x / (k1 + 1)) if x < k1 + 1 else math.exp(x)
    equiv = float(sum(ell.values())) if any(L > 1 for L in ell.values()) else 1.0
    tail_bound = equiv * lead * corr * float(_weighted_sup_norm(f, ell))

    return AbsorbingResult(out, tail_bound, quad_bound, order, quad_steps)
