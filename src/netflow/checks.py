"""Seeded randomized invariant suite behind the `check` CLI verb.

Each check draws its own generator seeded from (seed, check name), so
suites are deterministic and insensitive to the order checks run in.
Trial counts are desk-scale; the heavyweight randomized gates live in the
test suite, this module exists so a deployed install can re-verify itself
and its shipped fixtures.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .errors import MalformedGraphError, WidthOverflowError
from .fileio import parse_graph_text, parse_state_text
from .graph import (
    MetricGraph,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    validate_graph,
)
from .resolvent import laplace_oracle, resolvent_general, resolvent_identity_check, resolvent_unit
from .semigroup import evolve_rational, evolve_unit
from .states import NetworkState, pair, predual_norm, sample
from .tracing import trace_samples

__all__ = [
    "SUITES",
    "CheckResult",
    "random_graph",
    "random_velocities",
    "random_state",
    "random_time",
    "run_suite",
]

SUITES = ("graph", "states", "semigroup", "tracing", "resolvent", "fixtures")

VELOCITY_POOL = (
    Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2),
    Fraction(3), Fraction(3, 2), Fraction(1, 3), Fraction(5, 2),
)


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        flag = "ok" if self.ok else f"FAIL ({len(self.failures)})"
        return f"check {self.name}: {self.trials} trials, {flag} [{self.seconds:.2f}s]"


def random_graph(rng: random.Random, max_edges: int = 12, primes: tuple = (),
                 vertices: int = 0) -> MetricGraph:
    """Sink-free simple digraph: a cycle through 2 to 4 vertices, or through
    `vertices`, guaranteeing every vertex an outgoing edge, plus random
    non-duplicate chords, stochastic columns with small rational weights,
    or over one of `primes` per column."""
    k = vertices or rng.randint(2, 4)
    n_total = rng.randint(k, max(k, max_edges))
    edges = []
    pairs = set()
    for i in range(k):
        edges.append((i + 1, i, (i + 1) % k))
        pairs.add((i, (i + 1) % k))
    eid = k + 1
    attempts = 0
    while len(edges) < n_total and attempts < 50:
        attempts += 1
        tail, head = rng.randrange(k), rng.randrange(k)
        if tail == head or (tail, head) in pairs:
            continue
        edges.append((eid, tail, head))
        pairs.add((tail, head))
        eid += 1

    by_tail: dict = {}
    for j, tail, _ in edges:
        by_tail.setdefault(tail, []).append(j)
    weights = {}
    for j, _, head in edges:
        receivers = by_tail[head]
        raw = [rng.randint(1, 9) for _ in receivers]
        total = sum(raw)
        if primes:  # the last receiver takes the rest of one of them
            total = rng.choice(primes)
            raw[-1] += total - sum(raw)
        for i, a in zip(receivers, raw):
            weights[(i, j)] = weights.get((i, j), 0) + Fraction(a, total)
    return MetricGraph.finite(edges, weights, name=f"rand{len(edges)}")


def random_velocities(rng: random.Random, g: MetricGraph) -> VelocityProfile:
    return VelocityProfile({j: rng.choice(VELOCITY_POOL) for j in g.edge_ids})


def random_state(rng: random.Random, g: MetricGraph, max_pieces: int = 8,
                 *, nonneg: bool = False) -> NetworkState:
    den = rng.choice([8, 12, 16, 24])
    n_pieces = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, den), min(n_pieces - 1, den - 1)))
    bps = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    ids = g.edge_ids
    vecs = []
    for _ in range(len(bps) - 1):
        vec = {}
        for e in ids:
            if rng.random() < 0.5:
                num = rng.randint(0, 4) if nonneg else rng.randint(-3, 3)
                vec[e] = Fraction(num, rng.randint(1, 4))
        vecs.append(SparseVector(vec))
    return NetworkState(bps, vecs)


def random_time(rng: random.Random, limit: int = 3) -> Fraction:
    den = rng.choice([1, 2, 3, 4, 6, 8])
    return Fraction(rng.randint(0, limit * den), den)


def _run(name: str, seed, trials: int, body) -> CheckResult:
    rng = random.Random(f"{seed}:{name}")
    result = CheckResult(name, trials)
    start = time.perf_counter()
    for trial in range(trials):
        if len(result.failures) >= 5:
            break
        try:
            body(rng, result, trial)
        except Exception as exc:
            result.failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - start
    return result


def _check_graph(seed, trials) -> CheckResult:
    def body(rng, result, trial):
        g = random_graph(rng)
        op = build_adjacency(g)
        ids = g.edge_ids
        v = SparseVector({j: Fraction(rng.randint(0, 5), rng.randint(1, 3))
                          for j in ids if rng.random() < 0.6})
        if op.apply(v).total() != v.total():
            result.failures.append(f"trial {trial}: Bv total changed on {g.name}")
        signed = SparseVector({j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for j in ids if rng.random() < 0.6})
        if op.apply(signed).l1() > signed.l1():
            result.failures.append(f"trial {trial}: l1 grew under B on {g.name}")
        vel = random_velocities(rng, g)
        sc = build_adjacency(g, vel)
        lhs = sc.apply(signed)
        rhs = SparseVector({
            j: val / vel.exact(j)
            for j, val in op.apply(
                SparseVector({j: val * vel.exact(j) for j, val in signed.items()})
            ).items()
        })
        if lhs != rhs:
            result.failures.append(f"trial {trial}: conjugation identity broke on {g.name}")

    outcome = _run("graph", seed, trials, body)
    # lazy ride-along, one shot each: a column that skips an edge, and one
    # that sums to 1/2, are refused
    for what, column in (("skips an edge", lambda j: [(j + 2, Fraction(1))]),
                         ("sums to 1/2", lambda j: [(j + 1, Fraction(1, 2))])):
        try:
            MetricGraph.lazy(column, lambda j: (j, j + 1)).column(0)
            outcome.failures.append(f"a lazy column that {what} was accepted")
        except MalformedGraphError:
            pass
    return outcome


def _check_states(seed, trials) -> CheckResult:
    def body(rng, result, trial):
        g = random_graph(rng, 6)
        f = random_state(rng, g)
        rebuilt = NetworkState(f.breakpoints, f.values)
        if rebuilt != f:
            result.failures.append(f"trial {trial}: canonicalization not idempotent")
        h = random_state(rng, g)
        if (f + h) - h != f:
            result.failures.append(f"trial {trial}: add/sub roundtrip broke")
        tf = random_state(rng, g, 4)
        if abs(pair(f, tf)) > f.sup_norm() * predual_norm(tf):
            result.failures.append(f"trial {trial}: Hoelder bound violated exactly")
        M = rng.choice([7, 16, 33])
        sampled = sample(f, M)
        probe = rng.randint(0, M)
        if sampled.samples[probe] != f.value_at(
            Fraction(probe, M), "right" if probe < M else "left"
        ):
            result.failures.append(f"trial {trial}: sample convention broke at {probe}/{M}")

    return _run("states", seed, trials, body)


def _check_semigroup(seed, trials) -> CheckResult:
    def body(rng, result, trial):
        wide = trial % 4 == 3  # weights over 2^20 - 3, so from t = 3 on Python ints
        g = random_graph(rng, primes=(1048573,) if wide else ())
        op = build_adjacency(g)
        f = random_state(rng, g)
        t, s = random_time(rng) + 3 * wide, random_time(rng)
        one = evolve_unit(op, evolve_unit(op, f, s), t)
        two = evolve_unit(op, f, t + s)
        if one != two:
            result.failures.append(f"trial {trial}: semigroup law broke at t={t}, s={s}")
        if evolve_unit(op, f, t).sup_norm() > f.sup_norm():
            result.failures.append(f"trial {trial}: contraction broke at t={t}")
        if evolve_unit(op, f, t).total_mass() != f.total_mass():
            result.failures.append(f"trial {trial}: mass drifted at t={t}")
        if evolve_unit(op, f, Fraction(0)) != f:
            result.failures.append(f"trial {trial}: identity at t=0 broke")
        fp = random_state(rng, g, nonneg=True)
        if not evolve_unit(op, fp, t).is_nonnegative():
            result.failures.append(f"trial {trial}: positivity broke at t={t}")

    outcome = _run("semigroup", seed, trials, body)
    try:  # lazy ride-along, one shot: a 2-cycle at t = 10^7 is over the budget
        cycle = MetricGraph.lazy(lambda j: [(1 - j, Fraction(1))], lambda j: (j, 1 - j))
        both = NetworkState.constant(SparseVector({0: Fraction(1), 1: Fraction(1)}))
        evolve_unit(build_adjacency(cycle), both, Fraction(10**7))
        outcome.failures.append("a lazy 2-cycle at t = 10^7 was not refused")
    except WidthOverflowError:
        pass
    # float ride-along, one shot each: f / 7 on a random graph and on one
    # of up to 64 edges is the correctly rounded exact flow of Fraction(f / 7)
    rng = random.Random(f"{seed}:semigroup-float")
    for g in (random_graph(rng, 12, vertices=4), random_graph(rng, 64, vertices=32)):
        vel, f = random_velocities(rng, g), random_state(rng, g, 5).scale(1 / 7)
        t = Fraction(rng.randint(1, 24), 8)
        what = f"a float flow on {g.name} to t = {t}"
        try:
            rounded = _each(float, evolve_rational(g, vel, _each(Fraction, f), t))
            if evolve_rational(g, vel, f, t) != rounded:
                outcome.failures.append(f"{what} is not the rounded exact flow")
        except Exception as exc:
            outcome.failures.append(f"{what}: {type(exc).__name__}: {exc}")
    return outcome


def _each(fn, h: NetworkState) -> NetworkState:
    return h.map_values(lambda v: SparseVector({j: fn(x) for j, x in v.items()}))


def _lazy_path() -> MetricGraph:
    return MetricGraph.lazy(
        lambda j: [(j + 1, Fraction(1))],
        lambda j: (j, j + 1),
        name="zpath",
    )


def _cycle(n: int) -> MetricGraph:
    """The n-edge cycle 0 -> 1 -> ... -> n - 1 -> 0, which holds any part
    of the lazy path from edge 0 to edge n - 2."""
    return MetricGraph.finite([(j, j, (j + 1) % n) for j in range(n)],
                              {((j + 1) % n, j): Fraction(1) for j in range(n)})


def _check_tracing(seed, trials) -> CheckResult:
    def body(rng, result, trial):
        g = random_graph(rng, 6)
        vel = random_velocities(rng, g)
        f = random_state(rng, g, 5)
        t = random_time(rng, 2)
        exact = sample(evolve_rational(g, vel, f, t), 32)
        traced = trace_samples(g, vel, f, t, 32)
        if exact != traced:
            result.failures.append(f"trial {trial}: tracing disagreed with evolution at t={t}")
        if evolve_rational(g, vel, f, Fraction(0)) != f:
            result.failures.append(f"trial {trial}: rational identity at t=0 broke")
        fp = random_state(rng, g, 4, nonneg=True)
        if not evolve_rational(g, vel, fp, t).is_nonnegative():
            result.failures.append(f"trial {trial}: rational positivity broke at t={t}")

    # lazy propagation ride-along: cheap and structural, one shot
    outcome = _run("tracing", seed, trials, body)
    g = _lazy_path()
    f = NetworkState.constant(SparseVector({0: Fraction(1)}))
    out = evolve_unit(build_adjacency(g), f, Fraction(5, 2))
    if out.support() - {2, 3}:
        outcome.failures.append(f"lazy path support leaked: {sorted(out.support(), key=repr)}")
    # at listed speeds the path's forward cone at t = 7/3 ends at edge 4,
    # so a 12-edge cycle carries the same flow
    vel, t = VelocityProfile({1: 2, 2: 3, 4: Fraction(1, 2)}, default=1), Fraction(7, 3)
    if evolve_rational(g, vel, f, t) != evolve_rational(_cycle(12), vel, f, t):
        outcome.failures.append("listed-speed lazy path disagreed with a finite cycle")
    # one-shot ride-alongs: the 2-cycle to t = 900, where the tracer reads
    # 900 crossings off its work stack, and a flow at speeds 1/2, 1 and 2 on 32
    # to 64 edges, over 256 edges times pieces, which is past the per-edge
    # histories' work of a stage and runs as semigroup._array_flow
    rng = random.Random(f"{seed}:tracing-wide")
    wide = random_graph(rng, 64, vertices=32)
    u = Fraction(rng.randint(1, 24), 24)
    dense = random_state(rng, wide, 16)
    while len(wide) * len(dense.values) <= 256:
        dense = random_state(rng, wide, 16)
    cases = [("the 2-cycle to t = 900", _cycle(2), VelocityProfile({}, default=1),
              NetworkState([0, Fraction(1, 2), 1], [SparseVector({0: 1, 1: 2}), SparseVector({0: 3})]),
              Fraction(900), 4),
             (f"a {len(wide)}-edge flow to t = {u}", wide,
              VelocityProfile({j: Fraction(2**rng.randint(0, 2), 2) for j in wide.edge_ids}),
              dense, u, 32)]
    for what, g, vel, f, t, grid in cases:
        try:
            if trace_samples(g, vel, f, t, grid) != sample(evolve_rational(g, vel, f, t), grid):
                outcome.failures.append(f"tracing {what} disagreed with evolution")
        except Exception as exc:
            outcome.failures.append(f"tracing {what}: {type(exc).__name__}: {exc}")
    # float ride-along, one shot: g5 at speeds sqrt 2 and sqrt 3 / 2 to a
    # float time traces the rounded exact flow of the rationals they hold
    g = parse_graph_text(fixture_path("g5.graph").read_text(), origin="g5.graph").graph
    vel = VelocityProfile({1: math.sqrt(2), 2: 1, 3: math.sqrt(3) / 2, 4: Fraction(3, 2), 5: 1})
    f, t = random_state(rng, g, 5), 1.7
    try:
        exact = VelocityProfile({j: Fraction(c) for j, c in vel.items()})
        if trace_samples(g, vel, f, t, 32) != sample(
                _each(float, evolve_rational(g, exact, f, Fraction(t))), 32):
            outcome.failures.append(f"tracing g5 at float speeds to t = {t} is not the rounded exact flow")
    except Exception as exc:
        outcome.failures.append(f"tracing g5 at float speeds: {type(exc).__name__}: {exc}")
    return outcome


def _check_resolvent(seed, trials) -> CheckResult:
    def body(rng, result, trial):
        g = random_graph(rng, 8)
        op = build_adjacency(g)
        f = random_state(rng, g, 5, nonneg=True)
        lam = rng.choice([1.0, 2.0, 0.5])
        ru = resolvent_unit(op, f, lam, grid=128, tol=1e-12)
        vel = random_velocities(rng, g)
        rg = resolvent_general(g, vel, f, lam, grid=64, tol=1e-12)
        lr = laplace_oracle(build_adjacency(g, vel), f, lam, t_max=int(16 / lam), grid=64)
        if rg.state.distance(lr.state) > lr.error_bound + rg.tail_bound:
            result.failures.append(f"trial {trial}: resolvent and Laplace sum disagree")
        low = float(ru.state.array.min(initial=0.0))
        if low < -1e-14:
            result.failures.append(f"trial {trial}: positivity broke ({low})")
        if ru.state.sup_sample_norm() > float(f.sup_norm()) / lam + 1e-10:
            result.failures.append(f"trial {trial}: resolvent norm bound broke")
        report = resolvent_identity_check(op, f, lam, grid=512, tol=1e-12)
        if report.trace > 1e-8:
            result.failures.append(f"trial {trial}: trace residual {report.trace}")

    # lazy ride-along, one shot: at irrational listed speeds the path's
    # series reads a closure that a cycle one edge longer holds
    outcome = _run("resolvent", seed, trials, body)
    vel = VelocityProfile({1: math.sqrt(3), 3: math.pi / 2}, default=math.sqrt(2))
    f = NetworkState.constant(SparseVector({0: Fraction(1), 1: Fraction(2)}))
    lazy = resolvent_general(_lazy_path(), vel, f, 1 + 1j, grid=32)
    finite = resolvent_general(_cycle(len(lazy.state.edges) + 1), vel, f, 1 + 1j, grid=32)
    if lazy.state.distance(finite.state) > lazy.tail_bound + finite.tail_bound:
        outcome.failures.append("irrational-speed lazy resolvent disagreed with a finite cycle")
    return outcome


def fixture_path(name: str):
    return resources.files("netflow") / "fixtures" / name


def _check_fixtures(seed, trials) -> CheckResult:
    result = CheckResult("fixtures", 1)
    start = time.perf_counter()
    try:
        for fname in ("g2.graph", "g5.graph"):
            gf = parse_graph_text(fixture_path(fname).read_text(), origin=fname)
            report = validate_graph(gf.graph)
            if not report.ok:
                result.failures.append(f"{fname}: {report.summary()}")
        for fname in ("g2_pulse.state", "g5_mixed.state", "g2_rates.state"):
            parse_state_text(fixture_path(fname).read_text(), origin=fname)
    except Exception as exc:
        result.failures.append(f"{type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - start
    return result


_CHECKS = {
    "graph": (_check_graph, 40),
    "states": (_check_states, 40),
    "semigroup": (_check_semigroup, 50),
    "tracing": (_check_tracing, 20),
    "resolvent": (_check_resolvent, 8),
    "fixtures": (_check_fixtures, 1),
}


def run_suite(suite: str = "all", seed=7, scale: float = 1.0) -> list:
    """Run one named suite or all of them; returns CheckResults in a fixed
    order.  `scale` shrinks or grows trial counts (floor 1)."""
    if suite == "all":
        names = SUITES
    elif suite in _CHECKS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; pick from {('all',) + SUITES}")
    results = []
    for name in names:
        fn, trials = _CHECKS[name]
        results.append(fn(seed, max(1, round(trials * scale))))
    return results
