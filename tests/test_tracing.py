"""Backward-characteristic point evaluation against the exact evolutions."""

import hashlib
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import oracles
from netflow import (
    MalformedGraphError,
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    WidthOverflowError,
    build_adjacency,
    evolve_rational,
    evolve_unit,
    sample,
    trace_samples,
    trace_value,
)
from netflow import checks, tracing


def g2():
    return MetricGraph.finite(
        [(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1)}, name="g2"
    )


def g5():
    edges = [(1, 1, 2), (2, 2, 3), (3, 2, 4), (4, 3, 1), (5, 4, 1)]
    weights = {
        (2, 1): F(1, 2), (3, 1): F(1, 2),
        (4, 2): F(1), (5, 3): F(1),
        (1, 4): F(1), (1, 5): F(1),
    }
    return MetricGraph.finite(edges, weights, name="g5")


def random_state(rng, edges, pieces=5):
    cuts = sorted({F(rng.randrange(1, 36), 36) for _ in range(pieces - 1)})
    bps = [F(0)] + cuts + [F(1)]
    vals = [
        SparseVector({j: F(rng.randrange(-6, 7), 3) for j in edges})
        for _ in range(len(bps) - 1)
    ]
    return NetworkState(bps, vals)


class TestTraceValue:
    def test_short_time_is_a_shift(self):
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(2)}), SparseVector({1: F(5)})],
        )
        vel = VelocityProfile({1: F(1), 2: F(1)})
        assert trace_value(g2(), vel, f, 1, F(1, 4), F(1, 8)) == 2
        assert trace_value(g2(), vel, f, 1, F(1, 4), F(3, 8)) == 5

    def test_vertex_routing(self):
        # after crossing, the value comes from the feeder's head history
        f = NetworkState.constant(SparseVector({1: F(1)}))
        vel = VelocityProfile({1: F(1), 2: F(1)})
        assert trace_value(g2(), vel, f, 2, F(3, 4), F(1, 2)) == 1
        assert trace_value(g2(), vel, f, 2, F(1, 4), F(1, 2)) == 0

    def test_velocity_conjugated_weights(self):
        # crossing into a slower edge scales the value by c_feeder / c_edge
        f = NetworkState.constant(SparseVector({1: F(1)}))
        vel = VelocityProfile({1: F(2), 2: F(1)})
        assert trace_value(g2(), vel, f, 2, F(7, 8), F(1, 4)) == 2

    def test_seam_sides(self):
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({1: F(3)})],
        )
        vel = VelocityProfile({1: F(1), 2: F(1)})
        # backward foot lands exactly on the interior breakpoint
        assert trace_value(g2(), vel, f, 1, F(1, 4), F(1, 4)) == 3
        assert trace_value(g2(), vel, f, 1, F(1, 4), F(1, 4), side="left") == 1

    def test_domain_checks(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        vel = VelocityProfile({1: F(1), 2: F(1)})
        with pytest.raises(ValueError):
            trace_value(g2(), vel, f, 1, F(1, 2), F(-1))
        with pytest.raises(ValueError):
            trace_value(g2(), vel, f, 1, F(3, 2), F(1))
        with pytest.raises(ValueError):
            trace_value(g2(), vel, f, 1, F(1, 2), F(1), side="middle")

    def test_agrees_with_independent_crawler(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = random_state(random.Random(2), (1, 2, 3, 4, 5))
        for j in g.edge_ids:
            for k in range(7):
                x = F(2 * k + 1, 14)
                assert trace_value(g, vel, f, j, x, F(5, 4)) == oracles.crawl(
                    g, vel, f, j, x, F(5, 4)
                )

    def test_irrational_velocity_accepted(self):
        vel = VelocityProfile({1: 2 ** 0.5, 2: 3 ** 0.5})
        f = NetworkState.constant(SparseVector({1: F(1)}))
        v = trace_value(g2(), vel, f, 2, 0.9, 0.1)
        # the crossing happened: value scaled by c1/c2
        assert v == pytest.approx((2 / 3) ** 0.5)


class TestTraceSamples:
    def test_matches_unit_evolution_on_grid(self):
        g = g5()
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = random_state(random.Random(7), (1, 2, 3, 4, 5))
        t = F(3, 4)
        exact = sample(evolve_unit(build_adjacency(g), f, t), 60)
        traced = trace_samples(g, vel, f, t, 60)
        assert traced.distance(exact) == 0

    def test_matches_rational_evolution_on_grid(self):
        g = g2()
        vel = VelocityProfile({1: F(2), 2: F(1)})
        f = random_state(random.Random(8), (1, 2))
        for t in (F(0), F(1, 3), F(7, 6)):
            exact = sample(evolve_rational(g, vel, f, t), 48)
            traced = trace_samples(g, vel, f, t, 48)
            assert traced.distance(exact) == 0

    def test_edge_subset(self):
        g = g5()
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = NetworkState.constant(SparseVector({1: F(1)}))
        traced = trace_samples(g, vel, f, F(1, 2), 10, edges=[2])
        assert traced.support() <= {2}

    def test_grid_check(self):
        vel = VelocityProfile({1: F(1), 2: F(1)})
        with pytest.raises(ValueError):
            trace_samples(g2(), vel, NetworkState.zero(), F(1), 0)


def rows_bits(rows):
    """Each row as {edge: (type, value)}, floats by their hex, so == is bit for bit."""
    return [{j: (type(v), v.hex() if isinstance(v, float) else v) for j, v in r.items()}
            for r in rows]


def wide_graph(rng, n=200, out_degree=3):
    """n vertices, each with `out_degree` distinct heads; each column splits
    8/8 over the edges leaving its head."""
    edges = []
    for v in range(n):
        for h in sorted(rng.sample([u for u in range(n) if u != v], out_degree)):
            edges.append((len(edges) + 1, v, h))
    by_tail = {}
    for j, tail, _ in edges:
        by_tail.setdefault(tail, []).append(j)
    weights = {}
    for j, _, head in edges:
        cuts = sorted(rng.sample(range(1, 8), len(by_tail[head]) - 1))
        for i, a, b in zip(by_tail[head], [0] + cuts, cuts + [8]):
            weights[(i, j)] = F(b - a, 8)
    return MetricGraph.finite(edges, weights)


class TestSegmentSampler:
    """trace_samples at exact time and speeds reads kept history segments
    on an integer tick lattice; trace_value walks each point."""

    SPEEDS = (F(1, 2), F(1), F(2), F(3, 2), F(2, 3), F(5, 4), 1, 2, 3)

    def test_equals_per_point_trace_value(self, monkeypatch):
        # exact trace_samples walks no point: with the walk patched to
        # raise, every row, the left limit at 1 included, still matches it
        def no_walk(*args):
            raise AssertionError("exact trace_samples walked a point")

        rng = random.Random(28)
        feet = 0
        for trial in range(300):
            g = checks.random_graph(rng, 6)
            vel = VelocityProfile({j: rng.choice(self.SPEEDS) for j in g.edge_ids})
            f = checks.random_state(rng, g, 5)
            if trial % 3 == 1:
                f = f.map_values(lambda v: SparseVector({j: float(x) / 3 for j, x in v.items()}))
            elif trial % 3 == 2:
                f = f.map_values(lambda v: SparseVector({j: int(4 * x) for j, x in v.items()}))
            grid = rng.choice((rng.randint(1, 36), 4, 6, 8, 12, 24))
            # on the 1/24 lattice, with grids and breakpoint dens among its
            # divisors, many feet land on breakpoints and on tails (1 is one)
            t = F(rng.randint(0, 60), 24)
            points = []
            for m in range(grid + 1):
                side = "right" if m < grid else "left"
                x = F(m, grid)
                points.append({j: trace_value(g, vel, f, j, x, t, side) for j in g.edge_ids})
                feet += sum(x + vel.exact(j) * t in f.breakpoints for j in g.edge_ids)
            with monkeypatch.context() as patch:
                patch.setattr(tracing, "_trace", no_walk)
                traced = trace_samples(g, vel, f, t, grid)
            assert rows_bits(traced.samples) == rows_bits(SparseVector(p) for p in points), trial
        assert feet > 200  # 281 at this seed

    def test_int_speeds_stay_exact(self):
        # 1 / c and c_k / c_j at int speeds are Fractions, so a long time
        # still finds the right piece and the samples stay exact
        g = g5()
        vel = VelocityProfile({1: 3, 2: 1, 3: 2, 4: F(5, 4), 5: 1})
        f = random_state(random.Random(3), (1, 2, 3, 4, 5))
        t = F(71, 2)
        traced = trace_samples(g, vel, f, t, 12)
        assert traced == sample(evolve_rational(g, vel, f, t), 12)
        assert all(type(v) is F for r in traced.samples for v in r.values())
        assert traced.samples[5].get(3) == trace_value(g, vel, f, 3, F(5, 12), t)

    def test_float_path_is_unchanged(self):
        # irrational speeds, and a float time at rational speeds, take the
        # per-point walk; the digests pin its bits
        def digest(rows):
            text = ";".join(",".join(f"{j}:{v.hex() if isinstance(v, float) else v}"
                                     for j, v in sorted(r.items())) for r in rows)
            return hashlib.sha256(text.encode()).hexdigest()

        vel = VelocityProfile({1: 2 ** 0.5, 2: F(1), 3: F(1, 2), 4: 3 ** 0.5, 5: F(3, 2)})
        f = random_state(random.Random(4), (1, 2, 3, 4, 5))
        unit = VelocityProfile({j: F(1) for j in range(1, 6)})
        values = [trace_value(g5(), vel, f, j, F(k, 9), F(7, 3)) for j in range(1, 6)
                  for k in range(10)]
        assert digest(trace_samples(g5(), vel, f, F(7, 3), 40).samples) == (
            "3072f545d8e08159a4862194d62d7b0453ad87690ad1378d22498ace20d56148")
        assert digest(trace_samples(g5(), unit, f, 2.3, 40).samples) == (
            "400e3af1f68aba0e346e84aa1d495d20da2cd594155e1d88d87be9cb699c9c31")
        assert digest([{0: float(v)} for v in values]) == (
            "975da94db2797cca85f4329631595f0d87a8803e6fed1635a411fbdf580ae977")

    def test_lazy_graph_refused(self):
        lazy = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        vel = VelocityProfile({}, default=F(1))
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(MalformedGraphError, match="edge_ids is not available"):
            trace_samples(lazy, vel, f, F(1, 2), 8)
        with pytest.raises(MalformedGraphError, match="feeders is not available"):
            trace_samples(lazy, vel, f, F(3, 2), 8, edges=[2])

    def test_negative_time_refused(self):
        vel = VelocityProfile({1: F(1), 2: F(1)})
        with pytest.raises(ValueError, match="nonnegative"):
            trace_samples(g2(), vel, NetworkState.zero(), F(-1, 2), 4)

    def test_unknown_edge_refused(self):
        # mass on an edge the graph lacks, or a requested edge it lacks, is
        # refused as the exact evolution refuses it, at any time; a default
        # speed would otherwise read edge 99 as an empty edge
        vel = VelocityProfile({}, default=F(1))
        stray = NetworkState.constant(SparseVector({1: F(1), 99: F(5)}))
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            evolve_rational(g2(), vel, stray, F(1, 2))
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            trace_samples(g2(), vel, stray, F(1, 2), 4)
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            trace_value(g2(), vel, stray, 1, F(1, 4), F(1, 2))
        f = NetworkState.constant(SparseVector({1: F(1)}))
        for t in (F(0), F(1, 2), 0.5):
            with pytest.raises(MalformedGraphError, match="unknown edge 99"):
                trace_samples(g2(), vel, f, t, 4, edges=[99])
            with pytest.raises(MalformedGraphError, match="unknown edge 99"):
                trace_value(g2(), vel, f, 99, F(1, 4), t)

    def test_memory_on_the_wide_graph(self):
        # 2 edges x 257 points at t = 181/48 on a 600-edge, out-degree-3
        # graph with a 64-piece state: the kept segments stay under 3 MB,
        # where a memo keyed on each point's exact backward times takes 7.7
        rng = random.Random(5)
        g = wide_graph(rng)
        ids = g.edge_ids
        f = NetworkState([F(k, 64) for k in range(65)], [
            SparseVector({e: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                          for e in rng.sample(ids, 32)}) for _ in range(64)])
        edges = rng.sample(ids, 2)
        tracemalloc.start()
        try:
            traced = trace_samples(g, VelocityProfile({}, default=F(1)), f, F(181, 48), 256,
                                   edges=edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000
        assert traced.support() <= set(edges)


class TestStackReach:
    """The walk and the segment reader take one stack frame per tail
    crossing; past the interpreter stack a trace is refused, not crashed."""

    f = NetworkState([F(0), F(1, 2), F(1)],
                     [SparseVector({1: F(1), 2: F(2)}), SparseVector({1: F(3)})])
    unit = VelocityProfile({1: F(1), 2: F(1)})

    def test_long_exact_trace(self):
        t = F(900)
        traced = trace_samples(g2(), self.unit, self.f, t, 4)
        assert traced == sample(evolve_rational(g2(), self.unit, self.f, t), 4)
        assert trace_value(g2(), self.unit, self.f, 1, F(1, 4), t) == traced.samples[1].get(1)

    def test_long_irrational_trace(self):
        vel = VelocityProfile({1: 2 ** 0.5, 2: F(1)})
        traced = trace_samples(g2(), vel, self.f, F(700), 4)
        assert len(traced.samples) == 5

    @pytest.mark.parametrize("vel", [unit, VelocityProfile({1: 2 ** 0.5, 2: F(1)})],
                             ids=["unit", "sqrt2"])
    def test_deeper_trace_refused(self, vel):
        message = "tracing to t = 5000 crosses more edges than the interpreter stack holds"
        with pytest.raises(WidthOverflowError, match=message):
            trace_samples(g2(), vel, self.f, F(5000), 4)
        with pytest.raises(WidthOverflowError, match=message):
            trace_value(g2(), vel, self.f, 1, F(1, 4), F(5000))
