"""Backward-characteristic point evaluation against the exact evolutions."""

import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import oracles
from netflow import (
    MalformedGraphError,
    MalformedInputError,
    MetricGraph,
    NetworkState,
    PrecisionError,
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
from netflow import checks
from netflow.exact import exact_values


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
        with pytest.raises(MalformedInputError, match="grid size must be an integer >= 1"):
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


def entrywise(fn, h):
    """h with fn applied to every value."""
    return h.map_values(lambda v: SparseVector({j: fn(x) for j, x in v.items()}))


def exact_speeds(vel):
    """vel with every speed read as the rational it holds."""
    return VelocityProfile({j: F(c) for j, c in vel.items()},
                           default=None if vel.default is None else F(vel.default))


def rounded_trace(g, vel, f, t, grid):
    """The rows of the exact flow of the rationals that f, vel and t hold,
    sampled on the grid and rounded once, value by value."""
    out = sample(evolve_rational(g, exact_speeds(vel), entrywise(F, f), F(t)), grid)
    return [{j: float(v) for j, v in r.items()} for r in out.samples]


class TestSegmentSampler:
    """trace_samples and trace_value read kept history segments on an
    integer tick lattice."""

    SPEEDS = (F(1, 2), F(1), F(2), F(3, 2), F(2, 3), F(5, 4), 1, 2, 3)

    def test_equals_per_point_trace_value(self):
        # every row, the left limit at 1 included, and every trace_value
        # match the independent per-point crawl, on exact f bit for bit and
        # on float f as the correctly rounded crawl of Fraction(f)
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
            exact_f, read = (entrywise(F, f), float) if trial % 3 == 1 else (f, lambda v: v)
            grid = rng.choice((rng.randint(1, 36), 4, 6, 8, 12, 24))
            # on the 1/24 lattice, with grids and breakpoint dens among its
            # divisors, many feet land on breakpoints and on tails (1 is one)
            t = F(rng.randint(0, 60), 24)
            points = []
            for m in range(grid + 1):
                side = "right" if m < grid else "left"
                x = F(m, grid)
                row = SparseVector({j: read(oracles.crawl(g, vel, exact_f, j, x, t, side))
                                    for j in g.edge_ids})
                points.append(row)
                values = SparseVector({j: trace_value(g, vel, f, j, x, t, side) for j in g.edge_ids})
                assert rows_bits([values]) == rows_bits([row]), (trial, m)
                feet += sum(x + vel.exact(j) * t in f.breakpoints for j in g.edge_ids)
            traced = trace_samples(g, vel, f, t, grid)
            assert rows_bits(traced.samples) == rows_bits(points), trial
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

    def test_float_inputs_are_rounded_once(self):
        # irrational float speeds, and a float time at rational speeds, are
        # read as the rationals they hold: every value is the correctly
        # rounded trace of those rationals
        vel = VelocityProfile({1: 2 ** 0.5, 2: F(1), 3: F(1, 2), 4: 3 ** 0.5, 5: F(3, 2)})
        f = random_state(random.Random(4), (1, 2, 3, 4, 5))
        unit = VelocityProfile({j: F(1) for j in range(1, 6)})
        for speeds, t in ((vel, F(7, 3)), (unit, 2.3)):
            want = rounded_trace(g5(), speeds, f, t, 40)
            assert rows_bits(trace_samples(g5(), speeds, f, t, 40).samples) == rows_bits(want)
        exact_vel = exact_speeds(vel)
        for j in range(1, 6):
            for k in range(10):
                v = trace_value(g5(), vel, f, j, F(k, 9), F(7, 3))
                assert type(v) is float or v == 0
                assert v == float(trace_value(g5(), exact_vel, f, j, F(k, 9), F(7, 3)))

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


class TestFloatInputs:
    """A float time, position, speed or state value is read as the rational
    it holds: each traced value is the exact flow of those rationals,
    rounded once, correctly."""

    SPEEDS = (2 ** 0.5, 3 ** 0.5 / 2, math.pi / 4, 0.7, 1.5, F(1), F(2), F(1, 2), F(3, 2))

    def test_random_graphs_round_the_exact_flow(self):
        # float speeds, times, values and positions, alone and together,
        # through trace_samples and trace_value at random points
        rng = random.Random(34)
        kinds = {"speeds": 0, "time": 0, "values": 0, "x": 0}
        for trial in range(200):
            g = checks.random_graph(rng, 6)
            vel = VelocityProfile({j: rng.choice(self.SPEEDS) for j in g.edge_ids})
            f = checks.random_state(rng, g, 4)
            if trial % 3 != 1:
                f = entrywise(lambda x: float(x) / 7, f)
            t = rng.uniform(0, 3) if trial % 3 != 2 else checks.random_time(rng)
            floats = not (vel.is_rational() and isinstance(t, F) and exact_values(f))
            kinds["speeds"] += not vel.is_rational()
            kinds["time"] += isinstance(t, float)
            kinds["values"] += not exact_values(f)
            exact = evolve_rational(g, exact_speeds(vel), entrywise(F, f), F(t))
            grid = rng.randint(1, 24)
            want = sample(entrywise(float, exact) if floats else exact, grid)
            assert trace_samples(g, vel, f, t, grid) == want, trial
            for _ in range(4):
                j, side = rng.choice(g.edge_ids), rng.choice(("right", "left"))
                x = rng.choice((rng.random(), rng.randint(0, 7) / 8))
                if (side == "left" and x == 0) or (side == "right" and x == 1):
                    continue  # the trace routes where the state owns the point
                kinds["x"] += 1
                value = trace_value(g, vel, f, j, x, t, side)
                assert value == float(exact.value_at(F(x), side).get(j)), (trial, j, x, side)
                assert type(value) is float or value == 0
        assert min(kinds.values()) >= 100, kinds

    def test_complex_state_runs_as_two_real_traces(self):
        vel = VelocityProfile({1: 2 ** 0.5, 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        re = random_state(random.Random(11), (1, 2, 3, 4, 5))
        im = random_state(random.Random(12), (1, 2, 3, 4, 5))
        f = re + im.scale(1j)
        parts = [rounded_trace(g5(), vel, entrywise(lambda x: getattr(x, part), f), F(7, 3), 40)
                 for part in ("real", "imag")]
        want = [SparseVector(a) + SparseVector(b).scale(1j) for a, b in zip(*parts)]
        traced = trace_samples(g5(), vel, f, F(7, 3), 40)
        assert traced.samples == tuple(want)
        assert any(isinstance(x, complex) and x.imag != 0 for r in want for x in r.values())
        coarse = trace_samples(g5(), vel, f, F(7, 3), 10)
        for k in range(11):
            side = "right" if k < 10 else "left"
            assert trace_value(g5(), vel, f, 3, F(k, 10), F(7, 3), side) == coarse.samples[k].get(3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_nonfinite_time_is_refused(self, bad):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        vel = VelocityProfile({1: F(1), 2: 2 ** 0.5})
        with pytest.raises(PrecisionError, match=f"time {bad!r} is not finite"):
            trace_samples(g2(), vel, f, bad, 4)
        with pytest.raises(PrecisionError, match=f"time {bad!r} is not finite"):
            trace_value(g2(), vel, f, 1, F(1, 4), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    @pytest.mark.parametrize("t", [F(0), F(3, 2), 1.5])
    def test_a_nonfinite_state_value_is_refused(self, bad, t):
        f = NetworkState([F(0), F(1, 2), F(1)],
                         [SparseVector({1: 0.5}), SparseVector({2: 1.0, 3: bad})])
        for vel in (VelocityProfile({}, default=F(1)), VelocityProfile({}, default=2 ** 0.5)):
            with pytest.raises(PrecisionError, match=r"state value .* on edge 3 is not finite"):
                trace_samples(g5(), vel, f, t, 8)
            with pytest.raises(PrecisionError, match=r"state value .* on edge 3 is not finite"):
                trace_value(g5(), vel, f, 1, F(1, 4), t)

    def test_a_sample_past_float_range_is_refused(self):
        # 1e308 on edge 1 at speed 2 enters edge 2 (speed 1) as 2e308
        vel = VelocityProfile({1: F(2), 2: F(1)})
        for f, t in ((NetworkState.constant(SparseVector({1: 1e308})), F(1)),
                     (NetworkState.constant(SparseVector({1: 10 ** 308})), 1.0)):
            with pytest.raises(PrecisionError, match="overflows a float"):
                trace_samples(g2(), vel, f, t, 4)
            with pytest.raises(PrecisionError, match="overflows a float"):
                trace_value(g2(), vel, f, 2, F(1, 4), t)
        exact = trace_samples(g2(), vel, NetworkState.constant(SparseVector({1: 10 ** 308})), F(1), 4)
        assert exact.samples[1].get(2) == 2 * 10 ** 308


class TestStackReach:
    """The segment reader takes one stack frame per tail crossing; past the
    interpreter stack a trace is refused, not crashed."""

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
