"""Exact transport evolution: unit, rational along characteristics, subdivided, and absorbing."""

import copy
import importlib.util
import itertools
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netflow._arrays as arrays_module
import netflow.resolvent as resolvent_module
import oracles
from netflow import (
    AbsorbingResult,
    AbsorptionProfile,
    AdjacencyOperator,
    ApproximationSchedule,
    MalformedGraphError,
    MalformedInputError,
    MetricGraph,
    MissingVelocityError,
    NetworkState,
    NotRationalError,
    PrecisionError,
    SparseVector,
    VelocityProfile,
    WidthOverflowError,
    WrongOperatorError,
    boundary_residual,
    build_adjacency,
    emit_plotdata,
    evolve_absorbing,
    evolve_rational,
    evolve_unit,
    laplace_oracle,
    resolvent_identity_check,
    resolvent_unit,
    sample,
    trace_samples,
)
from netflow import _arrays, checks, cli, exact, semigroup
from netflow.semigroup import common_multiplier, lift_state, project_state, subdivide


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


def lazy_path():
    return MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))


def cycle(n):
    """The first n edges of lazy_path, with edge n-1 feeding edge 0."""
    return MetricGraph.finite(
        [(j, j, (j + 1) % n) for j in range(n)], {((j + 1) % n, j): F(1) for j in range(n)}
    )


def pulse_e1():
    return NetworkState.constant(SparseVector({1: F(1)}))


def random_state(rng, edges, pieces=6):
    cuts = sorted({F(rng.randrange(1, 48), 48) for _ in range(pieces - 1)})
    bps = [F(0)] + cuts + [F(1)]
    vals = [
        SparseVector({j: F(rng.randrange(-6, 7), 3) for j in edges})
        for _ in range(len(bps) - 1)
    ]
    return NetworkState(bps, vals)


rational_times = st.fractions(min_value=0, max_value=3, max_denominator=12)


EXACT_VERBS = {
    "unit": lambda g, vel, f, t: evolve_unit(build_adjacency(g), f, t),
    "rational": evolve_rational,
    "absorbing": lambda g, vel, f, t: evolve_absorbing(g, vel, AbsorptionProfile.zero(), f, t),
}


# evolve_unit takes no speeds, so it has none to refuse
@pytest.mark.parametrize("lazy", [False, True], ids=["finite", "lazy"])
@pytest.mark.parametrize("verb, t, speed, error", [
    (verb, t, speed, error) for verb in EXACT_VERBS for t, speed, error in [
        (0.5, F(1), PrecisionError), (F(-1, 2), F(1), ValueError),
        (F(1, 2), math.sqrt(2), NotRationalError)]
    if verb != "unit" or error is not NotRationalError
])
def test_exact_verbs_share_their_refusals(lazy, verb, t, speed, error):
    g = lazy_path() if lazy else cycle(3)
    vel = VelocityProfile({0: F(1)}, default=speed)
    f = NetworkState([F(0), F(1, 3), F(1)],
                     [SparseVector({0: F(1)}), SparseVector({1: F(2)})])
    with pytest.raises(error):
        EXACT_VERBS[verb](g, vel, f, t)


class TestEvolveUnit:
    def test_time_one_is_routing(self):
        out = evolve_unit(build_adjacency(g2()), pulse_e1(), F(1))
        assert out == NetworkState.constant(SparseVector({2: F(1)}))

    def test_half_step_splits(self):
        out = evolve_unit(build_adjacency(g2()), pulse_e1(), F(1, 2))
        want = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1)})],
        )
        assert out == want

    @pytest.mark.parametrize("t", [F(0), F(1, 4)])
    def test_state_on_an_unknown_edge_refused(self, t):
        # edge 99 takes no routing step by t = 1/4; g2 has no edge 99
        f = NetworkState(
            [F(0), F(1, 2), F(1)], [SparseVector({1: F(1)}), SparseVector({99: F(5)})]
        )
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            evolve_unit(build_adjacency(g2()), f, t)

    def test_identity_at_zero(self):
        rng = random.Random(3)
        f = random_state(rng, (1, 2, 3, 4, 5))
        assert evolve_unit(build_adjacency(g5()), f, F(0)) == f

    @given(rational_times, rational_times, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_law(self, t, s, seed):
        op = build_adjacency(g5())
        f = random_state(random.Random(seed), (1, 2, 3, 4, 5), pieces=4)
        two_step = evolve_unit(op, evolve_unit(op, f, s), t)
        assert two_step == evolve_unit(op, f, t + s)

    @given(rational_times, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_contraction_and_mass(self, t, seed):
        op = build_adjacency(g5())
        f = random_state(random.Random(seed), (1, 2, 3, 4, 5), pieces=4)
        out = evolve_unit(op, f, t)
        assert out.sup_norm() <= f.sup_norm()
        if f.is_nonnegative():
            assert out.total_mass() == f.total_mass()

    def test_positive_mass_conserved_exactly(self):
        op = build_adjacency(g5())
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(2), 3: F(1, 7)}), SparseVector({4: F(5, 3)})],
        )
        out = evolve_unit(op, f, F(7, 5))
        assert out.total_mass() == f.total_mass()
        assert out.is_nonnegative()

    def test_scaled_operator_refused(self):
        op = build_adjacency(g2(), VelocityProfile({1: F(2), 2: F(1)}))
        with pytest.raises(WrongOperatorError):
            evolve_unit(op, pulse_e1(), F(1))

    def test_float_time_refused(self):
        with pytest.raises(PrecisionError):
            evolve_unit(build_adjacency(g2()), pulse_e1(), 0.5)

    def test_matches_tracing_oracle_pointwise(self):
        g = g5()
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = pulse_e1()
        out = evolve_unit(build_adjacency(g), f, F(3, 4))
        for j in g.edge_ids:
            for k in range(12):
                x = F(2 * k + 1, 24)
                assert out.value_at(x).get(j) == oracles.crawl(g, vel, f, j, x, F(3, 4))

    def test_finite_propagation_on_lazy_path(self):
        path = MetricGraph.lazy(
            column_fn=lambda j: [(j + 1, F(1))],
            endpoints_fn=lambda j: (j, j + 1),
            name="path",
        )
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({0: F(1)}), SparseVector({0: F(2)})],
        )
        out = evolve_unit(build_adjacency(path), f, F(5, 2))
        assert out.support() <= {2, 3}
        # pure translate: s on edge 2 came from s + 1/2 on edge 0,
        # s on edge 3 from s - 1/2 on edge 0
        want = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({2: F(2)}), SparseVector({3: F(1)})],
        )
        assert out == want


def branching_path():
    """Lazy infinite graph: two parallel edges (v, 0), (v, 1) from v to v+1,
    each splitting its outflow over the next pair with its own weights."""
    split = {0: (F(1, 3), F(2, 3)), 1: (F(3, 4), F(1, 4))}
    return MetricGraph.lazy(
        lambda j: [((j[0] + 1, 0), split[j[1]][0]), ((j[0] + 1, 1), split[j[1]][1])],
        lambda j: (j[0], j[0] + 1),
        name="branching",
    )


def pointwise_unit_flow(g, f, t, s):
    """T(t)f(s) = B^n f(t + s - n), routed entry by entry in Fractions."""
    y = t + s
    n = y.numerator // y.denominator
    return oracles.fraction_apply_power(g, f.value_at(y - n), n)


def route_exact(g, vecs, powers):
    """semigroup._route_exact over the steps of a unit flow from the
    vectors' supports to time max(powers): every edge of a finite graph,
    and on a lazy one the forward cone, max(powers) deep."""
    f = NetworkState.constant(SparseVector({j: 1 for v in vecs for j in v.support()}))
    _, speed, rows, *_ = semigroup._network(g, semigroup._UNIT, f, F(max(powers)))
    return semigroup._route_exact(semigroup._steps(g, speed, rows), vecs, powers)


class TestUnitKernel:
    """evolve_unit through the int64 array steps and their Python-int
    fallback, against per-entry routing."""

    def check_pointwise(self, g, f, t):
        out = evolve_unit(build_adjacency(g), f, t)
        probes = {F(m, 97) for m in range(97)} | set(out.breakpoints[:-1])
        for s in sorted(probes):
            assert dict(out.value_at(s).items()) == pointwise_unit_flow(g, f, t, s), (t, s)
        return out

    @pytest.mark.parametrize("nonneg", [True, False])
    def test_lazy_path_long_times(self, nonneg):
        rng = random.Random(f"lazy-kernel:{nonneg}")
        g = branching_path()
        edges = [(v, k) for v in range(3) for k in (0, 1)]
        lo = 1 if nonneg else -4
        bps = [F(0), F(1, 5), F(1, 2), F(5, 6), F(1)]
        vals = [
            SparseVector({e: F(rng.randint(lo, 4), rng.randint(1, 6)) for e in edges})
            for _ in range(len(bps) - 1)
        ]
        f = NetworkState(bps, vals)
        for t in (F(1, 3), F(5, 2), F(7), F(47, 4), F(12)):
            out = self.check_pointwise(g, f, t)
            assert out.total_mass() == f.total_mass()
            if nonneg:
                assert out.is_nonnegative()

    def test_lazy_stack_powers_up_to_twelve(self):
        g = branching_path()
        vecs = [
            SparseVector({(0, 0): F(1, 2), (0, 1): F(-3, 7)}),
            SparseVector({(1, 1): 5}),
            SparseVector({(2, 0): F(2, 9), (3, 1): F(1, 4)}),
        ]
        powers = [12, 7, 11]
        for v, n, out in zip(vecs, powers, route_exact(g, vecs, powers)):
            assert dict(out.items()) == oracles.fraction_apply_power(g, v, n)

    def test_a_lazy_unit_flow_walks_its_cone_once(self, monkeypatch):
        # the unit steps come from the forward cone _network walked
        g = branching_path()
        f = random_state(random.Random(11), [(0, 0), (0, 1), (1, 1)], pieces=4)
        want = {t: evolve_unit(build_adjacency(g), f, t) for t in (F(1, 3), F(37, 3), F(12))}
        walk, walks = MetricGraph._walk, []

        def counted(self, *args):
            walks.append(args)
            return walk(self, *args)

        monkeypatch.setattr(MetricGraph, "_walk", counted)
        for t, out in want.items():
            walks.clear()
            assert evolve_unit(build_adjacency(g), f, t) == out and len(walks) == 1
            self.check_pointwise(g, f, t)

    @pytest.mark.parametrize("seed", range(3))
    def test_python_int_fallback(self, seed):
        # weights over one prime near 2^20 take the numerators past int64
        # within a few steps; over several, L starts past it; and a value
        # of 2^70/3 starts past it on a finite and on a lazy graph
        rng = random.Random(f"python-ints:{seed}")
        cases = []
        for primes in ((1048573,), (1048573, 1048571, 1048559, 1048549)):
            g = checks.random_graph(rng, 10, primes=primes)
            while all(len(g.column(j)) == 1 for j in g.edge_ids):  # no weight over a prime
                g = checks.random_graph(rng, 10, primes=primes)
            ids = g.edge_ids
            signed = SparseVector({j: F(rng.randint(-3, 3), rng.randint(1, 4)) for j in ids})
            cases.append((g, [signed, SparseVector({ids[0]: F(2**70, 3), ids[-1]: F(-1, 7)})]))
        cases.append((branching_path(), [SparseVector({(0, 0): F(2**70, 3), (1, 1): F(5, 7)}),
                                         SparseVector({(0, 1): F(-3, 7)})]))
        for g, vecs in cases:
            for v in vecs:  # one call each, so a vector of int64 entries starts in int64
                got = route_exact(g, [v] * 13, list(range(13)))
                for n, out in enumerate(got):
                    assert dict(out.items()) == oracles.fraction_apply_power(g, v, n), n
                    assert all(type(x) is F and type(x.numerator) is int
                               and type(x.denominator) is int for x in out.values()), n
                    assert out is v or n
                if v is vecs[0]:
                    # B^12 v has a numerator, in lowest terms, past int64:
                    # the Python ints ran
                    assert max(abs(x.numerator) for x in got[12].values()) > 2**63

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_pointwise(self, seed):
        rng = random.Random(f"unit-kernel:{seed}")
        for trial in range(12):
            g = checks.random_graph(rng, 10)
            f = checks.random_state(rng, g, 5, nonneg=trial % 2 == 0)
            self.check_pointwise(g, f, checks.random_time(rng, 4))

    def test_float_state_runs_exactly_and_rounds_once(self):
        # float values run the exact kernels as Fraction(f) and are rounded
        # once, correctly, at one speed as at many, on a finite graph and on
        # a lazy graph's forward cone
        g = g5()
        exact = random_state(random.Random(5), (1, 2, 3, 4, 5), pieces=5)
        f = entrywise(lambda x: float(x) / 7, exact)
        for vel in (VelocityProfile({}, default=F(1)), VelocityProfile({}, default=F(3, 2))):
            for t in (F(2, 5), F(9, 4)):
                out = assert_rounded_exact_flow(g, vel, f, t)
                assert trace_samples(g, vel, f, t, 97) == sample(out, 97)
        # speed 3/2 for time 3/2 is unit speed for time 9/4, to the bit
        assert evolve_unit(build_adjacency(g), f, F(9, 4)) == evolve_rational(
            g, VelocityProfile({}, default=F(3, 2)), f, F(3, 2))
        g, edges = branching_path(), [(0, 0), (0, 1)]
        f = entrywise(lambda x: float(x) / 7, random_state(random.Random(6), edges, pieces=4))
        assert_rounded_exact_flow(g, VelocityProfile({}, default=F(1)), f, F(7, 2))
        assert evolve_unit(build_adjacency(g), f, F(7, 2)) == evolve_rational(
            g, VelocityProfile({}, default=F(1)), f, F(7, 2))

    def test_exact_verbs_build_no_operator(self, monkeypatch, tmp_path):
        # the exact flows, the boundary residual, the identity check and the
        # CLI's solve verbs run on the graph and its speeds alone: an
        # operator a caller passes is read for its graph, and none is built
        rng = random.Random("no-operator")
        cases = [
            (build_adjacency(g5()), random_state(rng, (1, 2, 3, 4, 5)),
             [VelocityProfile({}, default=F(2)), G5_SPEEDS]),
            (build_adjacency(branching_path()), random_state(rng, [(0, 0), (0, 1)]),
             [VelocityProfile({}, default=F(1)), VelocityProfile({(1, 0): F(2)}, default=F(1))]),
        ]

        def no_operator(*_):
            raise AssertionError("an exact verb built an operator")

        monkeypatch.setattr(AdjacencyOperator, "__init__", no_operator)
        for op, f, speeds in cases:
            assert evolve_unit(op, f, F(7, 3)).total_mass() == f.total_mass()
            laplace_oracle(op, f, 2, t_max=3, grid=8)
            for vel in speeds:
                out = evolve_rational(op.graph, vel, f, F(7, 3))
                evolve_absorbing(op.graph, vel, AbsorptionProfile.zero(), f, F(7, 3), grid=8)
                boundary_residual(out, op.graph, vel)
                resolvent_identity_check(op, f, 2, grid=16, vel=vel)
        rates = tmp_path / "zero.state"
        rates.write_text("state zero\nbp 0/1 1/1\n")
        for graph, state in (("g2.graph", "g2_pulse.state"), ("g5.graph", "g5_mixed.state")):
            front = ["--graph", str(checks.fixture_path(graph)),
                     "--state", str(checks.fixture_path(state)), "--out", str(tmp_path)]
            for argv in (["simulate", "--t", "7/3"], ["absorb", "--rates", str(rates), "--t", "7/3"],
                         ["resolvent", "--lambda", "2"]):
                assert cli.main([argv[0], *front, *argv[1:], "--grid", "8"]) == 0

    @pytest.mark.parametrize("first", ["flow", "resolvent"])
    def test_graph_keeps_one_routing(self, monkeypatch, first):
        # a finite graph builds one routing, on its first resolvent, and
        # the flows' int steps over its feeders on its first flow, in either
        # order; later flows at any one speed, and resolvents, build neither.
        # Unit time 27/2 over 6 pieces is past the per-edge histories' work:
        # the closed form runs
        g = g5()
        f = random_state(random.Random(7), (1, 2, 3, 4, 5))
        vel = VelocityProfile({}, default=F(3, 2))
        if first == "resolvent":
            resolvent_unit(build_adjacency(g), f, 2.0, grid=8)
        want = evolve_rational(g, vel, f, F(9))
        if first == "flow":
            assert "routing" not in g._kept
            resolvent_unit(build_adjacency(g), f, 2.0, grid=8)
        routing, steps = g._kept["routing"], g._kept["steps"]
        assert routing[0] == tuple(g.edge_ids) == tuple(steps[0])

        def refuse(*_):
            raise AssertionError("built the routing or its int steps again")

        monkeypatch.setattr(resolvent_module, "_routing", refuse)
        monkeypatch.setattr(arrays_module, "_int_steps", refuse)
        assert evolve_rational(g, vel, f, F(9)) == want
        assert evolve_unit(build_adjacency(g), f, F(27, 2)) == want
        assert evolve_rational(g, VelocityProfile({}, default=F(2)), f, F(27, 4)) == want
        resolvent_unit(build_adjacency(g), f, 0.5, grid=8)
        assert g._kept["routing"] is routing and g._kept["steps"] is steps

    def test_lazy_graph_reads_each_column_once(self):
        # a lazy graph routes on the closure of each call, and reads each
        # column once across calls: the graph keeps it in g._columns
        g = branching_path()
        column_fn, reads = g._column_fn, []

        def counted(j):
            reads.append(j)
            return column_fn(j)

        g._column_fn = counted
        f = random_state(random.Random(7), [(0, 0), (0, 1)])
        vel = VelocityProfile({}, default=F(3, 2))
        first = evolve_rational(g, vel, f, F(9, 4))
        assert reads and len(reads) == len(set(reads))
        kept = dict(g._columns)
        assert evolve_rational(g, vel, f, F(9, 4)) == first
        assert evolve_unit(build_adjacency(g), f, F(27, 8)) == first
        assert evolve_unit(build_adjacency(g), f, F(35, 8)).total_mass() == f.total_mass()
        assert len(reads) == len(set(reads)) > len(kept)
        assert all(g._columns[j] is col for j, col in kept.items())


class TestCommonMultiplier:
    def test_unit_profile(self):
        c, ell = common_multiplier(VelocityProfile({1: F(1), 2: F(1)}))
        assert c == 1 and ell == {1: 1, 2: 1}

    def test_integer_lcm(self):
        c, ell = common_multiplier(VelocityProfile({1: F(2), 2: F(3)}))
        assert c == 6 and ell == {1: 3, 2: 2}

    def test_fractional_speeds(self):
        c, ell = common_multiplier(VelocityProfile({1: F(1, 2), 2: F(1, 3)}))
        assert c == 1 and ell == {1: 2, 2: 3}
        assert oracles.brute_common_multiplier([F(1, 2), F(1, 3)]) == 1

    def test_minimality_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(20):
            cs = [
                F(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(3)
            ]
            vel = VelocityProfile(dict(enumerate(cs)))
            c, ell = common_multiplier(vel)
            assert c == oracles.brute_common_multiplier(cs)
            for j, cj in enumerate(cs):
                assert c == ell[j] * cj

    def test_width_cap(self):
        vel = VelocityProfile({1: F(2 ** 40), 2: F(3 ** 40)})
        with pytest.raises(WidthOverflowError) as err:
            common_multiplier(vel)
        assert err.value.edges

    def test_subedge_cap(self):
        vel = VelocityProfile({1: F(1), 2: F(1, 3_000_000)})
        with pytest.raises(WidthOverflowError):
            common_multiplier(vel)


class TestSubdivide:
    def test_identity_plan(self):
        plan = subdivide(g2(), VelocityProfile({1: F(1), 2: F(1)}))
        assert plan.is_identity
        assert plan.graph is plan.source

    def test_two_cycle_splits_into_three(self):
        plan = subdivide(g2(), VelocityProfile({1: F(1, 2), 2: F(1)}))
        assert plan.c == 1 and plan.ell == {1: 2, 2: 1}
        assert plan.sub_edges() == 3 and len(plan.graph) == 3
        head_sub, tail_sub = plan.sub_edge_map[1]
        (e2,) = plan.sub_edge_map[2]
        # one directed 3-cycle: e2 -> tail sub-edge -> head sub-edge -> e2
        assert dict(plan.graph.column(e2).items()) == {tail_sub: F(2)}
        assert dict(plan.graph.column(tail_sub).items()) == {head_sub: F(1)}
        assert dict(plan.graph.column(head_sub).items()) == {e2: F(1, 2)}

    def test_five_edge_insertion(self):
        vel = VelocityProfile({1: F(1), 2: F(1), 3: F(1), 4: F(1), 5: F(1, 2)})
        plan = subdivide(g5(), vel)
        assert plan.sub_edges() == 6
        head_sub, tail_sub = plan.sub_edge_map[5]
        assert dict(plan.graph.column(tail_sub).items()) == {head_sub: F(1)}

    def test_plan_invariants(self):
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        plan = subdivide(g5(), vel)
        for j, l in plan.ell.items():
            assert l >= 1 and plan.c == l * vel.velocity(j)
        assert plan.sub_edges() == sum(plan.ell.values())
        # inserted vertices pass mass straight through
        for j, subs in plan.sub_edge_map.items():
            for k in range(len(subs) - 1):
                col = plan.graph.column(subs[k + 1])
                assert dict(col.items()) == {subs[k]: F(1)}

    def test_string_edge_ids(self):
        # sub-edges are numbered (j, k), which sort beside string ids too
        g = MetricGraph.finite([("a", 1, 2), ("b", 2, 1)], {("a", "b"): F(1), ("b", "a"): F(1)})
        vel = VelocityProfile({"a": F(1), "b": F(2)})
        plan = subdivide(g, vel)
        assert plan.sub_edge_map == {"a": (("a", 0), ("a", 1)), "b": (("b", 0),)}
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({"a": F(1)}), SparseVector({"b": F(-2)})])
        for t in (F(1, 3), F(5, 2)):
            assert evolve_rational(g, vel, f, t) == subdivided_flow(g, vel, f, t)


class TestLiftProject:
    def test_identity_plan_round_trip(self):
        plan = subdivide(g2(), VelocityProfile({1: F(1), 2: F(1)}))
        f = pulse_e1()
        assert lift_state(plan, f) == f
        assert project_state(plan, f) == f

    def test_constant_splits_to_constants(self):
        plan = subdivide(g2(), VelocityProfile({1: F(1, 2), 2: F(1)}))
        lifted = lift_state(plan, pulse_e1())
        a, b = plan.sub_edge_map[1]
        assert lifted == NetworkState.constant(SparseVector({a: F(1), b: F(1)}))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_exact(self, seed):
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        plan = subdivide(g5(), vel)
        f = random_state(random.Random(seed), (1, 2, 3, 4, 5), pieces=8)
        assert project_state(plan, lift_state(plan, f)) == f


class TestEvolveRational:
    def test_unit_velocities_match_evolve_unit(self):
        g = g5()
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = random_state(random.Random(9), (1, 2, 3, 4, 5))
        for t in (F(0), F(1, 3), F(2)):
            assert evolve_rational(g, vel, f, t) == evolve_unit(build_adjacency(g), f, t)

    def test_uniform_speed_rescales_time(self):
        g = g2()
        vel = VelocityProfile({1: F(2), 2: F(2)})
        f = random_state(random.Random(10), (1, 2))
        assert evolve_rational(g, vel, f, F(1, 4)) == evolve_unit(
            build_adjacency(g), f, F(1, 2)
        )

    def test_distinct_speeds_by_value(self):
        # equal speeds given as an int, as a Fraction and as another
        # Fraction object count once; different ones each count once
        g = g5()
        f = random_state(random.Random(10), (1, 2, 3, 4, 5))
        same = VelocityProfile({1: 2, 2: F(2), 3: F(4, 2), 4: F(2), 5: 2})
        assert semigroup._network(g, same, f, F(1))[3] == [F(2)]
        mixed = VelocityProfile({1: 2, 2: F(1, 2), 3: F(2), 4: F(1, 2), 5: F(3)})
        assert sorted(semigroup._network(g, mixed, f, F(1))[3]) == [F(1, 2), F(2), F(3)]
        assert evolve_rational(g, same, f, F(3, 4)) == evolve_unit(
            build_adjacency(g), f, F(3, 2))

    def test_a_default_speed_reads_no_edge_alone(self, monkeypatch):
        # a profile with a default gives every edge of a finite graph its
        # speed without vel.exact per edge; one without names a missing one
        g = g5()
        f = random_state(random.Random(11), (1, 2, 3, 4, 5))
        profiles = [VelocityProfile({}, default=F(3, 2)),
                    VelocityProfile({2: F(3, 2), 9: F(5)}, default=F(3, 2)),
                    VelocityProfile({1: F(2), 4: F(1, 2)}, default=F(1)),
                    VelocityProfile(dict.fromkeys(g.edge_ids, F(2)), default=F(1))]
        want = [evolve_rational(g, vel, f, F(7, 3)) for vel in profiles]
        assert [semigroup._network(g, vel, f, F(1))[3] for vel in profiles] == [
            [F(3, 2)], [F(3, 2)], [F(2), F(1, 2), F(1)], [F(2)]]

        def no_exact(vel, j):
            raise AssertionError(f"vel.exact({j!r}) read one edge's speed")

        monkeypatch.setattr(VelocityProfile, "exact", no_exact)
        assert [evolve_rational(g, vel, f, F(7, 3)) for vel in profiles] == want
        assert evolve_unit(build_adjacency(g), f, F(7, 2)) == want[0]
        monkeypatch.undo()
        with pytest.raises(MissingVelocityError, match="no velocity for edge 5"):
            evolve_rational(g, VelocityProfile({j: F(1) for j in (1, 2, 3, 4)}), f, F(1))
        with pytest.raises(NotRationalError):
            evolve_rational(g, VelocityProfile({1: 1.5}, default=F(1)), f, F(1))

    def test_matches_tracing_oracle(self):
        g = g2()
        vel = VelocityProfile({1: F(2), 2: F(1)})
        f = pulse_e1()
        out = evolve_rational(g, vel, f, F(1, 2))
        for j in g.edge_ids:
            for k in range(30):
                x = F(2 * k + 1, 60)
                assert out.value_at(x).get(j) == oracles.crawl(g, vel, f, j, x, F(1, 2))

    def test_positivity(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = pulse_e1()
        out = evolve_rational(g, vel, f, F(7, 8))
        assert out.is_nonnegative()

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_semigroup_law(self, t, s):
        g = g2()
        vel = VelocityProfile({1: F(2), 2: F(1)})
        f = random_state(random.Random(4), (1, 2), pieces=3)
        one = evolve_rational(g, vel, f, t + s)
        two = evolve_rational(g, vel, evolve_rational(g, vel, f, s), t)
        assert one == two

    @given(rational_times, rational_times, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_law_mixed_speeds(self, t, s, seed):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(5, 3)})
        f = random_state(random.Random(seed), (1, 2, 3, 4, 5), pieces=4)
        two_step = evolve_rational(g, vel, evolve_rational(g, vel, f, s), t)
        assert two_step == evolve_rational(g, vel, f, t + s)

    def test_plain_mass_conserved_at_equal_ell(self):
        g = g2()
        vel = VelocityProfile({1: F(1, 2), 2: F(1, 2)})
        f = NetworkState(
            [F(0), F(1, 4), F(1)],
            [SparseVector({1: F(3)}), SparseVector({2: F(1, 5)})],
        )
        out = evolve_rational(g, vel, f, F(5, 7))
        assert out.total_mass() == f.total_mass()

    def test_weighted_mass_conserved_on_subdivided_graph(self):
        g = g2()
        vel = VelocityProfile({1: F(1, 2), 2: F(1)})
        plan = subdivide(g, vel)
        f = NetworkState(
            [F(0), F(2, 5), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(3, 2)})],
        )
        lifted = lift_state(plan, f)
        before = plan.weighted_mass(lifted)
        for t in (F(1, 8), F(1, 2), F(9, 4)):
            evolved = evolve_unit(plan.operator, lifted, plan.c * t)
            assert plan.weighted_mass(evolved) == before


def subdivided_flow(g, vel, f, t):
    """The paper's construction: unit flow on the subdivided graph, mapped back."""
    plan = subdivide(g, vel)
    return project_state(plan, evolve_unit(plan.operator, lift_state(plan, f), plan.c * t))


def rates_of(state):
    """The AbsorptionProfile whose rates are the entries of a state."""
    return AbsorptionProfile(
        {j: (state.breakpoints, [v.get(j) for v in state.values]) for j in state.support()}
    )


class TestAbsorptionProfileState:
    """AbsorptionProfile builds its state in one pass over the union of the
    cuts; the running pairwise sum in oracles is the reference."""

    @staticmethod
    def random_profiles(rng):
        ids = rng.sample([0, 1, 2, 7, "a", "b", (1, 2), (0, "x"), F(1, 3)], rng.randint(0, 9))
        shared = [F(k, 12) for k in range(1, 12)]
        profiles = {}
        for j in ids:
            cuts = sorted(set(rng.sample(shared, rng.randint(0, 3)))
                          | {F(rng.randint(1, 29), 30) for _ in range(rng.randint(0, 2))})
            vals = [rng.choice([F(0), F(0), F(1), F(-1, 2), F(rng.randint(-9, 9), 7)])
                    for _ in range(len(cuts) + 1)]
            profiles[j] = ([F(0)] + cuts + [F(1)], vals)
        return profiles

    def test_random_profiles_equal_the_pairwise_sum(self):
        rng = random.Random(61)
        for _ in range(200):
            profiles = self.random_profiles(rng)
            got = AbsorptionProfile(profiles).as_state()
            want = oracles.pairwise_absorption_state(profiles)
            assert got == want
            # each piece lists its edges in the order the sum added them
            assert [list(v.items()) for v in got.values] == [list(v.items()) for v in want.values]

    def test_one_distinct_cut_per_edge(self):
        profiles = {j: ([F(0), F(j + 1, 42), F(1)], [F(j % 5 - 2), F(1, j + 1)]) for j in range(40)}
        state = AbsorptionProfile(profiles).as_state()
        assert state == oracles.pairwise_absorption_state(profiles)
        assert len(state.breakpoints) == 42

    def test_builds_no_pairwise_sum(self, monkeypatch):
        def no_add(*_):
            raise AssertionError("NetworkState.__add__ called")

        profiles = self.random_profiles(random.Random(62))
        want = oracles.pairwise_absorption_state(profiles)
        monkeypatch.setattr(NetworkState, "__add__", no_add)
        assert AbsorptionProfile(profiles).as_state() == want
        assert AbsorptionProfile.constant({1: F(1), 2: F(0)}).as_state() == \
            NetworkState.constant(SparseVector({1: F(1)}))

    @pytest.mark.parametrize("profiles", [
        {2: ([F(0), 0.5, F(1)], [F(1), F(2)]), 1: ([F(0), F(1)], [F(1), F(2)])},
        {1: ([F(0), F(1, 2), F(1)], [F(1), 0.25]), "a": ([F(0), F(1)], [0.5])},
        {3: ([F(0), F(1)], [F(1), F(2)]), "b": ([F(0), F(1, 2)], [F(1)])},
        {(1, 2): ([F(0), F(1, 2), F(1, 2), F(1)], [F(1), F(2), F(3)]), 0: ([F(0), F(1)], [F(1)])},
        {5: ([F(1, 4), F(1)], [F(1)]), 4: ([F(0), F(2, 3), F(1, 3), F(1)], [F(1), F(2), F(3)])},
        {1: ([F(0)], [])},
    ])
    def test_refusals_match_the_pairwise_sum(self, profiles):
        with pytest.raises(Exception) as want:
            oracles.pairwise_absorption_state(profiles)
        with pytest.raises(type(want.value)) as got:
            AbsorptionProfile(profiles)
        assert str(got.value) == str(want.value)


class TestCharacteristicsAgainstSubdivision:
    """evolve_rational follows characteristics; subdivision is the exact oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_exact(self, seed):
        rng = random.Random(f"characteristics:{seed}")
        for trial in range(60):
            g = checks.random_graph(rng, 8)
            vel = checks.random_velocities(rng, g)
            f = checks.random_state(rng, g, 5, nonneg=trial % 2 == 0)
            t = checks.random_time(rng, 3)
            assert evolve_rational(g, vel, f, t) == subdivided_flow(g, vel, f, t), (trial, t)

    def test_float_values(self):
        rng = random.Random(17)
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1, 3)})
        exact = random_state(rng, (1, 2, 3, 4, 5), pieces=6)
        f = entrywise(lambda x: float(x) / 7, exact)
        for t in (F(1, 5), F(4, 3), F(11, 4)):
            assert_rounded_exact_flow(g, vel, f, t)

    @pytest.mark.parametrize("level", range(1, 9))
    def test_g5_ladder_matches_tracer(self, level):
        import math

        target = {1: math.sqrt(2), 2: F(1), 3: math.sqrt(3) / 2, 4: F(3, 2), 5: F(1)}
        schedule = ApproximationSchedule.build(VelocityProfile(target), (level,))
        (vel,) = schedule.profiles
        f = random_state(random.Random(level), (1, 2, 3, 4, 5), pieces=4)
        out = evolve_rational(g5(), vel, f, F(1))
        assert sample(out, 128) == trace_samples(g5(), vel, f, F(1), 128)

    def test_lazy_graph_uniform_speed_rescales(self):
        path = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({0: F(1)}), SparseVector({0: F(2)})],
        )
        vel = VelocityProfile({}, default=F(3, 2))
        assert evolve_rational(path, vel, f, F(5, 3)) == evolve_unit(
            build_adjacency(path), f, F(5, 2)
        )
        # a listed speed over the default runs on the forward cone
        listed = VelocityProfile({0: F(1)}, default=F(2))
        assert evolve_rational(path, listed, f, F(1)) == evolve_rational(cycle(8), listed, f, F(1))

    def test_history_cap(self, monkeypatch):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1, 3)})
        f = random_state(random.Random(8), (1, 2, 3, 4, 5), pieces=6)
        evolve_rational(g, vel, f, F(3))
        monkeypatch.setattr(semigroup, "MAX_HISTORY_BREAKPOINTS", 40)
        evolve_rational(g, vel, f, F(1, 10))
        with pytest.raises(WidthOverflowError) as err:
            evolve_rational(g, vel, f, F(3))
        assert err.value.edges

    def test_stage_cap(self, monkeypatch):
        # speeds 1 and 3: stages of 1/3 end at 1/3, 2/3, ..., t, so t = 17
        # runs 50 stages over 2 edges
        g = g2()
        vel = VelocityProfile({1: F(1), 2: F(3)})
        f = NetworkState.constant(SparseVector({1: F(1), 2: F(1, 3)}))
        monkeypatch.setattr(semigroup, "MAX_STAGE_EDGES", 100)
        assert evolve_rational(g, vel, f, F(17)).total_mass() == f.total_mass()

        def no_stage(*_):
            raise AssertionError("a stage ran before the guard")

        monkeypatch.setattr(semigroup, "_inflow", no_stage)
        with pytest.raises(WidthOverflowError) as err:
            evolve_rational(g, vel, f, F(35, 2))
        assert err.value.edges[0] == 2
        assert "52 stages" in str(err.value)

    def test_one_budget_for_both_kernels(self, monkeypatch):
        # ceil(t c_max) - 1 stages times the edges: the unit closed form
        # meets the characteristic kernel's budget before any routing
        def no_kernel(*_):
            raise AssertionError("a kernel ran before the budget")

        monkeypatch.setattr(semigroup, "_route_exact", no_kernel)
        monkeypatch.setattr(semigroup, "_histories", no_kernel)
        monkeypatch.setattr(semigroup, "_array_flow", no_kernel)
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
        f, t = pulse_e1(), F(10**7)
        with pytest.raises(WidthOverflowError, match="9999999 stages over 2 edges exceed "
                           "2000000 stage-edges"):
            evolve_unit(build_adjacency(g2()), f, t)
        q = AbsorptionProfile.zero()
        for vel, stages in (({1: F(1), 2: F(1)}, 9999999), ({1: F(1), 2: F(3, 2)}, 14999999)):
            vel = VelocityProfile(vel)
            for run in (lambda: evolve_rational(g2(), vel, f, t),
                        lambda: evolve_absorbing(g2(), vel, q, f, t, grid=4)):
                with pytest.raises(WidthOverflowError, match=f"{stages} stages over 2 edges") as err:
                    run()
                assert err.value.edges == ((2, 1) if stages == 14999999 else (1, 2))


class TestCharacteristicsOnArrays(TestCharacteristicsAgainstSubdivision):
    """The same trials with every exact flow at several speeds, however
    small its work, on semigroup._array_flow (which hands a flow whose
    numerators outgrow int64 to the per-edge histories)."""

    @pytest.fixture(autouse=True)
    def arrays(self, monkeypatch):
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)


def _perfbench(monkeypatch, name):
    """perfbench/<name>.py, imported with perfbench on the path, as the
    benchmark imports it."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(root))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", root / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def many_speeds(monkeypatch, pool):
    """ROADMAP Baseline's many-speeds inputs: a 600-edge graph, a 64-piece
    nonnegative state on 32 edges a piece, and `pool` cycled over the edges
    and shuffled."""
    gen = _perfbench(monkeypatch, "gen")
    g = gen.regular_graph(random.Random(1), 200, 3, "wide")
    f = gen.exact_state(random.Random(1), g.edge_ids, 64, 32, nonneg=True)
    speeds = [pool[k % len(pool)] for k in range(len(g))]
    random.Random(2).shuffle(speeds)
    return g, VelocityProfile(dict(zip(g.edge_ids, speeds))), f


@pytest.fixture
def kernels(monkeypatch):
    """The kernels exact flows run, in order: "closed form", "arrays",
    "handed off" (_array_flow gave up) or "per edge"."""
    log = []
    for name, tag in (("_route_exact", "closed form"), ("_flow_histories", "per edge")):
        run = getattr(semigroup, name)
        monkeypatch.setattr(semigroup, name, lambda *a, run=run, tag=tag: log.append(tag) or run(*a))
    array_flow = semigroup._array_flow

    def arrays(*a):
        out = array_flow(*a)
        log.append("handed off" if out is None else "arrays")
        return out

    monkeypatch.setattr(semigroup, "_array_flow", arrays)
    return log


class TestArrayFlow:
    """_exact_flow's choice of kernel by predicted work, pinned both ways,
    and the answer budget."""

    @staticmethod
    def refuse(*_):
        raise AssertionError("the other kernel ran")

    def test_wide_flows_take_the_arrays(self, monkeypatch):
        # 300 edges and more at speeds 1/2, 1, 2: the per-edge result, then
        # the same flows with _inflow refused
        rng = random.Random("wide-arrays")
        g = checks.random_graph(rng, 400, vertices=300)
        vel = VelocityProfile({j: F(2**(j % 3), 2) for j in g.edge_ids})
        f = checks.random_state(rng, g, 16)
        times = (F(1, 3), F(25, 48), F(4, 3))
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", math.inf)
        want = [evolve_rational(g, vel, f, t) for t in times]
        monkeypatch.undo()
        monkeypatch.setattr(semigroup, "_inflow", self.refuse)
        assert [evolve_rational(g, vel, f, t) for t in times] == want

    @pytest.mark.parametrize("level", range(1, 5))
    def test_g5_ladder_keeps_the_per_edge_histories(self, monkeypatch, level):
        # the benchmark's small rungs: g5 towards sqrt 2 and sqrt 3 / 2
        target = {1: math.sqrt(2), 2: F(1), 3: math.sqrt(3) / 2, 4: F(3, 2), 5: F(1)}
        (vel,) = ApproximationSchedule.build(VelocityProfile(target), (level,)).profiles
        f = random_state(random.Random(level), (1, 2, 3, 4, 5), pieces=4)
        monkeypatch.setattr(semigroup, "_array_flow", self.refuse)
        for t in (F(40, 1536), F(1)):
            assert sample(evolve_rational(g5(), vel, f, t), 64) == trace_samples(g5(), vel, f, t, 64)

    def test_a_lattice_past_int64_keeps_the_per_edge_histories(self, monkeypatch):
        # at t = 1 / (2^62 + 1) a time unit holds over 2^62 ticks, so the
        # lattice times g5's five edges passes int64; at 1 / 2^40 it fits
        f = random_state(random.Random(9), (1, 2, 3, 4, 5))
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
        fits = F(1, 2**40)
        assert evolve_rational(g5(), G5_SPEEDS, f, fits) == subdivided_flow(g5(), G5_SPEEDS, f, fits)
        monkeypatch.setattr(semigroup, "_array_flow", self.refuse)
        with pytest.raises(AssertionError, match="the other kernel ran"):
            evolve_rational(g5(), G5_SPEEDS, f, fits)
        t = F(1, 2**62 + 1)
        assert evolve_rational(g5(), G5_SPEEDS, f, t) == subdivided_flow(g5(), G5_SPEEDS, f, t)


    def test_benchmark_shapes(self, kernels, monkeypatch, tmp_path):
        # unit-wide's 600 edges times 64 pieces on the closed form;
        # mixed-ladder's g5 rungs (5 edges, 4 pieces, t c < 1, level 1 at
        # one speed) on the per-edge histories, its 300-edge flows at
        # speeds 1/2, 1 and 2 on the arrays
        workloads = _perfbench(monkeypatch, "workloads")
        want = {"g5-L1": "per edge", "g5-L2": "per edge", "g5-L3": "per edge",
                "g5-L4": "per edge", "mixed0": "arrays", "mixed1": "arrays", "mixed2": "arrays"}
        cases = [(case, "closed form") for case in workloads.UnitWide(1, tmp_path).round(0)]
        cases += [(case, want[case.name]) for case in workloads.MixedLadder(1, tmp_path).round(0)]
        for case, kernel in cases:
            kernels.clear()
            case.solve()
            assert kernels == [kernel], case.name

    def test_many_speeds_hand_off_before_object_numerators(self, kernels, monkeypatch):
        # 8 speeds: the numerators outgrow int64 from t = 2/3, which the
        # edge-count rule ran on the arrays in Python ints; the arrays now
        # give up at the stage that would leave int64, and the per-edge
        # histories build the same answer
        g, vel, f = many_speeds(monkeypatch, [F(p, 10) for p in (11, 13, 17, 19, 23, 29, 31, 37)])
        dtypes = []
        answer = _arrays._answer
        monkeypatch.setattr(_arrays, "_answer", lambda *a: dtypes.append(a[3].dtype) or answer(*a))
        out = evolve_rational(g, vel, f, F(2, 3))
        assert kernels == ["handed off", "per edge"] and dtypes == []
        kernels.clear()
        assert evolve_rational(g, vel, f, F(1, 3)) and kernels == ["arrays"]
        assert dtypes and all(d == np.int64 for d in dtypes)
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", math.inf)
        assert evolve_rational(g, vel, f, F(2, 3)) == out

    def test_float_states_keep_the_arrays(self, kernels, monkeypatch):
        # a float state's numerators pass int64 at the first stage: they
        # start past it, and the arrays run them in Python ints to the end
        g, vel, f = many_speeds(monkeypatch, [F(1, 2), F(1), F(2)])
        h = entrywise(lambda x: float(x) / 7, f)
        for t in (F(1, 3), F(1)):
            kernels.clear()
            out = evolve_rational(g, vel, h, t)
            assert kernels == ["arrays"], t
            assert out == entrywise(float, evolve_rational(g, vel, entrywise(F, h), t))

    @pytest.mark.parametrize("kernel", ["per edge", "arrays"])
    def test_answer_budget(self, kernels, monkeypatch, kernel):
        # an answer of more than MAX_ANSWER_ENTRIES entries, the support of
        # each piece summed, is refused before any piece is built
        if kernel == "arrays":
            monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
        g, f, t = g5(), g5_mixed(), F(7, 3)
        want = evolve_rational(g, G5_SPEEDS, f, t)
        assert kernels == [kernel]
        entries = sum(len(v) for v in want.values)
        monkeypatch.setattr(semigroup, "MAX_ANSWER_ENTRIES", entries)
        assert evolve_rational(g, G5_SPEEDS, f, t) == want

        def refuse(*_):
            raise AssertionError("a piece was built")

        monkeypatch.setattr(SparseVector, "_from_nonzero", refuse)
        monkeypatch.setattr(_arrays, "_answer", refuse)
        monkeypatch.setattr(semigroup, "MAX_ANSWER_ENTRIES", entries - 1)
        with pytest.raises(WidthOverflowError,
                           match=f"the answer's {entries} entries exceed {entries - 1}") as err:
            evolve_rational(g, G5_SPEEDS, f, t)
        assert len(err.value.edges) == 4


G5_SPEEDS = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})


def g5_mixed():
    """The shipped g5_mixed state: signed values over three pieces."""
    return NetworkState(
        [F(0), F(1, 4), F(1, 2), F(1)],
        [SparseVector({1: F(1), 2: F(1, 2)}), SparseVector({3: F(-1, 3)}),
         SparseVector({5: F(2)})],
    )


def flow_histories(g, vel, f, t):
    _, speed, rows, speeds, _ = semigroup._network(g, vel, f, t)
    return semigroup._flow_histories(speed, speeds, rows, f, t)[0]


def assert_reduced_histories(g, vel, f, t):
    """Every exact history value is a (n, d) pair in lowest terms, and no
    two neighbours are equal: a sum left over its common denominator, or
    a merge that missed an equal value, fails here even where the answer
    would still come out equal."""
    for starts, values in flow_histories(g, vel, f, t).values():
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in values)
        assert all(a != b for a, b in zip(values, values[1:]))
        assert starts == sorted(set(starts))


class TestLongHorizons:
    """Histories over hundreds of stages, where denominators grow with the
    answer and signed sums cancel."""

    @pytest.mark.parametrize("t", [F(60), F(200)])
    def test_g5_fixture_speeds(self, t):
        g, f = g5(), g5_mixed()
        assert evolve_rational(g, G5_SPEEDS, f, t) == subdivided_flow(g, G5_SPEEDS, f, t)
        assert_reduced_histories(g, G5_SPEEDS, f, t)

    def test_random_graphs_signed(self):
        rng = random.Random("long-horizon")
        for trial in range(24):
            g = checks.random_graph(rng, 8)
            vel = checks.random_velocities(rng, g)
            f = checks.random_state(rng, g, 5)
            t = checks.random_time(rng, 40)
            assert evolve_rational(g, vel, f, t) == subdivided_flow(g, vel, f, t), (trial, t)
            assert_reduced_histories(g, vel, f, t)

    def test_stationary_state(self):
        # flux c_j f_j = 1 on both edges: every history is one segment
        g, vel = g2(), VelocityProfile({1: F(1), 2: F(3)})
        f = NetworkState.constant(SparseVector({1: F(1), 2: F(1, 3)}))
        assert evolve_rational(g, vel, f, F(10_000)) == f
        assert flow_histories(g, vel, f, F(10_000)) == {1: ([0], [(1, 1)]), 2: ([0], [(1, 3)])}


class TestLongHorizonsOnArrays(TestLongHorizons):
    """The same horizons with every flow past the per-edge work, on
    semigroup._array_flow at several speeds: g5 at t = 60 stays in int64,
    and at t = 200 its numerators outgrow int64 and the arrays hand it to
    the per-edge histories."""

    @pytest.fixture(autouse=True)
    def arrays(self, monkeypatch):
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)


def entrywise(fn, h):
    """h with fn applied to every value."""
    return h.map_values(lambda v: SparseVector({j: fn(x) for j, x in v.items()}))


def assert_rounded_exact_flow(g, vel, f, t):
    """evolve_rational of float or complex f, value by value the correctly
    rounded exact flows of Fraction(Re f) and Fraction(Im f); returned."""
    got = evolve_rational(g, vel, f, t)
    for part in ("real", "imag"):
        exact = evolve_rational(g, vel, entrywise(lambda x: F(getattr(x, part)), f), t)
        assert entrywise(lambda x: getattr(x, part), got) == entrywise(float, exact), part
    if all(isinstance(x, float) for v in f.values for x in v.values()):
        assert got == entrywise(float, evolve_rational(g, vel, entrywise(F, f), t))
        assert all(type(x) is float for v in got.values for x in v.values())
    else:
        assert all(type(x) in (float, complex) for v in got.values for x in v.values())
    return got


def complex_state(re, im):
    """Re / 7 + i Im / 3 in floats, for exact states re and im."""
    return (entrywise(lambda x: complex(float(x) / 7, 0.0), re)
            + entrywise(lambda x: complex(0.0, float(x) / 3), im))


class TestFloatStates:
    """Float and complex states run the exact kernels on Fraction(f) and
    round each answer value once, correctly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        # 60 flows a seed, 225 random graphs in all: one speed, several
        # speeds on graphs of up to 10 edges and of up to 64, and
        # a lazy path at listed speeds; values scaled by random floats from
        # 1e-300 to 1e5
        rng = random.Random(f"float-flows:{seed}")
        path = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        for trial in range(60):
            kind = trial % 4
            if kind == 3:
                g, vel = path, VelocityProfile({1: F(2), 2: F(1, 2)}, default=F(1))
                f = NetworkState([F(0), F(1, 3), F(1)], [
                    SparseVector({0: F(rng.randint(1, 9), 7)}), SparseVector({0: F(-2), 1: F(5, 3)})])
            else:
                g = (checks.random_graph(rng, 10) if kind < 2 else
                     checks.random_graph(rng, 64, vertices=32))
                vel = (VelocityProfile({}, default=rng.choice([F(1), F(3, 2)])) if kind == 0
                       else checks.random_velocities(rng, g))
                f = checks.random_state(rng, g, 5)
            scales = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 5) for _ in range(4)]
            f = entrywise(lambda x: float(x) * rng.choice(scales), f)
            assert_rounded_exact_flow(g, vel, f, checks.random_time(rng, 3))

    def test_each_kernel_rounds(self, monkeypatch):
        # the unit closed form, the array kernel and the per-edge histories
        # each build the rounded answer, once for a float state and once a
        # part for a complex one
        rng = random.Random("float-kernels")
        wide = checks.random_graph(rng, 64, vertices=32)
        # each input is one the rule sends to its kernel: g5 at one speed to
        # t = 100/3 is past the per-edge work of up to 5 pieces, and values
        # scaled by 2^0 to 2^-80 start past int64, so the array kernel keeps
        # them to the end
        cases = [(g5(), VelocityProfile({}, default=F(1)), "_route_exact", F(100, 3)),
                 (g5(), G5_SPEEDS, "_flow_histories", F(7, 3)),
                 (wide, checks.random_velocities(rng, wide), "_array_flow", F(7, 3))]
        for g, vel, kernel, t in cases:
            calls = []
            run = getattr(semigroup, kernel)
            monkeypatch.setattr(semigroup, kernel,
                                lambda *a, run=run, calls=calls: calls.append(a) or run(*a))
            spread = lambda h: entrywise(lambda x: x * 2.0 ** -rng.randint(0, 80), h)  # noqa: E731
            f = spread(entrywise(lambda x: float(x) / 7, random_state(rng, g.edge_ids, 5)))
            z = spread(complex_state(random_state(rng, g.edge_ids, 5),
                                     random_state(rng, g.edge_ids, 4)))
            for h, runs in ((f, 1), (z, 2)):
                calls.clear()
                evolve_rational(g, vel, h, t)
                assert len(calls) == runs, kernel
                assert_rounded_exact_flow(g, vel, h, t)

    @pytest.mark.parametrize("speeds", ["one", "several"])
    def test_complex_values_on_g5(self, speeds):
        rng = random.Random(f"complex:{speeds}")
        vel = VelocityProfile({}, default=F(1)) if speeds == "one" else G5_SPEEDS
        f = complex_state(*(random_state(rng, (1, 2, 3, 4, 5), pieces=5) for _ in range(2)))
        for t in (F(1, 3), F(5, 2)):
            out = assert_rounded_exact_flow(g5(), vel, f, t)
            assert any(isinstance(x, complex) for v in out.values for x in v.values())

    def test_complex_values_on_a_wide_graph(self):
        rng = random.Random("complex-wide")
        g = checks.random_graph(rng, 64, vertices=32)
        f = complex_state(checks.random_state(rng, g, 5), checks.random_state(rng, g, 3))
        for vel in (VelocityProfile({}, default=F(1)), checks.random_velocities(rng, g)):
            assert_rounded_exact_flow(g, vel, f, F(8, 3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    @pytest.mark.parametrize("t", [F(0), F(1, 2)])
    def test_nan_or_inf_is_refused(self, bad, t):
        f = NetworkState([F(0), F(1, 2), F(1)],
                         [SparseVector({1: 0.5}), SparseVector({2: 1.0, 3: bad})])
        for vel in (VelocityProfile({}, default=F(1)), G5_SPEEDS):
            with pytest.raises(PrecisionError, match=r"state value .* on edge 3 is not finite"):
                evolve_rational(g5(), vel, f, t)

    def test_an_underflow_to_zero_is_dropped(self):
        # the least subnormal on edge 1 halves on edges 2 and 3, which
        # rounds to 0: those entries are not stored
        f = NetworkState.constant(SparseVector({1: 5e-324, 4: 1.0}))
        for vel in (VelocityProfile({}, default=F(1)), G5_SPEEDS):
            for t in (F(1, 2), F(3, 2)):
                out = assert_rounded_exact_flow(g5(), vel, f, t)
                assert all(x != 0 for v in out.values for x in v.values())

    def test_a_value_past_float_range_is_refused(self):
        # 1e308 on every edge of g5: edge 1 gathers 2e308 by t = 1/2
        f = NetworkState.constant(SparseVector({j: 1e308 for j in (1, 2, 3, 4, 5)}))
        for vel in (VelocityProfile({}, default=F(1)), G5_SPEEDS):
            with pytest.raises(PrecisionError, match="overflows a float"):
                evolve_rational(g5(), vel, f, F(1, 2))
        assert evolve_rational(g5(), G5_SPEEDS, f.scale(0.25), F(1, 2)).sup_norm() < math.inf


class TestAnswerValues:
    """_arrays._answer builds each exact value from a pair reduced by one
    np.gcd, through exact.coprime_fraction; every value must be the
    Fraction(x, D) it stands for, in lowest terms, of Python ints."""

    @staticmethod
    def assert_same_fraction(got, want):
        assert type(got) is F and type(got.numerator) is int and type(got.denominator) is int
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)

    def test_coprime_pairs_build_the_reduced_fraction(self):
        # seeded pairs over int64, reduced as _answer reduces them: half
        # uniform, half sharing a random factor, and the extremes
        rng = random.Random("coprime-pairs")
        top = 2**63 - 1
        pairs = [(1, 1), (-1, 1), (1, top), (-1, top), (2**62, top), (-2**62, 1), (0, 5)]
        while len(pairs) < 1200:
            if len(pairs) % 2:
                pairs.append((rng.randint(-2**62, 2**62), rng.randint(1, top)))
            else:
                k = rng.choice([2, 3, 6, 10, 2**20, 3**17, rng.randint(2, 2**30)])
                n, d = rng.randint(-2**62, 2**62) // k, rng.randint(1, top // k)
                pairs.append((n * k, d * k))
        n, d = (np.array(a, dtype=np.int64) for a in zip(*pairs))
        g = np.gcd(n, d)
        built = list(map(exact.coprime_fraction, (n // g).tolist(), (d // g).tolist()))
        assert (d // g).min() > 0 and sum(g.tolist()) > len(pairs)
        wants = [F(a, b) for a, b in pairs]
        for got, want in zip(built, wants):
            self.assert_same_fraction(got, want)
        for (a, x), (b, y) in zip(zip(built, wants), zip(built[1:] + built[:1], wants[1:] + wants[:1])):
            self.assert_same_fraction(a + b, x + y)
            self.assert_same_fraction(a * b, x * y)
            self.assert_same_fraction(a + 1, x + 1)

    @pytest.fixture
    def answers(self, monkeypatch):
        """The (dtype, number) of every _answer call, each checked entry by
        entry against number(x, D): Fraction(x, D) for exact values,
        rounded(x, D) (zeros dropped) for float ones."""
        calls = []
        answer = _arrays._answer

        def checked(ids, rows, cols, nums, D, count, number):
            out = answer(ids, rows, cols, nums, D, count, number)
            want = [{} for _ in range(count)]
            for r, c, x in zip(rows.tolist(), cols.tolist(), nums.tolist()):
                y = number(int(x), D)
                if y:
                    want[r][ids[c]] = y
            assert [dict(v.items()) for v in out] == want
            for v, w in zip(out, want):
                for j, x in v.items():
                    if number is F:
                        self.assert_same_fraction(x, w[j])
                    else:
                        assert type(x) is float and repr(x) == repr(w[j])
            calls.append((nums.dtype.name, number.__name__, D.bit_length() < 64))
            return out

        monkeypatch.setattr(_arrays, "_answer", checked)
        return calls

    def test_random_flows(self, answers):
        # 200 seeded flows: one speed or several, on graphs of up to 10
        # edges, to times up to 24 so that at one speed they pass the
        # per-edge histories' work (at several they keep the per-edge
        # histories, which build no array answer), and of 32 vertices and
        # up to 64 edges, with up to 12 pieces, to times up to 3
        rng = random.Random("answer-values")
        for trial in range(200):
            kind = trial % 4
            g = (checks.random_graph(rng, 10) if kind % 2 == 0 else
                 checks.random_graph(rng, 64, vertices=32))
            vel = (VelocityProfile({}, default=rng.choice([F(1), F(3, 2)])) if kind < 2
                   else checks.random_velocities(rng, g))
            f = checks.random_state(rng, g, 12 if kind % 2 else 5)
            t = checks.random_time(rng, 3) * (8 if kind % 2 == 0 else 1)
            evolve_rational(g, vel, f, t)
        assert ("int64", "Fraction", True) in answers and len(answers) > 100

    def test_object_numerators_and_float_states(self, answers, kernels, monkeypatch):
        # g5 at t = 200 past the per-edge work: the arrays hand the flow to
        # the per-edge histories as its numerators outgrow int64, and the
        # subdivision oracle's unit closed form runs them in Python ints; a
        # float state reads its answer with `rounded` on either array kernel
        g, f = g5(), g5_mixed()
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
        assert evolve_rational(g, G5_SPEEDS, f, F(200)) == subdivided_flow(g, G5_SPEEDS, f, F(200))
        assert kernels == ["handed off", "per edge", "closed form"]
        assert any(dtype == "object" for dtype, _, _ in answers)
        answers.clear()
        h = entrywise(lambda x: float(x) / 7, f)
        for vel in (VelocityProfile({}, default=F(1)), G5_SPEEDS):
            assert_rounded_exact_flow(g, vel, h, F(7, 3))
        # the reference flows of Fraction(f) take the exact path beside them
        assert {number for _, number, _ in answers} == {"rounded", "Fraction"}


class TestCanonicalAnswers:
    """An exact answer read with Fraction is built canonical by
    NetworkState._canonical, which checks nothing; it must equal what the
    checking constructor makes of its own parts, piece for piece, with
    Fraction breakpoints and values."""

    @staticmethod
    def assert_canonical(h):
        again = NetworkState(h.breakpoints, h.values)
        assert again == h and len(again.values) == len(h.values)
        assert type(h.breakpoints) is tuple and type(h.values) is tuple
        assert all(type(b) is F for b in h.breakpoints)
        assert all(type(x) is F for v in h.values for x in v.values())

    def test_random_flows(self, kernels):
        # 400 seeded flows, 100 of each kind: several speeds on up to 10
        # edges (the per-edge read), on 64 (the arrays), one speed to times
        # up to 24 (the unit closed form past the per-edge work), and the
        # lazy cones of a path and a binary tree at listed speeds; every
        # fifth at t = 0 and every fifth at t below 1/c_max
        rng = random.Random("canonical-answers")
        path = lazy_path()
        tree, tree_vel = binary_tree(), tree_case()[0]
        path_vel = VelocityProfile({1: F(2), 2: F(1, 2)}, default=F(1))
        for trial in range(400):
            kind = trial % 4
            if kind == 3:
                g, vel = (path, path_vel) if trial % 8 == 3 else (tree, tree_vel)
                f = random_state(rng, range(3), rng.randint(1, 6))
            else:
                g = checks.random_graph(rng, 64, vertices=32) if kind == 1 else checks.random_graph(rng, 10)
                vel = (VelocityProfile({}, default=rng.choice([F(1), F(3, 2)])) if kind == 2
                       else checks.random_velocities(rng, g))
                f = checks.random_state(rng, g, 8)
            c_max = max(vel.values.values(), default=vel.default)
            if trial % 5 == 0:
                t = F(0)
            elif trial % 5 == 1:
                t = F(rng.randint(1, 9), 10) / c_max
            else:
                t = checks.random_time(rng, 3) * (8 if kind == 2 else 1)
            self.assert_canonical(evolve_rational(g, vel, f, t))
            if kind == 2:
                self.assert_canonical(evolve_unit(build_adjacency(g), f, t))
        assert {"per edge", "arrays", "closed form"} <= set(kernels)

    @pytest.mark.parametrize("work", [None, -1], ids=["per-edge", "arrays"])
    def test_rounded_neighbours_are_merged(self, monkeypatch, work):
        # edge 1 of g5 takes in H_4 + H_5: 1 + 1e-300 and then 1 + 2e-300,
        # two exact values that round to the same float 1.0, so the float
        # answer is one piece where the exact one is two, on the per-edge
        # read and on the arrays (at two speeds, past the per-edge work)
        if work is not None:
            monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", work)
        vel = VelocityProfile({2: F(2), 3: F(2)}, default=F(1))
        f = NetworkState([F(0), F(1, 2), F(1)], [SparseVector({4: 1.0, 5: 1e-300}),
                                                 SparseVector({4: 1.0, 5: 2e-300})])
        got = evolve_rational(g5(), vel, f, F(1))
        assert got == NetworkState.constant(SparseVector({1: 1.0}))
        assert len(got.breakpoints) == 2 and type(got.values[0].get(1)) is float
        exact = evolve_rational(g5(), vel, entrywise(F, f), F(1))
        assert len(exact.values) == 2 and entrywise(float, exact) == got


class TestLazyAnswers:
    """An exact answer of the array kernels holds only its kernel rows
    until some entry is read; the first read builds its whole table's
    dicts, which are the eager answer's, in the kernel's column order."""

    @staticmethod
    def tables(h) -> dict:
        """The kernel tables of h's pieces, each with its vectors in piece order."""
        out: dict = {}
        for v in h.values:
            row = getattr(v, "_row", None)
            if row is not None:
                out.setdefault(row[0], []).append(v)
        return out

    @pytest.mark.parametrize("kernel", ["closed form", "arrays"])
    def test_random_flows_build_the_eager_dicts(self, kernels, monkeypatch, kernel):
        # 200 seeded flows on each array kernel, on graphs of up to 10 and
        # of up to 64 edges, against the per-edge read of the same flow
        rng = random.Random(f"lazy-answers:{kernel}")
        built = 0
        while kernels.count(kernel) < 200:
            g = (checks.random_graph(rng, 10) if rng.random() < 0.5
                 else checks.random_graph(rng, 64, vertices=32))
            vel = (VelocityProfile({}, default=rng.choice([F(1), F(3, 2)]))
                   if kernel == "closed form" else checks.random_velocities(rng, g))
            f, t = checks.random_state(rng, g, 8), checks.random_time(rng, 3)
            monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
            got = evolve_rational(g, vel, f, t)
            tables = self.tables(got)
            assert all(table._dicts is None for table in tables)
            monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", math.inf)
            want = evolve_rational(g, vel, f, t)
            assert got == want and got.breakpoints == want.breakpoints
            for table, vectors in tables.items():
                at = {j: k for k, j in enumerate(table.ids.tolist())}
                shared: dict = {}
                for v in vectors:
                    assert v._entries is table._dicts[v._row[1]]
                    assert list(v) == sorted(v, key=at.__getitem__)
                    for x in v.values():
                        assert type(x) is F and shared.setdefault(x, x) is x
                built += 1
        assert built > 100

    def unbuilt(self):
        """A piece of a fresh closed-form answer on g5 that has built no
        dict, and the plain vector it equals, read from a second answer."""
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({1: F(1, 3), 4: F(-2)}), SparseVector({2: F(5, 7)})])
        v, w = (semigroup._unit_flow(_arrays._kept_steps(g5()), f, F(7, 2), F).values[1]
                for _ in range(2))
        assert v._row[0] is not w._row[0] and v._row[0]._dicts is None
        return v, SparseVector(dict(w.items()))

    def test_copies_pickles_and_hashes_of_unbuilt_vectors(self):
        for use in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            v, want = self.unbuilt()
            copied = use(v)
            assert copied == want and type(copied) is SparseVector
        v, want = self.unbuilt()
        assert hash(v) == hash(want) and v == want
        v, want = self.unbuilt()
        assert repr(v) == repr(want) and len(v) == len(want) and v.total() == want.total()

    def test_only_entries_are_built(self):
        # any other missing name raises AttributeError as before, and a
        # vector with neither slot set has no entries
        v, _ = self.unbuilt()
        assert hasattr(v, "_row") and not hasattr(SparseVector({1: 1}), "_row")
        with pytest.raises(AttributeError, match="'SparseVector' object has no attribute 'nope'"):
            v.nope
        assert getattr(v, "__deepcopy__", None) is None and v._row[0]._dicts is None
        with pytest.raises(AttributeError, match="no attribute '_entries'"):
            object.__new__(SparseVector)._entries

    def test_evolve_sample_emit_builds_no_answer_value(self, monkeypatch):
        # the benchmark's unit-wide shape: 600 edges, 64 pieces of 32
        # edges; no table builds its dicts and no answer Fraction is made
        # until an entry is read, and then each table builds its dicts once
        rng = random.Random("lazy-pipeline")
        out_of = {v: [(3 * v + k, v, (v + step) % 200) for k, step in enumerate((1, 7, 31))]
                  for v in range(200)}
        edges = [e for v in range(200) for e in out_of[v]]
        g = MetricGraph.finite(edges, {(i, j): F(1, 3) for j, _, head in edges
                                       for i, _, _ in out_of[head]})
        f = NetworkState([F(k, 64) for k in range(65)],
                         [SparseVector({e: F(rng.randint(1, 9), rng.randint(1, 4))
                                        for e in rng.sample(g.edge_ids, 32)}) for _ in range(64)])
        splits, fractions = [], []
        split, coprime = _arrays._split, _arrays.coprime_fraction
        monkeypatch.setattr(_arrays, "_split", lambda *a: splits.append(a) or split(*a))
        monkeypatch.setattr(_arrays, "coprime_fraction",
                            lambda *a: fractions.append(a) or coprime(*a))
        h = evolve_unit(build_adjacency(g), f, F(7, 3))
        text = emit_plotdata(sample(h, 256), edges=g.edge_ids)
        tables = self.tables(h)
        assert len(tables) == 2 and sum(map(len, tables.values())) == len(h.values) > 60
        assert splits == fractions == [] and all(t._dicts is None for t in tables)
        first, second = tables
        tables[first][3].items()
        assert len(splits) == 1 and first._dicts is not None and second._dicts is None
        assert len(fractions) == len(first.distinct)
        for v in tables[first]:
            v.items()
        assert len(splits) == 1
        assert text == oracles.plotdata_reference(sample(h, 256), g.edge_ids)


class TestUnitRowMerge:
    """The closed form merges equal neighbours B^n v = B^n' v' from the
    kernel's rows; it must give what the checking constructor gives of
    the unmerged pieces, breakpoints included, and build no dict."""

    @pytest.fixture
    def merges(self, monkeypatch):
        """(unmerged state, answer) of each exact closed-form answer,
        checked to have built no table's dicts."""
        log = []
        unit_answer = semigroup._unit_answer

        def merged(bps, values, powers):
            out = unit_answer(bps, values, powers)
            assert all(v._row[0]._dicts is None for v in values[powers.count(0):])
            log.append((NetworkState(bps, [v.to_dict() for v in values]), out, len(values)))
            return out

        monkeypatch.setattr(semigroup, "_unit_answer", merged)
        monkeypatch.setattr(semigroup, "EDGE_FLOW_WORK", -1)
        return log

    def check(self, merges, g, f, t, merged=True):
        got = evolve_unit(build_adjacency(g), f, t)
        want, out, pieces = merges[-1]
        assert out is got and got == want and got.breakpoints == want.breakpoints
        assert type(got.breakpoints) is tuple and type(got.values) is tuple
        assert (len(got.values) < pieces) is merged

    def test_equal_images_in_one_table(self, merges):
        # B e4 = B e5 = e1 on g5: two pieces of f with equal images
        f = NetworkState([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
                         [SparseVector({2: F(1)}), SparseVector({4: F(3, 2)}),
                          SparseVector({5: F(3, 2)}), SparseVector({3: F(-1)})])
        for t in (F(1), F(3), F(9, 8)):
            self.check(merges, g5(), f, t)
        self.check(merges, g5(), f, F(1, 8), merged=False)  # both at power 0

    def test_invariant_state_across_the_junction(self, merges):
        # a B-invariant v on a cycle: B^n0 v meets B^(n0 + 1) v at the
        # junction of two tables, and at n0 = 0 f's own v meets B v
        v, w = SparseVector({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}), SparseVector({1: F(2)})
        f = NetworkState([F(0), F(1, 3), F(2, 3), F(1)], [v, w, v])
        for t in (F(1, 2), F(3, 2), F(7, 2)):
            self.check(merges, cycle(3), f, t)
        self.check(merges, cycle(3), f, F(2), merged=False)

    def test_input_piece_at_power_zero(self, merges):
        # f's last piece, at power 0, against the first wrapped piece, B f_0,
        # both as a plain vector and as a row of an earlier answer
        f = NetworkState([F(0), F(1, 2), F(1)], [SparseVector({2: F(1)}), SparseVector({1: F(1)})])
        self.check(merges, g2(), f, F(1, 4))
        h = evolve_unit(build_adjacency(g2()), f, F(2))
        assert all(hasattr(v, "_row") for v in h.values)
        self.check(merges, g2(), h, F(1, 4))

    def test_random_flows(self, merges):
        # one edge out of each vertex, a cycle and trees into it, so B maps
        # edges to edges, many to one: pieces drawn from a few unit
        # vectors have equal neighbours in one table, across the junction
        # and against f's pieces at power 0, at times on both sides of 1
        rng = random.Random("unit-row-merge")
        merged = 0
        for trial in range(150):
            k, c = rng.randint(3, 9), rng.randint(1, 3)
            heads = [(v + 1) % c if v < c else rng.randrange(v) for v in range(k)]
            g = MetricGraph.finite([(v, v, heads[v]) for v in range(k)],
                                   {(heads[v], v): F(1) for v in range(k)})
            pool = [SparseVector({j: F(1)}) for j in rng.sample(range(k), 3)]
            pool.append(pool[0] + pool[1])
            cuts = sorted(rng.sample(range(1, 12), rng.randint(1, 6)))
            f = NetworkState([F(0), *(F(c, 12) for c in cuts), F(1)],
                             [rng.choice(pool) for _ in range(len(cuts) + 1)])
            t = (F(rng.randint(1, 11), 12) if trial % 2
                 else F(rng.randint(1, 40), rng.choice([1, 2, 3, 8])))
            got = evolve_unit(build_adjacency(g), f, t)
            want, out, pieces = merges[-1]
            assert out is got and got == want and got.breakpoints == want.breakpoints
            merged += len(got.values) < pieces
        assert merged > 40


def random_absorbing_case(seed):
    """(g, vel, rates state, f, t) on a random 5-vertex graph at mixed speeds."""
    rng = random.Random(f"absorb-bound:{seed}")
    vel = None
    while vel is None or len(set(vel.values.values())) == 1:
        g = checks.random_graph(rng, 5)
        vel = checks.random_velocities(rng, g)
    f = checks.random_state(rng, g, 4)
    q_state = checks.random_state(rng, g, 3)
    return g, vel, q_state, f, F(rng.randint(1, 72), 24)


class TestEvolveAbsorbing:
    def setup_g2(self):
        g = g2()
        vel = VelocityProfile({1: F(1), 2: F(1)})
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({1: F(1, 2), 2: F(1, 4)})],
        )
        return g, vel, f

    def test_zero_rates_reduce_to_transport(self):
        g, vel, f = self.setup_g2()
        res = evolve_absorbing(g, vel, AbsorptionProfile.zero(), f, F(1, 3), grid=24)
        exact = sample(evolve_rational(g, vel, f, F(1, 3)), 24)
        assert res.state.distance(exact) == 0
        assert 0 < res.error_bound < 1e-14

    def test_constant_rate_is_scalar_growth(self):
        import math

        g, vel, f = self.setup_g2()
        q0 = F(1, 4)
        q = AbsorptionProfile.constant({1: q0, 2: q0})
        t = F(1, 2)
        res = evolve_absorbing(g, vel, q, f, t, grid=64)
        ref = sample(evolve_rational(g, vel, f, t), 64)
        scaled = ref.scale(math.exp(float(q0) * float(t)))
        d = res.state.distance(scaled)
        assert d <= res.error_bound
        assert res.error_bound < 1e-14

    def test_nonconstant_rates_match_finite_volume_oracle(self):
        g, vel, f = self.setup_g2()
        q_state = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1, 2), 2: F(1, 4)}), SparseVector({1: F(1, 8)})],
        )
        q = AbsorptionProfile(
            {j: (q_state.breakpoints, [v.get(j) for v in q_state.values])
             for j in (1, 2)}
        )
        res = evolve_absorbing(g, vel, q, f, F(1, 2), grid=128)
        cells = 3200
        ref = oracles.fv_absorb(g, q_state, f, F(1, 2), cells)
        stride = cells // 128
        worst = 0.0
        for m in range(129):
            cell = m * stride if m < 128 else cells - 1
            got = sum(abs(res.state.samples[m].get(j) - ref[j][cell]) for j in (1, 2))
            worst = max(worst, got)
        assert worst <= 1e-3

    def test_time_zero_is_the_sampled_input(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = random_state(random.Random(3), (1, 2, 3, 4, 5), pieces=5)
        q = AbsorptionProfile.constant({1: F(1, 2), 3: F(-1, 4)})
        res = evolve_absorbing(g, vel, q, f, F(0), grid=40)
        assert res == AbsorbingResult(sample(f, 40), 0.0)

    def test_bad_arguments(self):
        g, vel, f = self.setup_g2()
        q = AbsorptionProfile.zero()
        with pytest.raises(ValueError):
            evolve_absorbing(g, vel, q, f, F(-1))
        with pytest.raises(MalformedInputError, match="grid size must be an integer >= 1"):
            evolve_absorbing(g, vel, q, f, F(1), grid=0)

    def test_float_overflow_is_a_precision_error(self):
        g, vel, f = self.setup_g2()
        q = AbsorptionProfile.constant({1: F(400), 2: F(400)})
        with pytest.raises(PrecisionError):
            evolve_absorbing(g, vel, q, f, F(2), grid=4)

    @pytest.mark.parametrize("t", [F(1), F(3, 2)])
    def test_cancelling_feeders_leave_exactly_zero(self, t):
        # edges 1 and 2 feed edge 3 with +1 and -1 at one speed and rate:
        # their exponential sums cancel term by term, so once the initial
        # values have left the edges nothing is left to round
        g = MetricGraph.finite([(1, "a", "v"), (2, "a", "v"), (3, "v", "a")],
                               {(3, 1): F(1), (3, 2): F(1), (1, 3): F(1, 2), (2, 3): F(1, 2)})
        vel = VelocityProfile({}, default=F(1))
        f = NetworkState.constant(SparseVector({1: F(1), 2: F(-1)}))
        q = AbsorptionProfile.constant({1: F(1), 2: F(1), 3: F(1)})
        res = evolve_absorbing(g, vel, q, f, t, grid=8)
        assert res.error_bound == 0 and not res.state.array.any()
        ref = oracles.characteristic_absorb(g, vel, q.as_state(), f, t, 8)
        assert all(want[j] == 0 for want in ref for j in g.edge_ids)

    def test_coefficient_overflow_names_the_coefficient(self):
        g, vel, _ = self.setup_g2()
        f = NetworkState.constant(SparseVector({1: F(10**400)}))
        q = AbsorptionProfile.constant({1: F(1)})
        with pytest.raises(PrecisionError, match=r"coefficient of about 2\^1328 on edge 1$"):
            evolve_absorbing(g, vel, q, f, F(1, 2), grid=4)

    @pytest.mark.parametrize("t", [F(0), F(7, 3)])
    def test_float_state_values_are_refused(self, t):
        # the bound's proof takes every history coefficient exact until
        # its one rounding; float values are rounded at every stage
        f = NetworkState(g5_mixed().breakpoints,
                         [v.scale(1 / 7) for v in g5_mixed().values])
        with pytest.raises(NotRationalError, match="exact rational state values"):
            evolve_absorbing(g5(), G5_SPEEDS, AbsorptionProfile.zero(), f, t)

    def test_history_budget_counts_absorbing_terms(self, monkeypatch):
        # g5 at t = 10 grows 290 breakpoints either way, holding 434 terms
        # when rates make every value an exponential sum
        g, f = g5(), g5_mixed()
        q = AbsorptionProfile.constant({1: F(-1, 2), 3: F(1, 4)})
        monkeypatch.setattr(semigroup, "MAX_HISTORY_BREAKPOINTS", 350)
        evolve_rational(g, G5_SPEEDS, f, F(10))
        evolve_absorbing(g, G5_SPEEDS, q, f, F(5), grid=4)
        with pytest.raises(WidthOverflowError, match="exceed 350 terms") as err:
            evolve_absorbing(g, G5_SPEEDS, q, f, F(10), grid=4)
        assert err.value.edges

    def test_float_rates_are_refused(self):
        with pytest.raises(NotRationalError):
            AbsorptionProfile.constant({1: 0.25})
        with pytest.raises(NotRationalError):
            AbsorptionProfile({1: ([F(0), F(1, 2), F(1)], [F(1), 0.5])})

    def test_mixed_velocities_constant_rate_growth(self):
        # a constant rate commutes with the transport at any velocities
        import math

        g = g2()
        vel = VelocityProfile({1: F(2), 2: F(1)})
        f = pulse_e1()
        q0 = F(1, 3)
        q = AbsorptionProfile.constant({1: q0, 2: q0})
        t = F(1, 2)
        res = evolve_absorbing(g, vel, q, f, t, grid=64)
        ref = sample(evolve_rational(g, vel, f, t), 64).scale(
            math.exp(float(q0) * float(t))
        )
        assert res.state.distance(ref) <= res.error_bound
        assert res.error_bound < 1e-14

    def test_no_subdivision_on_the_absorbing_path(self, monkeypatch):
        import math

        def refuse(*_):
            raise AssertionError("absorption built the subdivided graph")

        for name in ("subdivide", "lift_state", "project_state", "common_multiplier"):
            monkeypatch.setattr(semigroup, name, refuse)
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = random_state(random.Random(5), (1, 2, 3, 4, 5), pieces=4)
        q = AbsorptionProfile.constant({1: F(1, 2), 3: F(-1, 4)})
        res = evolve_absorbing(g, vel, q, f, F(1, 3), grid=16)
        assert 0 < res.error_bound < 1e-12

        # lazy path at speed 3/2 with one constant rate on every edge the
        # flow reaches: the flow is exp(q0 t) times the transport
        path = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        vel = VelocityProfile({}, default=F(3, 2))
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({0: F(1)}), SparseVector({0: F(2), 1: F(1)})],
        )
        q0, t = F(1, 4), F(2, 3)
        q = AbsorptionProfile.constant({j: q0 for j in range(4)})
        res = evolve_absorbing(path, vel, q, f, t, grid=24)
        ref = sample(evolve_rational(path, vel, f, t), 24).scale(math.exp(float(q0 * t)))
        assert res.state.distance(ref) <= res.error_bound < 1e-13

    def test_lazy_cone_equals_a_long_cycle(self):
        # the forward cone of a lazy path reaches ceil(c t) edges on; a
        # finite cycle longer than that sees the same flow
        rates = {j: ([F(0), F(1, 3), F(1)], [F(j % 3 - 1, 2), F(1, 4)]) for j in range(12)}
        f = NetworkState(
            [F(0), F(1, 4), F(1)],
            [SparseVector({0: F(1), 2: F(-1, 2)}), SparseVector({1: F(3)})],
        )
        t = F(7, 3)
        vel = VelocityProfile({}, default=F(3, 2))
        path = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        cycle = MetricGraph.finite(
            [(j, j, (j + 1) % 12) for j in range(12)],
            {((j + 1) % 12, j): F(1) for j in range(12)},
        )
        q = AbsorptionProfile(rates)
        lazy = evolve_absorbing(path, vel, q, f, t, grid=24)
        finite = evolve_absorbing(
            cycle, VelocityProfile({j: F(3, 2) for j in range(12)}), q, f, t, grid=24
        )
        assert lazy == finite
        assert lazy.state.support() == {4, 5, 6}

    @pytest.mark.parametrize("t", [F(0), F(1, 2)])
    def test_velocity_errors_surface_at_any_time(self, t):
        f = pulse_e1()
        q = AbsorptionProfile.constant({1: F(1)})
        with pytest.raises(NotRationalError):
            evolve_absorbing(g2(), VelocityProfile({1: 1.5, 2: F(1)}), q, f, t)
        path = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        with pytest.raises(NotRationalError):
            evolve_absorbing(path, VelocityProfile({}, default=1.5), q, f, t)
        # a listed speed over the default runs on the forward cone
        listed = VelocityProfile({0: F(1)}, default=F(2))
        assert evolve_absorbing(path, listed, q, f, t) == evolve_absorbing(cycle(8), listed, q, f, t)

        # a very slow edge needs no wide common multiplier any more
        vel = VelocityProfile({1: F(1), 2: F(1, 2_000_000)})
        res = evolve_absorbing(g2(), vel, q, f, t, grid=8)
        ref = oracles.characteristic_absorb(g2(), vel, q.as_state(), f, t, 8)
        for got, want in zip(res.state.samples, ref):
            actual = sum(abs(Decimal(float(got.get(j))) - want[j]) for j in (1, 2))
            assert actual <= res.error_bound

    @pytest.mark.parametrize("seed", range(24))
    def test_error_bound_holds_against_characteristics(self, seed):
        g, vel, q_state, f, t = random_absorbing_case(seed)
        res = evolve_absorbing(g, vel, rates_of(q_state), f, t, grid=16)
        ref = oracles.characteristic_absorb(g, vel, q_state, f, t, 16)
        actual = max(
            sum(abs(Decimal(got.get(j)) - want[j]) for j in g.edge_ids)
            for got, want in zip(res.state.samples, ref)
        )
        assert actual <= res.error_bound, (actual, res.error_bound)


# speeds listed over a default of 1 on the lazy path
PATH_SPEEDS = {1: F(2), 2: F(3), 4: F(1, 2), 5: F(5, 2)}
# the binary tree: edge j splits evenly into edges 2j+1 and 2j+2
TREE_SPEEDS = (F(3, 2), F(2), F(1, 2))


def path_case():
    """(f, q) on the lazy path's first edges."""
    f = NetworkState(
        [F(0), F(1, 4), F(2, 3), F(1)],
        [SparseVector({0: F(1), 2: F(-1, 2)}), SparseVector({1: F(3)}),
         SparseVector({0: F(5), 1: F(1, 7)})],
    )
    q = AbsorptionProfile(
        {j: ([F(0), F(1, 3), F(1)], [F(j % 3 - 1, 2), F(1, 4)]) for j in range(40)}
    )
    return f, q


def tree_case():
    """(vel, f, q) on the binary tree, speeds by j mod 3 listed to depth 7."""
    vel = VelocityProfile({j: TREE_SPEEDS[j % 3] for j in range(2**8 - 1)}, default=F(1))
    f = NetworkState(
        [F(0), F(1, 3), F(3, 4), F(1)],
        [SparseVector({0: F(2), 2: F(1, 5)}), SparseVector({1: F(-1, 3)}),
         SparseVector({0: F(1), 1: F(4), 2: F(3, 2)})],
    )
    q = AbsorptionProfile.constant({j: F(j % 4 - 1, 3) for j in range(63)})
    return vel, f, q


def binary_tree(column=None):
    return MetricGraph.lazy(
        column or (lambda j: [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))]),
        lambda j: ((j - 1) // 2, j),
    )


def tree_truncation(depth):
    """The tree's edges to `depth`, each leaf closed on a loop of its own."""
    inner, edges = 2**depth - 1, 2 ** (depth + 1) - 1
    weights = {(i, j): F(1, 2) for j in range(inner) for i in (2 * j + 1, 2 * j + 2)}
    loops = []
    for j in range(inner, edges):
        loops.append((j + edges, j, j))
        weights[(j + edges, j)] = weights[(j + edges, j + edges)] = F(1)
    return MetricGraph.finite([(j, (j - 1) // 2, j) for j in range(edges)] + loops, weights)


class TestLazyCone:
    """Lazy graphs at listed speeds run on the forward cone of supp f: the
    edges inflow reaches before t, by earliest arrival along 1/c_j."""

    @pytest.mark.parametrize("t", [F(0), F(1, 3), F(7, 3), F(6)])
    def test_listed_speeds_path_equals_a_long_cycle(self, t):
        # by t = 6 the cone reaches edge 8; the 40-edge cycle never wraps
        f, q = path_case()
        vel = VelocityProfile(PATH_SPEEDS, default=F(1))
        out = evolve_rational(lazy_path(), vel, f, t)
        assert out == evolve_rational(cycle(40), vel, f, t)
        assert out.total_mass() == f.total_mass()
        assert max(out.support()) <= 8
        assert evolve_absorbing(lazy_path(), vel, q, f, t, grid=24) == evolve_absorbing(
            cycle(40), vel, q, f, t, grid=24
        )
        # the zero state has an empty cone
        zero = NetworkState.zero()
        assert evolve_rational(lazy_path(), vel, zero, t) == zero
        assert evolve_absorbing(lazy_path(), vel, q, zero, t, grid=4).state == sample(zero, 4)

    def test_binary_tree_equals_a_finite_truncation(self):
        # by t = 2 the cone reaches depth 5 (edges 31-62), so the truncation
        # at depth 7 leaves a margin of two
        vel, f, q = tree_case()
        truncation = tree_truncation(7)
        t = F(2)
        out = evolve_rational(binary_tree(), vel, f, t)
        assert out == evolve_rational(truncation, vel, f, t)
        assert out.total_mass() == f.total_mass()
        assert 31 <= max(out.support()) <= 62
        # the samples agree exactly; the bound adds the same per-edge bounds
        # in the cone's order instead of by edge id
        lazy = evolve_absorbing(binary_tree(), vel, q, f, t, grid=16)
        finite = evolve_absorbing(truncation, vel, q, f, t, grid=16)
        assert lazy.state == finite.state
        assert lazy.error_bound == pytest.approx(finite.error_bound, rel=1e-15)

    def test_a_fast_edge_reads_only_the_columns_it_reaches(self):
        reads = []

        def column(j):
            reads.append(j)
            return [(j + 1, F(1))]

        # edges 0-3 outflow from 0, 1/100, 101/100 and 201/100, edge 4 only
        # from 301/100: at t = 5/2 four columns, where ceil(c_max t) = 250
        # routing steps would read 250; at t = 201/100 edge 3 outflows too late
        vel = VelocityProfile({1: F(100)}, default=F(1))
        f = NetworkState.constant(SparseVector({0: F(1)}))
        q = AbsorptionProfile.constant({0: F(1, 2)})
        for t, want in ((F(5, 2), [0, 1, 2, 3]), (F(201, 100), [0, 1, 2])):
            reads.clear()
            out = evolve_rational(MetricGraph.lazy(column, lambda j: (j, j + 1)), vel, f, t)
            assert reads == want
            assert out == evolve_rational(cycle(12), vel, f, t)
            reads.clear()
            evolve_absorbing(MetricGraph.lazy(column, lambda j: (j, j + 1)), vel, q, f, t, grid=8)
            assert reads == want

    def test_outflow_between_the_last_tick_and_t(self):
        # in ticks of 1/2 edge 2 outflows from tick 4, before t = 9/4 at 4.5
        # ticks, so its feeder edge 3 is in the cone and carries mass
        vel = VelocityProfile({0: F(2)}, default=F(1))
        f = NetworkState.constant(SparseVector({0: F(1)}))
        out = evolve_rational(lazy_path(), vel, f, F(9, 4))
        assert out == evolve_rational(cycle(8), vel, f, F(9, 4))
        assert max(out.support()) == 3

    def test_cone_cap(self, monkeypatch):
        reads = []

        def column(j):
            reads.append(j)
            return [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))]

        vel = VelocityProfile({j: TREE_SPEEDS[j % 3] for j in range(2**8 - 1)}, default=F(1))
        f = NetworkState.constant(SparseVector({0: F(1)}))
        q = AbsorptionProfile.zero()
        monkeypatch.setattr(semigroup, "MAX_STAGE_EDGES", 30)
        # by t = 1 the cone holds edges 0-4 and 9-10, at unit speed 0-2
        assert evolve_rational(binary_tree(column), vel, f, F(1)).total_mass() == 1
        evolve_absorbing(binary_tree(column), vel, q, f, F(1), grid=4)
        assert evolve_unit(build_adjacency(binary_tree(column)), f, F(1)).total_mass() == 1

        def no_flow(*_):
            raise AssertionError("the flow ran before the cone was refused")

        monkeypatch.setattr(semigroup, "_histories", no_flow)
        monkeypatch.setattr(semigroup, "_route_exact", no_flow)
        for run in (
            lambda g: evolve_rational(g, vel, f, F(6)),
            lambda g: evolve_absorbing(g, vel, q, f, F(6), grid=4),
            lambda g: evolve_unit(build_adjacency(g), f, F(6)),
        ):
            reads.clear()
            with pytest.raises(WidthOverflowError, match="forward cone") as err:
                run(binary_tree(column))
            assert err.value.edges
            assert len(reads) < 30

    def test_lazy_cycle_refused_once_its_edges_are_known(self, monkeypatch):
        # f on both edges of a lazy 2-cycle: the cone never grows, so only
        # the check after the walk sees 9999999 stages over 2 edges
        def no_flow(*_):
            raise AssertionError("the flow ran before the budget")

        monkeypatch.setattr(semigroup, "_histories", no_flow)
        monkeypatch.setattr(semigroup, "_route_exact", no_flow)
        f = NetworkState.constant(SparseVector({0: F(1), 1: F(1)}))
        for run in (
            lambda g: evolve_unit(build_adjacency(g), f, F(10**7)),
            lambda g: evolve_rational(g, VelocityProfile({}, default=F(1)), f, F(10**7)),
        ):
            with pytest.raises(WidthOverflowError, match="9999999 stages over 2 edges"):
                run(MetricGraph.lazy(lambda j: [(1 - j, F(1))], lambda j: (j, 1 - j)))

    def test_tree_refused_during_the_walk(self, monkeypatch):
        # at unit speed and t = 33/2, 16 stages leave room for 125000
        # edges; the cone, depths 0-17, would hold 262143: refused as it
        # grows, before the walk reads it all
        reads = []

        def column(j):
            reads.append(j)
            return [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))]

        def no_flow(*_):
            raise AssertionError("the flow ran before the cone was refused")

        monkeypatch.setattr(semigroup, "_route_exact", no_flow)
        f = NetworkState.constant(SparseVector({0: F(1)}))
        with pytest.raises(WidthOverflowError, match="forward cone exceeds 125000 edges"):
            evolve_unit(build_adjacency(binary_tree(column)), f, F(33, 2))
        assert len(reads) < semigroup.MAX_STAGE_EDGES // 16 + 2

    def test_budget_counts_the_speeds_the_cone_reaches(self, monkeypatch):
        # a fast speed the cone never reaches leaves the budget alone: at
        # t = 1000 the path's cone holds edges 0-1000, all at speed 1
        f = NetworkState.constant(SparseVector({0: F(1)}))
        out = evolve_rational(lazy_path(), VelocityProfile({10**9: F(100)}, default=F(1)), f,
                              F(1000))
        assert out == evolve_rational(lazy_path(), VelocityProfile({}, default=F(1)), f, F(1000))
        assert set(out.support()) == {1000}
        # a fast edge counts from the moment it joins: edge 3 at speed 100
        # joins by t = 6, not by t = 2
        monkeypatch.setattr(semigroup, "MAX_STAGE_EDGES", 1000)
        fast = VelocityProfile({3: F(100)}, default=F(1))
        assert evolve_rational(lazy_path(), fast, f, F(2)).total_mass() == 1
        with pytest.raises(WidthOverflowError, match="forward cone exceeds 1 edges at "
                           "599 stages") as err:
            evolve_rational(lazy_path(), fast, f, F(6))
        assert err.value.edges == (3,)

    @pytest.mark.parametrize("t", [F(0), F(1, 2)])
    def test_stray_edges_are_refused(self, t):
        # g2 has no edge 99
        f = NetworkState.constant(SparseVector({1: F(1), 99: F(5)}))
        q = AbsorptionProfile.zero()
        for vel in (VelocityProfile({1: F(1), 2: F(3)}), VelocityProfile({1: F(1), 2: F(1)})):
            with pytest.raises(MalformedGraphError, match="unknown edge 99"):
                evolve_rational(g2(), vel, f, t)
            with pytest.raises(MalformedGraphError, match="unknown edge 99"):
                evolve_absorbing(g2(), vel, q, f, t)
            # rates on the stray edge, under a state the graph carries
            with pytest.raises(MalformedGraphError, match="unknown edge 99"):
                evolve_absorbing(g2(), vel, AbsorptionProfile.constant({99: F(-5)}), pulse_e1(), t)


class TestIntegerTickRead:
    """evolve_absorbing reads its head outflows on integer ticks and
    affine integer exponents; the Fraction read of oracles.absorbing_read,
    one grid point at a time, gives the same floats and the same bound."""

    @pytest.fixture(autouse=True)
    def keep_reads(self, monkeypatch):
        """Keeps the arguments of every _absorbing_read call."""
        self.reads = []
        read = semigroup._absorbing_read

        def spy(*args):
            self.reads.append(args)
            return read(*args)

        monkeypatch.setattr(semigroup, "_absorbing_read", spy)

    def assert_same_as_fraction_read(self, g, vel, q, f, t, grid):
        res = evolve_absorbing(g, vel, q, f, t, grid=grid)
        (args,) = self.reads
        self.reads.clear()
        array, bound = oracles.absorbing_read(*args)
        assert res.state.edges == tuple(args[0])
        got = res.state.array
        assert np.array_equal(got, array) and np.array_equal(np.signbit(got), np.signbit(array))
        assert res.error_bound == bound
        return res

    @pytest.mark.parametrize("seed", range(24))
    def test_random_graphs(self, seed):
        g, vel, q_state, f, t = random_absorbing_case(seed)
        self.assert_same_as_fraction_read(g, vel, rates_of(q_state), f, t, 16)

    @pytest.mark.parametrize("t", [F(1, 3), F(7, 3), F(6)])
    def test_lazy_path(self, t):
        f, q = path_case()
        vel = VelocityProfile(PATH_SPEEDS, default=F(1))
        self.assert_same_as_fraction_read(lazy_path(), vel, q, f, t, 24)

    def test_lazy_binary_tree(self):
        vel, f, q = tree_case()
        self.assert_same_as_fraction_read(binary_tree(), vel, q, f, F(2), 16)

    @pytest.mark.parametrize("t", [F(1, 2), F(7, 4), F(13, 5)])
    def test_grid_one(self, t):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = random_state(random.Random(7), (1, 2, 3, 4, 5), pieces=5)
        q = AbsorptionProfile.constant({1: F(1, 2), 3: F(-1, 4)})
        self.assert_same_as_fraction_read(g, vel, q, f, t, 1)

    def test_exponent_a_hair_above_an_integer(self):
        # every exponent is 1 + 2^-60, which rounds to 1.0 but has ceil 2
        q0 = F(2**60 + 1, 2**60)
        q = AbsorptionProfile.constant({1: q0, 2: q0})
        f = NetworkState.constant(SparseVector({1: F(1), 2: F(1)}))
        res = self.assert_same_as_fraction_read(g2(), VelocityProfile({1: F(1), 2: F(1)}),
                                                q, f, F(1), 4)
        Ku = 2 * (2 + 5 + 1) * 2.0**-53
        assert res.error_bound == 2 * Ku / (1 - Ku) * math.exp(1.0)

    def test_left_limit_on_a_history_breakpoint(self):
        # edge 2's tail inflow, H_1, drops to zero at time 1/2, so H_2 drops
        # at 1/2 + 1, exactly the tick of x = 1 at t = 1/2: the sample at 1
        # is the left limit, the pulse, and not the zero after it
        g = g2()
        vel = VelocityProfile({1: F(1), 2: F(1)})
        f = NetworkState([F(0), F(1, 2), F(1)], [SparseVector({1: F(1)}), SparseVector()])
        q = AbsorptionProfile.constant({1: F(1, 4), 2: F(-1, 3)})
        res = self.assert_same_as_fraction_read(g, vel, q, f, F(1, 2), 8)
        assert res.state.point(8).get(2) == pytest.approx(math.exp(1 / 8))
