"""Exact transport evolution: unit, rational along characteristics, subdivided, and absorbing."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netflow import (
    AbsorbingResult,
    AbsorptionProfile,
    AdjacencyOperator,
    ApproximationSchedule,
    MalformedGraphError,
    MetricGraph,
    NetworkState,
    NotRationalError,
    PrecisionError,
    SparseVector,
    VelocityProfile,
    WidthOverflowError,
    WrongOperatorError,
    build_adjacency,
    evolve_absorbing,
    evolve_rational,
    evolve_unit,
    sample,
    trace_samples,
)
from netflow import checks, semigroup
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


class TestUnitKernel:
    """evolve_unit through the integer stack route, against per-entry routing."""

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
        op = build_adjacency(g)
        vecs = [
            SparseVector({(0, 0): F(1, 2), (0, 1): F(-3, 7)}),
            SparseVector({(1, 1): 5}),
            SparseVector({(2, 0): F(2, 9), (3, 1): F(1, 4)}),
        ]
        powers = [12, 7, 11]
        for v, n, out in zip(vecs, powers, op._route_exact(vecs, powers)):
            assert dict(out.items()) == oracles.fraction_apply_power(g, v, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_pointwise(self, seed):
        rng = random.Random(f"unit-kernel:{seed}")
        for trial in range(12):
            g = checks.random_graph(rng, 10)
            f = checks.random_state(rng, g, 5, nonneg=trial % 2 == 0)
            self.check_pointwise(g, f, checks.random_time(rng, 4))

    def test_float_state_takes_the_loop(self):
        g = g5()
        exact = random_state(random.Random(5), (1, 2, 3, 4, 5), pieces=5)
        f = exact.map_values(lambda v: SparseVector({j: float(x) / 7 for j, x in v.items()}))
        for t in (F(2, 5), F(9, 4)):
            out = self.check_pointwise(g, f, t)
            assert all(isinstance(x, float) for v in out.values for _, x in v.items())


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
        f = exact.map_values(lambda v: SparseVector({j: float(x) / 7 for j, x in v.items()}))
        for t in (F(1, 5), F(4, 3), F(11, 4)):
            got = sample(evolve_rational(g, vel, f, t), 96)
            want = sample(subdivided_flow(g, vel, f, t), 96)
            assert float(got.distance(want)) <= 1e-12
            assert all(isinstance(x, float) for v in got.samples for _, x in v.items())

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

        monkeypatch.setattr(AdjacencyOperator, "_route_exact", no_kernel)
        monkeypatch.setattr(semigroup, "_histories", no_kernel)
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


G5_SPEEDS = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})


def g5_mixed():
    """The shipped g5_mixed state: signed values over three pieces."""
    return NetworkState(
        [F(0), F(1, 4), F(1, 2), F(1)],
        [SparseVector({1: F(1), 2: F(1, 2)}), SparseVector({3: F(-1, 3)}),
         SparseVector({5: F(2)})],
    )


def flow_histories(g, vel, f, t):
    _, speed, rows, _ = semigroup._network(g, vel, f, t)
    return semigroup._flow_histories(speed, rows, f, t, semigroup._exact_values(f))[0]


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
        with pytest.raises(ValueError):
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
        monkeypatch.setattr(AdjacencyOperator, "_route_exact", no_flow)
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
        monkeypatch.setattr(AdjacencyOperator, "_route_exact", no_flow)
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

        monkeypatch.setattr(AdjacencyOperator, "_route_exact", no_flow)
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
