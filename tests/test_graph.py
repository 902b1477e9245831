"""Graph model, validation, and adjacency operator behavior."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netflow import (
    MalformedGraphError,
    MetricGraph,
    MissingVelocityError,
    NetworkState,
    NotRationalError,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    evolve_unit,
    resolvent_general,
    validate_graph,
    write_graph_text,
)
from netflow import checks, semigroup
from netflow.exact import is_rational


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


class TestValidation:
    def test_two_cycle_passes(self):
        report = validate_graph(g2())
        assert report.ok
        assert report.column_sums == {1: F(1), 2: F(1)}

    def test_mass_deficit_flagged(self):
        g = MetricGraph.finite(
            [(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1, 2)}, name="bad"
        )
        report = validate_graph(g)
        assert not report.ok
        assert report.column_sums[1] == F(1, 2)
        assert report.column_ok[2]

    def test_five_edge_network_passes(self):
        report = validate_graph(g5())
        assert report.ok
        assert all(s == 1 for s in report.column_sums.values())

    def test_loop_reported(self):
        g = MetricGraph.finite([(1, 1, 1)], {(1, 1): F(1)}, name="loop")
        report = validate_graph(g)
        assert report.loops == [1]
        assert not report.ok

    def test_parallel_pair_reported(self):
        g = MetricGraph.finite(
            [(1, 1, 2), (2, 1, 2), (3, 2, 1)],
            {(3, 1): F(1), (3, 2): F(1), (1, 3): F(1, 2), (2, 3): F(1, 2)},
            name="dup",
        )
        report = validate_graph(g)
        assert report.duplicates == [(1, 2)]
        assert not report.ok

    def test_lazy_graph_refused(self):
        g = MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1))
        with pytest.raises(MalformedGraphError):
            validate_graph(g)

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(MalformedGraphError):
            MetricGraph.finite(
                [(1, 1, 2), (1, 2, 1)], {(1, 1): F(1)}, name="collide"
            )

    def test_mixed_edge_id_styles_rejected(self):
        # ids that cannot be sorted together have no edge_ids order
        with pytest.raises(MalformedGraphError, match="int, str cannot be sorted together"):
            MetricGraph.finite([(1, "u", "v"), ("a", "v", "u")],
                               {("a", 1): F(1), (1, "a"): F(1)})
        # ints and Fractions sort together
        g = MetricGraph.finite([(1, "u", "v"), (F(1, 2), "v", "u")],
                               {(F(1, 2), 1): F(1), (1, F(1, 2)): F(1)})
        assert g.edge_ids == [F(1, 2), 1]

    def test_nonadjacent_weight_rejected(self):
        with pytest.raises(MalformedGraphError, match=r"weight \(1, 1\) connects "
                           "non-adjacent edges: head of 1 is not tail of 1") as err:
            MetricGraph.finite(
                [(1, 1, 2), (2, 2, 1)],
                {(1, 2): F(1), (2, 1): F(1), (1, 1): F(1)},
                name="nonadj",
            )
        assert err.value.pair == (1, 1)

    @pytest.mark.parametrize("weights, pair", [
        ({(2, 1): F(-1)}, (2, 1)), ({(3, 1): F(1)}, (3, 1)), ({(1, 2): F(1)}, None)])
    def test_a_refused_weight_names_its_pair(self, weights, pair):
        # the weight rule names the (receiver, source) pair it refuses;
        # other refusals name none
        edges = [(1, 1, 2), (2, 2, 1)] + ([(2, 3, 4)] if pair is None else [])
        with pytest.raises(MalformedGraphError) as err:
            MetricGraph.finite(edges, weights)
        assert err.value.pair == pair

    def test_sink_rejected(self):
        with pytest.raises(MalformedGraphError):
            MetricGraph.finite(
                [(1, 1, 2), (2, 2, 3)], {(2, 1): F(1)}, name="sink"
            )
        # of two sinks, the refusal names the first in edge-id order, as
        # validate_graph lists them
        edges = [(1, "a", "a"), (3, "a", "x"), (2, "a", "y")]
        with pytest.raises(MalformedGraphError, match=r"vertex 'y' \(head of edge 2\)"):
            MetricGraph.finite(edges, {(1, 1): F(1)})
        assert validate_graph(MetricGraph.finite(edges, {(1, 1): F(1)}, allow_sinks=True)).sinks == ["y", "x"]


class TestAdjacency:
    def test_unscaled_is_swap(self):
        op = build_adjacency(g2())
        assert dict(op.apply(SparseVector({1: F(1)})).items()) == {2: F(1)}
        assert dict(op.apply(SparseVector({2: F(3)})).items()) == {1: F(3)}

    def test_scaled_entries(self):
        # c = (2, 1): entry (i, j) = (c_j / c_i) w_ij
        op = build_adjacency(g2(), VelocityProfile({1: F(2), 2: F(1)}))
        assert op.apply(SparseVector({1: F(1)})) == SparseVector({2: F(2)})
        assert op.apply(SparseVector({2: F(1)})) == SparseVector({1: F(1, 2)})

    def test_five_edge_split_column(self):
        op = build_adjacency(g5())
        out = op.apply(SparseVector({1: F(1)}))
        assert dict(out.items()) == {2: F(1, 2), 3: F(1, 2)}

    def test_missing_velocity_reported(self):
        with pytest.raises(MissingVelocityError):
            build_adjacency(g2(), VelocityProfile({1: F(2)}))

    def test_power_matches_dense_oracle(self):
        g = g5()
        op = build_adjacency(g)
        B, ids = oracles.dense_matrix(g)
        v = SparseVector({1: F(1), 4: F(-2), 5: F(1, 3)})
        for n in (1, 2, 3, 7):
            got = power(op, v, n)
            ref = oracles.dense_power_apply(B, ids, v, n)
            for j in ids:
                assert abs(float(got.get(j)) - ref[j]) < 1e-12

    def test_conjugation_identity(self):
        # Bc v = C^-1 B (C v), exactly
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        plain = build_adjacency(g)
        scaled = build_adjacency(g, vel)
        v = SparseVector({2: F(5), 3: F(-1, 3), 4: F(7, 2)})
        lifted = SparseVector({j: vel.velocity(j) * x for j, x in v.items()})
        routed = plain.apply(lifted)
        back = SparseVector({j: x / vel.velocity(j) for j, x in routed.items()})
        assert scaled.apply(v) == back

    @given(
        st.dictionaries(
            st.sampled_from([1, 2, 3, 4, 5]),
            st.fractions(min_value=-5, max_value=5, max_denominator=16),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_contraction_and_mass(self, entries):
        op = build_adjacency(g5())
        v = SparseVector({j: x for j, x in entries.items() if x != 0})
        out = op.apply(v)
        assert out.l1() <= v.l1()
        if all(x >= 0 for _, x in v.items()):
            assert out.total() == v.total()


def power(op, v, n):
    """op applied n times to v."""
    for _ in range(n):
        v = op.apply(v)
    return v


def random_vector(rng, ids, nonneg):
    """Sparse exact vector on a random subset of `ids`, ints and Fractions mixed."""
    vec = {}
    for j in rng.sample(ids, rng.randint(0, len(ids))):
        num = rng.randint(1, 9) if nonneg else rng.choice((-7, -3, -1, 1, 2, 5))
        den = rng.randint(1, 12)
        vec[j] = num if den == 1 else F(num, den)
    return SparseVector(vec)


class TestApplyStack:
    """B^n applied to stacks of vectors: the integer-numerator route of the
    exact flows and the multiply-add loop of apply, each against a
    per-entry Fraction loop."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_exact(self, seed):
        rng = random.Random(f"apply-stack:{seed}")
        for trial in range(40):
            g = checks.random_graph(rng, 12)
            op = build_adjacency(g)
            ids = g.edge_ids
            vecs = [random_vector(rng, ids, nonneg=trial % 2 == 0) for _ in range(6)]
            powers = [rng.randint(0, 6) for _ in vecs]
            steps = semigroup._int_steps(g.edge_ids, g.feeders)
            got = semigroup._route_exact(steps, vecs, powers)
            for v, n, out in zip(vecs, powers, got):
                want = oracles.fraction_apply_power(g, v, n)
                assert dict(out.items()) == want, (trial, n)
                assert all(type(x) is F for _, x in out.items()) or n == 0
                assert power(op, v, n) == out
            assert op.apply(vecs[0]) == semigroup._route_exact(steps, vecs, [1] * len(vecs))[0]

    def test_zeroth_power_keeps_the_object(self):
        op = build_adjacency(g5())
        v = SparseVector({1: F(1, 3)})
        u = SparseVector({2: F(2)})
        steps = semigroup._int_steps(op.graph.edge_ids, op.graph.feeders)
        got = semigroup._route_exact(steps, [v, u], [0, 2])
        assert got[0] is v and got[1] == power(op, u, 2)

    def test_cancellation_drops_zero_entries(self):
        op = build_adjacency(g5())
        out = op.apply(SparseVector({4: F(1, 2), 5: F(-1, 2), 2: F(3)}))
        assert dict(out.items()) == {4: F(3)}
        assert op.apply(SparseVector({4: F(1), 5: F(-1)})).is_zero()

    def test_scaled_rational_operator(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1, 3)})
        op = build_adjacency(g, vel)
        v = SparseVector({1: F(3, 7), 2: F(-5), 4: F(1, 9)})
        want = dict(v.items())
        for n in range(1, 6):
            acc = {}
            for j, a in want.items():
                for i, w in g.column(j).items():
                    acc[i] = acc.get(i, 0) + w * vel.velocity(j) / vel.velocity(i) * a
            want = {i: x for i, x in acc.items() if x != 0}
            assert dict(power(op, v, n).items()) == want

    def test_float_and_complex_take_the_loop(self):
        g = g5()
        op = build_adjacency(g)
        exact = SparseVector({1: F(1, 3), 4: F(-2), 5: F(5, 7)})
        floats = SparseVector({j: float(x) / 7 for j, x in exact.items()})
        cplx = SparseVector({1: 1 + 2j, 3: complex(-0.25, 0.5)})
        got = power(op, floats, 5)
        assert dict(got.items()) == oracles.fraction_apply_power(g, floats, 5)
        assert all(isinstance(x, float) for _, x in got.items())
        got = power(op, exact, 5)
        assert dict(got.items()) == oracles.fraction_apply_power(g, exact, 5)
        assert all(type(x) is F for _, x in got.items())
        got = power(op, cplx, 3)
        assert dict(got.items()) == oracles.fraction_apply_power(g, cplx, 3)
        assert all(isinstance(x, complex) for _, x in got.items())

    def test_float_speeds_take_the_loop(self):
        g = g2()
        vel = VelocityProfile({1: 2.0, 2: 0.5})
        op = build_adjacency(g, vel)
        out = power(op, SparseVector({1: F(1, 3)}), 3)
        assert dict(out.items()) == {2: 4.0 * F(1, 3)}


class TestLazyGraph:
    def path(self):
        return MetricGraph.lazy(
            column_fn=lambda j: [(j + 1, F(1))],
            endpoints_fn=lambda j: (j, j + 1),
            name="path",
        )

    def test_shift_on_integers(self):
        op = build_adjacency(self.path())
        out = op.apply(SparseVector({0: F(1)}))
        assert dict(out.items()) == {1: F(1)}

    def test_unsorted_column_rejected(self):
        g = MetricGraph.lazy(
            column_fn=lambda j: [(j + 2, F(1, 2)), (j + 1, F(1, 2))],
            endpoints_fn=lambda j: (j, j + 1),
            name="unsorted",
        )
        with pytest.raises(MalformedGraphError):
            g.column(0)

    def test_non_sequence_column_rejected(self):
        g = MetricGraph.lazy(
            column_fn=lambda j: {j + 1: F(1)},
            endpoints_fn=lambda j: (j, j + 1),
            name="dictcol",
        )
        with pytest.raises(MalformedGraphError):
            g.column(0)

    def test_bad_column_sum_surfaces_on_access(self):
        g = MetricGraph.lazy(
            column_fn=lambda j: [(j + 1, F(1, 3))],
            endpoints_fn=lambda j: (j, j + 1),
            name="leaky",
        )
        with pytest.raises(MalformedGraphError):
            g.column(5)

    def test_non_adjacent_column_rejected(self):
        # edge j runs j -> j + 1, and its column routes into edge j + 2,
        # whose tail is j + 2: refused on the first read of column 0, by
        # the finite graph's message
        def skipping():
            return MetricGraph.lazy(lambda j: [(j + 2, F(1))], lambda j: (j, j + 1))

        f = NetworkState.constant(SparseVector({0: F(1)}))
        unit = VelocityProfile({}, default=F(1))
        for read in (
            lambda g: g.column(0),
            lambda g: evolve_unit(build_adjacency(g), f, F(5, 2)),
            lambda g: resolvent_general(g, unit, f, 2.0, grid=8),
        ):
            with pytest.raises(MalformedGraphError, match=r"weight \(2, 0\) connects "
                               "non-adjacent edges: head of 0 is not tail of 2"):
                read(skipping())

    def test_unsortable_receivers_rejected(self):
        # receivers 'a' and 1 have no order: refused like a finite graph's
        # edge ids, naming the column, on g.column and in a flow alike
        def mixed():
            return MetricGraph.lazy(lambda j: [("a", F(1, 2)), (1, F(1, 2))],
                                    lambda j: (0, 0) if j == 0 else (0, 1))

        f = NetworkState.constant(SparseVector({0: F(1)}))
        for read in (lambda g: g.column(0), lambda g: evolve_unit(build_adjacency(g), f, F(1))):
            with pytest.raises(MalformedGraphError, match="lazy column for edge 0 lists "
                               "receivers of types int, str, which cannot be sorted together"):
                read(mixed())

    @pytest.mark.parametrize("column", [[1, 2], [(1,), (2,)], [(1, F(1), 0)]])
    def test_entries_must_be_pairs(self, column):
        # an entry that is not a (receiver, weight) pair is refused naming
        # the column, on g.column, in a flow and in a resolvent alike
        f = NetworkState.constant(SparseVector({0: F(1)}))
        for read in (lambda g: g.column(0),
                     lambda g: evolve_unit(build_adjacency(g), f, F(1)),
                     lambda g: resolvent_general(g, VelocityProfile({}, default=1.0), f, 2.0)):
            with pytest.raises(MalformedGraphError, match=r"lazy column for edge 0 has an entry "
                               r"that is not a \(receiver, weight\) pair"):
                read(MetricGraph.lazy(lambda j: column, lambda j: (j, j + 1)))

    def test_endpoints_called_once_per_edge(self):
        # a k-entry column reads the source's endpoints once and each
        # receiver's once: k + 1 calls, and none for an edge already seen
        calls = []

        def tree():
            def endpoints(j):
                calls.append(j)
                return (j - 1) // 2, j
            return MetricGraph.lazy(lambda j: [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))],
                                    endpoints)

        g = tree()
        g.column(0)
        assert calls == [0, 1, 2]
        g.column(1)
        assert calls == [0, 1, 2, 3, 4]
        calls.clear()
        f = NetworkState.constant(SparseVector({0: F(1)}))
        # by t = 21/2 the cone holds depths 0-10, and depth 11 is read
        evolve_unit(build_adjacency(tree()), f, F(21, 2))
        assert sorted(calls) == list(range(2**12 - 1))


class TestVelocityProfile:
    def test_bounds_derived(self):
        vel = VelocityProfile({1: F(2), 2: F(1, 3)})
        assert (vel.c_min, vel.c_max) == (F(1, 3), F(2))

    def test_nonpositive_rejected(self):
        # the last two are rationals whose floats overflow and round to 0
        for c in (F(0), math.nan, math.inf, -math.inf, F(10**400), F(1, 10**400)):
            with pytest.raises(MalformedGraphError, match="positive and finite"):
                VelocityProfile({1: F(1), 2: c})
            with pytest.raises(MalformedGraphError, match="positive and finite"):
                VelocityProfile({1: F(1)}, default=c)

    def test_default_covers_unlisted(self):
        vel = VelocityProfile({}, default=F(1))
        assert vel.velocity("anything") == F(1)

    def test_missing_velocity_raises(self):
        with pytest.raises(MissingVelocityError):
            VelocityProfile({1: F(2)}).velocity(2)

    def test_rationality_probe(self):
        assert VelocityProfile({1: F(2)}).is_rational()
        assert not VelocityProfile({1: 2 ** 0.5}).is_rational()

    @pytest.mark.parametrize("values, default, want", [
        ({1: 2, 2: 3}, None, True),
        ({1: F(1, 2), 2: F(3)}, None, True),
        ({1: 0.5, 2: 1.5}, None, False),
        ({1: F(1, 2), 2: 2, 3: 1.5}, None, False),
        ({1: F(1, 2)}, 1.5, False),
        ({1: 1.5}, F(1), False),
        ({1: True}, None, False),
        ({}, F(3, 2), True),
        ({}, 2, True),
        ({}, 2 ** 0.5, False),
    ])
    def test_rationality_is_read_once(self, values, default, want):
        # the answer is fixed when the profile is built, and is the old
        # per-call scan's: every listed speed and the default are exact
        vel = VelocityProfile(values, default=default)
        scan = all(is_rational(c) for c in [*vel.values.values(), vel.default] if c is not None)
        assert vel.is_rational() is want is scan

    def test_int_speeds_are_stored_as_fractions(self):
        # an int speed (not a bool) is kept as a Fraction, listed or default;
        # repr and the graph file writer print it as before
        vel = VelocityProfile({1: 2, 2: F(1, 2), 3: 1.5, 4: True}, default=3)
        assert [type(vel.velocity(j)) for j in (1, 2, 3, 4, 5)] == [F, F, float, bool, F]
        assert (vel.c_min, vel.c_max) == (F(1, 2), F(3)) and type(vel.c_max) is F
        assert repr(vel) == "VelocityProfile({1: 2, 2: 1/2, 3: 1.5, 4: True}, default=3)"
        g = MetricGraph.finite([(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1)})
        assert write_graph_text(g, VelocityProfile({1: 2, 2: F(3, 2)})).endswith(
            "c 1 2\nc 2 3/2\n")

    def test_exact_hands_back_fraction_speeds(self):
        vel = VelocityProfile({1: F(3, 2), 2: 4, 3: 2 ** 0.5, 4: 2.0}, default=True)
        assert vel.exact(1) is vel.velocity(1)
        assert type(vel.exact(2)) is F and vel.exact(2) == 4
        for j in (3, 4, 5):
            with pytest.raises(NotRationalError):
                vel.exact(j)
