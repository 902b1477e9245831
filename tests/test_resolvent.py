"""Resolvent formulas, the Laplace-transform oracle, and their certificates."""

import cmath
import importlib.util
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
from netflow import (
    ContractionViolationError,
    MalformedGraphError,
    MetricGraph,
    NetworkState,
    NotRationalError,
    SampledState,
    SparseVector,
    TruncationError,
    VelocityProfile,
    WidthOverflowError,
    WrongOperatorError,
    build_adjacency,
    emit_plotdata,
    laplace_oracle,
    parse_plotdata,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
)
from netflow import checks, semigroup
from netflow import resolvent as resolvent_module


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


def g2_weighted(w):
    """g2 with both routing weights w; columns no longer sum to one."""
    return MetricGraph.finite(
        [(1, 1, 2), (2, 2, 1)], {(1, 2): w, (2, 1): w}, name="g2w"
    )


def unit_vel(g):
    return VelocityProfile({j: F(1) for j in g.edge_ids})


def g5_speeds():
    """The speeds g5 carries in its fixture file."""
    return VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})


def horizon(lam):
    """A t_max, in eighths, with Re(l) t_max >= 32."""
    return F(math.ceil(256 / complex(lam).real), 8)


def random_state(rng, edges, pieces=5):
    cuts = sorted({F(rng.randrange(1, 36), 36) for _ in range(pieces - 1)})
    bps = [F(0)] + cuts + [F(1)]
    vals = [
        SparseVector({j: F(rng.randrange(-6, 7), 3) for j in edges})
        for _ in range(len(bps) - 1)
    ]
    return NetworkState(bps, vals)


class TestResolventUnit:
    def test_zero_state(self):
        res = resolvent_unit(build_adjacency(g2()), NetworkState.zero(), 1.0, grid=16)
        assert res.tail_bound == 0
        assert all(v.is_zero() for v in res.state.samples)

    def test_homogeneity(self):
        # doubling is exact in floats; scaling tol with f pins the same
        # truncation index, so the samples must double exactly
        op = build_adjacency(g2())
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(1, 3)}), SparseVector({2: F(2, 7)})],
        )
        one = resolvent_unit(op, f, 1.5, grid=32, tol=1e-12)
        two = resolvent_unit(op, f.scale(F(2)), 1.5, grid=32, tol=2e-12)
        assert two.terms == one.terms
        assert two.state.distance(one.state.scale(2.0)) == 0

    def test_matches_laplace_oracle(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        ru = resolvent_unit(op, f, 1.0, grid=64)
        lr = laplace_oracle(op, f, 1.0, t_max=horizon(1.0), grid=64)
        d = ru.state.distance(lr.state)
        assert d <= lr.error_bound + ru.tail_bound
        assert d <= 1e-10

    def test_left_half_plane_rejected(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        for lam in (0.0, -1.0, -0.5 + 2j, math.inf, math.nan, complex(1, math.inf),
                    complex(1, math.nan), complex(math.inf, 1)):
            with pytest.raises(ValueError):
                resolvent_unit(op, f, lam)

    def test_unreachable_tolerance(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(TruncationError) as err:
            resolvent_unit(op, f, 1e-9, grid=4)
        assert err.value.achieved > 0

    def test_scaled_operator_refused(self):
        op = build_adjacency(g2(), VelocityProfile({1: F(2), 2: F(1)}))
        with pytest.raises(WrongOperatorError):
            resolvent_unit(op, NetworkState.zero(), 1.0)

    def test_norm_bound(self):
        op = build_adjacency(g5())
        rng = random.Random(19)
        for lam in (0.5, 1.0, 3.0):
            f = random_state(rng, (1, 2, 3, 4, 5))
            res = resolvent_unit(op, f, lam, grid=64)
            assert res.state.sup_sample_norm() <= float(f.sup_norm()) / lam + 1e-10

    def test_positivity(self):
        op = build_adjacency(g5())
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({3: F(2), 5: F(1, 4)})],
        )
        res = resolvent_unit(op, f, 0.7, grid=48)
        for v in res.state.samples:
            for _, x in v.items():
                assert x >= -1e-14

    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_columns_summing_past_one_refused(self, lam):
        # columns summing to 3/2 give q = (3/2) e^{-lam}: below one at
        # lam = 1, which proves a bound, and above it at lam = 0.3, where
        # the series diverges and both solvers refuse
        g = g2_weighted(F(3, 2))
        f = NetworkState.constant(SparseVector({1: F(1)}))
        if 1.5 * math.exp(-lam) < 1:
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=16)
            rg = resolvent_general(g, unit_vel(g), f, lam, grid=16)
            assert ru.state == rg.state and ru.terms == rg.terms
            assert ru.tail_bound == rg.tail_bound <= 1e-12
            return
        with pytest.raises(ContractionViolationError):
            resolvent_unit(build_adjacency(g), f, lam, grid=16)
        with pytest.raises(ContractionViolationError):
            resolvent_general(g, unit_vel(g), f, lam, grid=16)

    def test_substochastic_columns_keep_their_bound(self):
        g = g2_weighted(F(1, 2))
        f = random_state(random.Random(23), (1, 2))
        for lam in (0.3, 1.0):
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=16)
            rg = resolvent_general(g, unit_vel(g), f, lam, grid=16)
            assert ru.state.distance(rg.state) <= ru.tail_bound + rg.tail_bound + 1e-12

    def test_lazy_path_closed_form(self):
        # on the one-way path nothing returns: edge n's value is the
        # n-step forwarding of edge 0's exponential moment
        path = MetricGraph.lazy(
            column_fn=lambda j: [(j + 1, F(1))],
            endpoints_fn=lambda j: (j, j + 1),
            name="path",
        )
        f = NetworkState.constant(SparseVector({0: F(1)}))
        lam = 1.0
        res = resolvent_unit(build_adjacency(path), f, lam, grid=8, tol=1e-14)
        for m in range(9):
            s = m / 8
            v = res.state.samples[m]
            assert v.get(0) == pytest.approx((1 - math.exp(-lam * (1 - s))), abs=1e-12)
            for n in (1, 3, 5):
                want = math.exp(-lam * (n - s)) * (1 - math.exp(-lam))
                assert v.get(n) == pytest.approx(want, abs=1e-12)


class TestResolventGeneral:
    def test_unit_velocities_match_unit_formula(self):
        # both solvers at unit speed against the time-domain sum, which
        # runs no series
        g = g5()
        f = random_state(random.Random(21), (1, 2, 3, 4, 5))
        for lam in (1.0, 2.0, 1 + 1j):
            lr = laplace_oracle(build_adjacency(g), f, lam, t_max=horizon(lam), grid=64)
            assert lr.error_bound <= 1e-10
            for res in (resolvent_unit(build_adjacency(g), f, lam, grid=64),
                        resolvent_general(g, unit_vel(g), f, lam, grid=64)):
                assert res.state.distance(lr.state) <= lr.error_bound + res.tail_bound

    def test_zero_state(self):
        g = g2()
        res = resolvent_general(g, unit_vel(g), NetworkState.zero(), 2.0, grid=16)
        assert all(v.l1() < 1e-15 for v in res.state.samples)

    def test_positivity_mixed_velocities(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(2)}), SparseVector({4: F(1)})],
        )
        res = resolvent_general(g, vel, f, 1.0, grid=48)
        for v in res.state.samples:
            for _, x in v.items():
                assert x >= -1e-14

    def test_uniform_speed_rescales(self):
        # T_C(t) = T(ct) at a uniform speed, so R_C(l) = R_unit(l/c)/c
        g = g2()
        f = random_state(random.Random(22), (1, 2))
        rg = resolvent_general(g, VelocityProfile({1: F(2), 2: F(2)}), f, 2.0, grid=64)
        ru = resolvent_unit(build_adjacency(g), f, 1.0, grid=64)
        assert rg.state.distance(ru.state.scale(0.5)) <= 1e-10

    def test_contraction_violation_detected(self):
        g = MetricGraph.finite(
            [(1, 1, 2), (2, 2, 1)],
            {(1, 2): F(3, 2), (2, 1): F(3, 2)},
            name="heavy",
        )
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(ContractionViolationError):
            resolvent_general(g, unit_vel(g), f, 0.1, grid=8)

    def test_state_on_an_unknown_edge_refused(self):
        g = g2()
        f = NetworkState.constant(SparseVector({1: F(1), 99: F(5)}))
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            resolvent_general(g, unit_vel(g), f, 2.0, grid=8)

    @pytest.mark.parametrize("lam", [2.0, 0.5, 1 + 1j])
    def test_lazy_path_at_irrational_speeds(self, lam):
        # the series reads the closure of supp f, and a cycle one edge
        # longer holds it, so both solve the same series within their tails
        vel = VelocityProfile({1: math.sqrt(3), 3: math.pi / 2}, default=math.sqrt(2))
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({0: F(1), 1: F(2)}), SparseVector({1: F(-1)})])
        lazy = resolvent_general(lazy_path(), vel, f, lam, grid=24)
        n = len(lazy.state.edges) + 1
        assert set(lazy.state.edges) == set(range(n - 1))
        finite = resolvent_general(cycle(n), vel, f, lam, grid=24)
        assert lazy.tail_bound <= 1e-12
        assert lazy.state.distance(finite.state) <= lazy.tail_bound + finite.tail_bound

    def test_lazy_tree_matches_a_finite_tree(self):
        # a finite tree one level deeper than the closure, its leaves routed
        # back to the root, agrees with the lazy tree on every column read
        vel = VelocityProfile({0: math.sqrt(3), 2: math.pi / 2, 5: math.sqrt(5)},
                              default=math.sqrt(2))
        f = NetworkState([F(0), F(1, 4), F(1)],
                         [SparseVector({0: F(2)}), SparseVector({1: F(1), 2: F(-1)})])
        lazy_tree = MetricGraph.lazy(lambda j: [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))],
                                     lambda j: ((j - 1) // 2, j))
        for lam in (8.0, 12 - 3j):
            lazy = resolvent_general(lazy_tree, vel, f, lam, grid=16)
            finite = resolvent_general(rooted_tree((max(lazy.state.edges) + 1).bit_length() + 1),
                                       vel, f, lam, grid=16)
            assert lazy.tail_bound <= 1e-12
            assert lazy.state.distance(finite.state) <= lazy.tail_bound + finite.tail_bound

    def test_q_that_rounds_to_one_is_named(self):
        # at Re(l) = 1e-300 every e^{-Re(l)/c_j} rounds to 1, on columns
        # that sum to one
        f = NetworkState.constant(SparseVector({1: F(1)}))
        cases = [(g5(), g5_speeds(), "2"), (lazy_path(), VelocityProfile({}, default=F(3)), "3")]
        for g, vel, c_max in cases:
            with pytest.raises(ContractionViolationError,
                               match=rf"q = 1 >= 1 at Re\(lambda\) = 1e-300 and c_max = {c_max}:"):
                resolvent_general(g, vel, f, 1e-300, grid=8)

    def test_metadata_records_both_norms(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        f = NetworkState.constant(SparseVector({1: F(1)}))
        res = resolvent_general(g, vel, f, 1.0, grid=16)
        assert 0 < res.metadata["norm_Blambda_weighted"] < 1
        assert res.metadata["norm_Blambda"] > 0
        assert res.terms == res.metadata["neumann_terms"]


class TestLargeLambda:
    """Both solvers truncate on the head trace y = u(1), so their bounds
    carry no e^{Re(l)/c_min} factor and hold at any Re(l) > 0."""

    @pytest.mark.parametrize("lam", [10.0, 30.0, 50.0, 400.0])
    def test_unit_and_general_agree(self, lam):
        # each against the time-domain sum, which runs no series
        cases = [
            (g2(), NetworkState.constant(SparseVector({1: F(1)}))),
            (g5(), random_state(random.Random(23), (1, 2, 3, 4, 5))),
        ]
        for g, f in cases:
            lr = laplace_oracle(build_adjacency(g), f, lam, t_max=horizon(lam), grid=16)
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=16)
            rg = resolvent_general(g, unit_vel(g), f, lam, grid=16)
            assert ru.tail_bound <= 1e-10 and rg.tail_bound <= 1e-10
            assert rg.terms >= 1
            assert lr.error_bound <= 1e-10
            for res in (ru, rg):
                assert res.state.distance(lr.state) <= lr.error_bound + res.tail_bound

    @pytest.mark.parametrize("lam", [800.0, 800 + 3j, 1e4])
    def test_no_overflow(self, lam):
        g = g5()
        f = random_state(random.Random(24), (1, 2, 3, 4, 5))
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        for res in (resolvent_unit(build_adjacency(g), f, lam, grid=32),
                    resolvent_general(g, unit_vel(g), f, lam, grid=32),
                    resolvent_general(g, vel, f, lam, grid=32)):
            assert math.isfinite(res.tail_bound)
            values = [x for v in res.state.samples for _, x in v.items()]
            assert values and all(cmath.isfinite(x) for x in values)


def assert_matches_closed_form(res, f, speed, lam):
    """Every sample of `res` against the per-point closed form fed with
    the head trace the solver found, u(1) = its last sample."""
    M = res.state.grid_size
    y = dict(res.state.samples[M].items())
    want = oracles.resolvent_closed_form(f, speed, lam, y, M)
    for got, ref in zip(res.state.samples, want):
        assert set(got.support()) <= set(ref)
        for j, z in ref.items():
            assert abs(got.get(j) - z) <= 1e-12 * (1 + abs(z)), (j, got.get(j), z)


def random_instance(rng):
    g = checks.random_graph(rng, 8)
    vel = VelocityProfile({j: F(rng.randint(1, 6), rng.randint(1, 4)) for j in g.edge_ids})
    return g, vel, checks.random_state(rng, g, 6)


class TestSharedSampler:
    LAMBDAS = (0.5, 2.0, 1 + 1j, 3 - 2j, 30.0, 800.0, 800 + 5j)

    def test_random_graphs_random_speeds(self):
        rng = random.Random(31)
        for trial in range(14):
            g, vel, f = random_instance(rng)
            lam = self.LAMBDAS[trial % len(self.LAMBDAS)]
            # the state's breakpoints have denominators 8, 12, 16 or 24, so
            # some grids put them on grid points and 7 never does
            grid = rng.choice([7, 12, 16, 24, 48])
            res = resolvent_general(g, vel, f, lam, grid=grid)
            assert_matches_closed_form(res, f, vel.velocity, lam)

    def test_pieces_narrower_than_a_cell(self):
        g = g5()
        vel = VelocityProfile({1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)})
        bps = [F(0), F(1, 100), F(1, 50), F(3, 8), F(3, 8) + F(1, 1000), F(1, 2), F(1)]
        vals = [SparseVector({1: F(5)}), SparseVector({2: F(-3), 4: F(1)}),
                SparseVector({3: F(1, 2)}), SparseVector({5: F(7)}),
                SparseVector({1: F(1)}), SparseVector({4: F(2)})]
        f = NetworkState(bps, vals)
        for lam in self.LAMBDAS:
            for grid in (4, 8, 9):
                res = resolvent_general(g, vel, f, lam, grid=grid)
                assert_matches_closed_form(res, f, vel.velocity, lam)
                res = resolvent_unit(build_adjacency(g), f, lam, grid=grid)
                assert_matches_closed_form(res, f, lambda j: 1, lam)

    def test_lazy_one_way_path(self):
        path = MetricGraph.lazy(
            column_fn=lambda j: [(j + 1, F(1))],
            endpoints_fn=lambda j: (j, j + 1),
            name="path",
        )
        f = NetworkState(
            [F(0), F(1, 3), F(1, 2), F(1)],
            [SparseVector({0: F(1)}), SparseVector({2: F(-2)}), SparseVector({0: F(1, 2)})],
        )
        for lam in self.LAMBDAS:
            res = resolvent_unit(build_adjacency(path), f, lam, grid=12)
            assert_matches_closed_form(res, f, lambda j: 1, lam)

    def test_head_trace_solves_the_boundary_condition(self):
        # the truncated y misses C u(0) by exactly the first dropped term,
        # whose l1 norm the reported tail bound dominates
        rng = random.Random(32)
        for trial in range(10):
            g, vel, f = random_instance(rng)
            lam = self.LAMBDAS[trial % len(self.LAMBDAS)]
            res = resolvent_general(g, vel, f, lam, grid=8, tol=1e-9)
            u0, u1 = res.state.samples[0], res.state.samples[-1]
            residual = 0.0
            for i in g.edge_ids:
                routed = 0
                for j in g.edge_ids:
                    w = g.column(j).get(i, 0)
                    routed += float(w * vel.velocity(j) / vel.velocity(i)) * u0.get(j)
                residual += abs(u1.get(i) - routed)
            assert residual <= res.tail_bound + 1e-12


class TestPerSpeedSampler:
    """The sampler exponentiates once per distinct speed and gathers the
    rows per edge; the per-edge sampler in oracles is the reference, and
    the two must agree bit for bit."""

    GRIDS = (1, 7, 256)

    def assert_matches_per_edge(self, monkeypatch, g, f, solve):
        fast = solve()
        keeper = g._float_routing if g.is_finite else None
        reads = []

        def per_edge_state_table(f, edges):
            reads.append(edges)
            return oracles.per_edge_state_table(f, edges)

        with monkeypatch.context() as m:
            # the reference bypasses the keeper the fast solve filled, so it
            # reads f entry by entry, and leaves that keeper as it found it
            if keeper is not None:
                m.setattr(g, "_float_routing", None)
            m.setattr(resolvent_module, "_state_table", per_edge_state_table)
            m.setattr(resolvent_module, "_piece_integrals", oracles.per_edge_piece_integrals)
            m.setattr(resolvent_module, "_sample", oracles.per_edge_sample)
            ref = solve()
        assert len(reads) == 1
        if keeper is not None:
            assert g._float_routing is keeper and keeper[1] is f
        assert fast.state.edges == ref.state.edges
        assert fast.state.array.dtype == ref.state.array.dtype
        assert fast.state.array.tobytes() == ref.state.array.tobytes()
        assert (fast.terms, fast.tail_bound, fast.metadata) == (ref.terms, ref.tail_bound,
                                                                ref.metadata)

    def test_random_graphs_random_speeds(self, monkeypatch):
        rng = random.Random(31)
        for trial in range(14):
            g, vel, f = random_instance(rng)
            for lam in TestSharedSampler.LAMBDAS:
                for grid in self.GRIDS:
                    self.assert_matches_per_edge(
                        monkeypatch, g, f, lambda: resolvent_general(g, vel, f, lam, grid=grid))

    def test_three_speeds_on_300_edges(self, monkeypatch):
        g = regular_style_graph(random.Random(44), 100, 3)
        vel = VelocityProfile({j: [F(1, 2), F(1), F(2)][j % 3] for j in g.edge_ids})
        f = checks.random_state(random.Random(45), g, 16)
        for lam in TestSharedSampler.LAMBDAS:
            for grid in self.GRIDS:
                self.assert_matches_per_edge(
                    monkeypatch, g, f, lambda: resolvent_general(g, vel, f, lam, grid=grid))
                self.assert_matches_per_edge(
                    monkeypatch, g, f, lambda: resolvent_unit(build_adjacency(g), f, lam, grid=grid))

    def test_irrational_speeds_finite_and_lazy(self, monkeypatch):
        lazy_tree = MetricGraph.lazy(lambda j: [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))],
                                     lambda j: ((j - 1) // 2, j))
        cases = [
            (g5(), VelocityProfile({1: math.sqrt(2), 2: F(1), 3: F(1, 2), 4: math.sqrt(2),
                                    5: F(3, 2)}),
             NetworkState([F(0), F(1, 3), F(1)],
                          [SparseVector({1: F(1), 4: F(2)}), SparseVector({3: F(-1)})])),
            (lazy_path(), VelocityProfile({1: math.sqrt(3), 3: math.pi / 2},
                                          default=math.sqrt(2)),
             NetworkState([F(0), F(1, 3), F(1)],
                          [SparseVector({0: F(1), 1: F(2)}), SparseVector({1: F(-1)})])),
            (lazy_tree, VelocityProfile({0: math.sqrt(3), 2: math.pi / 2, 5: math.sqrt(5)},
                                        default=math.sqrt(2)),
             NetworkState([F(0), F(1, 4), F(1)],
                          [SparseVector({0: F(2)}), SparseVector({1: F(1), 2: F(-1)})])),
        ]
        # the tree's closure doubles per level: only large lambdas keep it small
        for (g, vel, f), lams in zip(cases, [(0.5, 2.0, 1 + 1j, 800 + 5j)] * 2 + [(8.0, 12 - 3j)]):
            for lam in lams:
                for grid in self.GRIDS:
                    self.assert_matches_per_edge(
                        monkeypatch, g, f, lambda: resolvent_general(g, vel, f, lam, grid=grid))

    @pytest.mark.parametrize("lam", [0.5, 1 + 1j])
    def test_block_edges(self, monkeypatch, lam):
        # the sampler fills its rows a block at a time: edge counts on both
        # sides of one block, and one many blocks long
        block = resolvent_module._BLOCK
        for n in (1, block - 1, block, block + 1, 600):
            g = cycle(n)
            vel = VelocityProfile({j: [F(1, 2), F(1), math.sqrt(2)][j % 3] for j in g.edge_ids})
            f = random_state(random.Random(n), g.edge_ids, pieces=6)
            for grid in self.GRIDS:
                self.assert_matches_per_edge(
                    monkeypatch, g, f, lambda: resolvent_general(g, vel, f, lam, grid=grid))


def test_exponentials_follow_the_speeds(monkeypatch):
    # one solve on 300 edges at 3 speeds: the sampler's exp and expm1 see 3
    # rows of grid + 1 or of pieces, and the series one exponent per edge
    # twice; about 160 per edge when every edge exponentiates for itself
    counted = []

    def counting(ufunc):
        def call(x, *args, **kwargs):
            counted.append(np.size(x))
            return ufunc(x, *args, **kwargs)
        return call

    class CountingNumpy:
        exp, expm1 = staticmethod(counting(np.exp)), staticmethod(counting(np.expm1))

        def __getattr__(self, name):
            return getattr(np, name)

    g = regular_style_graph(random.Random(46), 100, 3)
    vel = VelocityProfile({j: [F(1, 2), F(1), F(2)][j % 3] for j in g.edge_ids})
    rng = random.Random(47)
    f = NetworkState([F(k, 16) for k in range(17)],
                     [SparseVector({j: F(rng.randint(1, 6), 2) for j in rng.sample(g.edge_ids, 30)})
                      for _ in range(16)])
    assert len(f.values) == 16
    monkeypatch.setattr(resolvent_module, "np", CountingNumpy())
    res = resolvent_general(g, vel, f, 1 + 1j, grid=64)
    assert res.terms > 0 and len(res.state.edges) == 300
    assert sum(counted) < 5 * 300, sum(counted)


class TestLaplaceOracle:
    def test_zero_state(self):
        res = laplace_oracle(build_adjacency(g2()), NetworkState.zero(), 1.0,
                             t_max=4, grid=8)
        assert res.round_bound == 0 and res.tail_bound == 0
        assert all(v.is_zero() for v in res.state.samples)

    def test_tail_bound_closed_form(self):
        # g2 with weights w at speed c: rho = w, q = w e^{-2/c}, c_min = c,
        # and T(10) f = w^(10 c) f, so the windows sum to 3 w^(10 c)
        f = NetworkState.constant(SparseVector({1: F(3)}))
        for w, c in ((F(1), F(1)), (F(1), F(1, 2)), (F(3, 2), F(1))):
            g = g2() if w == 1 else g2_weighted(w)
            op = build_adjacency(g, None if c == 1 else VelocityProfile({1: c, 2: c}))
            res = laplace_oracle(op, f, 2.0, t_max=10, grid=8)
            q = float(w) * math.exp(-2 / c)
            want = math.exp(-20) * 3 * float(w ** (10 * c)) * (float(w / c) / (1 - q) + 1 / 2)
            assert res.tail_bound == pytest.approx(want, rel=1e-9)
            assert res.tail_bound >= want

    @pytest.mark.parametrize("lam", [1.0, 0.6, 0.3])
    def test_tail_bound_on_growing_flow(self, lam):
        # weights 3/2 make T(t) f grow like (3/2)^t: the tail reads
        # T(12) f = (3/2)^12 on edge 1, and q = (3/2) e^{-lam} >= 1 at
        # lam = 0.3, where no tail bound exists
        g = g2_weighted(F(3, 2))
        f = NetworkState.constant(SparseVector({1: F(1)}))
        if 1.5 * math.exp(-lam) >= 1:
            with pytest.raises(ContractionViolationError):
                laplace_oracle(build_adjacency(g), f, lam, t_max=12, grid=16)
            return
        lr = laplace_oracle(build_adjacency(g), f, lam, t_max=12, grid=16)
        ru = resolvent_unit(build_adjacency(g), f, lam, grid=16)
        assert ru.state.distance(lr.state) <= lr.error_bound + ru.tail_bound
        assert lr.tail_bound >= math.exp(-12 * lam) * 1.5**12 / lam

    def test_complex_lambda(self):
        op = build_adjacency(g5())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        for lam in (1 + 1j, 2 - 3j):
            ru = resolvent_unit(op, f, lam, grid=32)
            lr = laplace_oracle(op, f, lam, t_max=horizon(lam), grid=32)
            assert lr.error_bound <= 1e-10
            assert ru.state.distance(lr.state) <= lr.error_bound + ru.tail_bound

    def test_fixture_speeds(self):
        g, vel = g5(), g5_speeds()
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(1), 4: F(2)}), SparseVector({3: F(1, 2), 5: F(-1)})],
        )
        for lam, t_max in ((2.0, 16), (0.5, 60), (1 + 1j, 32)):
            rg = resolvent_general(g, vel, f, lam, grid=64)
            lr = laplace_oracle(build_adjacency(g, vel), f, lam, t_max=t_max, grid=64)
            assert lr.error_bound <= 1e-10
            assert rg.state.distance(lr.state) <= lr.error_bound + rg.tail_bound

    def test_random_mixed_speed_graphs(self):
        rng = random.Random(41)
        for trial in range(20):
            g = checks.random_graph(rng, 8)
            vel = checks.random_velocities(rng, g)
            f = checks.random_state(rng, g, 4)
            lam = (2.0, 1 + 1j, 1.0, 3 - 2j)[trial % 4]
            lr = laplace_oracle(build_adjacency(g, vel), f, lam, t_max=horizon(lam), grid=16)
            rg = resolvent_general(g, vel, f, lam, grid=16)
            assert lr.error_bound <= 1e-10, trial
            assert rg.state.distance(lr.state) <= lr.error_bound + rg.tail_bound, trial

    @pytest.mark.parametrize("t_max", [F(8), F(15, 2)])
    def test_rounding_bound_against_path_sums(self, t_max):
        # same horizon, no tail: only the float sum's rounding is left
        g, vel = g5(), g5_speeds()
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(1), 4: F(2)}), SparseVector({3: F(1, 2), 5: F(-1)})],
        )
        lr = laplace_oracle(build_adjacency(g, vel), f, 0.5, t_max=t_max, grid=8)
        ref = oracles.laplace_paths(g, vel, f, 0.5, t_max, 8)
        worst = max(sum(abs(got.get(e) - float(x)) for e, x in want.items())
                    for got, want in zip(lr.state.samples, ref))
        assert worst <= lr.round_bound
        assert lr.round_bound <= 1e-10

    def test_lazy_graph_matches_finite_truncation(self):
        # at listed speeds over a default, the path's forward cone up to
        # t_max = 32 stays short of 64 edges, so a 64-edge cycle holds it
        vel = VelocityProfile({1: F(2), 2: F(3), 4: F(1, 2)}, default=F(1))
        ring = cycle(64)
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({0: F(1)}), SparseVector({1: F(-2)})])
        for lam in (2.0, 1 + 1j):
            t_max = horizon(lam)
            lazy = laplace_oracle(build_adjacency(lazy_path(), vel), f, lam, t_max=t_max, grid=24)
            assert len(lazy.state.samples[0].support()) < 64
            finite = laplace_oracle(build_adjacency(ring, vel), f, lam, t_max=t_max, grid=24)
            assert lazy.state.distance(finite.state) <= lazy.round_bound + finite.round_bound
            assert lazy.error_bound <= 1e-10
            for g in (ring, lazy_path()):
                rg = resolvent_general(g, vel, f, lam, grid=24)
                assert rg.state.distance(lazy.state) <= lazy.error_bound + rg.tail_bound

    def test_independent_of_the_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("laplace_oracle ran the resolvent series")

        monkeypatch.setattr(resolvent_module, "_series", refuse)
        monkeypatch.setattr(resolvent_module, "_routing", refuse)
        f = NetworkState.constant(SparseVector({1: F(1)}))
        res = laplace_oracle(build_adjacency(g5(), g5_speeds()), f, 2.0, t_max=8, grid=8)
        assert not res.state.samples[0].is_zero()

    def test_argument_validation(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        # a rational-scaled operator runs at its speeds; steps does nothing
        scaled = build_adjacency(g2(), VelocityProfile({1: F(2), 2: F(1, 2)}))
        one = laplace_oracle(scaled, f, 1.0, t_max=4, grid=8)
        assert one.state == laplace_oracle(scaled, f, 1.0, t_max=4, steps=400, grid=8).state
        with pytest.raises(NotRationalError):
            laplace_oracle(build_adjacency(g2(), VelocityProfile({1: math.sqrt(2), 2: F(1)})),
                           f, 1.0, t_max=4)
        with pytest.raises(NotRationalError):
            laplace_oracle(op, f.map_values(lambda v: SparseVector({1: 1.0})), 1.0, t_max=4)
        for t_max in (0, -1):
            with pytest.raises(ValueError):
                laplace_oracle(op, f, 1.0, t_max=t_max)
        with pytest.raises(ValueError):
            laplace_oracle(op, f, 0.0, t_max=4)
        with pytest.raises(ValueError):
            laplace_oracle(op, f, 1.0, t_max=4, grid=0)
        # a lazy graph is stochastic by construction: a column summing to
        # 1/2 is refused on first read
        leaky = MetricGraph.lazy(lambda j: [(j + 1, F(1, 2))], lambda j: (j, j + 1))
        with pytest.raises(MalformedGraphError, match="sums to 1/2"):
            laplace_oracle(build_adjacency(leaky), NetworkState.constant(SparseVector({0: F(1)})),
                           1.0, t_max=4)


class TestIdentityCheck:
    def test_zero_state(self):
        rep = resolvent_identity_check(
            build_adjacency(g2()), NetworkState.zero(), 1.0, grid=64
        )
        assert rep.interior == 0 and rep.trace == 0

    def test_interior_residual_halves_quadratically(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        reports = [
            resolvent_identity_check(op, f, 1.0, grid=M)
            for M in (256, 512, 1024)
        ]
        assert reports[0].interior / reports[1].interior > 3.5
        assert reports[1].interior / reports[2].interior > 3.5
        assert all(r.trace < 1e-8 for r in reports)

    def test_solves_at_the_given_speeds(self):
        # without a result the check solves at vel, else at op.scaling
        vel = g5_speeds()
        op = build_adjacency(g5(), vel)
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({1: F(1), 4: F(2)}), SparseVector({3: F(-1)})])
        assert resolvent_identity_check(op, f, 2.0, vel=vel).trace <= 1e-8
        assert resolvent_identity_check(op, f, 2.0).trace <= 1e-8

    def test_trace_routed_at_the_check_speeds(self):
        # a resolvent at g5's speeds, checked through the unscaled operator
        # with vel given, routes its trace at vel: the same report, to the
        # bit, as through the operator scaled by vel
        vel = g5_speeds()
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({1: F(1), 4: F(2)}), SparseVector({3: F(-1)})])
        res = resolvent_general(g5(), vel, f, 2.0)
        plain = resolvent_identity_check(build_adjacency(g5()), f, 2.0, result=res, vel=vel)
        assert plain.trace <= 1e-8
        assert plain == resolvent_identity_check(build_adjacency(g5(), vel), f, 2.0, result=res,
                                                 vel=vel)

    def test_breakpoint_spike_reported_separately(self):
        op = build_adjacency(g2())
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({1: F(-1)})],
        )
        rep = resolvent_identity_check(op, f, 1.0, grid=512)
        assert rep.spike > 100 * rep.interior
        assert rep.interior < 1e-3


def lazy_path():
    return MetricGraph.lazy(lambda j: [(j + 1, F(1))], lambda j: (j, j + 1), name="path")


def cycle(n):
    """The n-edge cycle 0 -> 1 -> ... -> n - 1 -> 0."""
    return MetricGraph.finite([(j, j, (j + 1) % n) for j in range(n)],
                              {((j + 1) % n, j): F(1) for j in range(n)})


def rooted_tree(levels):
    """The lazy binary tree's first `levels` levels of edges, edge j from
    vertex (j - 1) // 2 to j, with each leaf routed back to edge 0."""
    n = 2 ** levels - 1
    leaves = range(n // 2, n)
    edges = [(j, (j - 1) // 2, -1 if j in leaves else j) for j in range(n)]
    weights = {(0, j): F(1) for j in leaves}
    weights.update({(i, j): F(1, 2) for j in range(n // 2) for i in (2 * j + 1, 2 * j + 2)})
    return MetricGraph.finite(edges, weights, name="tree")


def substochastic(rng, g):
    """g with each column scaled by 1/2, 3/4 or 1."""
    weights = {}
    for j in g.edge_ids:
        a = rng.choice([F(1, 2), F(3, 4), F(1)])
        weights.update({(i, j): a * w for i, w in g.column(j).items()})
    return MetricGraph.finite([(j, *g.endpoints(j)) for j in g.edge_ids], weights)


def test_one_unique_per_solve(monkeypatch):
    # the solve groups its edges by exponent once, for the piece integrals
    # and the sampler alike
    calls = []

    class CountingNumpy:
        @staticmethod
        def unique(*args, **kwargs):
            calls.append(args)
            return np.unique(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np, name)

    g = regular_style_graph(random.Random(55), 20, 3)
    vel = VelocityProfile({j: [F(1, 2), F(1), math.sqrt(2)][j % 3] for j in g.edge_ids})
    f = checks.random_state(random.Random(56), g, 5)
    lazy_vel = VelocityProfile({1: math.sqrt(3)}, default=F(1))
    lazy_f = NetworkState([F(0), F(1, 3), F(1)],
                          [SparseVector({0: F(1), 1: F(2)}), SparseVector({1: F(-1)})])
    monkeypatch.setattr(resolvent_module, "np", CountingNumpy())
    for solve in (lambda: resolvent_general(g, vel, f, 2.0, grid=16),
                  lambda: resolvent_general(g, vel, f, 1 + 1j, grid=16),
                  lambda: resolvent_unit(build_adjacency(g), f, 0.5, grid=16),
                  lambda: resolvent_general(lazy_path(), lazy_vel, lazy_f, 2.0, grid=16)):
        calls.clear()
        assert solve().terms > 0
        assert len(calls) == 1


class TestArraySeries:
    """resolvent_unit routes its series on index arrays over the routing
    closure of supp f; the dict-loop series in oracles is the reference."""

    LAMBDAS = (0.5, 2.0, 1 + 1j, 3 - 2j)

    @staticmethod
    def piece_integrals(f, edges, lam_num):
        """The library's (V, G) for f on `edges` at c = 1."""
        mu = np.full(len(edges), lam_num)
        flat, vals, widths = resolvent_module._state_table(f, edges)
        V = resolvent_module._scatter(flat, vals, len(edges), len(f.values), mu.dtype)
        return resolvent_module._piece_integrals(V, widths, *np.unique(mu, return_inverse=True),
                                                 lam_num)

    def assert_matches_dict_series(self, monkeypatch, g, f, lam, grid):
        seen = {}
        sample = resolvent_module._sample

        def spy(f, edges, mus, row, V, G, y, grid):
            seen.update(edges=edges, y=y)
            return sample(f, edges, mus, row, V, G, y, grid)

        monkeypatch.setattr(resolvent_module, "_sample", spy)
        res = resolvent_unit(build_adjacency(g), f, lam, grid=grid)
        if f.is_zero():
            assert res.terms == 0 and all(v.is_zero() for v in res.state.samples)
            return
        lam_num = lam.real if complex(lam).imag == 0 else complex(lam)
        seeds = list(dict.fromkeys(e for v in f.values for e in v.support()))
        w = self.piece_integrals(f, seeds, lam_num)[1][0]
        want = oracles.unit_series(g, dict(zip(seeds, w.tolist())), lam_num, res.terms - 1)
        got = dict(zip(seen["edges"], seen["y"].tolist()))
        assert set(want) <= set(got)
        for e, x in got.items():
            assert abs(x - want.get(e, 0)) <= 1e-14, (e, x, want.get(e))
        # the sampler fed with the reference trace gives every sample
        edges = list(got)
        mu = np.full(len(edges), lam_num)
        V, G = self.piece_integrals(f, edges, lam_num)
        y = np.array([want.get(e, 0) for e in edges], dtype=mu.dtype)
        ref = sample(f, edges, *np.unique(mu, return_inverse=True), V, G, y, grid)
        for a, b in zip(res.state.samples, ref.samples):
            for e in set(a.support()) | set(b.support()):
                assert abs(a.get(e) - b.get(e)) <= 1e-14, (e, a.get(e), b.get(e))

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(41)
        for trial in range(16):
            g = checks.random_graph(rng, 8)
            if trial % 2:
                g = substochastic(rng, g)
            f = checks.random_state(rng, g, 5)
            lam = self.LAMBDAS[trial % len(self.LAMBDAS)]
            self.assert_matches_dict_series(monkeypatch, g, f, lam, rng.choice([7, 16, 24]))

    def test_lazy_one_way_path(self, monkeypatch):
        f = NetworkState(
            [F(0), F(1, 3), F(1, 2), F(1)],
            [SparseVector({0: F(1)}), SparseVector({2: F(-2)}), SparseVector({0: F(1, 2), 5: F(3)})],
        )
        for lam in self.LAMBDAS:
            self.assert_matches_dict_series(monkeypatch, lazy_path(), f, lam, 12)

    def test_runaway_closure_refused(self, monkeypatch):
        reads = []

        def column(j):
            reads.append(j)
            return [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))]

        def no_arrays(*_):
            raise AssertionError("piece integrals built before the closure was refused")

        def binary_tree():
            return MetricGraph.lazy(column, lambda j: ((j - 1) // 2, j))

        f = NetworkState.constant(SparseVector({0: F(1)}))
        monkeypatch.setattr(semigroup, "MAX_STAGE_EDGES", 30)
        # at lam = 30 the a-posteriori rule stops after one term: the next
        # one, e^{-30} |B d|_1 / (1 - q), is already below the tolerance,
        # so u is nonzero on supp f and the two edges it feeds only
        res = resolvent_unit(build_adjacency(binary_tree()), f, 30.0, grid=8)
        assert res.terms == 1 and res.state.support() == {0, 1, 2}
        monkeypatch.setattr(resolvent_module, "_piece_integrals", no_arrays)
        reads.clear()
        # at lam = 1/2 the support doubles for about 60 terms
        with pytest.raises(WidthOverflowError, match="closure") as err:
            resolvent_unit(build_adjacency(binary_tree()), f, 0.5, grid=8)
        assert err.value.edges
        assert len(reads) < 30


def random_lazy_layers(seed):
    """A lazy path of layers: layer n holds 1-3 parallel edges (n, k) from
    vertex n to n + 1, and each column splits over the next layer by
    random weights, so edges are met from several feeders."""
    def column(j):
        n, rng = j[0] + 1, random.Random(f"{seed}:{j}")
        parts = [rng.randint(1, 4) for _ in range(random.Random(f"{seed}:{n}").randint(1, 3))]
        return [((n, k), F(a, sum(parts))) for k, a in enumerate(parts)]

    return MetricGraph.lazy(column, lambda j: (j[0], j[0] + 1))


def random_lazy_tree(seed):
    """A lazy tree: edge e, from vertex e[:-1] to vertex e, splits into
    1-3 children e + (k,) by random weights."""
    def column(e):
        rng = random.Random(f"{seed}:{e}")
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        return [(e + (k,), F(a, sum(parts))) for k, a in enumerate(parts)]

    return MetricGraph.lazy(column, lambda e: (e[:-1], e))


class TestOneWalk:
    """The lazy closure, a finite graph's kept routing and the exact flows'
    forward cone read a graph's columns by one walk."""

    @staticmethod
    def assert_breadth_first(g, seeds, depth, routing=None):
        edges, rows, cols, weights = routing or resolvent_module._routing(g, seeds, depth)
        want = oracles.breadth_first_closure(g, seeds, depth)
        assert edges == want[0]
        assert (rows.tolist(), cols.tolist(), weights.tolist()) == want[1:]

    @pytest.mark.parametrize("seed", range(6))
    def test_routing_is_the_breadth_first_closure(self, seed):
        rng = random.Random(seed)
        for depth in (0, 1, 2, rng.randint(3, 7)):
            more = rng.sample([(1, 0), (2, 0), (5, 0)], rng.randint(0, 2))
            self.assert_breadth_first(random_lazy_layers(seed), [(0, 0), *more], depth)
            more = rng.sample([(0, 0), (0, 0, 0), (0, 0, 0, 0)], rng.randint(0, 2))
            self.assert_breadth_first(random_lazy_tree(seed), [(0,), *more], depth)
        g = checks.random_graph(rng, 12)
        self.assert_breadth_first(g, rng.sample(g.edge_ids, 2), rng.randint(1, 5))
        # the kept routing of a finite graph: its sorted edges, one deep
        resolvent_unit(build_adjacency(g), checks.random_state(rng, g, 3), 1.0, grid=4)
        self.assert_breadth_first(g, g.edge_ids, 1, g._float_routing[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_cone_is_the_closure_ceil_t_deep(self, seed):
        rng = random.Random(seed)
        for g, seeds in ((random_lazy_layers(seed), [(0, 0), (2, 0)]),
                         (random_lazy_tree(seed), [(0,), (0, 0, 0)])):
            f = NetworkState.constant(SparseVector(dict.fromkeys(seeds, F(1))))
            for t in (F(0), F(1, 2), F(1), F(rng.randint(4, 17), 3)):
                _, speed, _, _ = semigroup._network(g, semigroup._UNIT, f, t)
                edges = resolvent_module._routing(g, sorted(seeds, key=repr), math.ceil(t))[0]
                assert tuple(speed) == edges


def regular_style_graph(rng, vertices, out_degree):
    """Every vertex leaves by `out_degree` edges to distinct other vertices;
    each column splits evenly over the edges leaving its head."""
    edges = []
    for v in range(vertices):
        for h in sorted(rng.sample([u for u in range(vertices) if u != v], out_degree)):
            edges.append((len(edges) + 1, v, h))
    by_tail: dict = {}
    for j, tail, _ in edges:
        by_tail.setdefault(tail, []).append(j)
    weights = {(i, j): F(1, out_degree) for j, _, head in edges for i in by_tail[head]}
    return MetricGraph.finite(edges, weights)


def test_general_memory_follows_the_edges():
    # a dense 3,000 x 3,000 boundary matrix alone takes 72 MB
    rng = random.Random(43)
    g = regular_style_graph(rng, 1000, 3)
    vel = VelocityProfile({j: [F(1, 2), F(1), F(2)][j % 3] for j in g.edge_ids})
    f = NetworkState(
        [F(0), F(1, 3), F(1)],
        [SparseVector({1: F(1), 7: F(2)}), SparseVector({100: F(1, 2)})],
    )
    tracemalloc.start()
    try:
        res = resolvent_general(g, vel, f, 0.5, grid=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms > 0
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("lam", [0.5, 1 + 1j])
def test_one_full_size_array_per_solve(lam):
    # the result is the only edges x (grid + 1) array a solve holds; the
    # allowance covers the sampler's scratch block and the lists f is read
    # through
    g = regular_style_graph(random.Random(44), 100, 3)
    vel = VelocityProfile({j: [F(1, 2), F(1), F(2)][j % 3] for j in g.edge_ids})
    f = checks.random_state(random.Random(45), g, 16)
    resolvent_general(g, vel, f, lam, grid=256)  # reads B once, outside the peak
    tracemalloc.start()
    try:
        res = resolvent_general(g, vel, f, lam, grid=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = res.state.array.nbytes
    assert full == 300 * 257 * res.state.array.itemsize
    assert peak < 1.5 * full + 256 * 1024, f"peak {peak} bytes, result {full}"


class TestRoutingReadOnce:
    """A finite graph's B is read into float index arrays on its first
    solve and kept in the graph's keeper [routing, f, f's table], with
    the table of the last f solved there; a lazy solve reads f every time."""

    @staticmethod
    def counting_columns(monkeypatch, g):
        reads = []
        column = g.column

        def counted(j):
            reads.append(j)
            return column(j)

        monkeypatch.setattr(g, "column", counted)
        return reads

    def test_second_solve_reads_no_column(self, monkeypatch):
        g = regular_style_graph(random.Random(46), 30, 3)
        f = checks.random_state(random.Random(47), g, 6)
        reads = self.counting_columns(monkeypatch, g)
        first = resolvent_general(g, unit_vel(g), f, 0.5, grid=16)
        assert sorted(reads) == g.edge_ids
        reads.clear()
        mixed = VelocityProfile({j: [F(1, 2), F(2)][j % 2] for j in g.edge_ids})
        for lam in (0.5, 2.0, 1 + 1j):
            resolvent_general(g, mixed, f, lam, grid=16)
            resolvent_unit(build_adjacency(g), f, lam, grid=16)
        assert reads == []
        again = resolvent_general(g, unit_vel(g), f, 0.5, grid=16)
        assert again.state.array.tobytes() == first.state.array.tobytes()

    @pytest.mark.parametrize("lam", [0.5, 1 + 1j])
    def test_speeds_never_scale_the_kept_weights(self, lam):
        g = regular_style_graph(random.Random(48), 40, 3)
        f = checks.random_state(random.Random(49), g, 8)
        op = build_adjacency(g)
        mixed = VelocityProfile({j: [F(1, 3), F(1), F(5, 2)][j % 3] for j in g.edge_ids})
        before = resolvent_unit(op, f, lam, grid=32)
        resolvent_general(g, mixed, f, lam, grid=32)
        after = resolvent_unit(op, f, lam, grid=32)
        assert after.state.array.tobytes() == before.state.array.tobytes()
        assert (after.terms, after.tail_bound, after.metadata) == (
            before.terms, before.tail_bound, before.metadata)

    def test_a_new_graph_reads_its_own_weights(self):
        f = NetworkState.constant(SparseVector({0: F(1), 1: F(-1, 2)}))

        def weighted(w):
            # edge 0 splits into edges 1 and 2 by w : 1 - w
            return MetricGraph.finite([(0, 0, 1), (1, 1, 0), (2, 1, 0)],
                                      {(1, 0): w, (2, 0): 1 - w, (0, 1): F(1), (0, 2): F(1)})

        old = weighted(F(1, 4))
        old_result = resolvent_unit(build_adjacency(old), f, 1.0, grid=8)
        del old
        # a fresh graph, possibly at the freed one's address, with other weights
        new = resolvent_unit(build_adjacency(weighted(F(3, 4))), f, 1.0, grid=8)
        cold = resolvent_unit(build_adjacency(weighted(F(3, 4))), f, 1.0, grid=8)
        assert new.state.array.tobytes() == cold.state.array.tobytes()
        assert new.state.array.tobytes() != old_result.state.array.tobytes()

    @staticmethod
    def counting_f_reads(monkeypatch):
        """The list of the edge tuples f is read on."""
        f_reads = []
        state_table = resolvent_module._state_table

        def counted(f, edges):
            f_reads.append(edges)
            return state_table(f, edges)

        monkeypatch.setattr(resolvent_module, "_state_table", counted)
        return f_reads

    @pytest.mark.parametrize("lazy", [False, True])
    def test_f_is_read_once(self, monkeypatch, lazy):
        # a finite graph's solves read f on the first solve only, a lazy
        # graph's on its closure's seeds at every solve; each identity
        # check reads f once, on the result's edges
        f_reads = self.counting_f_reads(monkeypatch)
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({0: F(1), 1: F(2)}), SparseVector({1: F(-1)})])
        g = lazy_path() if lazy else cycle(5)
        vel = VelocityProfile({1: math.sqrt(3)}, default=F(1))
        res = resolvent_general(g, vel, f, 2.0, grid=8)
        assert len(f_reads) == 1 and res.terms > 0
        op = build_adjacency(g, vel)
        resolvent_identity_check(op, f, 2.0, result=res, vel=vel)
        f_reads.clear()
        for lam in (2.0, 0.5, 1 + 1j):
            again = resolvent_general(g, vel, f, lam, grid=8)
            resolvent_identity_check(op, f, lam, result=again, vel=vel)
        if lazy:
            # each closure is a new tuple, and the check reads on it once
            assert [len(e) for e in f_reads[::2]] == [2, 2, 2] and len(f_reads) == 6
        else:
            assert f_reads == [g._float_routing[0][0]] * 3

    def test_unit_solves_read_once(self, monkeypatch):
        g = regular_style_graph(random.Random(50), 20, 3)
        f = checks.random_state(random.Random(51), g, 6)
        op = build_adjacency(g)
        resolvent_unit(op, f, 0.5, grid=16)
        f_reads = self.counting_f_reads(monkeypatch)
        for lam in (0.5, 2.0, 1 + 1j):
            res = resolvent_unit(op, f, lam, grid=16)
            resolvent_identity_check(op, f, lam, result=res)
        # the solves read nothing; each check reads f once on the result's edges
        assert f_reads == [g._float_routing[0][0]] * 3

    def test_lazy_solves_and_checks_leave_the_kept_table(self, monkeypatch):
        # f solved on a finite graph, then on a lazy one: the lazy solve and
        # its check read f afresh on their own edges, and the finite
        # graph's next solve still finds its table
        f = NetworkState([F(0), F(1, 3), F(1)],
                         [SparseVector({0: F(1), 1: F(2)}), SparseVector({1: F(-1)})])
        vel = VelocityProfile({1: math.sqrt(3)}, default=F(1))
        finite, lazy = cycle(5), lazy_path()
        resolvent_general(finite, vel, f, 2.0, grid=8)
        keeper = finite._float_routing
        routing, kept_f, kept = keeper
        assert kept_f is f and len(kept) == 3
        f_reads = self.counting_f_reads(monkeypatch)
        res = resolvent_general(lazy, vel, f, 1 + 1j, grid=8)
        resolvent_identity_check(build_adjacency(lazy, vel), f, 1 + 1j, result=res, vel=vel)
        assert len(f_reads) == 2
        assert finite._float_routing is keeper
        assert keeper[0] is routing and keeper[1] is f and keeper[2] is kept
        f_reads.clear()
        resolvent_general(finite, vel, f, 0.5, grid=8)
        assert f_reads == [] and keeper[2] is kept

    def test_a_new_state_profile_or_graph_reads_its_own(self):
        # f lives on edges 0 and 1; `wider` puts edge -1 before them, so a
        # table laid out on the first graph's edges would misplace f there
        def graph(wider):
            edges = [(0, 0, 1), (1, 1, 0)] + ([(-1, 1, 0)] if wider else [])
            weights = {(1, 0): F(1), (0, 1): F(1)}
            if wider:
                weights.update({(0, -1): F(1), (-1, 0): F(0)})
            return MetricGraph.finite(edges, weights)

        def state(scale):
            return NetworkState([F(0), F(1, 4), F(1)],
                                [SparseVector({0: F(scale), 1: F(-1)}), SparseVector({1: F(2)})])

        def speeds(c):
            return VelocityProfile({0: c, 1: F(1)}, default=F(1, 2))

        def cold(wider, scale, c, lam):
            return resolvent_general(graph(wider), speeds(c), state(scale), lam, grid=8)

        for lam in (0.5, 1 + 1j):
            g, f, vel = graph(False), state(1), speeds(F(2))
            first = resolvent_general(g, vel, f, lam, grid=8)
            del g
            # the same f and vel on a new graph, possibly at the freed one's address
            moved = resolvent_general(graph(True), vel, f, lam, grid=8)
            assert moved.state.array.tobytes() == cold(True, 1, F(2), lam).state.array.tobytes()
            assert moved.state.edges != first.state.edges
            g = graph(False)
            resolvent_general(g, vel, f, lam, grid=8)
            for scale, c in ((3, F(2)), (1, math.sqrt(2))):
                # a new state or a new profile on a graph the old ones were read on
                f2, vel2 = (state(scale), vel) if scale != 1 else (f, speeds(c))
                new = resolvent_general(g, vel2, f2, lam, grid=8)
                want = cold(False, scale, c, lam).state.array.tobytes()
                assert new.state.array.tobytes() == want
                assert want != first.state.array.tobytes()

    def test_kept_arrays_are_read_only(self):
        g = cycle(6)
        f = random_state(random.Random(52), g.edge_ids, pieces=4)
        vel = VelocityProfile({j: [F(1, 2), math.sqrt(2)][j % 2] for j in g.edge_ids})
        resolvent_general(g, vel, f, 1 + 1j, grid=8)
        routing, kept_f, table = g._float_routing
        assert kept_f is f and routing[0] == tuple(g.edge_ids)
        kept = [*routing[1:], *table]
        assert len(kept) == 6
        for a in kept:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 1 + 1j, 3 - 2j])
    def test_repeat_solves_give_the_first_bits(self, lam):
        g = regular_style_graph(random.Random(53), 40, 3)
        vel = VelocityProfile({j: [F(1, 2), F(1), math.sqrt(3)][j % 3] for j in g.edge_ids})
        f = checks.random_state(random.Random(54), g, 9)
        for solve in (lambda: resolvent_general(g, vel, f, lam, grid=32),
                      lambda: resolvent_unit(build_adjacency(g), f, lam, grid=32)):
            first, again = solve(), solve()
            assert again.state.array.tobytes() == first.state.array.tobytes()
            assert (again.terms, again.tail_bound, again.metadata) == (
                first.terms, first.tail_bound, first.metadata)


class TestIdentityCheckArrays:
    """resolvent_identity_check against the per-cell loop in oracles."""

    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize("with_vel", [False, True])
    def test_random_graphs(self, with_vel):
        rng = random.Random(44 + with_vel)
        for trial in range(8):
            g, vel, f = random_instance(rng)
            lam = TestSharedSampler.LAMBDAS[trial % 4]
            grid = rng.choice([16, 24, 48])
            exclude = rng.choice([0, 1, 2])
            if with_vel:
                op = build_adjacency(g, vel)
                res = resolvent_general(g, vel, f, lam, grid=grid)
            else:
                op, vel = build_adjacency(g), None
                res = resolvent_unit(op, f, lam, grid=grid)
            rep = resolvent_identity_check(op, f, lam, result=res, vel=vel,
                                           exclude_cells=exclude)
            interior, spike, trace = oracles.identity_residuals(op, f, lam, res.state, vel, exclude)
            self.assert_close(rep.interior, interior)
            self.assert_close(rep.spike, spike)
            self.assert_close(rep.trace, trace)


def heavy_loop():
    """The path 1 -> 2 -> 3 whose last edge loops onto itself with weight
    10^20: q >= 1 at any lambda below about 46, and the series diverges."""
    return MetricGraph.finite(
        [(1, 0, 1), (2, 1, 2), (3, 2, 2)],
        {(2, 1): F(1), (3, 2): F(1), (3, 3): F(10**20)},
        name="heavy-loop",
    )


class TestOneSeries:
    """resolvent_unit is resolvent_general at c = 1: one series, one stop
    rule, one certificate."""

    def test_random_graphs_equal_general(self):
        rng = random.Random(51)
        lambdas = (0.5, 2.0, 1 + 1j, 3 - 2j, 30.0, 0.7 + 4j)
        for trial in range(36):
            g = checks.random_graph(rng, 8)
            if trial % 2:
                g = substochastic(rng, g)
            f = checks.random_state(rng, g, 5)
            lam = lambdas[trial % len(lambdas)]
            grid = rng.choice([7, 16, 24])
            tol = rng.choice([1e-12, 1e-9, 1e-5])
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=grid, tol=tol)
            ones = VelocityProfile({j: F(1) for j in g.edge_ids})
            rg = resolvent_general(g, ones, f, lam, grid=grid, tol=tol)
            assert ru.state == rg.state, trial
            assert (ru.terms, ru.tail_bound) == (rg.terms, rg.tail_bound), trial
            assert ru.tail_bound <= tol

    @pytest.mark.parametrize("lam", [30.0, 40.0])
    def test_heavy_loop_refused_by_both(self, lam):
        g = heavy_loop()
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(ContractionViolationError):
            resolvent_unit(build_adjacency(g), f, lam, grid=8)
        with pytest.raises(ContractionViolationError):
            resolvent_general(g, unit_vel(g), f, lam, grid=8)

    def test_lazy_graph_must_be_stochastic(self):
        # every lazy column must sum to one: one summing to 1/2 is refused
        # on its first read, by every solver that reaches it
        reads = []

        def path():
            def column(j):
                reads.append(j)
                return [(j + 1, F(1, 2))]
            return MetricGraph.lazy(column, lambda j: (j, j + 1))

        f = NetworkState.constant(SparseVector({0: F(1)}))
        for run in (
            lambda g: resolvent_unit(build_adjacency(g), f, 2.0, grid=8),
            lambda g: resolvent_general(g, VelocityProfile({0: math.sqrt(3)}, default=math.pi),
                                        f, 2.0, grid=8),
            lambda g: laplace_oracle(build_adjacency(g), f, 2.0, t_max=4, grid=8),
            lambda g: semigroup.evolve_unit(build_adjacency(g), f, F(5, 2)),
        ):
            reads.clear()
            with pytest.raises(MalformedGraphError, match="column of edge 0 sums to 1/2"):
                run(path())
            assert reads == [0]

    @pytest.mark.parametrize("shape", ["path", "tree"])
    def test_lazy_closure_holds_every_term(self, shape):
        # the last term the stop rule reads, index res.terms, routes d
        # res.terms + 1 times: it needs every column within res.terms
        # applications of supp f, and the solver must have read them all
        def column(j):
            if shape == "path":
                return [(j + 1, F(1))]
            return [(2 * j + 1, F(1, 2)), (2 * j + 2, F(1, 2))]

        def endpoints(j):
            return (j, j + 1) if shape == "path" else ((j - 1) // 2, j)

        rng = random.Random(52)
        lambdas = (1.0, 0.5 + 2j, 3.0) if shape == "path" else (4.0, 6 - 1j, 30.0)
        for trial in range(12):
            lam = lambdas[trial % 3]
            tol = 10.0 ** -rng.uniform(2, 13)
            # narrow pieces near s = 0 put |d|_1 close to |f|_L1, the bound
            # the closure depth is sized with
            width = F(1, rng.choice([3, 100, 1000]))
            seeds = rng.sample(range(4), rng.randint(1, 2))
            f = NetworkState([F(0), width, F(1)],
                             [SparseVector({j: F(rng.randint(1, 5)) for j in seeds}), SparseVector()])
            reads = set()
            g = MetricGraph.lazy(lambda j: reads.add(j) or column(j), endpoints)
            res = resolvent_unit(build_adjacency(g), f, lam, grid=4, tol=tol)
            needed, layer = set(), set(seeds)
            for _ in range(res.terms + 1):
                needed |= layer
                layer = {i for j in layer for i, _ in column(j)}
            assert needed <= reads, (trial, res.terms, sorted(needed - reads))
            assert res.tail_bound <= tol


def fed_path():
    """1 -> 2 -> 3, edge 3 looping onto itself: nothing routes into edge 1,
    so a resolvent is exactly zero on it past f's support there."""
    return MetricGraph.finite(
        [(1, 0, 1), (2, 1, 2), (3, 2, 2)],
        {(2, 1): F(1), (3, 2): F(1), (3, 3): F(1)}, name="fed-path",
    )


def zero_dropped_rows(state):
    """The rows an array state stands for: one vector per grid point in the
    order of state.edges, zero entries dropped, built cell by cell."""
    return tuple(
        SparseVector._from_nonzero({e: x for e, x in zip(state.edges, col) if x != 0})
        for col in state.array.T.tolist()
    )


def as_rows(state):
    return SampledState(state.grid_size, zero_dropped_rows(state))


def permuted(state, order):
    """The same samples with the edges listed in `order` (a subset drops
    the others)."""
    pos = {e: k for k, e in enumerate(state.edges)}
    return SampledState.from_array(order, state.array[[pos[e] for e in order]])


class TestArrayForm:
    """Float resolvents hold their samples as edges x (grid + 1) arrays; every
    reduction on them agrees bit for bit with the rows they stand for."""

    LAMBDAS = [2.0, 0.5, 1 + 1j, 3 - 2j]

    @staticmethod
    def solves(lam):
        """(g, a, b): two resolvents on one graph, a with exact zeros."""
        g = fed_path()
        fa = NetworkState([F(0), F(1, 3), F(1)],
                          [SparseVector({1: F(2), 3: F(-1, 3)}), SparseVector({2: F(5, 7)})])
        fb = NetworkState([F(0), F(1, 2), F(1)],
                          [SparseVector({1: F(1), 2: F(3)}), SparseVector({3: F(-2)})])
        op = build_adjacency(g)
        return (g, resolvent_unit(op, fa, lam, grid=24).state,
                resolvent_general(g, unit_vel(g), fb, lam, grid=24).state)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_samples_are_the_zero_dropped_rows(self, lam):
        g, a, b = self.solves(lam)
        for st in (a, b):
            assert st.array.dtype == (complex if complex(lam).imag else float)
            want = zero_dropped_rows(st)
            assert st.samples == want
            assert [list(v.items()) for v in st.samples] == [list(v.items()) for v in want]
            assert [st.point(m) for m in range(st.grid_size + 1)] == list(want)
        # edge 1 is exactly zero past its support: the rows drop it there
        assert any(1 not in v.support() for v in a.samples)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_reductions_match_the_rows(self, lam):
        g, a, b = self.solves(lam)
        ra, rb = as_rows(a), as_rows(b)
        assert a.support() == ra.support()
        assert a.sup_sample_norm() == ra.sup_sample_norm()
        assert a.totals() == ra.totals()
        assert a == ra and ra == a and a == a and not a == b
        for other in (b, permuted(b, [3, 1, 2]), permuted(b, [2, 3]), permuted(b, [1])):
            ro = as_rows(other)
            assert a.distance(other) == ra.distance(ro)
            assert other.distance(a) == ro.distance(ra)
            assert (a - other).samples == (ra - ro).samples
        assert permuted(b, [3, 1, 2]) == b and b == permuted(b, [2, 1, 3])
        assert a.distance(permuted(a, [2, 3, 1])) == 0
        assert not b == permuted(b, [2, 3])  # the dropped edge is not all zero
        assert a.scale(2.0).samples == ra.scale(2.0).samples
        assert a.scale(F(1, 3)).samples == ra.scale(F(1, 3)).samples
        assert a.scale(0).support() == set()

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_emit_and_parse(self, lam):
        g, a, b = self.solves(lam)
        for edges in (None, g.edge_ids, [3, 1], [2, 9, 1]):
            text = emit_plotdata(a, edges=edges)
            assert text == oracles.plotdata_reference(a, edges)
            assert text == emit_plotdata(as_rows(a), edges=edges)
            back = parse_plotdata(text)
            assert emit_plotdata(back, edges=edges) == text
        back = parse_plotdata(emit_plotdata(a, edges=[3, 1, 2]))
        assert back.edges == (3, 1, 2) and back == a and back.distance(a) == 0

    def test_zero_complex_state_keeps_the_real_header(self):
        g = g2()
        res = resolvent_unit(build_adjacency(g), NetworkState.zero(), 1 + 1j, grid=8)
        st = res.state
        assert st.array.dtype == complex and not st.array.any()
        assert all(v.is_zero() for v in st.samples) and st.support() == set()
        assert st.sup_sample_norm() == 0 and st.totals() == [0] * 9
        text = emit_plotdata(st, edges=g.edge_ids)
        assert text.splitlines()[0] == "s,edge_1,edge_2"
        assert text == oracles.plotdata_reference(st, g.edge_ids)
        assert parse_plotdata(text) == st

    def test_negative_zero_is_written_as_zero(self):
        # the rows drop -0.0 and -0.0j, and the CSV writes their absence as 0
        st = SampledState.from_array([1, 2], np.array([[-0.0, 1.0], [2.0, -0.0]]))
        assert emit_plotdata(st) == oracles.plotdata_reference(st) == "s,edge_1,edge_2\n0,0,2\n1,1,0\n"
        z = SampledState.from_array([1], np.array([[complex(-0.0, -0.0), complex(1.0, -0.0)]]))
        assert emit_plotdata(z) == oracles.plotdata_reference(z) == "s,edge_1_re,edge_1_im\n0,0,0\n1,1,-0\n"


def test_benchmark_workload_round_passes_its_checks(monkeypatch, tmp_path):
    # every case of the resolvent-float benchmark's first round solves and
    # passes its own check, so a wrong answer fails here before a benchmark
    # run reports it
    root = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(root))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    cases = workloads.ResolventFloat(1, tmp_path).round(0)
    assert len(cases) == 12
    failures = [(case.name, case.check(case.solve())) for case in cases]
    assert [(name, msg) for name, msg in failures if msg is not None] == []
