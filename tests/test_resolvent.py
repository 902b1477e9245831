"""Resolvent formulas, the Laplace-transform oracle, and their certificates."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

import oracles
from netflow import (
    ContractionViolationError,
    MalformedGraphError,
    MetricGraph,
    NetworkState,
    SparseVector,
    TruncationError,
    VelocityProfile,
    WrongOperatorError,
    build_adjacency,
    laplace_oracle,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
)
from netflow import checks


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
        [(1, 1, 2), (2, 2, 1)], {(1, 2): w, (2, 1): w}, name="g2w", stochastic=False
    )


def unit_vel(g):
    return VelocityProfile({j: F(1) for j in g.edge_ids})


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
        lr = laplace_oracle(op, f, 1.0, t_max=12, steps=2048, grid=64)
        d = ru.state.distance(lr.state)
        assert d <= lr.error_bound + ru.tail_bound
        assert d <= 1e-4

    def test_left_half_plane_rejected(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        for lam in (0.0, -1.0, -0.5 + 2j):
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
        # |B^k|_1 <= 1 fails, so e^{-lk}-weighted terms bound nothing (and
        # at lam = 0.3 the series diverges)
        g = g2_weighted(F(3, 2))
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(ContractionViolationError):
            resolvent_unit(build_adjacency(g), f, lam, grid=16)

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
        g = g5()
        f = random_state(random.Random(21), (1, 2, 3, 4, 5))
        for lam in (1.0, 2.0, 1 + 1j):
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=64)
            rg = resolvent_general(g, unit_vel(g), f, lam, grid=64)
            assert ru.state.distance(rg.state) <= 1e-10

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
            stochastic=False,
        )
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(ContractionViolationError):
            resolvent_general(g, unit_vel(g), f, 0.1, grid=8)

    def test_state_on_an_unknown_edge_refused(self):
        g = g2()
        f = NetworkState.constant(SparseVector({1: F(1), 99: F(5)}))
        with pytest.raises(MalformedGraphError, match="unknown edge 99"):
            resolvent_general(g, unit_vel(g), f, 2.0, grid=8)

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
        cases = [
            (g2(), NetworkState.constant(SparseVector({1: F(1)}))),
            (g5(), random_state(random.Random(23), (1, 2, 3, 4, 5))),
        ]
        for g, f in cases:
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=16)
            rg = resolvent_general(g, unit_vel(g), f, lam, grid=16)
            assert ru.tail_bound <= 1e-10 and rg.tail_bound <= 1e-10
            assert rg.terms >= 1
            assert ru.state.distance(rg.state) <= ru.tail_bound + rg.tail_bound + 1e-12

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


class TestLaplaceOracle:
    def test_zero_state(self):
        res = laplace_oracle(build_adjacency(g2()), NetworkState.zero(), 1.0,
                             t_max=4, steps=64, grid=8)
        assert res.quad_bound == 0
        assert all(v.is_zero() for v in res.state.samples)

    def test_tail_bound_closed_form(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(3)}))
        res = laplace_oracle(op, f, 2.0, t_max=10, steps=64, grid=8)
        assert res.tail_bound == pytest.approx(math.exp(-20) / 2 * 3, rel=1e-12)

    def test_quadratic_convergence(self):
        op = build_adjacency(g2())
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
        )
        ru = resolvent_unit(op, f, 2.0, grid=32)
        errs = []
        for steps in (128, 256, 512):
            lr = laplace_oracle(op, f, 2.0, t_max=12, steps=steps, grid=32)
            d = ru.state.distance(lr.state)
            assert d <= lr.error_bound + ru.tail_bound
            errs.append(d)
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_node_aligned_panels(self):
        # 516 = 43 * 12 puts panel edges exactly on the t+s integer seams
        op = build_adjacency(g2())
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1)})],
        )
        ru = resolvent_unit(op, f, 2.0, grid=43)
        lr = laplace_oracle(op, f, 2.0, t_max=12, steps=516, grid=43)
        assert ru.state.distance(lr.state) <= lr.error_bound + ru.tail_bound

    def test_complex_lambda(self):
        op = build_adjacency(g5())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        lam = 1 + 1j
        ru = resolvent_unit(op, f, lam, grid=32)
        lr = laplace_oracle(op, f, lam, t_max=12, steps=1024, grid=32)
        assert ru.state.distance(lr.state) <= lr.error_bound + ru.tail_bound

    def test_argument_validation(self):
        op = build_adjacency(g2())
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(WrongOperatorError):
            laplace_oracle(build_adjacency(g2(), unit_vel(g2())), f, 1.0,
                           t_max=4, steps=16)
        with pytest.raises(ValueError):
            laplace_oracle(op, f, 1.0, t_max=0, steps=16)
        with pytest.raises(ValueError):
            laplace_oracle(op, f, 1.0, t_max=4, steps=0)


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

    def test_breakpoint_spike_reported_separately(self):
        op = build_adjacency(g2())
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({1: F(-1)})],
        )
        rep = resolvent_identity_check(op, f, 1.0, grid=512)
        assert rep.spike > 100 * rep.interior
        assert rep.interior < 1e-3
