"""Piecewise-constant states: norms, pairing, sampling."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netflow import (
    MalformedInputError,
    MetricGraph,
    NetworkState,
    SampledState,
    SparseVector,
    TestFunction,
    boundary_residual,
    build_adjacency,
    pair,
    sample,
)


def two_piece():
    return NetworkState(
        [F(0), F(1, 2), F(1)],
        [SparseVector({1: F(1)}), SparseVector({2: F(-3)})],
    )


def random_state(rng, edges=(1, 2, 3), max_pieces=10):
    cuts = sorted({F(rng.randrange(1, 64), 64) for _ in range(max_pieces - 1)})
    bps = [F(0)] + cuts + [F(1)]
    vals = [
        SparseVector({j: F(rng.randrange(-8, 9), 4) for j in edges})
        for _ in range(len(bps) - 1)
    ]
    return NetworkState(bps, vals)


class TestCanonicalForm:
    def test_equal_neighbors_merge(self):
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(2)}), SparseVector({1: F(2)})],
        )
        assert f.breakpoints == (F(0), F(1))
        assert f == NetworkState.constant(SparseVector({1: F(2)}))

    def test_idempotent(self):
        f = two_piece()
        g = NetworkState(list(f.breakpoints), list(f.values))
        assert g == f and g.breakpoints == f.breakpoints

    def test_bad_grid_rejected(self):
        with pytest.raises(MalformedInputError):
            NetworkState([F(0), F(1, 2)], [SparseVector({1: F(1)})])
        with pytest.raises(MalformedInputError):
            NetworkState(
                [F(0), F(1, 2), F(1, 2), F(1)],
                [SparseVector({1: F(1)})] * 3,
            )

    def test_piece_count_must_match(self):
        with pytest.raises(MalformedInputError):
            NetworkState([F(0), F(1)], [])


class TestEvaluation:
    def test_right_open_pieces(self):
        f = two_piece()
        assert f.value_at(F(0)) == SparseVector({1: F(1)})
        assert f.value_at(F(1, 2)) == SparseVector({2: F(-3)})
        assert f.value_at(F(1, 2), side="left") == SparseVector({1: F(1)})
        # the point 1 carries the last piece's value
        assert f.value_at(F(1)) == SparseVector({2: F(-3)})


class TestNorms:
    def test_constant(self):
        assert NetworkState.constant(SparseVector({1: F(1)})).sup_norm() == 1

    def test_max_over_pieces(self):
        assert two_piece().sup_norm() == 3

    def test_matches_dense_sampling(self):
        rng = random.Random(11)
        for _ in range(5):
            f = random_state(rng)
            dense = max(
                f.value_at(F(2 * m + 1, 2 * 10 ** 4)).l1() for m in range(10 ** 4)
            )
            assert f.sup_norm() == dense

    def test_total_mass_examples(self):
        assert NetworkState.constant(SparseVector({1: F(1)})).total_mass() == 1
        f = NetworkState(
            [F(0), F(1, 4), F(1)], [SparseVector({1: F(2)}), SparseVector({})]
        )
        assert f.total_mass() == F(1, 2)

    def test_total_mass_matches_riemann(self):
        rng = random.Random(13)
        f = random_state(rng)
        g = TestFunction.constant(SparseVector({j: F(1) for j in (1, 2, 3)}))
        # cuts sit on the 1/64 lattice, so 6400 panels make the sum exact
        approx = oracles.riemann_pair(f, g, n=6400)
        assert abs(float(f.total_mass()) - approx) < 1e-10


class TestPairing:
    def test_unit_constants(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        g = TestFunction.constant(SparseVector({1: F(1)}))
        assert pair(f, g) == 1

    def test_disjoint_support(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        g = TestFunction.constant(SparseVector({2: F(1)}))
        assert pair(f, g) == 0

    def test_exact_on_refined_grid(self):
        f = NetworkState(
            [F(0), F(1, 3), F(2, 3), F(1)],
            [
                SparseVector({1: F(1)}),
                SparseVector({1: F(1, 2), 2: F(1)}),
                SparseVector({2: F(-2)}),
            ],
        )
        g = TestFunction(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(2)}), SparseVector({2: F(3)})],
        )
        exact = pair(f, g)
        # by hand: 1*2/3 + (1/2)*2*(1/2-1/3) + 1*3*(2/3-1/2) + (-2)*3/3
        assert exact == F(2, 3) + F(1, 6) + F(1, 2) - 2
        assert abs(float(exact) - oracles.riemann_pair(f, g, n=99996)) < 1e-6

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hoelder_bound(self, seed):
        rng = random.Random(seed)
        f = random_state(rng)
        g = TestFunction(*_tf_parts(rng))
        assert abs(pair(f, g)) <= f.sup_norm() * g.predual_norm()

    def test_bilinear(self):
        rng = random.Random(17)
        f1, f2 = random_state(rng), random_state(rng)
        g = TestFunction(*_tf_parts(rng))
        lhs = pair(f1.scale(F(2)) + f2.scale(F(-3)), g)
        assert lhs == 2 * pair(f1, g) - 3 * pair(f2, g)

    def test_sampled_pair_converges_like_1_over_m(self):
        f = two_piece()
        g = TestFunction(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(1)}), SparseVector({1: F(1), 2: F(2)})],
        )
        exact = float(pair(f, g))
        errs = [abs(float(pair(sample(f, M), g)) - exact) for M in (64, 256, 1024)]
        assert errs[2] < errs[0]
        assert errs[2] < 4 / 1024


def _tf_parts(rng):
    cuts = sorted({F(rng.randrange(1, 32), 32) for _ in range(4)})
    bps = [F(0)] + cuts + [F(1)]
    vals = [
        SparseVector({j: F(rng.randrange(-4, 5), 2) for j in (1, 2)})
        for _ in range(len(bps) - 1)
    ]
    return bps, vals


class TestBoundaryResidual:
    def op(self):
        g = MetricGraph.finite(
            [(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1)}, name="g2"
        )
        return build_adjacency(g)

    def test_swapped_traces_satisfy_bc(self):
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1)})],
        )
        assert boundary_residual(f, self.op()) == 0

    def test_constant_violates_by_two(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        assert boundary_residual(f, self.op()) == 2

    def test_zero_state(self):
        assert boundary_residual(NetworkState.zero(), self.op()) == 0


class TestSampling:
    def test_constant_gives_equal_samples(self):
        f = NetworkState.constant(SparseVector({1: F(2)}))
        s = sample(f, 4)
        assert s.grid_size == 4 and len(s.samples) == 5
        assert all(v == SparseVector({1: F(2)}) for v in s.samples)

    def test_midpoint_takes_right_piece(self):
        f = two_piece()
        s = sample(f, 2)
        assert s.samples[1] == SparseVector({2: F(-3)})
        # s = 1 is the left trace
        assert s.samples[2] == SparseVector({2: F(-3)})

    def test_matches_per_point_evaluation(self):
        rng = random.Random(5)
        f = random_state(rng)
        s = sample(f, 37)
        for m in range(38):
            want = f.value_at(F(m, 37)) if m < 37 else f.value_at(F(1), side="left")
            assert s.samples[m] == want

    def test_distance_is_max_l1(self):
        a = SampledState(2, [SparseVector({1: F(1)})] * 3)
        b = SampledState(2, [SparseVector({1: F(1)}), SparseVector({2: F(1)}), SparseVector({})])
        assert a.distance(b) == 2

    def test_grid_mismatch_rejected(self):
        a = SampledState(2, [SparseVector({})] * 3)
        b = SampledState(3, [SparseVector({})] * 4)
        with pytest.raises(ValueError):
            a.distance(b)
