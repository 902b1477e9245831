"""Piecewise-constant states: norms, pairing, sampling."""

import math
import random
from fractions import Fraction as F

import numpy as np
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
    VelocityProfile,
    boundary_residual,
    build_adjacency,
    pair,
    predual_norm,
    sample,
)
from netflow import checks, resolvent, semigroup, tracing


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
        g = NetworkState.constant(SparseVector({j: F(1) for j in (1, 2, 3)}))
        # cuts sit on the 1/64 lattice, so 6400 panels make the sum exact
        approx = oracles.riemann_pair(f, g, n=6400)
        assert abs(float(f.total_mass()) - approx) < 1e-10


class TestPairing:
    def test_unit_constants(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        g = NetworkState.constant(SparseVector({1: F(1)}))
        assert pair(f, g) == 1

    def test_disjoint_support(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        g = NetworkState.constant(SparseVector({2: F(1)}))
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
        g = NetworkState(
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
        g = NetworkState(*_tf_parts(rng))
        assert abs(pair(f, g)) <= f.sup_norm() * predual_norm(g)

    def test_predual_norm_of_a_difference(self):
        # a test function is a plain state, so the size of a difference
        # (the weak modulus of a flow) is read like any other
        h1 = NetworkState([F(0), F(1, 3), F(1)],
                          [SparseVector({1: F(1), 2: F(-2)}), SparseVector({4: F(3)})])
        h2 = NetworkState.constant(SparseVector({2: F(-1)}))
        assert predual_norm(h1 - h2) == F(1, 3) * 1 + F(2, 3) * 3
        assert predual_norm(h1) == F(1, 3) * 2 + F(2, 3) * 3
        assert predual_norm(NetworkState.zero()) == 0

    def test_bilinear(self):
        rng = random.Random(17)
        f1, f2 = random_state(rng), random_state(rng)
        g = NetworkState(*_tf_parts(rng))
        lhs = pair(f1.scale(F(2)) + f2.scale(F(-3)), g)
        assert lhs == 2 * pair(f1, g) - 3 * pair(f2, g)

    def test_sampled_pair_converges_like_1_over_m(self):
        f = two_piece()
        g = NetworkState(
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
    def g2(self):
        return MetricGraph.finite(
            [(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1)}, name="g2"
        )

    def test_swapped_traces_satisfy_bc(self):
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1)})],
        )
        assert boundary_residual(f, self.g2()) == 0

    def test_constant_violates_by_two(self):
        f = NetworkState.constant(SparseVector({1: F(1)}))
        assert boundary_residual(f, self.g2()) == 2

    def test_zero_state(self):
        assert boundary_residual(NetworkState.zero(), self.g2()) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_speeds_against_conjugated_sums(self, seed):
        # C = D^-1 B D with D = diag(c): exact states route c_j f_j(0)
        # through the graph's columns and divide by c_i, and must give ==.
        # Float states must give the bits of entry (c_j / c_i) w_ij times
        # the value, summed in column order, at exact and at float speeds.
        rng = random.Random(f"residual:{seed}")
        for trial in range(30):
            g = checks.random_graph(rng, 10)
            vel = checks.random_velocities(rng, g)
            f = checks.random_state(rng, g, 4)
            routed = {}
            for j, a in f.values[0].items():
                for i, w in g.column(j).items():
                    routed[i] = routed.get(i, 0) + w * (vel.exact(j) * a)
            end = f.values[-1]
            want = sum(abs(end.get(i) - routed.get(i, 0) / vel.exact(i))
                       for i in set(routed) | set(end.support()))
            assert boundary_residual(f, g, vel) == want
            assert boundary_residual(sample(f, 8), g, vel) == want

            ff = f.map_values(lambda v: SparseVector({j: float(x) / 7 for j, x in v.items()}))
            for speeds in (vel, VelocityProfile({j: float(c) * math.sqrt(2)
                                                 for j, c in vel.items()})):
                routed = {}
                for j, a in ff.values[0].items():
                    c_j = speeds.velocity(j)
                    for i, w in g.column(j).items():
                        routed[i] = routed.get(i, 0) + w * c_j / speeds.velocity(i) * a
                out = dict(ff.values[-1].items())
                for i, x in routed.items():
                    out[i] = out.get(i, 0) - x
                want = sum(abs(x) for x in out.values() if x)
                assert float(boundary_residual(ff, g, speeds)).hex() == float(want).hex()

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_exact_speeds_route_by_b(self, seed):
        # at equal exact speeds C = B, entry for entry: the residual at unit
        # speed, or at 3/2 given as one Fraction or as int and Fraction
        # halves, is the unscaled one, bit for bit, on exact and float states
        rng = random.Random(f"unit-residual:{seed}")
        for trial in range(20):
            g = checks.random_graph(rng, 10)
            f = checks.random_state(rng, g, 4)
            ff = f.map_values(lambda v: SparseVector({j: float(x) / 7 for j, x in v.items()}))
            ids = g.edge_ids
            for speeds in (semigroup._UNIT, VelocityProfile({}, default=F(3, 2)),
                           VelocityProfile({j: (1 if j % 2 else F(1)) for j in ids})):
                for state in (f, ff, sample(ff, 8)):
                    want = boundary_residual(state, g)
                    got = boundary_residual(state, g, speeds)
                    assert type(got) is type(want) and got == want
                    if isinstance(want, float):
                        assert got.hex() == want.hex()


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

    def test_row_norms_compute_each_vector_once(self, monkeypatch):
        rng = random.Random(9)
        states = [NetworkState.zero()]
        states += [random_state(rng, rng.sample(range(6), rng.randint(1, 6))) for _ in range(20)]
        for f in states:
            s = sample(f, rng.choice([1, 5, 37, 128]))
            assert s.totals() == [v.total() for v in s.samples]
            assert s.sup_sample_norm() == max(v.l1() for v in s.samples)

        calls = []
        for name in ("l1", "total"):
            def counted(v, fn=getattr(SparseVector, name)):
                calls.append(v)
                return fn(v)
            monkeypatch.setattr(SparseVector, name, counted)
        s = sample(random_state(rng), 128)
        s.totals(), s.sup_sample_norm()
        assert len(calls) == 2 * len({id(v) for v in s.samples}) < len(s.samples)

    @pytest.mark.parametrize("grid", [0, -1, False, 0.5, 2.5, 3.0, "3", None])
    def test_grid_below_one_refused(self, grid):
        # every grid reader refuses a grid below 1 or not an integer with
        # one typed error, before anything is built; none rounds it
        g = MetricGraph.finite([(1, "a", "b"), (2, "b", "a")], {(2, 1): 1, (1, 2): 1})
        unit, op, f = VelocityProfile({}, default=1), build_adjacency(g), two_piece()
        readers = [
            lambda M: sample(f, M),
            lambda M: SampledState(M, []),
            lambda M: SampledState.zeros(M),
            lambda M: tracing.trace_samples(g, unit, f, F(1, 3), M),
            lambda M: semigroup.evolve_absorbing(g, unit, semigroup.AbsorptionProfile.zero(),
                                                 f, F(1, 3), grid=M),
            lambda M: resolvent.resolvent_unit(op, f, 1.0, grid=M),
            lambda M: resolvent.resolvent_general(g, unit, f, 1.0, grid=M),
            lambda M: resolvent.laplace_oracle(op, f, 1.0, t_max=4, grid=M),
        ]
        for read in readers:
            with pytest.raises(MalformedInputError, match="grid size must be an integer >= 1"):
                read(grid)

    def test_grid_is_read_as_a_plain_int(self):
        # a bool or numpy integer grid passes, and the state's grid_size is an int
        g = MetricGraph.finite([(1, "a", "b"), (2, "b", "a")], {(2, 1): 1, (1, 2): 1})
        unit = VelocityProfile({}, default=1)
        for grid, want in ((True, 1), (np.int64(3), 3)):
            for s in (sample(two_piece(), grid), SampledState.zeros(grid),
                      tracing.trace_samples(g, unit, two_piece(), F(1, 3), grid)):
                assert type(s.grid_size) is int and s.grid_size == want

    def test_rows_are_the_state_s_own_vectors(self):
        # the direct build gives what the constructor gives, row object for
        # row object
        rng = random.Random(12)
        for f in [NetworkState.zero(), two_piece()] + [random_state(rng) for _ in range(20)]:
            for M in (1, 2, 7, 64):
                s = sample(f, M)
                rows = [f.values[p] for p in semigroup.grid_pieces(f.breakpoints, M)]
                assert s == SampledState(M, rows) and s.grid_size == M
                assert type(s.samples) is tuple and s.edges is None and s.array is None
                assert all(a is b for a, b in zip(s.samples, rows)) and len(s.samples) == M + 1

    def test_distance_is_max_l1(self):
        a = SampledState(2, [SparseVector({1: F(1)})] * 3)
        b = SampledState(2, [SparseVector({1: F(1)}), SparseVector({2: F(1)}), SparseVector({})])
        assert a.distance(b) == 2

    def test_grid_mismatch_rejected(self):
        a = SampledState(2, [SparseVector({})] * 3)
        b = SampledState(3, [SparseVector({})] * 4)
        with pytest.raises(ValueError):
            a.distance(b)


def random_array_state(rng, edges, grid, complex_values=False):
    """Values over many magnitudes, so the order of a sum shows in its last
    bits, with about a third of them exact zeros (and some -0.0).  Every
    other array is in column-major order, which from_array keeps as it
    is, and where a numpy sum over the edges would add pairwise."""
    def value():
        r = rng.random()
        if r < 0.3:
            return 0.0 if r < 0.2 else -0.0
        x = rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
        return complex(x, rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)) if complex_values else x

    array = np.array([[value() for _ in range(grid + 1)] for _ in edges])
    return SampledState.from_array(edges, array if rng.random() < 0.5 else np.asfortranarray(array))


class TestArrayForm:
    """Reductions on the array form add in the rows' order, so they give
    the rows' floats bit for bit, whatever order the edges are listed in."""

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_reductions_bitwise_equal_to_rows(self, complex_values):
        rng = random.Random(12 + complex_values)
        for trial in range(20):
            ids = list(range(rng.randint(1, 40)))
            a = random_array_state(rng, rng.sample(ids, len(ids)), 6, complex_values)
            others = rng.sample(ids, rng.randint(1, len(ids))) + [99]
            b = random_array_state(rng, others, 6, complex_values and trial % 2 == 0)
            ra, rb = SampledState(6, a.samples), SampledState(6, b.samples)
            assert a.sup_sample_norm() == ra.sup_sample_norm()
            assert a.totals() == ra.totals()
            assert a.support() == ra.support()
            assert a.distance(b) == ra.distance(rb), trial
            assert b.distance(a) == rb.distance(ra), trial
            assert (a - b).samples == (ra - rb).samples
            assert (a == b) == (ra == rb) and a == ra

    def test_sums_of_negative_zeros_are_positive_zero(self):
        st_ = SampledState.from_array([1, 2], np.array([[-0.0, 1.0], [-0.0, 2.0]]))
        assert math.copysign(1, st_.totals()[0]) == 1
        z = SampledState.from_array([1], np.array([[complex(-0.0, -0.0), 1j]]))
        assert [math.copysign(1, x) for x in (z.totals()[0].real, z.totals()[0].imag)] == [1, 1]

    def test_from_array_validates(self):
        with pytest.raises(MalformedInputError):
            SampledState.from_array([1, 1], np.zeros((2, 3)))
        with pytest.raises(MalformedInputError):
            SampledState.from_array([1], np.zeros((2, 3)))
        with pytest.raises(MalformedInputError):
            SampledState.from_array([1], np.zeros((1, 1)))
        with pytest.raises(MalformedInputError):
            SampledState.from_array([1], np.zeros((1, 3), dtype=object))
