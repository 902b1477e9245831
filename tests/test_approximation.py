"""Rational velocity ladders and measured convergence of flows/resolvents."""

import math
from fractions import Fraction as F

import pytest

from netflow import (
    ApproximationSchedule,
    MetricGraph,
    NetworkState,
    PrecisionError,
    SparseVector,
    TestFunction,
    VelocityProfile,
    WidthOverflowError,
    rational_approx,
    resolvent_convergence,
    semigroup_convergence,
)

SQRT2 = [F(1), F(3, 2), F(7, 5), F(17, 12), F(41, 29), F(99, 70)]
SQRT3 = [F(1), F(2), F(5, 3), F(7, 4), F(19, 11), F(26, 15)]


def g2():
    return MetricGraph.finite(
        [(1, 1, 2), (2, 2, 1)], {(1, 2): F(1), (2, 1): F(1)}, name="g2"
    )


def surd_profile():
    return VelocityProfile({1: math.sqrt(2), 2: math.sqrt(3)})


class TestRationalApprox:
    def test_rational_fixed_point(self):
        vel = VelocityProfile({1: F(3, 2)})
        for n in (2, 3, 9):
            assert rational_approx(vel, n).velocity(1) == F(3, 2)

    def test_sqrt2_convergents(self):
        vel = VelocityProfile({1: math.sqrt(2)})
        got = [rational_approx(vel, n).velocity(1) for n in range(1, 7)]
        assert got == SQRT2
        dists = [abs(math.sqrt(2) - float(c)) for c in got]
        assert dists == sorted(dists, reverse=True)

    def test_sqrt3_convergents(self):
        vel = VelocityProfile({1: math.sqrt(3)})
        got = [rational_approx(vel, n).velocity(1) for n in range(1, 7)]
        assert got == SQRT3

    def test_decimal_truncation(self):
        vel = VelocityProfile({1: math.pi})
        assert rational_approx(vel, 3, method="dec").velocity(1) == F(3141, 1000)
        assert rational_approx(vel, 1, method="dec").velocity(1) == F(31, 10)

    def test_decimal_of_rational_is_exact_once_resolved(self):
        vel = VelocityProfile({1: F(3, 2)})
        assert rational_approx(vel, 1, method="dec").velocity(1) == F(3, 2)

    def test_speeds_below_one_skip_a_zero_rung(self):
        # level 1 is the floor, 0 below speed 1: it moves on to the first
        # level inside (c_min/2, 2 c_max), as the schedule's levels do
        vel = VelocityProfile({1: 0.5, 2: math.sqrt(2)})
        assert rational_approx(vel, 1).values == {1: F(1, 2), 2: F(1)}
        slow = VelocityProfile({1: F(1, 200)})
        assert rational_approx(slow, 1, method="dec").velocity(1) == F(1, 200)
        sched = ApproximationSchedule.build(vel, (1, 2))
        assert [p.values for p in sched.profiles] == [rational_approx(vel, n).values for n in (1, 2)]

    def test_bad_arguments(self):
        vel = VelocityProfile({1: F(1)})
        with pytest.raises(ValueError):
            rational_approx(vel, 0)
        with pytest.raises(ValueError):
            rational_approx(vel, 2, method="newton")

    def test_convergent_width_cap(self):
        vel = VelocityProfile({1: F(2 ** 100 + 1, 2 ** 100)})
        with pytest.raises(WidthOverflowError):
            rational_approx(vel, 2)

    def test_decimal_width_cap(self):
        vel = VelocityProfile({1: F(1, 3)})
        with pytest.raises(WidthOverflowError):
            rational_approx(vel, 30, method="dec")


class TestSchedule:
    def test_levels_validated(self):
        vel = surd_profile()
        with pytest.raises(ValueError):
            ApproximationSchedule.build(vel, [])
        with pytest.raises(ValueError):
            ApproximationSchedule.build(vel, [1, 2, 2])
        with pytest.raises(ValueError):
            ApproximationSchedule.build(vel, [0, 1])

    def test_six_level_surd_ladder(self):
        sched = ApproximationSchedule.build(surd_profile(), range(1, 7))
        assert len(sched) == 6
        for idx in range(6):
            assert sched.profiles[idx].velocity(1) == SQRT2[idx]
            assert sched.profiles[idx].velocity(2) == SQRT3[idx]
        errs = [sched.velocity_error(i) for i in range(6)]
        assert errs == sorted(errs, reverse=True)

    def test_out_of_band_levels_advance(self):
        # the floor of 0.4 is 0; the schedule must skip to the next
        # admissible convergent instead of proposing a zero speed
        sched = ApproximationSchedule.build(VelocityProfile({1: 0.4}), [1])
        c = sched.profiles[0].velocity(1)
        assert c > 0
        assert 0.2 < float(c) < 0.8

    def test_velocity_error_zero_at_exact_match(self):
        sched = ApproximationSchedule.build(
            VelocityProfile({1: F(3, 2), 2: F(1, 2)}), [2, 3]
        )
        assert sched.velocity_error(0) == 0
        assert sched.velocity_error(1) == 0


class TestSemigroupConvergence:
    def test_rational_target_stabilizes_to_zero(self):
        g = g2()
        vel = VelocityProfile({1: F(3, 2), 2: F(1, 2)})
        sched = ApproximationSchedule.build(vel, [2, 3])
        f = NetworkState.constant(SparseVector({1: F(1)}))
        gs = [TestFunction.constant(SparseVector({1: F(1)}))]
        table = semigroup_convergence(g, vel, f, F(1, 2), gs, sched, grid=64)
        assert table.metadata["reference"] == "exact-rational"
        for row in table.rows:
            assert row.strong_error == 0
            assert all(w == 0 for w in row.weak_errors)

    def test_zero_state(self):
        g = g2()
        sched = ApproximationSchedule.build(surd_profile(), [1, 2])
        gs = [TestFunction.constant(SparseVector({1: F(1)}))]
        table = semigroup_convergence(
            g, surd_profile(), NetworkState.zero(), F(1), gs, sched, grid=32
        )
        for row in table.rows:
            assert row.strong_error == 0
            assert all(w == 0 for w in row.weak_errors)

    def test_surd_ladder_improves(self):
        g = g2()
        vel = surd_profile()
        sched = ApproximationSchedule.build(vel, [1, 2, 3, 4])
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
        )
        gs = [TestFunction.constant(SparseVector({1: F(1)}))]
        table = semigroup_convergence(g, vel, f, F(1), gs, sched, grid=128)
        assert table.metadata["reference"] == "tracing"
        firsts = table.rows[0].weak_errors
        lasts = table.rows[-1].weak_errors
        assert all(l < fi for l, fi in zip(lasts, firsts))
        # Hoelder row-wise, rechecked here on the reported numbers
        for row, predual in zip(
            [table.rows[0], table.rows[-1]], [table.metadata["predual_norms"]] * 2
        ):
            for w, p in zip(row.weak_errors, predual):
                assert float(w) <= float(row.strong_error) * p * (1 + 1e-9)


class TestResolventConvergence:
    def test_rational_target_stabilizes_to_zero(self):
        g = g2()
        vel = VelocityProfile({1: F(3, 2), 2: F(1, 2)})
        sched = ApproximationSchedule.build(vel, [2, 3])
        f = NetworkState.constant(SparseVector({1: F(1)}))
        table = resolvent_convergence(g, vel, 1.0, f, sched, M=32)
        assert all(row.strong_error == 0 for row in table.rows)

    def test_zero_state(self):
        g = g2()
        sched = ApproximationSchedule.build(surd_profile(), [2, 3])
        table = resolvent_convergence(
            g, surd_profile(), 1.0, NetworkState.zero(), sched, M=32
        )
        assert all(float(row.strong_error) < 1e-15 for row in table.rows)

    def test_surd_ladder_strictly_decreases(self):
        g = g2()
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
        )
        sched = ApproximationSchedule.build(surd_profile(), [4, 6, 8])
        table = resolvent_convergence(g, surd_profile(), 2.0, f, sched, M=64)
        errs = [float(r.strong_error) for r in table.rows]
        assert errs[0] > errs[1] > errs[2]
        assert "fit_slope" in table.metadata
        assert table.metadata["fit_residual"] >= 0

    def test_lost_ground_raises(self):
        # a deliberately reversed ladder: exact profile first, coarse last
        g = g2()
        vel = VelocityProfile({1: F(3, 2), 2: F(1, 2)})
        sched = ApproximationSchedule(
            levels=(1, 2),
            method="cf",
            profiles=(vel, VelocityProfile({1: F(1), 2: F(1)})),
            target=vel,
        )
        f = NetworkState.constant(SparseVector({1: F(1)}))
        with pytest.raises(PrecisionError):
            resolvent_convergence(g, vel, 1.0, f, sched, M=32)

    def test_fit_is_descriptive_only(self):
        g = g2()
        sched = ApproximationSchedule.build(surd_profile(), [3, 4, 5])
        f = NetworkState.constant(SparseVector({1: F(1)}))
        table = resolvent_convergence(g, surd_profile(), 1.0, f, sched, M=32)
        slope, residual = table.fit()
        assert slope >= 0 and residual >= 0
