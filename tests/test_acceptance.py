"""Desk-scale acceptance gate: one check per numbered criterion.

Run with -s to see the per-criterion lines as they pass; each test prints
exactly one PASS/FAIL line and asserts it.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

import oracles
from netflow import (
    AbsorptionProfile,
    ApproximationSchedule,
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    evolve_absorbing,
    evolve_rational,
    evolve_unit,
    laplace_oracle,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
    resolvent_convergence,
    sample,
    semigroup_convergence,
    trace_samples,
)
from netflow.checks import random_graph, random_state, random_time


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


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


G5_SPEEDS = {1: F(2), 2: F(1), 3: F(1, 2), 4: F(3, 2), 5: F(1)}


def trapezoid_mass(st):
    total = sum(v.total() for v in st.samples)
    total -= (st.samples[0].total() + st.samples[-1].total()) / 2
    return float(total) / st.grid_size


@pytest.fixture(scope="module")
def bulk_trials():
    """500 randomized unit-velocity evolutions shared by criteria 1-3."""
    rng = random.Random(20240817)
    law_ok = contraction_ok = mass_ok = True
    start = time.perf_counter()
    for _ in range(500):
        g = random_graph(rng)
        op = build_adjacency(g)
        f = random_state(rng, g)
        t, s = random_time(rng), random_time(rng)
        fs = evolve_unit(op, f, s)
        law_ok &= evolve_unit(op, fs, t) == evolve_unit(op, f, t + s)
        contraction_ok &= evolve_unit(op, f, t).sup_norm() <= f.sup_norm()
        mass_ok &= evolve_unit(op, f, t).total_mass() == f.total_mass()
    return law_ok, contraction_ok, mass_ok, time.perf_counter() - start


def test_criterion_01_semigroup_law(bulk_trials):
    law_ok, _, _, elapsed = bulk_trials
    report(1, law_ok and elapsed < 10,
           f"500 trials exact semigroup law, {elapsed:.2f}s")


def test_criterion_02_contraction(bulk_trials):
    _, contraction_ok, _, _ = bulk_trials
    report(2, contraction_ok, "sup norm never grew across the same trials")


def test_criterion_03_mass_conservation(bulk_trials):
    _, _, mass_ok, _ = bulk_trials
    # floating path: tracing at float speeds vs the exact rational flow
    g = g5()
    vel_exact = VelocityProfile(G5_SPEEDS)
    vel_float = VelocityProfile({j: float(c) for j, c in G5_SPEEDS.items()})
    f = NetworkState(
        [F(0), F(1, 3), F(1)],
        [SparseVector({1: F(2), 3: F(-1, 2)}), SparseVector({4: F(1)})],
    )
    exact = sample(evolve_rational(g, vel_exact, f, F(3, 4)), 128)
    floated = trace_samples(g, vel_float, f, F(3, 4), 128)
    drift = abs(trapezoid_mass(exact) - trapezoid_mass(floated))
    report(3, mass_ok and drift <= 1e-12,
           f"exact rational conservation; floating drift {drift:.2e}")


def test_criterion_04_tracing_oracle_equivalence():
    start = time.perf_counter()
    t = F(3, 4)
    worst_unit = 0
    for g in (g2(), g5()):
        grid = 1000 // len(g)
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = NetworkState(
            [F(0), F(2, 5), F(1)],
            [SparseVector({g.edge_ids[0]: F(1)}),
             SparseVector({g.edge_ids[-1]: F(1, 3)})],
        )
        exact = sample(evolve_unit(build_adjacency(g), f, t), grid)
        worst_unit = max(worst_unit, trace_samples(g, vel, f, t, grid).distance(exact))
    g = g5()
    vel = VelocityProfile(G5_SPEEDS)
    f = NetworkState(
        [F(0), F(2, 5), F(1)],
        [SparseVector({1: F(1)}), SparseVector({5: F(1, 3)})],
    )
    exact = sample(evolve_rational(g, vel, f, t), 200)
    worst_rat = trace_samples(g, vel, f, t, 200).distance(exact)
    # floating mode: float data, exact geometry.  The engine and the
    # tracer each run exactly and round each value once, so the drift
    # reads 0; the bound allows a few ulps, never a piece misclassification.
    f_float = f.map_values(lambda v: SparseVector({e: float(x) for e, x in v.items()}))
    out_float = sample(evolve_rational(g, vel, f_float, t), 200)
    worst_float = trace_samples(g, vel, f_float, t, 200).distance(out_float)
    elapsed = time.perf_counter() - start
    ok = worst_unit == 0 and worst_rat == 0 and worst_float <= 1e-12 and elapsed < 5
    report(4, ok,
           f"exact agreement at 10^3 points, float drift {float(worst_float):.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_05_resolvent_laplace_duality():
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_bound = 0.0
    cases = [(g2(), None), (g5(), None), (g5(), VelocityProfile(G5_SPEEDS))]
    for g, vel in cases:
        f = NetworkState(
            [F(0), F(1, 2), F(1)],
            [SparseVector({g.edge_ids[0]: F(1)}),
             SparseVector({g.edge_ids[-1]: F(1, 2)})],
        )
        for lam in (1.0, 2.0, 1 + 1j):
            if vel is None:
                res = resolvent_unit(build_adjacency(g), f, lam, grid=256)
            else:
                res = resolvent_general(g, vel, f, lam, grid=256)
            # e^{-Re(l) t_max} <= e^{-32}: the tail stays far below the gate
            t_max = math.ceil(32 / complex(lam).real)
            lr = laplace_oracle(build_adjacency(g, vel), f, lam, t_max=t_max, grid=256)
            d = res.state.distance(lr.state)
            bound = lr.error_bound + res.tail_bound
            worst_ratio = max(worst_ratio, d / bound)
            worst_bound = max(worst_bound, bound)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1 and worst_bound <= 1e-10 and elapsed < 30
    report(5, ok,
           f"distance/bound <= {worst_ratio:.3f}, bound <= {worst_bound:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_06_cross_formula_consistency():
    worst = 0.0
    for g in (g2(), g5()):
        vel = VelocityProfile({j: F(1) for j in g.edge_ids})
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({g.edge_ids[0]: F(1)}),
             SparseVector({g.edge_ids[-1]: F(-1, 2)})],
        )
        for lam in (1.0, 2.0, 1 + 1j):
            ru = resolvent_unit(build_adjacency(g), f, lam, grid=128)
            rg = resolvent_general(g, vel, f, lam, grid=128)
            worst = max(worst, ru.state.distance(rg.state))
    report(6, worst <= 1e-10, f"unit vs general sup distance {worst:.2e}")


def test_criterion_07_positivity_and_norm_bound():
    rng = random.Random(31)
    g = g5()
    op = build_adjacency(g)
    vel = VelocityProfile({j: F(1) for j in g.edge_ids})
    min_sample = 0.0
    norm_ok = True
    for lam in (0.5, 1.0, 3.0):
        f = random_state(rng, g)
        f = f.map_values(lambda v: SparseVector({e: abs(x) for e, x in v.items()}))
        for res in (resolvent_unit(op, f, lam, grid=64),
                    resolvent_general(g, vel, f, lam, grid=64)):
            for v in res.state.samples:
                for _, x in v.items():
                    min_sample = min(min_sample, x)
            norm_ok &= res.state.sup_sample_norm() <= float(f.sup_norm()) / lam + 1e-10
    ok = min_sample >= -1e-14 and norm_ok
    report(7, ok, f"min sample {min_sample:.1e}, norm bound held")


def test_criterion_08_resolvent_identity():
    op = build_adjacency(g2())
    f = NetworkState.constant(SparseVector({1: F(1)}))
    reports = [resolvent_identity_check(op, f, 1.0, grid=M)
               for M in (512, 1024, 2048, 4096)]
    ratios = [reports[i].interior / reports[i + 1].interior for i in range(3)]
    trace = reports[-1].trace
    ok = all(r >= 3.5 for r in ratios) and trace <= 1e-8
    report(8, ok,
           f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)}, "
           f"trace residual {trace:.1e}")


def test_criterion_09_trotter_kato():
    start = time.perf_counter()
    g = g2()
    vel = VelocityProfile({1: math.sqrt(2), 2: math.sqrt(3)})
    f = NetworkState(
        [F(0), F(1, 2), F(1)],
        [SparseVector({1: F(1)}), SparseVector({2: F(1, 2)})],
    )
    sched_r = ApproximationSchedule.build(vel, range(4, 10))
    table_r = resolvent_convergence(g, vel, 2.0, f, sched_r, M=256)
    errs = [float(r.strong_error) for r in table_r.rows]
    resolvent_ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-4

    g_e1 = NetworkState.constant(SparseVector({1: F(1)}))
    g_ramp = NetworkState(
        [F(0), F(1, 4), F(3, 4), F(1)],
        [SparseVector({1: F(1)}),
         SparseVector({1: F(1, 2), 2: F(1, 2)}),
         SparseVector({2: F(1)})],
    )
    sched_s = ApproximationSchedule.build(vel, range(1, 7))
    table_s = semigroup_convergence(g, vel, f, F(1), [g_e1, g_ramp], sched_s, grid=512)
    weak_ok = True
    for k in range(2):
        col = [float(r.weak_errors[k]) for r in table_s.rows]
        weak_ok &= col[-1] < col[0]
    hoelder_ok = True
    preduals = table_s.metadata["predual_norms"]
    for row in table_s.rows:
        for w, p in zip(row.weak_errors, preduals):
            hoelder_ok &= float(w) <= float(row.strong_error) * p * (1 + 1e-9)
    elapsed = time.perf_counter() - start
    ok = resolvent_ok and weak_ok and hoelder_ok and elapsed < 60
    report(9, ok,
           f"resolvent errors {errs[0]:.1e}->{errs[-1]:.1e} strictly down, "
           f"weak* errors down with Hoelder held, {elapsed:.1f}s")


def test_criterion_10_dyson_phillips():
    g = g2()
    vel = VelocityProfile({1: F(1), 2: F(1)})
    f = NetworkState(
        [F(0), F(1, 2), F(1)],
        [SparseVector({1: F(1)}), SparseVector({1: F(1, 2), 2: F(1, 4)})],
    )
    t = F(1, 2)

    q0 = F(1, 4)
    res_c = evolve_absorbing(g, vel, AbsorptionProfile.constant({1: q0, 2: q0}),
                             f, t, grid=128)
    ref = sample(evolve_rational(g, vel, f, t), 128).scale(math.exp(float(q0 * t)))
    d_const = res_c.state.distance(ref)
    const_ok = d_const <= res_c.error_bound <= 1e-6

    res_0 = evolve_absorbing(g, vel, AbsorptionProfile.zero(), f, t, grid=128)
    zero_ok = res_0.state.distance(sample(evolve_rational(g, vel, f, t), 128)) == 0

    q_state = NetworkState(
        [F(0), F(1, 2), F(1)],
        [SparseVector({1: F(1, 2), 2: F(1, 4)}), SparseVector({1: F(1, 8)})],
    )
    q = AbsorptionProfile(
        {j: (q_state.breakpoints, [v.get(j) for v in q_state.values]) for j in (1, 2)}
    )
    res_q = evolve_absorbing(g, vel, q, f, t, grid=128)
    cells = 12800
    fv = oracles.fv_absorb(g, q_state, f, t, cells)
    stride = cells // 128
    d_fv = 0.0
    for m in range(129):
        cell = m * stride if m < 128 else cells - 1
        d_fv = max(d_fv, sum(abs(res_q.state.samples[m].get(j) - fv[j][cell])
                             for j in (1, 2)))
    fv_ok = d_fv <= 1e-3
    ok = const_ok and zero_ok and fv_ok
    report(10, ok,
           f"constant-rate distance {d_const:.2e} <= bound "
           f"{res_c.error_bound:.2e} <= 1e-6; zero-rate exact; "
           f"finite-volume distance {d_fv:.2e}")


def test_criterion_11_infinite_graph_propagation():
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
    want = NetworkState(
        [F(0), F(1, 2), F(1)],
        [SparseVector({2: F(2)}), SparseVector({3: F(1)})],
    )
    ok = len(out.support()) <= 4 and out == want
    report(11, ok,
           f"support {sorted(out.support())}, exact translate equality")
