"""The self-check suites and their random generators."""

from fractions import Fraction

import pytest

from netflow import CheckResult, MetricGraph, SampledState, run_suite
from netflow import _arrays, checks, exact, semigroup
from netflow.checks import SUITES, random_graph, random_velocities
from netflow.graph import validate_graph


class TestRunSuite:
    def test_all_suites_pass(self):
        results = run_suite("all", seed=7, scale=0.25)
        assert [r.name for r in results] == list(SUITES)
        for r in results:
            assert r.ok, r.failures

    def test_single_suite(self):
        (r,) = run_suite("graph", seed=3, scale=0.5)
        assert r.name == "graph" and r.ok

    def test_graph_suite_probes_lazy_adjacency(self, monkeypatch):
        # with the adjacency check gone, the suite's one-shot probe says so
        monkeypatch.setattr(MetricGraph, "_entry", lambda self, i, j, w: Fraction(w))
        (r,) = run_suite("graph", seed=3, scale=0.1)
        assert r.failures == ["a lazy column that skips an edge was accepted"]

    def test_tracing_suite_traces_a_long_time(self, monkeypatch):
        # the one-shot 2-cycle at t = 900: a mismatch and an exception are
        # failure lines, not crashes
        trace = checks.trace_samples

        def wrong(g, vel, f, t, grid):
            out = trace(g, vel, f, t, grid)
            return out if t != 900 else SampledState(grid, out.samples[::-1])

        def deep(g, vel, f, t, grid):
            if t == 900:
                raise RecursionError("maximum recursion depth exceeded")
            return trace(g, vel, f, t, grid)

        monkeypatch.setattr(checks, "trace_samples", wrong)
        (r,) = run_suite("tracing", seed=3, scale=0.1)
        assert r.failures == ["tracing the 2-cycle to t = 900 disagreed with evolution"]
        monkeypatch.setattr(checks, "trace_samples", deep)
        (r,) = run_suite("tracing", seed=3, scale=0.1)
        assert r.failures == ["tracing the 2-cycle to t = 900: RecursionError: "
                              "maximum recursion depth exceeded"]

    def test_tracing_suite_runs_the_array_flow(self, monkeypatch):
        # the one-shot wide flow runs semigroup._array_flow against the
        # tracer: a wrong answer and an exception are failure lines
        calls = []
        array_flow = semigroup._array_flow

        def counted(*args):
            calls.append(args)
            return array_flow(*args)

        monkeypatch.setattr(semigroup, "_array_flow", counted)
        assert run_suite("tracing", seed=3, scale=0.1)[0].ok and len(calls) == 1
        monkeypatch.setattr(semigroup, "_array_flow", lambda *_: checks.NetworkState.zero())
        (r,) = run_suite("tracing", seed=3, scale=0.1)
        assert len(r.failures) == 1 and r.failures[0].startswith("tracing a ")
        assert "-edge flow to t = " in r.failures[0]
        assert r.failures[0].endswith(" disagreed with evolution")

        def broken(*_):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(semigroup, "_array_flow", broken)
        (r,) = run_suite("tracing", seed=3, scale=0.1)
        assert len(r.failures) == 1 and r.failures[0].endswith(
            ": IndexError: index 7 is out of bounds")

    def test_tracing_suite_traces_float_speeds(self, monkeypatch):
        # the one-shot g5 trace at float speeds and a float time reports no
        # failures as shipped; rounding down instead fails it
        assert run_suite("tracing", seed=3, scale=0.1)[0].ok
        monkeypatch.setattr(exact, "rounded", lambda n, d: float(n // d) or 1.0)
        (r,) = run_suite("tracing", seed=3, scale=0.1)
        assert r.failures == ["tracing g5 at float speeds to t = 1.7 is not the rounded exact flow"]

    def test_semigroup_suite_runs_the_python_int_fallback(self, monkeypatch):
        # with int64 trusted past 2^63, the suite's wide-weight trials wrap
        # around and fail; as shipped they go on in Python ints and pass
        assert run_suite("semigroup", seed=5, scale=0.25)[0].ok
        monkeypatch.setattr(_arrays, "_INT64_MAX", 2**200)
        assert not run_suite("semigroup", seed=5, scale=0.25)[0].ok

    def test_semigroup_suite_runs_float_flows(self, monkeypatch):
        # the one-shot float flows on a small and a wide graph report no
        # failures as shipped; rounding down instead fails both
        assert run_suite("semigroup", seed=5, scale=0.1)[0].ok
        monkeypatch.setattr(exact, "rounded", lambda n, d: float(n // d) or 1.0)
        (r,) = run_suite("semigroup", seed=5, scale=0.1)
        assert len(r.failures) == 2
        assert all(f.startswith("a float flow on rand") and f.endswith(" is not the rounded exact flow")
                   for f in r.failures)

    def test_deterministic_across_runs(self):
        a = run_suite("semigroup", seed=11, scale=0.25)[0]
        b = run_suite("semigroup", seed=11, scale=0.25)[0]
        assert (a.trials, a.failures) == (b.trials, b.failures)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("spectral")

    def test_result_line_format(self):
        r = CheckResult("demo", 10)
        assert "demo" in r.line() and "ok" in r.line()
        r.failures.append("trial 3: boom")
        assert "FAIL" in r.line()

    def test_scale_floors_at_one_trial(self):
        (r,) = run_suite("states", seed=2, scale=1e-9)
        assert r.trials == 1


class TestRandomGenerators:
    def test_graphs_are_valid(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng)
            assert validate_graph(g).ok
            vel = random_velocities(rng, g)
            assert vel.is_rational()
        g = random_graph(rng, 60, vertices=30)
        assert validate_graph(g).ok and 30 <= len(g) <= 60
