"""The self-check suites and their random generators."""

import pytest

from netflow import CheckResult, run_suite
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
