"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q

The end-to-end tests run `perfbench/run.py` for a second or two on the
cheapest workload, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from netflow import (
    AbsorptionProfile,
    NetworkState,
    SparseVector,
    parse_graph_file,
    parse_state_file,
    trace_samples,
)

import reference
import workloads
from run import tail

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(proc) -> dict:
    return json.loads(proc.stderr.strip().splitlines()[-1])["report"]


def _inputs(name, seed, tmp_path) -> dict:
    """Files the workload writes in set-up and in its first round."""
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    workloads.WORKLOADS[name](seed, workdir).round(0)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_one_seed_writes_byte_identical_inputs(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    assert first, "the workload writes its inputs as files"
    assert _inputs(name, 5, tmp_path) == first


@pytest.mark.parametrize("name", ["unit-wide", "mixed-ladder", "resolvent-float"])
def test_another_seed_writes_other_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


def test_rounds_repeat_for_one_seed(tmp_path):
    wl = workloads.MixedLadder(3, tmp_path)
    again = workloads.MixedLadder(3, tmp_path)
    assert [c.name for c in wl.round(2)] == [c.name for c in again.round(2)]
    assert wl.round(2)[0].solve() == again.round(2)[0].solve()


def test_tail_has_ten_values_above_it():
    values = list(range(100))
    value, pct = tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_absorption_reference_without_rates_is_the_tracer():
    g5 = parse_graph_file(workloads.FIXTURES / "g5.graph")
    f = parse_state_file(workloads.FIXTURES / "g5_mixed.state").state
    t = Fraction(5, 4)
    no_rates = NetworkState.zero()
    got = reference.absorbed_samples(g5.graph, g5.velocities, no_rates, f, t, 16)
    traced = trace_samples(g5.graph, g5.velocities, f, t, 16)
    for row, want in zip(got, traced.samples):
        assert {j: x for j, x in row.items() if x} == {j: float(x) for j, x in want.items()}


def test_absorption_reference_grows_mass_with_positive_rates():
    g2 = parse_graph_file(workloads.FIXTURES / "g2.graph").graph
    vel = workloads.UNIT
    f = NetworkState.constant(SparseVector({1: Fraction(1), 2: Fraction(1)}))
    q = AbsorptionProfile.constant({1: Fraction(1, 2), 2: Fraction(1, 2)}).as_state()
    got = reference.absorbed_samples(g2, vel, q, f, Fraction(1, 3), 4)
    for row in got:
        for x in row.values():
            assert x == pytest.approx(math.exp(1 / 6))


def test_every_metric_printed_is_named_in_the_spec_untraced():
    proc = _run("--workload", "mixed-ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    out = _result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert _report(proc)["machine"]["NETFLOW_THREADS"] is None


@pytest.fixture(scope="module")
def traced_runs():
    return [_run("--workload", "mixed-ladder", "--seed", "4", "--seconds", "1", "--trace", "1")
            for _ in range(2)]


def test_every_metric_printed_is_named_in_the_spec_traced(traced_runs):
    out = _result(traced_runs[0])
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_self_times_account_for_the_wall_time(traced_runs):
    metrics = _result(traced_runs[0])["metrics"]
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.wall_s"]["value"]
    assert 0.9 * wall <= self_total <= wall * 1.001
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_exact_counts_repeat_across_runs_of_one_seed(traced_runs):
    first, second = (_report(p)["counts"] for p in traced_runs)
    assert first == second
    assert first["semigroup.c_max"] == 663
    assert first["semigroup.evolve_rational.calls"] == 7


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "unit-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
