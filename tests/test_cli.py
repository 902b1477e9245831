"""End-to-end CLI behavior: verbs, artifacts, exit codes, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netflow import (
    NetworkState,
    VelocityProfile,
    build_adjacency,
    evolve_absorbing,
    parse_graph_file,
    parse_state_file,
    resolvent_general,
    sample,
    write_graph_text,
    write_state_text,
)
from netflow import checks, cli, semigroup
from netflow.checks import fixture_path
from netflow.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

G2 = str(fixture_path("g2.graph"))
G5 = str(fixture_path("g5.graph"))
PULSE = str(fixture_path("g2_pulse.state"))
MIXED = str(fixture_path("g5_mixed.state"))
RATES = str(fixture_path("g2_rates.state"))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", "--graph", G2, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 columns, all sum 1" in out
        payload = json.loads((tmp_path / "validate.json").read_text())
        assert payload["ok"] is True

    def test_failing_graph(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text(
            "graph bad\nedge 1 1 2\nedge 2 2 1\nw 1 2 1/2\nw 2 1 1\n"
        )
        assert main(["validate", "--graph", str(bad), "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "validate.json").read_text())
        assert payload["ok"] is False


class TestSimulate:
    def test_worked_example(self, tmp_path):
        code = main([
            "simulate", "--graph", G2, "--state", PULSE,
            "--t", "1/2", "--grid", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "simulate.csv")
        assert header == ["s", "edge_1", "edge_2"]
        # half shift: mass still on e1 below s=1/2, swapped onto e2 above
        assert [r[1] for r in rows] == [1, 1, 0, 0, 0]
        assert [r[2] for r in rows] == [0, 0, 1, 1, 1]

    def test_run_log(self, tmp_path):
        main([
            "simulate", "--graph", G2, "--state", PULSE,
            "--t", "1/2", "--log-steps", "2", "--out", str(tmp_path),
        ])
        entries = [
            json.loads(ln)
            for ln in (tmp_path / "simulate.log.jsonl").read_text().splitlines()
        ]
        assert [e["t"] for e in entries] == ["0", "1/4", "1/2"]
        # the raw pulse violates the vertex condition; the flow repairs it
        assert entries[0]["boundary_residual"] == 2.0
        assert entries[-1]["boundary_residual"] == 0.0
        assert all(e["total_mass"] == 1.0 for e in entries)

    def test_rational_velocities(self, tmp_path):
        code = main([
            "simulate", "--graph", G5, "--state", MIXED,
            "--t", "3/4", "--grid", "32", "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "simulate.meta.json").read_text())
        assert meta["mode"] == "rational"

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main([
                "simulate", "--graph", G2, "--state", PULSE,
                "--t", "2/3", "--out", str(out),
            ])
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
        assert (a / "simulate.log.jsonl").read_bytes() == (b / "simulate.log.jsonl").read_bytes()


class TestResolvent:
    def test_unit_metadata(self, tmp_path):
        code = main([
            "resolvent", "--graph", G2, "--state", PULSE,
            "--lambda", "2", "--grid", "32", "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "resolvent.meta.json").read_text())
        # one shape at every speed: the series' counts and norms, no K_used
        assert meta.keys() == {"version", "config", "graph", "mode", "tail_bound",
                               "neumann_terms", "norm_Blambda", "norm_Blambda_weighted"}
        assert meta["mode"] == "unit"
        assert meta["neumann_terms"] >= 1
        assert meta["tail_bound"] <= 1e-11
        # unit speed on stochastic g2: both norms are e^{-lambda}
        assert meta["norm_Blambda"] == meta["norm_Blambda_weighted"] == pytest.approx(math.exp(-2))

    def test_tolerance_below_the_normal_floats(self, tmp_path):
        # the series' term count at tol = 1e-310 is a few hundred; only the
        # ratio of its first term to tol passes float range
        code = main([
            "resolvent", "--graph", G2, "--state", PULSE, "--lambda", "2",
            "--tol", "1e-310", "--grid", "8", "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "resolvent.meta.json").read_text())
        assert meta["tail_bound"] <= 1e-310 and meta["neumann_terms"] > 300

    def test_general_complex_lambda(self, tmp_path):
        code = main([
            "resolvent", "--graph", G5, "--state", MIXED,
            "--lambda", "1,1", "--grid", "16", "--out", str(tmp_path),
        ])
        assert code == 0
        header, _ = read_csv(tmp_path / "resolvent.csv")
        assert header[1].endswith("_re") and header[2].endswith("_im")
        meta = json.loads((tmp_path / "resolvent.meta.json").read_text())
        assert meta["mode"] == "general"
        assert 0 < meta["norm_Blambda_weighted"] < 1
        assert meta["neumann_terms"] >= 1

    def test_large_lambda_writes_finite_samples(self, tmp_path):
        code = main([
            "resolvent", "--graph", G2, "--state", PULSE,
            "--lambda", "800", "--grid", "16", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "resolvent.csv")
        assert len(rows) == 17
        assert all(math.isfinite(x) for row in rows for x in row)
        assert rows[0][1] == pytest.approx(1 / 800, rel=1e-12)

    def test_zero_state_at_unit_speed(self, tmp_path):
        zero = tmp_path / "zero.state"
        zero.write_text("state zero\nbp 0/1 1/1\n")
        code = main([
            "resolvent", "--graph", G2, "--state", str(zero),
            "--lambda", "2", "--grid", "8", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "resolvent.csv")
        assert header == ["s", "edge_1", "edge_2"] and len(rows) == 9
        assert all(x == 0 for row in rows for x in row[1:])
        meta = json.loads((tmp_path / "resolvent.meta.json").read_text())
        assert meta["mode"] == "unit"
        assert meta["tail_bound"] == 0 and meta["neumann_terms"] == 0
        assert "K_used" not in meta


class TestAbsorb:
    def test_bounded_result(self, tmp_path):
        code = main([
            "absorb", "--graph", G2, "--state", PULSE, "--rates", RATES,
            "--t", "1/2", "--grid", "32", "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "absorb.meta.json").read_text())
        assert 0 < meta["error_bound"] < 1e-13
        assert "tail_bound" not in meta and "quad_bound" not in meta
        assert (tmp_path / "absorb.csv").exists()


    def test_rates_reach_the_solve_as_their_state(self, tmp_path, monkeypatch):
        # every solve gets the parsed rates state itself, a plain NetworkState
        seen = []
        solve = cli.evolve_absorbing

        def spy(g, vel, q, f, t, grid):
            seen.append(q)
            return solve(g, vel, q, f, t, grid=grid)

        monkeypatch.setattr(cli, "evolve_absorbing", spy)
        assert main(["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES, "--t", "1/2",
                     "--log-steps", "2", "--out", str(tmp_path)]) == 0
        want = parse_state_file(RATES).state
        assert len(seen) == 3 and all(type(q) is NetworkState and q == want for q in seen)

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        # main builds its parser once per process: a flag given to one run
        # must not leak into the next, so the second run takes grid 128
        artefacts = ("absorb.csv", "absorb.log.jsonl", "absorb.meta.json")
        runs = [["--grid", "16"], []]
        argvs = [["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES,
                  "--t", "1/2", *extra, "--out", str(tmp_path / str(k))]
                 for k, extra in enumerate(runs)]
        fresh = []
        for k, argv in enumerate(argvs):
            done = subprocess.run([sys.executable, "-m", "netflow.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            fresh.append({name: (tmp_path / str(k) / name).read_bytes() for name in artefacts})
        for k, argv in enumerate(argvs):
            assert main(argv) == 0
            for name in artefacts:
                assert (tmp_path / str(k) / name).read_bytes() == fresh[k][name], (k, name)
        meta = json.loads(fresh[1]["absorb.meta.json"])
        assert meta["config"]["grid"] == 128
        assert len(fresh[1]["absorb.csv"].splitlines()) == 1 + 129
        # the verb's function is looked up on each call, not kept by the parser
        grids = []
        monkeypatch.setattr(cli, "_cmd_absorb", lambda args: grids.append(args.grid) or 0)
        assert main(argvs[0]) == 0 and grids == [16]

    def test_sampled_mass_of_exact_rows(self, monkeypatch):
        # one integer sum over one denominator gives the float of the
        # per-point sum, and with float read as the identity the exact mass
        rng = random.Random(53)
        for trial in range(20):
            g = checks.random_graph(rng, 6)
            st = sample(checks.random_state(rng, g, 8), rng.choice([1, 7, 128, 257]))
            totals = [v.total() for v in st.samples]
            mass = cli._sampled_mass(st)
            assert type(mass) is float
            assert mass == float(sum(totals) - (totals[0] + totals[-1]) / 2) / st.grid_size
            with monkeypatch.context() as patch:
                patch.setattr(cli, "float", lambda x: x, raising=False)
                exact = (sum(totals) - Fraction(totals[0] + totals[-1], 2)) / st.grid_size
                assert cli._sampled_mass(st) == exact


@pytest.mark.parametrize("verb", ["simulate", "absorb"])
def test_zero_log_steps_still_end_at_t(tmp_path, verb):
    runs = []
    for steps in ("0", "1"):
        out = tmp_path / steps
        argv = [verb, "--graph", G2, "--state", PULSE, "--t", "1/2",
                "--grid", "16", "--log-steps", steps, "--out", str(out)]
        if verb == "absorb":
            argv += ["--rates", RATES]
        assert main(argv) == 0
        runs.append((out / f"{verb}.csv").read_bytes())
    assert runs[0] == runs[1]


class TestApprox:
    def test_tables_written(self, tmp_path):
        code = main([
            "approx", "--graph", G5, "--state", MIXED,
            "--t", "1/2", "--lambda", "2", "--levels", "1,2,3",
            "--grid", "64", "--out", str(tmp_path),
        ])
        assert code == 0
        sg = (tmp_path / "approx_semigroup.csv").read_text().splitlines()
        assert sg[0].startswith("level,velocity_error,strong_error")
        assert len(sg) == 4
        rv = (tmp_path / "approx_resolvent.csv").read_text().splitlines()
        assert len(rv) == 4
        meta = json.loads((tmp_path / "approx.meta.json").read_text())
        assert "semigroup" in meta and "resolvent" in meta

    def test_velocities_required(self, tmp_path):
        code = main([
            "approx", "--graph", G2, "--state", PULSE,
            "--t", "1/2", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_needs_a_target(self, tmp_path):
        code = main([
            "approx", "--graph", G5, "--state", MIXED, "--out", str(tmp_path),
        ])
        assert code == 1


class TestCheck:
    def test_all_green(self, tmp_path, capsys):
        code = main(["check", "--scale", "0.25", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["ok"] is True
        assert {r["name"] for r in payload["results"]} >= {"graph", "semigroup"}
        assert "ok" in capsys.readouterr().out


class TestPinnedArtefacts:
    """The exact verbs' artefacts, pinned by sha256.  A change to them must
    be deliberate: these digests move only with the bytes they pin.  Float
    verbs stay out, because their last bits depend on libm."""

    @pytest.mark.parametrize("argv, digests", [
        pytest.param(["simulate", "--graph", G2, "--state", PULSE, "--t", "7/4"], {
            "simulate.csv": "e436efabcb6470dddeaf42a08ed23fd51abb71185ba9792dbe0b5e82dfcecdf9",
            "simulate.log.jsonl": "e354431ffc5c5be0c81c559bae15d57b755458f3a0166f2b7eb4c9285ddcd999",
        }, id="simulate-g2"),
        pytest.param(["simulate", "--graph", G5, "--state", MIXED, "--t", "3"], {
            "simulate.csv": "fa78d8b87e7be90447f4ebd21e8753d6fc82f9dd4c8e2d540cf1147460e48d91",
            "simulate.log.jsonl": "8e65498fe2c80913f3979345f3404e84ea66f78f3828116ec842dd5c2ac70d7b",
        }, id="simulate-g5"),
        pytest.param(["validate", "--graph", G2], {
            "validate.json": "e439def85b52c5f7ce7ac566be11dd63e20299b297ace15ebb9d865ad556952c",
        }, id="validate-g2"),
        pytest.param(["validate", "--graph", G5], {
            "validate.json": "534e01cc5545ff119bbf5c9e4c34576a38cbcd3c30b234d04a735ae893b0722f",
        }, id="validate-g5"),
        pytest.param(["approx", "--graph", G5, "--state", MIXED, "--t", "29/4", "--test", PULSE,
                      "--test", MIXED, "--levels", "1,2,3", "--grid", "64"], {
            "approx_semigroup.csv":
                "9b67b3291f797fce55e4c51a62bba9456f0acbb6726857d49fcf7a5a90884963",
        }, id="approx-g5-tests"),
    ])
    def test_sha256(self, tmp_path, argv, digests):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        for name, want in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    # a seeded graph of 32 vertices and up to 64 edges, written as files:
    # at one speed the flow runs as _route_exact; at speeds 1/2, 1 and 2 a
    # 3-piece state runs as the per-edge histories, and a 7-piece one as
    # _array_flow (its digests taken at the parent of the kernel choice by
    # predicted work, where the 3-piece state ran as _array_flow)
    @pytest.mark.parametrize("kernel, t, digests", [
        pytest.param("_route_exact", "7/3", {
            "simulate.csv": "304214d81c41ed49eec55eae23633c22f9a282f083418eb6b686d1119e39e2cd",
            "simulate.log.jsonl": "44903fcea5df99c9a727ae4bf552e9d87bfaf6e15671c030c053b0aaf7dcac08",
        }, id="simulate-wide-unit"),
        pytest.param("_flow_histories", "5/4", {
            "simulate.csv": "c0fb6d20b20b5f3c92dda0565e5231c2716cc430a85f89ab221a5e2adc291a99",
            "simulate.log.jsonl": "69c2aafaca8a07bbba922fa7e8ec19451162e6426c2948f6e20369a4de6a6e68",
        }, id="simulate-wide-mixed"),
        pytest.param("_array_flow", "5/4", {
            "simulate.csv": "09d83debfbb9c69d51c5be0effc9866cb9bf1e949460170fd5b2e9ed7929c901",
            "simulate.log.jsonl": "a669f6e160c00f80b542ced7c722b374806f8afd5f7c57b68ea1cfe95f4e9b84",
        }, id="simulate-wide-arrays"),
    ])
    def test_sha256_wide(self, tmp_path, monkeypatch, kernel, t, digests):
        rng = random.Random("wide-pins")
        g = checks.random_graph(rng, 64, vertices=32)
        f = checks.random_state(rng, g, 8)
        vel = None
        if kernel != "_route_exact":
            pool = (Fraction(1, 2), Fraction(1), Fraction(2))
            vel = VelocityProfile({j: rng.choice(pool) for j in g.edge_ids})
        if kernel == "_array_flow":
            # 52 edges times 7 pieces a stage: past the per-edge histories' work
            f = checks.random_state(rng, g, 12)
        (tmp_path / "wide.graph").write_text(write_graph_text(g, vel))
        (tmp_path / "wide.state").write_text(write_state_text(f))
        calls = []
        run = getattr(semigroup, kernel)
        monkeypatch.setattr(semigroup, kernel, lambda *a, **k: calls.append(1) or run(*a, **k))
        assert main(["simulate", "--graph", str(tmp_path / "wide.graph"), "--state",
                     str(tmp_path / "wide.state"), "--t", t, "--out", str(tmp_path)]) == 0
        assert calls
        for name, want in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


class TestFloatVerbBytes:
    """The float verbs' CSVs against the per-cell reference formatting of
    the same result computed in process, so the check holds whatever last
    bits this machine's libm gives the floats."""

    @pytest.mark.parametrize("lam, arg", [(2.0, "2"), (1 + 1j, "1,1")])
    def test_resolvent_g5(self, tmp_path, lam, arg):
        assert main(["resolvent", "--graph", G5, "--state", MIXED, "--lambda", arg,
                     "--out", str(tmp_path)]) == 0
        gf = parse_graph_file(G5)
        res = resolvent_general(gf.graph, gf.velocities, parse_state_file(MIXED).state, lam)
        want = oracles.plotdata_reference(res.state, gf.graph.edge_ids)
        assert (tmp_path / "resolvent.csv").read_text() == want

    @staticmethod
    def assert_absorb_bytes(out, graph, state, rates, t, steps):
        """absorb's CSV and every log entry past t = 0 against evolve_absorbing
        on the parsed rates state, its log's reductions added in the order
        the rows would."""
        gf = parse_graph_file(graph)
        g, vel = gf.graph, gf.velocities or VelocityProfile({}, default=Fraction(1))
        f, q = parse_state_file(state).state, parse_state_file(rates).state
        log = (out / "absorb.log.jsonl").read_text()
        entries = [json.loads(line) for line in log.splitlines()]
        assert [e["t"] for e in entries] == [str(t * Fraction(k, steps)) for k in range(steps + 1)]
        for entry in entries[1:]:
            res = evolve_absorbing(g, vel, q, f, Fraction(entry["t"]))
            rows, M = res.state.samples, res.state.grid_size
            assert entry["sup_norm"] == max(v.l1() for v in rows)
            mass = sum(v.total() for v in rows) - (rows[0].total() + rows[M].total()) / 2
            assert entry["total_mass"] == mass / M
            routed = build_adjacency(g, vel).apply(rows[0])
            assert entry["boundary_residual"] == (rows[M] - routed).l1()
        assert (out / "absorb.csv").read_text() == oracles.plotdata_reference(res.state, g.edge_ids)

    def test_absorb_g2(self, tmp_path):
        assert main(["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES,
                     "--t", "7/4", "--log-steps", "1", "--out", str(tmp_path)]) == 0
        self.assert_absorb_bytes(tmp_path, G2, PULSE, RATES, Fraction(7, 4), 1)

    def test_absorb_g5(self, tmp_path):
        # rates cut at 1/2 only, f at 1/4 and 1/2: evolve_absorbing aligns the two
        rates = tmp_path / "g5_rates.state"
        rates.write_text("state g5_rates\nbp 0 1/2 1\nv 0 1 1/2\nv 0 3 1/4\n"
                         "v 1 2 1/4\nv 1 5 1/2\n")
        assert main(["absorb", "--graph", G5, "--state", MIXED, "--rates", str(rates),
                     "--t", "7/8", "--log-steps", "4", "--out", str(tmp_path)]) == 0
        self.assert_absorb_bytes(tmp_path, G5, MIXED, rates, Fraction(7, 8), 4)


class TestExitCodes:
    def test_decimal_time_is_a_parse_error(self, tmp_path):
        code = main([
            "simulate", "--graph", G2, "--state", PULSE,
            "--t", "0.5", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_unknown_verb(self):
        assert main(["fly"]) == 3

    def test_mixed_edge_id_styles(self, tmp_path, capsys):
        bad = tmp_path / "mixed.graph"
        # malformed input, named with its file
        bad.write_text("graph m\nedge 1 u v\nedge a v u\nw a 1 1\nw 1 a 1\n")
        assert main(["validate", "--graph", str(bad), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: edge ids of types int, str cannot be sorted together\n")

    def test_non_ascii_digit_ids(self, tmp_path, capsys):
        # '²' is a string id: beside int ids it is a mix of id styles
        # (malformed input, 3), and a graph of string ids validates
        bad, good = tmp_path / "sq.graph", tmp_path / "sq2.graph"
        bad.write_text("graph sq\nedge \u00b2 2 1\nedge 3 1 2\n", encoding="utf-8")
        assert main(["validate", "--graph", str(bad), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: edge ids of types int, str cannot be sorted together\n")
        good.write_text("graph sq\nedge \u00b2 a b\nedge x b a\nw \u00b2 x 1\nw x \u00b2 1\n",
                        encoding="utf-8")
        assert main(["validate", "--graph", str(good), "--out", str(tmp_path)]) == 0

    def test_negative_weight_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "neg.graph"
        bad.write_text("graph n\nedge 1 1 2\nedge 2 2 1\nw 1 2 1\nw 2 1 -1\n")
        assert main(["validate", "--graph", str(bad), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: {bad}:5: weight (2, 1) is negative\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", G2, "--state", PULSE, "--t", "1/2"],
        ["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES, "--t", "1/2"],
        ["resolvent", "--graph", G2, "--state", PULSE, "--lambda", "2"],
        ["approx", "--graph", G5, "--state", MIXED, "--levels", "1,2", "--lambda", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_is_bad_usage(self, tmp_path, capsys, argv, grid):
        assert main([*argv, "--grid", grid, "--out", str(tmp_path)]) == 3
        assert f"argument --grid: must be >= 1, got {grid}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["resolvent", "--graph", G2, "--state", PULSE, "--lambda", "2",
                        "--tol", tol], id=f"tol={tol}") for tol in ("nan", "0", "-1", "inf")),
        *(pytest.param(["check", "--suite", "graph", "--scale", scale], id=f"scale={scale}")
          for scale in ("inf", "nan", "1e300", "0")),
        *(pytest.param(["approx", "--graph", G5, "--state", MIXED, "--lambda", "2", *flag],
                       id=" ".join(flag))
          for flag in (["--method", "xyz"], ["--levels", "0,1"], ["--levels", "3,2"],
                       ["--levels", "1,x"])),
        *(pytest.param([verb, "--graph", G2, "--state", PULSE, "--t", "1/2",
                        *(["--rates", RATES] if verb == "absorb" else []),
                        "--log-steps", steps], id=f"{verb}-log-steps={steps}")
          for verb in ("simulate", "absorb") for steps in ("100000000000", "-1")),
    ])
    def test_out_of_range_flags_are_bad_usage(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: argument --") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", G2, "--state", PULSE, "--t", "1/2"],
        ["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES, "--t", "1/2"],
        ["resolvent", "--graph", G2, "--state", PULSE, "--lambda", "2"],
        ["approx", "--graph", G5, "--state", MIXED, "--levels", "1,2", "--lambda", "2"],
    ], ids=lambda argv: argv[0])
    def test_grid_past_the_sample_cap_is_bad_usage(self, tmp_path, capsys, argv):
        # --grid 10^6 makes 2000002 samples on g2 and 5000005 on g5, refused
        # before any solve; --help names the cap
        assert main([*argv, "--grid", "1000000", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --grid 1000000 on ") and "Traceback" not in err
        assert err.endswith(f"samples, more than {cli.MAX_SAMPLES}\n")
        assert not list(tmp_path.iterdir())
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert f"at most {cli.MAX_SAMPLES}" in " ".join(capsys.readouterr().out.split())

    def test_grid_at_the_sample_cap_runs(self, tmp_path, monkeypatch):
        # g2 has 2 edges: --grid 8 makes 18 samples
        monkeypatch.setattr(cli, "MAX_SAMPLES", 18)
        argv = ["simulate", "--graph", G2, "--state", PULSE, "--t", "1/2", "--out", str(tmp_path)]
        assert main([*argv, "--grid", "8"]) == 0
        assert main([*argv, "--grid", "9"]) == 3

    def test_duplicate_edge_id(self, tmp_path):
        bad = tmp_path / "dup.graph"
        bad.write_text("graph dup\nedge 1 1 2\nedge 1 2 1\n")
        assert main(["validate", "--graph", str(bad), "--out", str(tmp_path)]) == 3

    def test_validation_failure_in_simulate(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text(
            "graph bad\nedge 1 1 2\nedge 2 2 1\nw 1 2 1/2\nw 2 1 1\n"
        )
        code = main([
            "simulate", "--graph", str(bad), "--state", PULSE,
            "--t", "1", "--out", str(tmp_path),
        ])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--graph", G2, "--state", "STRAY", "--t", "0"], id="0"),
        pytest.param(["simulate", "--graph", G2, "--state", "STRAY", "--t", "1/2"], id="1/2"),
        pytest.param(["resolvent", "--graph", G2, "--state", "STRAY",
                      "--lambda", "2"], id="resolvent-general"),
        pytest.param(["approx", "--graph", G5, "--state", "STRAY",
                      "--levels", "1,2", "--lambda", "2"], id="approx-lambda"),
        pytest.param(["absorb", "--graph", G2, "--state", PULSE, "--rates", "STRAY",
                      "--t", "0"], id="absorb-rates-0"),
        pytest.param(["absorb", "--graph", G2, "--state", PULSE, "--rates", "STRAY",
                      "--t", "1/2"], id="absorb-rates-1/2"),
    ])
    def test_state_on_an_unknown_edge(self, tmp_path, argv):
        # states and rates alike: g2 and g5 have no edge 99
        stray = tmp_path / "stray.state"
        stray.write_text("state stray\nbp 0/1 1/1\nv 0 1 1\nv 0 99 5\n")
        argv = [str(stray) if a == "STRAY" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path)]) == 1

    def test_truncation_failure(self, tmp_path):
        code = main([
            "resolvent", "--graph", G2, "--state", PULSE,
            "--lambda", "1e-9", "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("verb", [["resolvent", "--lambda", "2"],
                                      ["approx", "--levels", "1,2", "--lambda", "2"],
                                      ["simulate", "--t", "1"]])
    # rationals whose floats overflow and round to 0 are refused too
    @pytest.mark.parametrize("speed", ["nan", "inf",
                                       pytest.param("1" + "0" * 400 + "/1", id="10^400"),
                                       pytest.param("1/1" + "0" * 400, id="10^-400")])
    def test_non_finite_velocity(self, tmp_path, capsys, verb, speed):
        bad = tmp_path / "g5.graph"
        bad.write_text(fixture_path("g5.graph").read_text().replace("c 1 2\n", f"c 1 {speed}\n"))
        code = main([verb[0], "--graph", str(bad), "--state", MIXED, *verb[1:],
                     "--out", str(tmp_path)])
        assert code == 3
        assert f"g5.graph:15: velocity must be positive and finite, got {speed}" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["inf", "1,inf", "nan", "2,nan",
                                     pytest.param("1" + "0" * 400 + "/1", id="10^400"),
                                     pytest.param("2,-1" + "0" * 400 + "/1", id="2,-10^400")])
    def test_non_finite_lambda(self, tmp_path, capsys, lam):
        code = main(["resolvent", "--graph", G5, "--state", MIXED, "--lambda", lam,
                     "--out", str(tmp_path)])
        assert code == 3
        assert "lambda must be finite" in capsys.readouterr().err
        assert not (tmp_path / "resolvent.csv").exists()

    def test_q_rounding_to_one(self, tmp_path, capsys):
        # g5's columns sum to one; at Re(lambda) = 1e-300 q rounds to 1
        code = main(["resolvent", "--graph", G5, "--state", MIXED, "--lambda", "1e-300",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "q = 1 >= 1 at Re(lambda) = 1e-300 and c_max = 2" in err
        assert "stochastic" not in err

    def test_three_part_lambda_is_malformed(self, tmp_path, capsys):
        code = main(["resolvent", "--graph", G2, "--state", PULSE, "--lambda", "1,2,3",
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "error: lambda takes re[,im], got '1,2,3'\n"

    def test_negative_time_is_a_validation_failure(self, tmp_path, capsys):
        code = main(["simulate", "--graph", G2, "--state", PULSE, "--t", "-1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: time must be nonnegative, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", G2, "--state", "BIG", "--t", "1/2"],
        ["absorb", "--graph", G2, "--state", "BIG", "--rates", RATES, "--t", "0"],
        ["resolvent", "--graph", G2, "--state", "BIG", "--lambda", "2"],
        ["approx", "--graph", G5, "--state", MIXED, "--test", "BIG", "--t", "1/2"],
    ], ids=lambda argv: argv[0])
    def test_value_past_float_range_is_malformed(self, tmp_path, capsys, argv):
        # refused before any solve, where its float would overflow
        big = tmp_path / "big.state"
        big.write_text(f"state big\nbp 0/1 1/2 1/1\nv 0 1 1\nv 1 2 -{10**400}/3\n")
        out = tmp_path / "out"
        argv = [str(big) if a == "BIG" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {big}: the value of edge 2 on piece 1 is beyond float range\n")
        assert not out.exists()

    def test_float_overflow_in_a_solve_is_a_precision_failure(self, tmp_path, capsys):
        # 10^308 fits a float, but the run logs sum two of them and, at
        # lambda = 1/2, the resolvent's series bound passes float range
        near = tmp_path / "near.state"
        near.write_text(f"state near\nbp 0/1 1/1\nv 0 1 {10**308}\nv 0 2 {10**308}\n")
        for argv in (["simulate", "--t", "1/2"], ["absorb", "--rates", RATES, "--t", "1/2"],
                     ["resolvent", "--lambda", "1/2"]):
            code = main([argv[0], "--graph", G2, "--state", str(near), *argv[1:],
                         "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        # at lambda = 2 every float stays in range: f is stationary on the
        # cycle, so R(2) f = f / 2
        assert main(["resolvent", "--graph", G2, "--state", str(near), "--lambda", "2",
                     "--grid", "4", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "resolvent.csv")
        assert all(x == pytest.approx(10**308 / 2, rel=1e-12) for row in rows for x in row[1:])

    def test_rates_past_float_range_are_malformed(self, tmp_path, capsys):
        # a rate of -10^400 underflows its factor to zero: refused at input,
        # like a --state value, not as an overflow mid-solve
        rates = tmp_path / "rates.state"
        rates.write_text(f"state r\nbp 0/1 1/1\nv 0 1 -{10**400}\n")
        out = tmp_path / "out"
        assert main(["absorb", "--graph", G2, "--state", PULSE, "--rates", str(rates),
                     "--t", "1/2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {rates}: the value of edge 1 on piece 0 is beyond float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb,extra,values,reading", [
        ("simulate", [], ("v 0 1 {big}", "v 0 2 {big}"), "sup_norm"),
        ("absorb", ["--rates", RATES], ("v 0 1 {big}", "v 0 2 {big}"), "sup_norm"),
        # sup 10^308 fits, but f(1) - B f(0) is 2 10^308 on edge 1
        ("simulate", [], ("v 0 2 -{big}", "v 1 1 {big}"), "boundary_residual"),
    ], ids=["simulate", "absorb", "simulate-residual"])
    def test_run_log_overflow_names_the_reading(self, tmp_path, capsys, verb, extra, values,
                                                reading):
        near = tmp_path / "near.state"
        near.write_text("state near\nbp 0/1 1/2 1/1\n"
                        + "".join(v.format(big=10**308) + "\n" for v in values))
        code = main([verb, "--graph", G2, "--state", str(near), *extra, "--t", "1/2",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: the run log's {reading} at t=0 overflows a float\n")

    def test_resolvent_overflow_names_the_series_bound(self, tmp_path, capsys):
        near = tmp_path / "near.state"
        near.write_text(f"state near\nbp 0/1 1/1\nv 0 1 {10**308}\nv 0 2 {10**308}\n")
        assert main(["resolvent", "--graph", G2, "--state", str(near), "--lambda", "1,1",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: the series' first term bound at lambda "
                                           "(1+1j) is beyond float range\n")

    def test_resolvent_overflow_names_f_over_lambda(self, tmp_path, capsys):
        near = tmp_path / "near.state"
        near.write_text(f"state near\nbp 0/1 1/1\nv 0 1 {10**308}\nv 0 2 {10**308}\n")
        assert main(["resolvent", "--graph", G2, "--state", str(near), "--lambda", "1/2",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: f / lambda at lambda 0.5 is beyond float range\n"

    def test_deep_trace_runs(self, tmp_path):
        # the irrational-speed reference walks 1000 crossings back, past
        # the default recursion limit of a fresh process
        graph = tmp_path / "root2.graph"
        graph.write_text(Path(G2).read_text() + "c 1 1.4142135623730951\nc 2 1\n")
        done = subprocess.run([sys.executable, "-m", "netflow.cli", "approx", "--graph",
                               str(graph), "--state", PULSE, "--t", "1000", "--out", str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert main(["approx", "--graph", str(graph), "--state", PULSE, "--t", "1000",
                     "--out", str(tmp_path / "in")]) == 0
        assert ((tmp_path / "in" / "approx_semigroup.csv").read_bytes()
                == (tmp_path / "approx_semigroup.csv").read_bytes())

    # numerals int(), float() and Fraction() read but the file format does
    # not have: another script's digit, a full-width digit, a digit group
    # and a superscript digit
    NUMERALS = pytest.mark.parametrize("numeral", ["١", "１/2", "1_0", "²"],
                                       ids=["arabic-indic", "fullwidth", "underscore", "square"])

    @NUMERALS
    @pytest.mark.parametrize("kind, lineno, line", [
        ("graph", 4, "w 1 2 {}"),
        ("graph", 6, "c 1 {}"),
        ("state", 2, "bp 0 {} 1"),
        ("state", 3, "v {} 1 1"),
        ("state", 3, "v 0 1 {}"),
    ], ids=["w", "c", "bp", "v-index", "v-value"])
    def test_numerals_in_files_are_ascii(self, tmp_path, capsys, numeral, kind, lineno, line):
        lines = {"graph": ["graph g2", "edge 1 1 2", "edge 2 2 1", "w 1 2 1", "w 2 1 1",
                           "c 1 1", "c 2 1"],
                 "state": ["state s", "bp 0 1/2 1", "v 0 1 1", "v 1 2 1/2"]}
        lines[kind][lineno - 1] = line.format(numeral)
        paths = {k: tmp_path / f"in.{k}" for k in lines}
        for k, text in lines.items():
            paths[k].write_text("\n".join(text) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--graph", str(paths["graph"]), "--state", str(paths["state"]),
                     "--t", "1/2", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {paths[kind]}:{lineno}: ")
        assert not out.exists()

    @NUMERALS
    @pytest.mark.parametrize("argv, why", [
        (["simulate", "--t"], "t must be an integer or p/q rational literal, got"),
        (["resolvent", "--lambda"], "lambda is not a number:"),
    ], ids=["t", "lambda"])
    def test_numerals_in_exact_flags_are_ascii(self, tmp_path, capsys, numeral, argv, why):
        out = tmp_path / "out"
        assert main([argv[0], "--graph", G2, "--state", PULSE, argv[1], numeral,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {why} {numeral!r}\n"
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        code = main([
            "simulate", "--graph", str(tmp_path / "nope.graph"),
            "--state", PULSE, "--t", "1", "--out", str(tmp_path),
        ])
        assert code == 3


# numerators and denominators up to 10^400, small ones as often as large:
# values past float range, values near its top and ordinary values
NUMERATORS = st.one_of(st.integers(-10**400, 10**400), st.integers(-9, 9))
DENOMINATORS = st.one_of(st.integers(1, 10**400), st.integers(1, 9))


def state_texts(edges):
    entries = st.dictionaries(st.tuples(st.integers(0, 1), st.sampled_from(edges)),
                              st.tuples(NUMERATORS, DENOMINATORS), min_size=1, max_size=4)
    return entries.map(lambda d: "state fuzz\nbp 0/1 1/2 1/1\n" + "".join(
        f"v {m} {j} {p}/{q}\n" for (m, j), (p, q) in d.items()))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(G2, (1, 2)), (G5, (1, 2, 3, 4, 5))]).flatmap(
    lambda case: st.tuples(st.just(case[0]), state_texts(case[1]), state_texts(case[1]))))
def test_huge_values_exit_with_a_code(tmp_path_factory, case):
    # every float verb ends in an exit code, whatever the magnitudes
    graph, state_text, test_text = case
    tmp = tmp_path_factory.mktemp("huge")
    state, test = tmp / "f.state", tmp / "g.state"
    state.write_text(state_text)
    test.write_text(test_text)
    for argv in (["simulate", "--t", "1/2"],
                 ["absorb", "--rates", RATES, "--t", "1/2"],
                 ["resolvent", "--lambda", "2"],
                 ["approx", "--test", str(test), "--t", "1/2", "--lambda", "2", "--levels", "1,2"]):
        code = main([argv[0], "--graph", graph, "--state", str(state), *argv[1:],
                     "--grid", "8", "--out", str(tmp / "out")])
        assert code in (0, 1, 2, 3)


def test_every_verb_has_a_command():
    # main dispatches on the verb's name: a verb without its _cmd_ function
    # would end in an uncaught KeyError
    import argparse

    (verbs,) = [a.choices for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    assert set(verbs) == {"simulate", "absorb", "resolvent", "approx", "check", "validate"}
    for verb in verbs:
        assert callable(getattr(cli, f"_cmd_{verb}", None)), verb
