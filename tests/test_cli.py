"""End-to-end CLI behavior: verbs, artifacts, exit codes, determinism."""

import hashlib
import json
import math

from fractions import Fraction

import pytest

import oracles
from netflow import (
    AbsorptionProfile,
    VelocityProfile,
    build_adjacency,
    evolve_absorbing,
    parse_graph_file,
    parse_state_file,
    resolvent_general,
)
from netflow.checks import fixture_path
from netflow.cli import main

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
        assert meta["mode"] == "unit"
        assert meta["K_used"] >= 1
        assert meta["tail_bound"] <= 1e-11
        assert meta["neumann_terms"] is None and meta["norm_Blambda"] is None

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
        assert meta["tail_bound"] == 0 and meta["K_used"] is None


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
    ])
    def test_sha256(self, tmp_path, argv, digests):
        assert main([*argv, "--out", str(tmp_path)]) == 0
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

    def test_absorb_g2(self, tmp_path):
        assert main(["absorb", "--graph", G2, "--state", PULSE, "--rates", RATES,
                     "--t", "7/4", "--log-steps", "1", "--out", str(tmp_path)]) == 0
        g = parse_graph_file(G2).graph
        rates = parse_state_file(RATES).state
        q = AbsorptionProfile({j: (rates.breakpoints, [v.get(j) for v in rates.values])
                               for j in rates.support()})
        unit = VelocityProfile({}, default=Fraction(1))
        res = evolve_absorbing(g, unit, q, parse_state_file(PULSE).state, Fraction(7, 4))
        want = oracles.plotdata_reference(res.state, g.edge_ids)
        assert (tmp_path / "absorb.csv").read_text() == want
        # the log's reductions add in the order the rows would
        rows, M = res.state.samples, res.state.grid_size
        last = json.loads((tmp_path / "absorb.log.jsonl").read_text().splitlines()[-1])
        assert last["sup_norm"] == max(v.l1() for v in rows)
        mass = sum(v.total() for v in rows) - (rows[0].total() + rows[M].total()) / 2
        assert last["total_mass"] == mass / M
        routed = build_adjacency(g, unit).apply(rows[0])
        assert last["boundary_residual"] == (rows[M] - routed).l1()


class TestExitCodes:
    def test_decimal_time_is_a_parse_error(self, tmp_path):
        code = main([
            "simulate", "--graph", G2, "--state", PULSE,
            "--t", "0.5", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_unknown_verb(self):
        assert main(["fly"]) == 3

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

    def test_missing_file(self, tmp_path):
        code = main([
            "simulate", "--graph", str(tmp_path / "nope.graph"),
            "--state", PULSE, "--t", "1", "--out", str(tmp_path),
        ])
        assert code == 3
