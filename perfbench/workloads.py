"""The four benchmark workloads.

A workload is constructed once per process, and that is its set-up: it
generates the seeded inputs, writes them with the library's own writers,
parses them back, validates the graphs and builds the operators.  After
that it hands out rounds: `round(r)` is a list of cases, one solve each,
with round-specific seeded parameters.  Every round holds the same mix of
cases, so a run that completes whole rounds always measures the same mix
whatever the seed.  A run of `--seconds` does round(seconds / round_s)
rounds; `round_s` is a nominal round length (solves and checks) chosen
so that runs last 20-30 s on the machine the bounds were set on.  Each case pairs a `solve` with a `check` against an
independent reference; `check` returns None or a failure message.

Sizes and breakpoint grids are fixed per workload; the seed chooses
graphs, supports, values and times, so the cost of a round barely moves
from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import netflow
from netflow import (
    ApproximationSchedule,
    NetworkState,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    emit_plotdata,
    evolve_rational,
    evolve_unit,
    laplace_oracle,
    parse_graph_file,
    parse_plotdata,
    parse_state_file,
    resolvent_convergence,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
    sample,
    trace_samples,
    validate_graph,
)
from netflow import cli

import gen
import reference

FIXTURES = Path(netflow.__file__).resolve().parent / "fixtures"
UNIT = VelocityProfile({}, default=Fraction(1))
MIXED_POOL = (Fraction(1, 2), Fraction(1), Fraction(2))
GRID = 256
# g5 ships no rates file; these rates act on edges 1 and 3 over the front
# half and on edges 2 and 5 over the back half.
G5_RATES = NetworkState(
    (Fraction(0), Fraction(1, 2), Fraction(1)),
    (SparseVector({1: Fraction(1, 2), 3: Fraction(1, 4)}),
     SparseVector({2: Fraction(1, 4), 5: Fraction(1, 2)})),
)


@dataclass
class Case:
    name: str
    solve: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _load(path: Path):
    """Parse and validate a graph file, as the CLI does."""
    gf = parse_graph_file(path)
    report = validate_graph(gf.graph)
    if not report.ok:
        raise ValueError(f"generated graph {path} failed validation:\n{report.summary()}")
    return gf


def _restricted(sampled, edges) -> list:
    keep = set(edges)
    return [SparseVector({e: x for e, x in v.items() if e in keep}) for v in sampled.samples]


def _exact_trace_check(g, vel, f, t, sampled, edges) -> str | None:
    """Exact == against the characteristic tracer on `edges`."""
    traced = trace_samples(g, vel, f, t, sampled.grid_size, edges=edges)
    if list(traced.samples) != _restricted(sampled, edges):
        return f"trace_samples disagrees at t={t} on edges {sorted(edges)}"
    return None


def _wide_graph(seed: int, workdir: Path):
    """The 600-edge unit-speed graph and its mixed-speed profile, shared by
    `unit-wide` and `resolvent-float` (same seed, same graph)."""
    rng = _rng(seed, "wide")
    g = gen.regular_graph(rng, 200, 3, "wide")
    mixed = gen.speeds(rng, g.edge_ids, MIXED_POOL)
    return _load(gen.write_graph(workdir / "wide.graph", g)).graph, mixed


class UnitWide:
    """evolve_unit + sample + emit_plotdata on one shared operator.

    A round is 9 solves, at t within 1/36 of the stratum centres
    4(k + 1/2)/9, so every round spans t in (0, 4] evenly; with an odd
    count the median solve is the middle stratum's, and keeping each
    solve near its centre keeps its cost steady.  Each solve gets its own
    64-piece state with 32 edges a piece, so a run averages over many
    states."""

    round_s = 5.0
    strata = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.g, _ = _wide_graph(seed, workdir)
        self.op = build_adjacency(self.g)

    def round(self, r: int) -> list:
        rng = _rng(self.seed, "unit-wide", r)
        cases = []
        for k in range(self.strata):
            f = gen.exact_state(rng, self.g.edge_ids, 64, 32, nonneg=k % 2 == 1)
            t = Fraction(4 * k + 2, 9) + Fraction(rng.randint(-8, 8), 288)
            edges = rng.sample(self.g.edge_ids, 2)
            cases.append(Case(f"t{k}", self._solver(f, t), self._checker(f, t, edges)))
        return cases

    def _solver(self, f, t):
        def solve():
            st = evolve_unit(self.op, f, t)
            sampled = sample(st, GRID)
            return st, sampled, emit_plotdata(sampled, edges=self.g.edge_ids)
        return solve

    def _checker(self, f, t, edges):
        def check(out):
            st, sampled, csv = out
            if st.total_mass() != f.total_mass():
                return f"mass drifted at t={t}"
            if csv.count("\n") != GRID + 2:
                return f"CSV has {csv.count(chr(10))} lines, wanted {GRID + 2}"
            return _exact_trace_check(self.g, UNIT, f, t, sampled, edges)
        return check


class MixedLadder:
    """evolve_rational + sample at rational speeds.

    A round is g5's convergent ladder towards sqrt(2) (edge 1) and
    sqrt(3)/2 (edge 3) at levels 1-4, all on one fresh 4-piece state at
    one short time t5 near 1/38 (every edge carries mass, so level 4 lifts onto all
    3001 sub-edges), plus three solves near t = 1/2 on 300-edge graphs
    with speeds in {1/2, 1, 2}, each on a fresh graph and a fresh 16-piece
    state.  The median solve is one of these, so they share one time.
    Subdivision cost moves by a quarter from one random graph to the
    next, so every such solve draws its own graph."""

    round_s = 3.3
    levels = (1, 2, 3, 4)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        g5 = _load(FIXTURES / "g5.graph")
        self.g5 = g5.graph
        target = dict(g5.velocities.values)
        target[1] = math.sqrt(2)
        target[3] = math.sqrt(3) / 2
        self.ladder = ApproximationSchedule.build(VelocityProfile(target), self.levels).profiles
        self.workdir = workdir

    def round(self, r: int) -> list:
        rng = _rng(self.seed, "mixed-ladder", r)
        f5 = gen.exact_state(rng, self.g5.edge_ids, 4, 5)
        t5 = Fraction(40 + rng.randint(-2, 2), 1536)
        cases = [
            Case(f"g5-L{n}", self._solver(self.g5, prof, f5, t5),
                 self._checker(self.g5, prof, f5, t5, self.g5.edge_ids))
            for n, prof in zip(self.levels, self.ladder)
        ]
        for k in range(3):
            g = gen.regular_graph(rng, 100, 3, "mixed")
            vel = gen.speeds(rng, g.edge_ids, MIXED_POOL)
            gf = _load(gen.write_graph(self.workdir / "mixed.graph", g, vel))
            g, vel = gf.graph, gf.velocities
            f = gen.exact_state(rng, g.edge_ids, 16, 16)
            t = Fraction(1, 2) + Fraction(rng.randint(-4, 4), 96)
            edges = rng.sample(g.edge_ids, 4)
            cases.append(Case(f"mixed{k}", self._solver(g, vel, f, t),
                              self._checker(g, vel, f, t, edges)))
        return cases

    @staticmethod
    def _solver(g, vel, f, t):
        return lambda: sample(evolve_rational(g, vel, f, t), GRID)

    @staticmethod
    def _checker(g, vel, f, t, edges):
        return lambda sampled: _exact_trace_check(g, vel, f, t, sampled, edges)


class AbsorbCli:
    """The in-process `netflow absorb` verb, default order 6 and 64 panels.

    A round runs g2 with its shipped pulse and rates twice and g5 with its
    shipped state and G5_RATES once.  The exact series costs up to three
    times more or less when the rate or state values change, even with
    their breakpoints fixed, so the seed sets only the times: case k of
    round r draws t from the quarter ((r+k) mod 4 / 4, ...] on a 1/16
    lattice, and every run sees the same spread of times.
    `--log-steps 1` keeps one verb near a second on g2; the default 4
    makes each verb about four times longer."""

    round_s = 3.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        g2, g5 = FIXTURES / "g2.graph", FIXTURES / "g5.graph"
        g5_rates = gen.write_state(workdir / "g5_rates.state", G5_RATES, "g5_rates")
        self.inputs = [
            ("g2-a", g2, FIXTURES / "g2_pulse.state", FIXTURES / "g2_rates.state"),
            ("g2-b", g2, FIXTURES / "g2_pulse.state", FIXTURES / "g2_rates.state"),
            ("g5", g5, FIXTURES / "g5_mixed.state", g5_rates),
        ]
        self.parsed = []
        for _, gpath, spath, qpath in self.inputs:
            gf = _load(gpath)
            self.parsed.append((
                gf.graph,
                gf.velocities or UNIT,
                parse_state_file(spath).state,
                parse_state_file(qpath).state,
            ))

    def round(self, r: int) -> list:
        rng = _rng(self.seed, "absorb-cli", r)
        cases = []
        for k, (name, gpath, spath, qpath) in enumerate(self.inputs):
            quarter = Fraction((r + k) % 4, 4)
            t = quarter + gen.rational_time(rng, Fraction(0), Fraction(1, 4), 16)
            out = self.workdir / f"out-{k}"
            argv = ["absorb", "--graph", str(gpath), "--state", str(spath),
                    "--rates", str(qpath), "--t", str(t), "--out", str(out),
                    "--log-steps", "1"]
            cases.append(Case(name, self._solver(argv, out), self._checker(k, t)))
        return cases

    @staticmethod
    def _solver(argv, out):
        def solve():
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"absorb exited {rc}")
            sampled = parse_plotdata((out / "absorb.csv").read_text(encoding="utf-8"))
            meta = json.loads((out / "absorb.meta.json").read_text(encoding="utf-8"))
            return sampled, meta
        return solve

    def _checker(self, k, t):
        def check(out):
            sampled, meta = out
            g, vel, f, q = self.parsed[k]
            ref = reference.absorbed_samples(g, vel, q, f, t, sampled.grid_size)
            err = max(
                sum(abs(v.get(j) - want[j]) for j in g.edge_ids)
                for v, want in zip(sampled.samples, ref)
            )
            if not err <= meta["error_bound"]:
                return f"t={t}: error {err:.3e} above reported bound {meta['error_bound']:.3e}"
            return None
        return check


class ResolventFloat:
    """resolvent_unit / resolvent_general on the unit-wide graph, the
    general solver on its mixed-speed twin, and, at one lambda per round,
    unit resolvents on g2 and g5 plus g5's convergence ladder (levels 1-8
    towards sqrt(2), sqrt(3)/2).  A reference is computed once per round
    and shared by the cases of that round that need it; the general
    solver at unit speeds is checked against the unit series solved just
    before it."""

    round_s = 6.5
    lambdas = (0.5, 2.0, 1 + 1j)
    agree_tol = 1e-10
    trace_tol = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.g, self.mixed = _wide_graph(seed, workdir)
        rng = _rng(seed, "resolvent-float")
        f = gen.exact_state(rng, self.g.edge_ids, 64, 32, nonneg=True)
        self.f = parse_state_file(gen.write_state(workdir / "wide.state", f, "wide")).state
        self.op = build_adjacency(self.g)
        self.ones = VelocityProfile({j: Fraction(1) for j in self.g.edge_ids})
        self.mixed_op = build_adjacency(self.g, self.mixed)
        self.small = {}
        for name in ("g2", "g5"):
            gf = _load(FIXTURES / f"{name}.graph")
            f = gen.exact_state(rng, gf.graph.edge_ids, 4, 2, nonneg=True)
            f = parse_state_file(gen.write_state(workdir / f"{name}r.state", f, name)).state
            self.small[name] = (gf, build_adjacency(gf.graph), f)
        gf5 = self.small["g5"][0]
        target = dict(gf5.velocities.values)
        target[1] = math.sqrt(2)
        target[3] = math.sqrt(3) / 2
        self.target = VelocityProfile(target)
        self.schedule = ApproximationSchedule.build(self.target, range(1, 9))

    def round(self, r: int) -> list:
        refs: dict = {}

        def reference(key, compute):
            if key not in refs:
                refs[key] = compute()
            return refs[key]

        cases = []
        for lam in self.lambdas:
            cases += [
                Case(f"unit{lam}",
                     lambda lam=lam: resolvent_unit(self.op, self.f, lam, grid=GRID),
                     self._identity(self.op, lam, None, refs)),
                Case(f"general{lam}",
                     lambda lam=lam: resolvent_general(self.g, self.ones, self.f, lam, grid=GRID),
                     self._agrees(lam, reference)),
                Case(f"mixed{lam}",
                     lambda lam=lam: resolvent_general(self.g, self.mixed, self.f, lam, grid=GRID),
                     self._identity(self.mixed_op, lam, self.mixed, None)),
            ]
        lam = self.lambdas[r % len(self.lambdas)]
        for name, (gf, op, f) in self.small.items():
            cases.append(Case(f"{name}{lam}",
                              lambda op=op, f=f: resolvent_unit(op, f, lam, grid=GRID),
                              self._laplace(name, lam, reference)))
        _, _, f5 = self.small["g5"]
        g5 = self.small["g5"][0].graph
        cases.append(Case(
            f"ladder{lam}",
            lambda: resolvent_convergence(g5, self.target, lam, f5, self.schedule, M=GRID),
            self._converges(lam),
        ))
        return cases

    def _identity(self, op, lam, vel, refs):
        def check(res):
            if refs is not None:
                refs[("unit", lam)] = res
            report = resolvent_identity_check(op, self.f, lam, result=res, vel=vel)
            if not report.trace <= self.trace_tol:
                return f"identity trace residual {report.trace:.3e} at lambda={lam}"
            return None
        return check

    def _agrees(self, lam, reference):
        def check(res):
            ref = reference(("unit", lam),
                                  lambda: resolvent_unit(self.op, self.f, lam, grid=GRID))
            d = res.state.distance(ref.state)
            if not d <= self.agree_tol:
                return f"unit and general resolvents differ by {d:.3e} at lambda={lam}"
            return None
        return check

    def _laplace(self, name, lam, reference):
        def check(res):
            _, op, f = self.small[name]
            ref = reference(
                ("laplace", name, lam),
                lambda: laplace_oracle(op, f, lam, t_max=20, steps=400, grid=GRID),
            )
            d = res.state.distance(ref.state)
            budget = ref.error_bound + res.tail_bound
            if not d <= budget:
                return f"{name}: resolvent {d:.3e} from Laplace oracle, budget {budget:.3e}"
            return None
        return check

    def _converges(self, lam):
        def check(table):
            first, last = table.rows[0], table.rows[-1]
            if not last.strong_error < first.strong_error:
                return f"ladder did not converge at lambda={lam}"
            return None
        return check


WORKLOADS = {
    "unit-wide": UnitWide,
    "mixed-ladder": MixedLadder,
    "absorb-cli": AbsorbCli,
    "resolvent-float": ResolventFloat,
}
