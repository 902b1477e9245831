"""Command-line front end.

Six verbs over the library: `simulate` and `absorb` run the flow and emit
sampled CSV plus a JSON-lines run log, `resolvent` solves the stationary
problem, `approx` builds rational-velocity convergence tables, `check`
runs the randomized self-test suites, `validate` lints a graph file.

Exit codes: 0 success; 1 domain failure (bad graph, missing velocities,
failed report, wrong-operator use, and the WidthOverflowError refusals: a
stage budget, a cone, a characteristic trace deeper than the interpreter
stack); 2 numeric-tolerance failure (precision gates, series truncation,
contraction loss, a resolvent certificate q >= 1 or a series bound beyond
float range, a float overflow in a solve or a run-log reading, named with
its time); 3 malformed input (unparseable or unreadable files, a graph
file's bad weight, speed or edge ids, bad or out-of-range flags, decimals
where exactness is required, a --state, --rates or --test value beyond
float range, an output of more than MAX_SAMPLES samples).  The map lives
on the error classes: each class in `errors.py` carries its `exit_code`.
Artifacts are deterministic: same inputs and flags give byte-identical
files, so runs can be diffed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._version import __version__
from .approximation import (
    ApproximationSchedule,
    ConvergenceTable,
    resolvent_convergence,
    semigroup_convergence,
)
from .checks import SUITES, run_suite
from .errors import (MalformedGraphError, MalformedInputError, MissingVelocityError,
                     NetflowError, PrecisionError)
from .exact import float_or_inf, parse_rational, parse_real
from .fileio import (
    emit_plotdata,
    parse_graph_file,
    parse_state_file,
    write_json,
    write_runlog,
    write_text,
)
from .graph import MetricGraph, SparseVector, VelocityProfile, validate_graph
from .resolvent import resolvent_general
from .semigroup import _UNIT, AbsorptionProfile, evolve_absorbing, evolve_rational
from .states import NetworkState, boundary_residual, sample


# caps on flags whose larger values would run for minutes; MAX_SAMPLES
# caps a verb's output, edges x (grid + 1) samples
MAX_SCALE = 100
MAX_LOG_STEPS = 10_000
MAX_SAMPLES = 2_000_000
# exit codes of the builtin errors a verb may raise: an unreadable file is malformed
# input, a float overflow in a solve a precision failure, other bad values invalid
_EXIT = {OSError: 3, OverflowError: 2, FloatingPointError: 2, ValueError: 1}


class _Parser(argparse.ArgumentParser):
    # usage errors are malformed input (exit 3), not argparse's default 2
    def error(self, message):
        raise MalformedInputError(message)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="netflow", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"netflow {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def checked(name: str, convert, ok, rule: str):
        # an argparse type: convert, then refuse what breaks the rule
        def parse(text: str):
            value = convert(text)
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
            return value
        parse.__name__ = name  # argparse names a failed conversion by it
        return parse

    grid = checked("grid", int, lambda n: n >= 1, ">= 1")
    capped = f"; edges x (grid + 1) at most {MAX_SAMPLES}"
    tol = checked("tol", float, lambda x: 0 < x < math.inf, "finite and > 0")
    scale = checked("scale", float, lambda x: 0 < x <= MAX_SCALE, f"> 0 and at most {MAX_SCALE}")
    log_steps = checked("log-steps", int, lambda n: 0 <= n <= MAX_LOG_STEPS,
                        f"from 0 to {MAX_LOG_STEPS}")
    # kept as text, as the run's metadata records it
    levels = checked("levels", str, _levels, "strictly increasing naturals")

    def common(sp, state=True):
        sp.add_argument("--graph", required=True, help="graph file")
        if state:
            sp.add_argument("--state", required=True, help="initial state file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")

    sp = sub.add_parser("simulate", help="run the transport flow")
    common(sp)
    sp.add_argument("--t", required=True, help="evolution time, rational p/q")
    sp.add_argument("--grid", type=grid, default=256, help="output samples per edge" + capped)
    sp.add_argument("--log-steps", type=log_steps, default=4,
                    help=f"run-log entries after t=0, 0 to {MAX_LOG_STEPS}")

    sp = sub.add_parser("absorb", help="transport with absorption rates")
    common(sp)
    sp.add_argument("--rates", required=True, help="absorption rates, state file format")
    sp.add_argument("--t", required=True, help="evolution time, rational p/q")
    sp.add_argument("--grid", type=grid, default=128, help="output samples per edge" + capped)
    sp.add_argument("--log-steps", type=log_steps, default=4,
                    help=f"run-log entries after t=0, 0 to {MAX_LOG_STEPS}")

    sp = sub.add_parser("resolvent", help="solve the stationary problem")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="spectral parameter re[,im], each part rational or decimal")
    sp.add_argument("--tol", type=tol, default=1e-12, help="series truncation tolerance, > 0")
    sp.add_argument("--grid", type=grid, default=256, help="output samples per edge" + capped)

    sp = sub.add_parser("approx", help="rational-velocity convergence tables")
    common(sp)
    sp.add_argument("--t", default=None, help="semigroup table time, rational p/q")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="resolvent table parameter re[,im]")
    sp.add_argument("--levels", type=levels, default="1,2,3,4,5,6",
                    help="comma list of strictly increasing levels >= 1")
    sp.add_argument("--method", type=str.lower, choices=("cf", "dec"), default="cf",
                    help="cf (convergents) or dec (decimal)")
    sp.add_argument("--test", action="append", default=[],
                    help="test-function state file for weak errors (repeatable)")
    sp.add_argument("--grid", type=grid, default=512, help="sampling grid" + capped)

    sp = sub.add_parser("check", help="run the randomized self-test suites")
    sp.add_argument("--suite", default="all", help="one of %s or all" % ", ".join(SUITES))
    sp.add_argument("--seed", type=int, default=7, help="suite RNG seed")
    sp.add_argument("--scale", type=scale, default=1.0,
                    help=f"trial count multiplier, > 0 and at most {MAX_SCALE}")
    sp.add_argument("--out", default="out", help="output directory (default: out)")

    sp = sub.add_parser("validate", help="lint a graph file")
    common(sp, state=False)

    return p


def _levels(text: str) -> list:
    """The levels of a --levels list, or [] unless they rise strictly from 1."""
    levels = [int(part) for part in text.split(",") if part.strip()]
    return levels if levels[:1] >= [1] and all(a < b for a, b in zip(levels, levels[1:])) else []


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise MalformedInputError(f"lambda takes re[,im], got {text!r}")
    vals = [float_or_inf(parse_real(part.strip(), "lambda")) for part in parts]
    if not all(map(math.isfinite, vals)):
        raise MalformedInputError(f"lambda must be finite, got {text!r}")
    return complex(vals[0], vals[1] if len(vals) > 1 else 0.0)


def _parse_time(text: str) -> Fraction:
    t = parse_rational(text, "t")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return t


def _front(args) -> tuple:
    """A solve verb's inputs: the graph's name; the graph of --graph,
    validated, and refused before any solve when its edges x (--grid + 1)
    samples exceed MAX_SAMPLES; its speeds (unit when the file lists none,
    which `approx` refuses); the state of --state; the --out directory."""
    gf = parse_graph_file(args.graph)
    report = validate_graph(gf.graph)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        raise MalformedGraphError(f"graph {gf.name!r} failed validation")
    samples = len(gf.graph) * (args.grid + 1)
    if samples > MAX_SAMPLES:
        raise MalformedInputError(f"--grid {args.grid} on {len(gf.graph)} edges makes "
                                  f"{samples} samples, more than {MAX_SAMPLES}")
    if gf.velocities is None and args.verb == "approx":
        raise MissingVelocityError(
            f"graph {gf.name!r} has no velocities to approximate; add c lines")
    vel = _UNIT if gf.velocities is None else gf.velocities
    return gf.name, gf.graph, vel, _read_state(args.state), Path(args.out)


def _read_state(path) -> NetworkState:
    """The state of a --state, --rates or --test file, refused when a value
    lies beyond float range: every verb reads the values as floats."""
    f = parse_state_file(path).state
    for m, v in enumerate(f.values):
        for j, x in v.items():
            if math.isinf(float_or_inf(x)):
                raise MalformedInputError(
                    f"{path}: the value of edge {j!r} on piece {m} is beyond float range")
    return f


def _is_unit(vel: VelocityProfile, g: MetricGraph) -> bool:
    return all(vel.velocity(j) == 1 for j in g.edge_ids)


def _metadata(args, **extra) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if value is None:
            continue
        config[key] = value if isinstance(value, (int, float, bool, list)) else str(value)
    return {"version": __version__, "config": config, **extra}


def _run(t: Fraction, steps: int, solve, readings) -> tuple:
    """The last solve at the log's times k t / steps, k = 0..steps (fewer
    than one step counts as one; t = 0 is solved once), and the log: each
    time with the sup norm, mass and residual that the three `readings`
    read off its solve, as floats.  A reading beyond float range raises
    PrecisionError naming it and the time."""
    steps = max(steps, 1)
    entries = []
    for k in range(steps + 1 if t else 1):
        tt = Fraction(k, steps) * t
        result = solve(tt)
        entry = {"t": str(tt)}
        for key, read in zip(("sup_norm", "total_mass", "boundary_residual"), readings):
            try:
                entry[key] = float(read(result))
            except OverflowError:
                raise PrecisionError(f"the run log's {key} at t={tt} overflows a float") from None
        entries.append(entry)
    return result, entries


def _write(args, out: Path, name: str, g: MetricGraph, sampled, summary: str,
           entries=None, **meta) -> int:
    """Write a solve verb's CSV, its run log when it keeps one and its meta,
    and print its summary line."""
    write_text(out / f"{args.verb}.csv", emit_plotdata(sampled, edges=g.edge_ids))
    if entries is not None:
        write_runlog(out / f"{args.verb}.log.jsonl", entries)
    write_json(out / f"{args.verb}.meta.json", _metadata(args, graph=name, **meta))
    print(f"{args.verb}: {summary}, wrote {out / f'{args.verb}.csv'}")
    return 0


def _sampled_mass(st) -> float:
    # trapezoid analog of the signed-integral mass on the sample grid
    totals = st.totals()
    return float(sum(totals) - (totals[0] + totals[-1]) / 2) / st.grid_size


def _cmd_simulate(args) -> int:
    name, g, vel, f, out = _front(args)
    t = _parse_time(args.t)
    final, entries = _run(t, args.log_steps, lambda tt: evolve_rational(g, vel, f, tt),
                          (NetworkState.sup_norm, NetworkState.total_mass,
                           lambda st: boundary_residual(st, g, vel)))
    last = entries[-1]
    return _write(args, out, name, g, sample(final, args.grid),
                  f"t={t}, sup_norm={last['sup_norm']:.6g}", entries,
                  mode="unit" if _is_unit(vel, g) else "rational",
                  sup_norm=last["sup_norm"], total_mass=last["total_mass"])


def _rates_profile(path) -> AbsorptionProfile:
    state = _read_state(path)
    profiles = {}
    for j in sorted(state.support(), key=repr):
        profiles[j] = (list(state.breakpoints), [v.get(j) for v in state.values])
    return AbsorptionProfile(profiles)


def _cmd_absorb(args) -> int:
    name, g, vel, f, out = _front(args)
    q = _rates_profile(args.rates)
    t = _parse_time(args.t)
    result, entries = _run(
        t, args.log_steps, lambda tt: evolve_absorbing(g, vel, q, f, tt, grid=args.grid),
        (lambda res: res.state.sup_sample_norm(), lambda res: _sampled_mass(res.state),
         lambda res: boundary_residual(res.state, g, vel)))
    return _write(args, out, name, g, result.state,
                  f"t={t}, error_bound={result.error_bound:.3g}", entries,
                  error_bound=result.error_bound)


def _cmd_resolvent(args) -> int:
    name, g, vel, f, out = _front(args)
    lam = _parse_lambda(args.lam)
    res = resolvent_general(g, vel, f, lam, grid=args.grid, tol=args.tol)
    # one series at every speed, so one shape of metadata
    return _write(args, out, name, g, res.state,
                  f"lambda={lam}, tail_bound={res.tail_bound:.3g}",
                  mode="unit" if _is_unit(vel, g) else "general", tail_bound=res.tail_bound,
                  **{key: res.metadata[key]
                     for key in ("neumann_terms", "norm_Blambda", "norm_Blambda_weighted")})


def _table_csv(table: ConvergenceTable) -> str:
    cols = ["level", "velocity_error", "strong_error"]
    cols += [f"g{i}" for i in range(len(table.labels))] if table.rows and table.rows[0].weak_errors else []
    lines = [",".join(cols)]
    for row in table.rows:
        cells = [str(row.level), f"{float(row.velocity_error):.17g}",
                 f"{float(row.strong_error):.17g}"]
        cells += [f"{float(w):.17g}" for w in row.weak_errors]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_approx(args) -> int:
    name, g, vel, f, out = _front(args)
    if args.t is None and args.lam is None:
        raise ValueError("approx needs --t (semigroup table) and/or --lambda (resolvent table)")
    levels = _levels(args.levels)
    schedule = ApproximationSchedule.build(vel, levels, args.method)

    meta = _metadata(args, graph=name)
    wrote = []
    if args.t is not None:
        t = _parse_time(args.t)
        if args.test:
            gs = [_read_state(p) for p in args.test]
        else:
            first = sorted(g.edge_ids, key=repr)[0]
            gs = [NetworkState.constant(SparseVector({first: Fraction(1)}))]
        table = semigroup_convergence(g, vel, f, t, gs, schedule, grid=args.grid)
        write_text(out / "approx_semigroup.csv", _table_csv(table))
        meta["semigroup"] = dict(table.metadata)
        wrote.append(str(out / "approx_semigroup.csv"))
    if args.lam is not None:
        lam = _parse_lambda(args.lam)
        table = resolvent_convergence(g, vel, lam, f, schedule, M=args.grid)
        write_text(out / "approx_resolvent.csv", _table_csv(table))
        meta["resolvent"] = dict(table.metadata)
        wrote.append(str(out / "approx_resolvent.csv"))

    write_json(out / "approx.meta.json", meta)
    print(f"approx: levels={levels}, wrote {', '.join(wrote)}")
    return 0


def _cmd_check(args) -> int:
    results = run_suite(args.suite, seed=args.seed, scale=args.scale)
    for r in results:
        print(r.line())
    payload = {
        "version": __version__,
        "suite": args.suite,
        "seed": args.seed,
        "ok": all(r.ok for r in results),
        "results": [
            {"name": r.name, "trials": r.trials, "ok": r.ok, "failures": r.failures}
            for r in results
        ],
    }
    write_json(Path(args.out) / "check.json", payload)
    return 0 if payload["ok"] else 2


def _cmd_validate(args) -> int:
    gf = parse_graph_file(args.graph)
    report = validate_graph(gf.graph)
    if report.ok:
        print(f"{len(report.column_sums)} columns, all sum 1")
    print(report.summary())
    write_json(Path(args.out) / "validate.json", {
        "version": __version__,
        "graph": gf.name,
        "ok": report.ok,
        "column_sums": {str(j): str(s) for j, s in report.column_sums.items()},
        "loops": [str(j) for j in report.loops],
        "duplicates": [str(j) for j in report.duplicates],
        "sinks": [str(v) for v in report.sinks],
    })
    return 0 if report.ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up on each call: the cached parser holds no function, so a
        # wrapped or patched `_cmd_*` is the one that runs
        with np.errstate(over="raise"):
            return globals()[f"_cmd_{args.verb}"](args)
    except (NetflowError, *_EXIT) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", None) or next(
            code for cls, code in _EXIT.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
