"""Command-line front end.

Six verbs over the library: `simulate` and `absorb` run the flow and emit
sampled CSV plus a JSON-lines run log, `resolvent` solves the stationary
problem, `approx` builds rational-velocity convergence tables, `check`
runs the randomized self-test suites, `validate` lints a graph file.

Exit codes: 0 success, 1 validation failure (bad graph, missing
velocities, failed report), 2 numeric-tolerance failure (precision gates,
series truncation, contraction loss), 3 malformed input (unparseable
files or flags, decimals where exactness is required).  Artifacts are
deterministic: same inputs and flags give byte-identical files, so runs
can be diffed.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from ._version import __version__
from .approximation import (
    ApproximationSchedule,
    ConvergenceTable,
    resolvent_convergence,
    semigroup_convergence,
)
from .checks import SUITES, run_suite
from .errors import (
    ContractionViolationError,
    MalformedGraphError,
    MalformedInputError,
    MissingVelocityError,
    NetflowError,
    NotRationalError,
    PrecisionError,
    TruncationError,
    WidthOverflowError,
    WrongOperatorError,
)
from .exact import float_or_inf, parse_rational, parse_real
from .fileio import (
    emit_plotdata,
    parse_graph_file,
    parse_state_file,
    write_json,
    write_runlog,
    write_text,
)
from .graph import MetricGraph, SparseVector, VelocityProfile, build_adjacency, validate_graph
from .resolvent import resolvent_general
from .semigroup import AbsorptionProfile, evolve_absorbing, evolve_rational
from .states import TestFunction, boundary_residual, sample


class _Parser(argparse.ArgumentParser):
    # usage errors are malformed input (exit 3), not argparse's default 2
    def error(self, message):
        raise MalformedInputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="netflow", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"netflow {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, state=True):
        sp.add_argument("--graph", required=True, help="graph file")
        if state:
            sp.add_argument("--state", required=True, help="initial state file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")

    sp = sub.add_parser("simulate", help="run the transport flow")
    common(sp)
    sp.add_argument("--t", required=True, help="evolution time, rational p/q")
    sp.add_argument("--grid", type=int, default=256, help="output samples per edge")
    sp.add_argument("--log-steps", type=int, default=4, help="run-log entries after t=0")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("absorb", help="transport with absorption rates")
    common(sp)
    sp.add_argument("--rates", required=True, help="absorption rates, state file format")
    sp.add_argument("--t", required=True, help="evolution time, rational p/q")
    sp.add_argument("--grid", type=int, default=128, help="output samples per edge")
    sp.add_argument("--log-steps", type=int, default=4, help="run-log entries after t=0")
    sp.set_defaults(fn=_cmd_absorb)

    sp = sub.add_parser("resolvent", help="solve the stationary problem")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="spectral parameter re[,im], each part rational or decimal")
    sp.add_argument("--tol", type=float, default=1e-12, help="series truncation tolerance")
    sp.add_argument("--grid", type=int, default=256, help="output samples per edge")
    sp.set_defaults(fn=_cmd_resolvent)

    sp = sub.add_parser("approx", help="rational-velocity convergence tables")
    common(sp)
    sp.add_argument("--t", default=None, help="semigroup table time, rational p/q")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="resolvent table parameter re[,im]")
    sp.add_argument("--levels", default="1,2,3,4,5,6", help="comma list of levels")
    sp.add_argument("--method", default="cf", help="cf (convergents) or dec (decimal)")
    sp.add_argument("--test", action="append", default=[],
                    help="test-function state file for weak errors (repeatable)")
    sp.add_argument("--grid", type=int, default=512, help="sampling grid")
    sp.set_defaults(fn=_cmd_approx)

    sp = sub.add_parser("check", help="run the randomized self-test suites")
    sp.add_argument("--suite", default="all", help="one of %s or all" % ", ".join(SUITES))
    sp.add_argument("--seed", type=int, default=7, help="suite RNG seed")
    sp.add_argument("--scale", type=float, default=1.0, help="trial count multiplier")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("validate", help="lint a graph file")
    common(sp, state=False)
    sp.set_defaults(fn=_cmd_validate)

    return p


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


def _load_validated(path) -> "tuple":
    gf = parse_graph_file(path)
    report = validate_graph(gf.graph)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        raise MalformedGraphError(f"graph {gf.name!r} failed validation")
    return gf.name, gf.graph, gf.velocities


def _is_unit(vel: VelocityProfile | None, g: MetricGraph) -> bool:
    return vel is None or all(vel.velocity(j) == 1 for j in g.edge_ids)


def _metadata(args, **extra) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "fn" or value is None:
            continue
        config[key] = value if isinstance(value, (int, float, bool, list)) else str(value)
    return {"version": __version__, "config": config, **extra}


def _write_samples(out: Path, stem: str, sampled, g: MetricGraph) -> None:
    write_text(out / f"{stem}.csv", emit_plotdata(sampled, edges=g.edge_ids))


def _log_times(t: Fraction, steps: int) -> list:
    # always ends at t: fewer than one step counts as one
    steps = max(steps, 1)
    return [Fraction(k, steps) * t for k in range(steps + 1 if t else 1)]


def _sampled_mass(st) -> float:
    # trapezoid analog of the signed-integral mass on the sample grid
    totals = st.totals()
    total = sum(totals) - (totals[0] + totals[-1]) / 2
    return float(total) / st.grid_size


def _cmd_simulate(args) -> int:
    name, g, vel = _load_validated(args.graph)
    f = parse_state_file(args.state).state
    t = _parse_time(args.t)
    out = Path(args.out)

    if vel is None:
        vel = VelocityProfile({}, default=Fraction(1))
    bc_op = build_adjacency(g, vel)

    entries = []
    final = None
    for tt in _log_times(t, args.log_steps):
        st = evolve_rational(g, vel, f, tt)
        entries.append({
            "t": str(tt),
            "sup_norm": float(st.sup_norm()),
            "total_mass": float(st.total_mass()),
            "boundary_residual": float(boundary_residual(st, bc_op)),
        })
        final = st

    sampled = sample(final, args.grid)
    _write_samples(out, "simulate", sampled, g)
    write_runlog(out / "simulate.log.jsonl", entries)
    write_json(out / "simulate.meta.json", _metadata(
        args, graph=name, mode="unit" if _is_unit(vel, g) else "rational",
        sup_norm=entries[-1]["sup_norm"], total_mass=entries[-1]["total_mass"],
    ))
    print(f"simulate: t={t}, sup_norm={entries[-1]['sup_norm']:.6g}, "
          f"wrote {out / 'simulate.csv'}")
    return 0


def _rates_profile(path) -> AbsorptionProfile:
    state = parse_state_file(path).state
    profiles = {}
    for j in sorted(state.support(), key=repr):
        profiles[j] = (list(state.breakpoints), [v.get(j) for v in state.values])
    return AbsorptionProfile(profiles)


def _cmd_absorb(args) -> int:
    name, g, vel = _load_validated(args.graph)
    f = parse_state_file(args.state).state
    q = _rates_profile(args.rates)
    t = _parse_time(args.t)
    out = Path(args.out)
    if vel is None:
        vel = VelocityProfile({}, default=Fraction(1))
    bc_op = build_adjacency(g, vel)

    entries = []
    result = None
    for tt in _log_times(t, args.log_steps):
        result = evolve_absorbing(g, vel, q, f, tt, grid=args.grid)
        st = result.state
        at0, at1 = st.point(0), st.point(st.grid_size)
        entries.append({
            "t": str(tt),
            "sup_norm": float(st.sup_sample_norm()),
            "total_mass": _sampled_mass(st),
            "boundary_residual": float((at1 - bc_op.apply(at0)).l1()),
        })

    _write_samples(out, "absorb", result.state, g)
    write_runlog(out / "absorb.log.jsonl", entries)
    write_json(out / "absorb.meta.json", _metadata(
        args, graph=name, error_bound=result.error_bound,
    ))
    print(f"absorb: t={t}, error_bound={result.error_bound:.3g}, "
          f"wrote {out / 'absorb.csv'}")
    return 0


def _cmd_resolvent(args) -> int:
    name, g, vel = _load_validated(args.graph)
    f = parse_state_file(args.state).state
    lam = _parse_lambda(args.lam)
    out = Path(args.out)
    mode = "unit" if _is_unit(vel, g) else "general"
    if vel is None:
        vel = VelocityProfile({}, default=Fraction(1))
    res = resolvent_general(g, vel, f, lam, grid=args.grid, tol=args.tol)
    if mode == "unit":
        meta = {
            "K_used": res.terms - 1 if res.terms else None, "tail_bound": res.tail_bound,
            "neumann_terms": None, "norm_Blambda": None,
        }
    else:
        meta = {
            "K_used": None, "tail_bound": res.tail_bound,
            "neumann_terms": res.metadata["neumann_terms"],
            "norm_Blambda": res.metadata["norm_Blambda"],
            "norm_Blambda_weighted": res.metadata["norm_Blambda_weighted"],
        }

    _write_samples(out, "resolvent", res.state, g)
    write_json(out / "resolvent.meta.json", _metadata(args, graph=name, mode=mode, **meta))
    print(f"resolvent: lambda={lam}, tail_bound={res.tail_bound:.3g}, "
          f"wrote {out / 'resolvent.csv'}")
    return 0


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
    name, g, vel = _load_validated(args.graph)
    if vel is None:
        raise MissingVelocityError(
            f"graph {name!r} has no velocities to approximate; add c lines")
    f = parse_state_file(args.state).state
    if args.t is None and args.lam is None:
        raise ValueError("approx needs --t (semigroup table) and/or --lambda (resolvent table)")
    levels = [part.strip() for part in args.levels.split(",") if part.strip()]
    if not levels:
        raise MalformedInputError("--levels needs a comma list of naturals")
    try:
        levels = [int(part) for part in levels]
    except ValueError:
        raise MalformedInputError(f"--levels must be integers, got {args.levels!r}")
    schedule = ApproximationSchedule.build(vel, levels, args.method)
    out = Path(args.out)

    meta = _metadata(args, graph=name)
    wrote = []
    if args.t is not None:
        t = _parse_time(args.t)
        if args.test:
            gs = [parse_state_file(p, cls=TestFunction).state for p in args.test]
        else:
            first = sorted(g.edge_ids, key=repr)[0]
            gs = [TestFunction.constant(SparseVector({first: Fraction(1)}))]
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
    if not payload["ok"]:
        return 2
    return 0


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
        return args.fn(args)
    except (MalformedInputError, NotRationalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PrecisionError, TruncationError, ContractionViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MalformedGraphError, MissingVelocityError, WidthOverflowError,
            WrongOperatorError, NetflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
