"""netflow benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload unit-wide --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
library is imported from its `src`.  The run

  * sets the workload up in SETUP_PROBES fresh interpreters and once more in
    the measured worker, and reports the median set-up time (process start
    to first solve: import, input generation and parsing, validation,
    operator construction);
  * runs the worker's closed loop: one client, one solve at a time, each
    checked against an independent reference, no threads, NETFLOW_THREADS
    unset, for a fixed number of rounds that lasts about --seconds;
  * reports solve times at a reference CPU speed (see REF_CALIBRATION_S);
  * prints a report (machine block, failures, tail percentile) on stderr
    and, as the last line of stdout, the result object.

With --trace 1 it runs the traced worker instead and reports the
per-layer metrics of BENCHMARK.json.  Inputs, outputs and spans live in
`.perfbench/` inside the checkout; the inputs are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0
# Typical time of worker.calibrate() on the machine the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11.7).  That machine's CPU speed swings by
# up to 1.5x over ten-second spells, so times are reported at this
# reference speed: each solve time is scaled by REF_CALIBRATION_S over the
# mean of the two calibrations timed just before and just after it, each
# set-up time by REF_CALIBRATION_S over a calibration timed right after it.
REF_CALIBRATION_S = 0.02


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "NETFLOW_THREADS": _env().get("NETFLOW_THREADS"),  # as the worker sees it
    }


def _env() -> dict:
    env = dict(os.environ)
    env.pop("NETFLOW_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workdir: Path, tag: str, deadline: float, extra=()) -> tuple:
    """Run one worker; returns (its JSON result, seconds from spawn to ready
    at the reference CPU speed)."""
    sub = workdir / tag
    sub.mkdir(parents=True)
    out = sub / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(sub), "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker {tag} exited {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result["netflow"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"netflow was imported from {result['netflow']}, not {SRC}")
    setup = (result["ready"] - spawned) * REF_CALIBRATION_S / result["setup_calibration_s"]
    return result, setup


def tail(values) -> tuple:
    """(value, percentile) at the highest percentile that still has at
    least ten values above it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(setups, result) -> tuple:
    wall = result["solve_s"]
    cal = result["calibration_s"]
    times = [t * 2 * REF_CALIBRATION_S / (cal[i] + cal[i + 1]) for i, t in enumerate(wall)]
    failed = len(result["failures"])
    attempted = result["attempted"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solves_per_s": ((attempted - failed) / sum(times), "1/s"),
        "solve_p50_s": (statistics.median(times), "s"),
        "solve_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    report = {
        "solves": len(times),
        "rounds": result["rounds"],
        "failed_ratio": failed / attempted,
        "solve_tail_percentile": tail_pct,
        "calibration_median_s": statistics.median(cal),
        "wall_solve_p50_s": statistics.median(wall),
        "wall_solves_per_s": (attempted - failed) / sum(wall),
        "setup_samples_s": setups,
    }
    return metrics, report


def per_layer(result, units: dict) -> tuple:
    self_s = result["self_s"]
    counts = result["counts"]
    metrics = {}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        elif name == "trace.wall_s":
            value = result["wall_s"]
        elif name == "trace.coverage":
            value = result["coverage"]
        elif name == "trace.overhead":
            value = result["wall_s"] / result["plain_wall_s"] - 1
        else:
            value = counts.get(name, 0)
        metrics[name] = (value, unit)
    report = {
        "passes": result["passes"],
        "counts_repeat": result["counts_repeat"],
        "untraced_wall_s": result["plain_wall_s"],
        "counts": counts,
    }
    return metrics, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "netflow" / "__init__.py").is_file():
        print(f"error: no netflow sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; pick from {names}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker and the finally clause below removes the inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            spans = scratch / f"{args.workload}-seed{args.seed}.spans.jsonl"
            result, _ = _worker(args, workdir, "traced", deadline,
                                ["--trace", "1", "--seconds", str(args.seconds),
                                 "--spans", str(spans)])
            metrics, report = per_layer(result, {m["name"]: m["unit"] for m in spec["per_layer"]})
            report["spans_file"] = str(spans.relative_to(ROOT))
            attempted = result["solves"]
            failures = result["failures"]
            correct = not failures and result["counts_repeat"]
        else:
            setups = [_worker(args, workdir, f"setup{k}", deadline, ["--setup-only"])[1]
                      for k in range(SETUP_PROBES)]
            result, setup = _worker(args, workdir, "run", deadline,
                                    ["--seconds", str(args.seconds)])
            metrics, report = end_to_end(setups + [setup], result)
            attempted = result["attempted"]
            failures = result["failures"]
            correct = not failures
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    report.update(workload=args.workload, seed=args.seed, machine=_machine(),
                  failures=failures[:10])
    print(json.dumps({"report": report}, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
