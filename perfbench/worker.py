"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  It records the monotonic time at which set-up finished, so
run.py can measure process start to first solve, and writes everything
else as one JSON file (`--out`).

Untraced (`--trace 0`): a fixed number of whole rounds, one solve at a
time, each followed by its reference check.  The number is `--seconds`
over the workload's nominal round time, so every run of a workload does
the same work (and the tail percentile is the same), and a run lasts about
`--seconds` on the machine the nominal times were measured on.  A short
calibration loop runs after every solve; run.py uses its median to cancel
drift in CPU speed.

Traced (`--trace 1`): the same round 0, over and over, alternating an
untraced pass and a traced pass while another pair fits in `--seconds`; per-layer times are medians over the
traced passes, exact counts must repeat in every one of them, and the
overhead is the traced pass's wall time over the untraced pass's.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

# Per-solve cap, and the same again for its check.  Every case finishes
# in a few seconds on the seed code.
CAP_S = 30.0
# No new solve starts this long after the loop began, so that a regressed
# library still lets the whole run end within its time limit.
GUARD_S = 90.0


class Timeout(BaseException):
    """Raised by SIGALRM inside a capped call; a BaseException so no
    library `except Exception` can swallow it."""


def _alarm(signum, frame):
    raise Timeout()


def capped(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_case(case, check=None):
    """Solve, then check; returns (solve seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = capped(case.solve)
    except Timeout:
        return CAP_S, f"{case.name}: timeout"
    except Exception as exc:
        return time.perf_counter() - t0, f"{case.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        msg = capped(check or case.check, out)
    except Timeout:
        msg = "check timeout"
    except Exception as exc:
        msg = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, (f"{case.name}: {msg}" if msg else None)


def calibration_work() -> dict:
    """Fixed pure-Python work shaped like the library's hot loop (Fraction
    products summed into dicts keyed by edge id), independent of netflow."""
    vec = {j: Fraction(j % 7 + 1, j % 5 + 1) for j in range(600)}
    acc: dict = {}
    for k in range(8):
        w = Fraction(k + 1, 8)
        for j, x in vec.items():
            i = (7 * j + k) % 600
            acc[i] = acc.get(i, 0) + w * x
    return acc


def calibrate() -> float:
    """Fastest of two timings of calibration_work."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - t0)
    return best


def closed_loop(wl, seconds: float) -> dict:
    rounds = max(1, round(seconds / wl.round_s))
    guard = time.monotonic() + GUARD_S
    times, failures, names, calibration = [], [], [], [calibrate()]
    unstarted = 0
    for r in range(rounds):
        for case in wl.round(r):
            if times and time.monotonic() > guard:
                failures.append(f"{case.name}: not started, run past {GUARD_S:.0f} s")
                unstarted += 1
                continue
            elapsed, failure = run_case(case)
            times.append(elapsed)
            names.append(case.name)
            calibration.append(calibrate())
            if failure:
                failures.append(failure)
    return {"solve_s": times, "cases": names, "rounds": rounds, "failures": failures,
            "attempted": len(names) + unstarted,
            "calibration_s": calibration}


def traced_loop(wl, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    cases = wl.round(0)
    for case in cases:                      # warm-up pass, not recorded
        run_case(case)
    start = time.monotonic()
    plain_walls, walls, selfs, counts, failures = [], [], [], [], []
    while not walls or time.monotonic() + plain_walls[-1] + walls[-1] < start + min(seconds, GUARD_S):
        cases = wl.round(0)
        t0 = time.perf_counter()
        for case in cases:
            run_case(case)
        plain_walls.append(time.perf_counter() - t0)

        cases = wl.round(0)
        undo = tracer.install()
        tracer.reset()
        try:
            t0 = time.perf_counter()
            for case in cases:
                _, failure = run_case(
                    case, lambda out, case=case: tracer.span("bench.check", case.check, (out,), {}))
                if failure:
                    failures.append(failure)
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall(undo)
        selfs.append(dict(tracer.self_s))
        counts.append(tracer.round_counts())
    tracer.write_spans(spans_path)

    names = sorted(set().union(*selfs))
    self_s = {n: statistics.median(s.get(n, 0.0) for s in selfs) for n in names}
    coverage = [sum(s.values()) / w for s, w in zip(selfs, walls)]
    return {
        "self_s": self_s,
        "counts": counts[0],
        "counts_repeat": all(c == counts[0] for c in counts),
        "wall_s": statistics.median(walls),
        "plain_wall_s": statistics.median(plain_walls),
        "coverage": statistics.median(coverage),
        "passes": len(walls),
        "solves": len(walls) * len(cases),
        "failures": failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import workloads  # imports netflow: part of set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ready = time.monotonic()
    result = {"ready": ready, "netflow": workloads.netflow.__file__,
              "setup_calibration_s": statistics.median(calibrate() for _ in range(3))}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _alarm)
        if args.trace:
            result.update(traced_loop(wl, args.seconds, args.spans))
        else:
            result.update(closed_loop(wl, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
