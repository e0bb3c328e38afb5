"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --count K)
                                [--traced --spans FILE] [--setup-only]

Prints one JSON summary line.  `run.py` starts this process; it is not meant
to be run by hand, but can be.  With `--setup-only` it imports the program,
generates and parses the workload's first batch and prints `ready`; a timed
run starts such processes between the parts of its query loop and times
them as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SOLVER_LOG_ENV = "PERFBENCH_SOLVER_LOG"  # read by solver.py
# stop a fixed-count run that has become this slow, well inside the
# benchmark's per-run limit
MAX_BUSY_S = 120.0
# A timed run is cut into SEGMENTS parts with PROBES_PER_GAP set-up probes
# before each and after the last (12 probes).  The median latency is taken in
# windows of about WINDOW_S of query time and averaged.  Both because the
# host's speed alternates: a fixed Python loop ran at about 12.7 ms or 18.5 ms
# per pass for seconds at a time (2-vCPU VM, Python 3.11), and a median taken
# over a whole run, or over probes taken at one moment, picks one of the two
# speeds.  p90 is taken over the whole run: in windows of a dozen solver
# queries it would be the slowest query of each.
SEGMENTS = 5
PROBES_PER_GAP = 2
WINDOW_S = 2.0

PREFLIGHT = (
    ("unsat", "(set-logic ALL)\n(declare-const x Int)\n(assert (< x x))\n(check-sat)\n"),
    ("sat", "(set-logic ALL)\n(declare-const x Int)\n(assert (< x 3))\n(check-sat)\n"),
)


def preflight():
    """The solver must answer a known-unsat and a known-sat script, or every
    first-order query would silently degrade to Unknown."""
    from rcrs import analysis

    for want, script in PREFLIGHT:
        got = analysis.run_solver(script)
        if got != want:
            raise SystemExit(f"solver preflight: expected {want}, got {got}")


def run_one(workload, q, index, tracer):
    """(wall seconds, verdict label, problem or None) of one query; the
    outcome is checked outside the timer and then dropped."""
    start = perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(q)
        else:
            with tracer.query(index):
                outcome = workload.run(q)
    except Exception:  # a failed query is counted, and the run goes on
        return perf_counter() - start, None, traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    return (elapsed, *workload.check(q, outcome))


def setup_time(workload: str, seed: int) -> float:
    """Process start until the first query is ready, in a fresh process that
    imports the program, generates and parses the first batch and stops."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"{workload}: set-up failed")
    return elapsed


def interquartile_mean(values) -> float:
    """Mean of the middle half: as robust to a stray value as the median, but
    it moves smoothly as the share of values taken while the host is slow
    grows, where the median jumps from one speed to the other."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def windowed_median(times, busy) -> float:
    """Median of the query times in each of about busy / WINDOW_S runs of
    consecutive queries, of equal count, averaged over those windows."""
    n = len(times)
    w = max(1, min(round(busy / WINDOW_S), n))
    edges = [n * i // w for i in range(w + 1)]
    return statistics.fmean(statistics.median(times[lo:hi]) for lo, hi in zip(edges, edges[1:]))


def run_queries(workload, seconds, count, tracer, probes) -> dict:
    """The fixed queries once, then a closed loop with one client: the next
    query starts when the last one ended.  With `probes` the loop runs in
    SEGMENTS parts, and PROBES_PER_GAP set-up probes run before each part and
    after the last, while the loop waits, so that set-up is sampled across
    the whole run rather than at one moment of it."""
    results = [run_one(workload, q, i, tracer) for i, q in enumerate(workload.fixed)]
    fixed_s = sum(r[0] for r in results)
    stream = enumerate(workload.stream(), start=len(results))
    times, busy, setups = [], 0.0, []
    parts = SEGMENTS if probes else 1
    for part in range(1, parts + 1):
        if probes:
            setups += [setup_time(workload.name, workload.seed) for _ in range(PROBES_PER_GAP)]
        while True:
            if count is None:
                if busy >= seconds * part / parts:
                    break
            elif len(times) >= count or busy >= MAX_BUSY_S:
                break
            i, q = next(stream)
            results.append(run_one(workload, q, i, tracer))
            times.append(results[-1][0])
            busy += times[-1]
    if probes:
        setups += [setup_time(workload.name, workload.seed) for _ in range(PROBES_PER_GAP)]
    n = len(results)
    problems = [p for _, _, p in results if p is not None]
    summary = {
        "attempted": n,
        "failed": len(problems),
        "busy_s": busy,
        "fixed_s": fixed_s,
        # the fixed queries count here, so a slower oven query shows
        "queries_per_s": n / (busy + fixed_s),
        "query_p50_ms": windowed_median(times, busy) * 1e3,
        "query_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "decided_ratio": sum(label in ("Proven", "Refuted") for _, label, _ in results) / n,
        "error_ratio": len(problems) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems[:5],
    }
    if probes:
        summary["setup_s"] = interquartile_mean(setups)
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    os.environ["RCRS_SMT_SOLVER"] = shlex.join([sys.executable, str(HERE / "solver.py")])
    preflight()

    tracer = None
    solver_log = None
    if args.traced:
        import tracing

        solver_log = Path(args.spans).with_suffix(".solver")
        solver_log.write_text("")
        os.environ[SOLVER_LOG_ENV] = str(solver_log)
        tracer = tracing.Tracer()
        tracer.install()
    summary = run_queries(workload, args.seconds, args.count, tracer, probes=args.count is None)
    if tracer is not None:
        solver_ms = sum(float(x) for x in solver_log.read_text().split())
        summary["layers"] = tracer.layer_metrics(solver_ms)
        tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
