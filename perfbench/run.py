"""The rcrs benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in fresh processes (worker.py) against the sources in
`src/`, prints one row per workload with every metric and its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: after the workload's fixed queries,
one client in a closed loop for S seconds of query time, each outcome checked
outside the timer; set-up time comes from fresh processes that import,
generate and parse, started between the parts of the loop.
--trace 1 reports per-layer metrics from a fixed number of queries run twice,
in two fresh processes: once plain and once with the tracer installed.

Exits non-zero without a result line when the sources are missing, the
solver preflight fails or a workload process fails.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("fo-queries", "oracle-equiv", "temporal", "symbolic")
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# printed in the table only: error_ratio is 0 at a correct commit, so the
# driver gets it as `failed` / `attempted`; fixed_s is the time of the
# queries run once before the query loop (the oven refinement in temporal),
# which counts in queries_per_s
TABLE_ONLY = (("error_ratio", "ratio"), ("fixed_s", "s"))
# queries of a traced run: fixed, so that counts repeat exactly for a seed
TRACE_QUERIES = {"fo-queries": 21, "oracle-equiv": 60, "temporal": 200, "symbolic": 60}
WORKER_TIMEOUT_S = 170
# a fixed hash seed makes set and dict iteration inside the program, and so
# its work per query, the same from run to run
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    pass


def build():
    """Byte-compile the program and the benchmark, as an installed package
    would be, so set-up and solver spawns do not recompile on every start."""
    for directory in (SRC, HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise BenchmarkError(f"cannot compile {directory}")


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rcrs").rglob("*.py")):
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except OSError:
        rev = ""
    return {
        "python": platform.python_version(),
        "git_rev": rev or "none",
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def worker(workload, seed, *extra) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, env=WORKER_ENV
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, args) -> tuple[dict, dict]:
    """(summary, {metric: (value, unit)}) of one workload."""
    if not args.trace:
        summary = worker(workload, args.seed, "--seconds", str(args.seconds))
        metrics = {name: (summary[name], unit) for name, unit in END_TO_END + TABLE_ONLY}
        return summary, metrics
    count = str(TRACE_QUERIES[workload])
    plain = worker(workload, args.seed, "--count", count)
    spans = OUT / f"spans-{workload}-seed{args.seed}.jsonl"
    traced = worker(workload, args.seed, "--count", count, "--traced", "--spans", str(spans))
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    summary = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
    }
    return summary, {name: (layers[name], unit) for name, unit, _ in LAYER_METRICS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)

    if not (SRC / "rcrs" / "__init__.py").is_file():
        print(f"error: no rcrs sources under {SRC}", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        build()
        OUT.mkdir(exist_ok=True)
        env = environment(args)
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
        results = {}
        for workload in selected:
            summary, metrics = measure(workload, args)
            results[workload] = (summary, metrics)
            cells = "  ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
            print(f"{workload:<13} attempted={summary['attempted']} failed={summary['failed']}  {cells}", flush=True)
            for problem in summary["problems"]:
                print(f"  {workload} failure: {problem.strip()}", file=sys.stderr)
            record = {"env": env, "workload": workload, "summary": summary,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
            (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1)
            )
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    def reported(metrics):
        keep = {name for name, _ in TABLE_ONLY}
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in keep}

    if len(selected) == 1:
        summary, metrics = results[selected[0]]
        out_metrics = reported(metrics)
    else:
        out_metrics = {
            f"{w}.{k}": v for w, (_, metrics) in results.items() for k, v in reported(metrics).items()
        }
    attempted = sum(s["attempted"] for s, _ in results.values())
    failed = sum(s["failed"] for s, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
