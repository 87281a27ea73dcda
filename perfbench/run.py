"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: game-tree, long-descent, cli-jobs (see perfbench/README.md).

--trace 0 prints the end-to-end metrics: set-up time (median of several fresh
set-ups), throughput and median latency of a closed-loop run in a fresh
worker process, its peak RSS, and the median wall time of one cold
`python -m perron` call.  --trace 1 prints the per-layer metrics of a traced
run.  Every op's output is checked by an exact oracle; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
The package is not installed: workers run with PYTHONPATH=src.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7       # fresh set-ups per run; setup_s is their median
BASELINE_REPEATS = 7    # bare-interpreter and import timings in a traced run
WORKER_TIMEOUT_S = 150
CALL_TIMEOUT_S = 30
NOMINAL_STARTUP_MS = 70.0  # bare interpreter start that cold calls scale to


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def worker(mode, args, env):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_ms(cmd, env, stdin_text=None):
    """Wall time of one subprocess, and the process itself."""
    t = time.perf_counter()
    proc = subprocess.run(cmd, env=env, input=stdin_text, capture_output=True,
                          text=True, timeout=CALL_TIMEOUT_S)
    return 1e3 * (time.perf_counter() - t), proc


def cold_calls(jobs, env):
    """Median ms of `python -m perron` calls made one at a time, after one
    untimed call so bytecode caches exist; then check every output.

    Each call sits between two bare `python -c pass` starts and is scaled by
    NOMINAL_STARTUP_MS over their mean, which cancels the machine's changing
    process-start cost; the wall-time median is returned too."""
    cmd = [sys.executable, "-m", "perron"]
    bare = [sys.executable, "-c", "pass"]
    wall_ms(cmd + jobs[0][0], env, jobs[0][1])
    timed = []
    before = wall_ms(bare, env)[0]
    for argv, text in jobs:
        ms, proc = wall_ms(cmd + argv, env, text)
        after = wall_ms(bare, env)[0]
        nominal = ms * NOMINAL_STARTUP_MS / ((before + after) / 2)
        timed.append((argv, text, ms, nominal, proc))
        before = after
    sys.path.insert(0, env["PYTHONPATH"])
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # after timing: the oracle needs perron itself
    failures = []
    for argv, text, _, _, proc in timed:
        try:
            workloads.check_cli_output(argv, text, proc.returncode, proc.stdout)
        except Exception as exc:
            failures.append(f"cold call {argv}: {type(exc).__name__}: {exc}")
    return (statistics.median(t[3] for t in timed),
            statistics.median(t[2] for t in timed), failures)


def end_to_end(args, env):
    setups = [worker("setup", args, env)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    run = worker("measure", args, env)
    setups.append(run["setup_s"])
    cold_ms, cold_wall_ms, cold_failures = cold_calls(run["cold_jobs"], env)
    attempted = run["attempted"] + len(run["cold_jobs"])
    failed = run["failed"] + len(cold_failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "latency_ms_p50": (run["latency_ms_p50"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "rounds_per_s": (run["rounds_per_s"], "1/s"),
        "nodes_per_s": (run["nodes_per_s"], "1/s"),
        "cold_call_ms": (cold_ms, "ms"),
    }
    detail = {k: run[k] for k in ("busy_s", "wall_busy_s", "wall_ops_per_s",
                                  "wall_latency_ms_p50", "latency_ms_tail",
                                  "latency_tail_percentile", "latency_samples",
                                  "totals", "errors")}
    detail.update(setups_s=setups, setup_wall_s=run["setup_wall_s"],
                  cold_call_wall_ms=cold_wall_ms,
                  cold_failures=cold_failures[:5])
    return metrics, attempted, failed, detail


def per_layer(args, env):
    startup = statistics.median(
        wall_ms([sys.executable, "-c", "pass"], env)[0]
        for _ in range(BASELINE_REPEATS))
    probe = ("import time; t = time.perf_counter(); import perron.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(BASELINE_REPEATS):
        _, proc = wall_ms([sys.executable, "-c", probe], env)
        if proc.returncode != 0:
            raise BenchmarkError(f"import perron.cli failed:\n{proc.stderr}")
        imports.append(1e3 * float(proc.stdout))
    run = worker("trace", args, env)
    metrics = {name: tuple(value) for name, value in run["layers"].items()}
    metrics.update({
        "cli.import_ms": (statistics.median(imports), "ms"),
        "python_startup_ms": (startup, "ms"),
        "trace_overhead_ratio": (run["trace_overhead_ratio"], "ratio"),
        "traced_ops": (run["traced_ops"], "count"),
        "failed_ratio": (run["failed"] / run["attempted"], "ratio"),
        "latency_ms_tail": (run["latency_ms_tail"], "ms"),
        "latency_tail_percentile": (run["latency_tail_percentile"], "%"),
        "latency_samples": (run["latency_samples"], "count"),
    })
    detail = {"errors": run["errors"], "span_table": run["span_table"]}
    return metrics, run["attempted"], run["failed"], detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("game-tree", "long-descent", "cli-jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "perron" / "__init__.py").is_file():
        print(f"perfbench: no perron package under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, detail = measure(args, env)
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
