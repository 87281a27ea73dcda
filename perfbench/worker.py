"""One fresh, single-threaded process per measurement.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds T
    python3 perfbench/worker.py trace   --workload W --seed N --seconds T

`setup` builds the workload's inputs and reports how long that took from the
top of this file, so importing perron is included.  `measure` runs the
workload as a closed loop: one op at a time, each checked by its oracle with
the clock stopped, until the ops have run for T nominal seconds (see
calibrate.py) and the last block of the input mix is complete.  `trace` does
the same, then replays the first ops of the run, each op untraced and then
with every perron call traced.  Each mode prints one JSON line.  The package
must be importable (run.py puts src/ on PYTHONPATH).
"""

import time

import calibrate

# Set-up lasts 0.05-1 s, so its speed samples come more often than the loop's.
SETUP = calibrate.Sampler(every=0.01).start()
T0 = time.perf_counter()  # set-up starts here, before perron is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Ops replayed under the tracer (a fixed prefix of the op sequence, so the
# traced counts repeat exactly for one seed and run length) and cold calls,
# sized for a RUN_SECONDS run and scaled to the run's length, at least MIN_OPS.
RUN_SECONDS = 12
TRACED_OPS = {"game-tree": 2000, "long-descent": 15, "cli-jobs": 800}
COLD_CALLS = 20
MIN_OPS = 3
SAMPLE_MARGIN = 1  # speed samples on each side of a window that scale it too
SPAN_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def scaled(count, seconds):
    return max(MIN_OPS, round(count * seconds / RUN_SECONDS))


def closed_loop(workload, seconds):
    """Run ops until `seconds` of (nominal) op time have passed and the block
    is whole; check each op with the clock stopped.

    Returns each op's latency in wall seconds and in nominal seconds, the
    summed tallies and the failures.  Ops are grouped in windows that close
    once a new speed sample has arrived (a long op is its own window); each
    window is scaled by the samples taken during it and a few on each side."""
    clock = time.perf_counter
    windows, window = [], []  # windows: (latencies, first sample, last sample)
    totals = workloads.tally()
    errors = []
    busy = 0.0
    k = 0
    with calibrate.Sampler() as sampler:
        first = 0
        while busy < seconds or k % workload.block:
            op = workload.op(k)
            spent = sampler.spent
            t = clock()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed op is counted, the loop goes on
                result = exc
            dt = clock() - t - (sampler.spent - spent)
            busy += dt * calibrate.NOMINAL_KERNEL_S / sampler.samples[-1]
            window.append(dt)
            k += 1
            if len(sampler.samples) > first + 1:
                windows.append((window, first, len(sampler.samples) - 1))
                window, first = [], len(sampler.samples) - 1
            if isinstance(result, Exception):
                errors.append(f"op {k - 1}: {type(result).__name__}: {result}")
                continue
            try:
                workloads.add_tally(totals, workload.check(op, result))
            except Exception as exc:
                errors.append(f"op {k - 1} oracle: {type(exc).__name__}: {exc}")
        time.sleep(calibrate.SAMPLE_EVERY_S * SAMPLE_MARGIN)
    if window:
        windows.append((window, first, len(sampler.samples) - 1))
    wall, nominal = [], []
    for latencies, a, b in windows:
        factor = sampler.factor(a - SAMPLE_MARGIN, b + SAMPLE_MARGIN)
        wall.extend(latencies)
        nominal.extend(x * factor for x in latencies)
    return wall, nominal, totals, errors


def tail(latencies):
    """(value, percentile, samples) at the highest percentile that leaves at
    least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def loop_report(wall, nominal, totals, errors):
    """Rates and latencies in nominal seconds, with the wall-clock figures
    alongside."""
    busy = sum(nominal)
    value, percentile, samples = tail(nominal)
    return {
        "attempted": len(nominal),
        "failed": len(errors),
        "errors": errors[:5],
        "busy_s": busy,
        "wall_busy_s": sum(wall),
        "ops_per_s": len(nominal) / busy,
        "wall_ops_per_s": len(wall) / sum(wall),
        "rounds_per_s": totals["rounds"] / busy,
        "nodes_per_s": totals["nodes"] / busy,
        "latency_ms_p50": 1e3 * statistics.median(nominal),
        "wall_latency_ms_p50": 1e3 * statistics.median(wall),
        "latency_ms_tail": 1e3 * value,
        "latency_tail_percentile": percentile,
        "latency_samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "totals": totals,
    }


def replay(workload, count, tracer):
    """Run ops 0..count-1 twice each, untraced and then traced, back to back
    so both runs of an op see the same machine speed; check the traced
    results afterwards.  Returns both op times and the summed tallies."""
    clock = time.perf_counter
    results = []
    untraced_s = traced_s = 0.0
    for k in range(count):
        op = workload.op(k)
        t = clock()
        workload.run(op)
        untraced_s += clock() - t
        tracer.install()
        tracer.op_id = k
        try:
            t = clock()
            results.append(workload.run(op))
            traced_s += clock() - t
        finally:
            tracer.uninstall()
    totals = workloads.tally()
    for k, result in enumerate(results):
        workloads.add_tally(totals, workload.check(workload.op(k), result))
    return untraced_s, traced_s, totals


def layer_metrics(table, nested, counts, totals):
    """The per-layer metrics BENCHMARK.json names, as (value, unit), from the
    span table, the nested-span counts, the counts read from return values
    and the traced ops' tallies.  A function never called reports 0."""
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    choose = [n for n in table if n.endswith(".choose")]
    out = {}
    for name in ("transforms.Step", "transforms.apply_step",
                 "transforms.compose_trace", "tau.comparability", "tau.tau",
                 "tau.reduce_pair", "engine.choose_J", "engine.run_pair",
                 "game.advance_champion", "game.solve", "game.is_won",
                 "ordered_group.positivize", "ordered_group.simple_perron",
                 "monomials.monomialize", "cli.main"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["transforms.natvec.calls"] = (calls("transforms.natvec"), "count")
    out["engine.adversary.choose.calls"] = (sum(calls(n) for n in choose), "count")
    out["engine.adversary.choose.self_s"] = (sum(self_s(n) for n in choose), "s")
    out["engine.run_pair.rounds"] = (counts.get("engine.run_pair.rounds", 0),
                                     "count")
    out["engine.run_pair.self_us_per_round"] = (
        per(self_s("engine.run_pair"), out["engine.run_pair.rounds"][0], 1e6), "us")
    out["engine.max_growth.useful_ratio"] = (
        per(calls("engine.MaxGrowth.choose"), nested["steps_in_max_growth"]),
        "ratio")
    out["game.advance_champion.comparisons_per_call"] = (
        per(nested["comparisons_in_advance_champion"],
            calls("game.advance_champion")), "count")
    out["game.solve.rounds"] = (counts.get("game.solve.rounds", 0), "count")
    out["game.solve.self_us_per_round"] = (
        per(self_s("game.solve"), out["game.solve.rounds"][0], 1e6), "us")
    out["ordered_group.positivize.steps"] = (
        counts.get("ordered_group.positivize.steps", 0), "count")
    for name in ("ordered_group.positivize_all", "ordered_group.validate_order",
                 "ordered_group.element_value", "monomials.validate_ring",
                 "monomials.apply_substitution"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["cli.main.self_ms_per_call"] = (
        per(self_s("cli.main"), calls("cli.main"), 1e3), "ms")
    # Only the game-tree walk has leaves; elsewhere "nodes" counts trace positions.
    out["game_tree.nodes"] = (totals["nodes"] if totals["leaves"] else 0, "count")
    out["game_tree.leaves"] = (totals["leaves"], "count")
    out["game_tree.max_depth"] = (totals["max_depth"], "count")
    out["max_entry_bits"] = (totals["max_entry_bits"], "count")
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall_s = time.perf_counter() - T0 - SETUP.spent
    SETUP.stop()
    setup_s = setup_wall_s * SETUP.factor(0, len(SETUP.samples) - 1)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    wall, nominal, totals, errors = closed_loop(workload, args.seconds)
    report = loop_report(wall, nominal, totals, errors)
    report["setup_s"] = setup_s
    report["setup_wall_s"] = setup_wall_s
    if args.mode == "measure":
        report["cold_jobs"] = workloads.cli_jobs(
            args.seed, scaled(COLD_CALLS, args.seconds))
    else:
        count = scaled(TRACED_OPS[args.workload], args.seconds)
        tracer = Tracer()
        untraced_s, traced_s, traced_totals = replay(workload, count, tracer)
        table, nested = tracer.summary()
        tracer.write(SPAN_DIR / f"spans-{workload.name}.bin",
                     {"workload": workload.name, "seed": args.seed, "ops": count})
        report["traced_ops"] = count
        report["trace_overhead_ratio"] = traced_s / untraced_s
        report["layers"] = layer_metrics(table, nested, dict(tracer.counts),
                                         traced_totals)
        report["span_table"] = table
    print(json.dumps(report))


if __name__ == "__main__":
    main()
