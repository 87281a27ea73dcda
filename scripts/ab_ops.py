#!/usr/bin/env python3
"""Size a change by interleaved A/B of one benchmark workload in one process.

    python scripts/ab_ops.py [--rev REV] --workload W [--pairs N]

Exports REV's src/ with `git archive`, as scripts/differential.py does, and
loads REV's perron (A) and the working tree's (B, uncommitted edits
included) side by side in this one process.  Without --rev, A is a second
load of the working tree: an A/A run, which shows the tool's own noise.
The ops come from perfbench/workloads.py, used read-only and seeded with
SEED: each tree gets its own copy of that module, and both run the same op
inputs.  Batches of BATCH[W] ops alternate between the trees in ABBA order,
so slow drift of the machine falls on both alike; each op of the first pair
is checked by the workload's exact oracle, untimed.  Prints one line: the
median of the per-pair time ratios B/A, their quartiles, and in how many
pairs B was faster.  A ratio below 1 means the working tree is faster.

The trees are isolated: every name in perron.__all__ is resolved after
import, so each tree's lazy layers are loaded from that tree, and before
each batch every perron* entry of sys.modules is swapped for that tree's, so
a module imported at call time is the batch's tree's too.

This complements perfbench/run.py, which times each side in its own fresh
process: ratios of batches a second apart see the same machine state, so a
few-percent change shows on a VM whose run-to-run spread hides it.
"""

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BATCH = {"game-tree": 40, "long-descent": 30, "cli-jobs": 80}  # 1-20 ms of ops each
SEED = 101


def perron_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "perron" or name.startswith("perron.")}


def load_tree(src, tag):
    """(perron* modules, workloads module) of the package under src, loaded
    fresh; sys.modules and sys.path are left as they were."""
    saved = perron_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        perron = importlib.import_module("perron")
        for name in perron.__all__:  # loads every lazy layer from this tree
            getattr(perron, name)
        importlib.import_module("perron.cli")
        spec = importlib.util.spec_from_file_location(f"ab_workloads_{tag}", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)  # its `import perron` binds this tree's
        modules = perron_modules()
    finally:
        sys.path.remove(str(src))
        for name in perron_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return modules, workloads


def activate(modules):
    """Make `modules` the perron* entries of sys.modules."""
    for name in perron_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def batch_seconds(tree, ops):
    """Wall seconds of one batch on one tree, with its modules swapped in."""
    modules, workload = tree
    activate(modules)
    gc.collect()
    run, clock = workload.run, time.perf_counter
    t = clock()
    for op in ops:
        run(op)
    return clock() - t


def compare(src_a, src_b, workload_name, pairs):
    """Per-pair time ratios B/A over `pairs` ABBA pairs of batches."""
    batch = BATCH[workload_name]
    trees = []
    for tag, src in (("a", src_a), ("b", src_b)):
        modules, workloads = load_tree(src, tag)
        activate(modules)
        trees.append((modules, workloads.WORKLOADS[workload_name](SEED)))
    source = trees[1][1]
    batches = [[source.op(k) for k in range(i * batch, (i + 1) * batch)]
               for i in range(pairs)]
    for tree in trees:  # each tree's answers to the first batch, checked
        activate(tree[0])
        for op in batches[0]:
            tree[1].check(op, tree[1].run(op))
    ratios = []
    for i, ops in enumerate(batches):
        order = (0, 1) if i % 2 == 0 else (1, 0)  # A B, B A, A B, ...
        seconds = {k: batch_seconds(trees[k], ops) for k in order}
        ratios.append(seconds[1] / seconds[0])
    return ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to compare the working tree "
                        "with (default: the working tree itself, an A/A run)")
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--pairs", type=int, default=200, help="batch pairs (200)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    src_b = ROOT / "src"
    with tempfile.TemporaryDirectory(prefix="perron-ab-") as tmp:
        if args.rev:
            sys.path.insert(0, str(ROOT / "scripts"))
            from differential import export
            src_a = export(args.rev, tmp)
        else:
            src_a = src_b
        ratios = compare(src_a, src_b, args.workload, args.pairs)
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload} {args.rev or 'working tree'} -> working tree: "
          f"time ratio median {median:.3f} (IQR {q1:.3f}-{q3:.3f}), "
          f"faster in {wins} of {len(ratios)} pairs of {BATCH[args.workload]} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
