"""scripts/ab_ops.py: an A/A run on the working tree, with no git, and the
isolation of the two trees it loads into one process."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_ops.py"


def test_an_a_a_run_prints_one_summary_line():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", "long-descent",
                           "--pairs", "4"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(
        r"long-descent working tree -> working tree: time ratio median \d+\.\d{3} "
        r"\(IQR \d+\.\d{3}-\d+\.\d{3}\), faster in [0-4] of 4 pairs of 30 ops\n",
        proc.stdout)


def test_each_tree_runs_on_its_own_modules():
    """The lazily loaded layers of each tree use that tree's engine, and
    loading a tree leaves sys.modules as it was."""
    spec = importlib.util.spec_from_file_location("ab_ops", SCRIPT)
    ab_ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_ops)
    before = ab_ops.perron_modules()
    (a, workloads_a), (b, workloads_b) = (ab_ops.load_tree(ROOT / "src", tag)
                                          for tag in "ab")
    assert ab_ops.perron_modules() == before
    for modules, workloads in ((a, workloads_a), (b, workloads_b)):
        assert workloads.perron is modules["perron"]
        assert modules["perron.ordered_group"].drive is modules["perron.engine"].drive
        assert modules["perron.game"].drive is modules["perron.engine"].drive
    assert a["perron.engine"] is not b["perron.engine"]
    assert a["perron.ordered_group"] is not b["perron.ordered_group"]
