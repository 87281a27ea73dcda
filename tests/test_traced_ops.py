"""One traced op of each benchmark workload: the span tracer in
perfbench/tracer.py wraps the package's public names, so a module alias of a
wrapped object (say `_Step = Step`) breaks only a traced run.  The perfbench
modules are loaded from their files and left unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import perron

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracer, workloads = load("tracer"), load("workloads")


def bindings():
    """Every binding of the package and of each layer the tracer patches."""
    modules = [perron, *(importlib.import_module(f"perron.{layer}")
                         for layer in tracer.LAYERS)]
    return [(module, attr, obj) for module in modules
            for attr, obj in vars(module).items()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_op_checks_and_restores_every_name(name):
    for export in perron.__all__:  # load every lazy layer before tracing
        getattr(perron, export)
    workload = workloads.WORKLOADS[name](3)
    op = workload.op(0)
    before = bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        result = workload.run(op)
    finally:
        spans.uninstall()
    workload.check(op, result)
    assert len(spans.start) > 0
    assert [(module.__name__, attr) for module, attr, obj in before
            if getattr(module, attr) is not obj] == []
