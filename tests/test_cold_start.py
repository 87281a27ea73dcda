"""What a cold process loads: each check runs in a fresh interpreter without
the site module (-S), so no site hook loads a module first, and modules a
bare `python -S -c pass` loads do not count."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
UPPER = {"perron.game", "perron.ordered_group", "perron.monomials"}
HEAVY = {"dataclasses", "inspect", "argparse", "gettext"}
RATIONALS = {"fractions", "decimal"}  # only the group jobs read rationals
SEEDED = {"random"}  # only a seeded adversary draws


def python(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60)


def imported(*args, stdin=None):
    """Modules `python -S -X importtime ARGS` imports beyond a bare start,
    and the process's stdout."""
    def names(proc):
        return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    proc = python("-S", "-X", "importtime", *args, stdin=stdin)
    return names(proc) - names(python("-S", "-X", "importtime", "-c", "pass")), proc.stdout


JOBS = {
    "compare": '{"alpha":[3,1],"beta":[1,2]}',
    "game solve": '{"vectors":[[3,1],[1,2]]}',
    "positivize": '{"generator_images":[["1","0"],["1/7","1"]],'
                  '"elements":[[9,-40]]}',
    "monomialize": '{"num_vars":2,"num_toric":2,"values":[["1","0"],["0","1"]],'
                   '"polynomial":[{"coeff":"1","exponents":[1,0]},'
                   '{"coeff":"1","exponents":[0,1]}]}',
}
NOT_LOADED = {
    "compare": HEAVY | RATIONALS | UPPER | SEEDED,
    "game solve": HEAVY | RATIONALS | SEEDED | {"perron.ordered_group",
                                                "perron.monomials"},
    "positivize": HEAVY | SEEDED | {"perron.game", "perron.monomials"},
    "monomialize": HEAVY | SEEDED | {"perron.game"},
}


@pytest.mark.parametrize("command", list(JOBS))
def test_a_cli_call_loads_only_its_subcommands_layers(command):
    loaded, out = imported("-m", "perron", *command.split(), stdin=JOBS[command])
    assert json.loads(out)["status"] == "ok"
    assert "perron.cli" in loaded
    assert not loaded & NOT_LOADED[command]


def test_only_a_seeded_adversary_loads_random():
    job = '{"alpha":[3,1],"beta":[1,2],"adversary":{"kind":"random","seed":1}}'
    loaded, out = imported("-m", "perron", "compare", stdin=job)
    assert json.loads(out)["status"] == "ok"
    assert SEEDED <= loaded
    assert not loaded & (HEAVY | RATIONALS | UPPER)


def test_import_perron_loads_the_core_only():
    loaded, _ = imported("-c", "import perron")
    assert {"perron.transforms", "perron.tau", "perron.engine"} <= loaded
    assert not loaded & (HEAVY | UPPER)


def test_the_oracles_are_defined_in_tests_only():
    """step_matrix, element_compare, monomial_value and substitute_exponents
    live in conftest.py, and the CLI leaves reading a polynomial to
    monomialize."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(SRC, "perron").glob("*.py")}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"step_matrix", "element_compare", "monomial_value",
                          "substitute_exponents"}
    assert "polynomial" not in {alias.name for node in ast.walk(trees["cli.py"])
                                if isinstance(node, ast.ImportFrom)
                                for alias in node.names}


# names the package no longer exports: the four still in use live on in their
# layers, and step_matrix, element_compare and monomial_value are test oracles
# (conftest.py)
REMOVED = ("step_matrix", "identity_matrix", "element_compare", "intvec",
           "substitute_exponents", "monomial_value", "Tau")

RESOLVE = """
import importlib, json, sys, types
from perron import tau
import perron
core = [name for name, value in vars(perron).items() if not name.startswith("_")
        and any(vars(importlib.import_module(f"perron.{layer}")).get(name) is value
                for layer in ("errors", "transforms", "tau", "engine"))]
layers = [importlib.import_module(f"perron.{name}") for name in (
    "errors", "transforms", "tau", "engine", "game", "ordered_group",
    "monomials")]
bad = [name for name in perron.__all__
       if not any(hasattr(m, name) for m in layers)
       or any(getattr(m, name) is not getattr(perron, name)
              for m in layers if hasattr(m, name))]
removed = [name for name in sys.argv[1:] if hasattr(perron, name)]
print(json.dumps([bad, isinstance(tau, types.FunctionType),
                  perron.tau is tau, tau.__module__,
                  perron.__all__, core, list(perron._LAZY), removed]))
"""


def test_every_exported_name_is_its_layers_object():
    proc = python("-c", RESOLVE, *REMOVED)
    assert proc.returncode == 0, proc.stderr
    bad, is_function, same, module, exported, core, lazy, removed = \
        json.loads(proc.stdout)
    assert bad == []
    assert is_function and same and module == "perron.tau"
    # __all__ is the core imports plus the lazy names, each once
    assert len(exported) == len(set(exported)) == 53
    assert not set(core) & set(lazy)
    assert sorted(exported) == sorted(core + lazy)
    assert removed == [] and not set(REMOVED) & set(exported)
