"""Exact unimodular descent transforms and their applications.

Core: elementary row-sum steps drive a lexicographic measure down until a
pair of non-negative integer vectors becomes componentwise comparable, no
matter how an adversary picks within each proposed index set.  On top of
that sit a winning strategy for the polyhedra game, basis transforms that
give positive elements of ordered abelian groups non-negative coordinates,
and monomialization of polynomials under a monomial valuation.

The core (errors, transforms, tau, engine) loads with the package; game,
ordered_group and monomials load on first use of one of their names here,
so `import perron`, like a CLI call, compiles only the layers it runs.
"""

from importlib import import_module

from .engine import (Adversary, EngineTrace, FirstIndex, MaxGrowth, Scripted,
                     SeededRandom, advance_champion, choose_J, run_pair)
from .errors import (InteractiveAborted, InternalError, PerronError,
                     StepLimitExceeded, ValidationError)
from .tau import Comparability, comparability, reduce_pair, tau
from .transforms import (Matrix, Step, Trace, Vec, apply_matrix, apply_step,
                         compose_trace, determinant, natvec)

_LAZY = {name: module for module, names in (
    ("game", "GameOutcome game_tree is_won solve"),
    ("monomials", "MonomializationResult Polynomial Substitution ValuedRing "
                  "apply_substitution divisibility_transform monomialize "
                  "polynomial validate_ring"),
    ("ordered_group", "GroupBasis GroupElement GroupOrder LexVec "
                      "PositivizeAllResult PositivizeResult element_value "
                      "lex_sign lexvec positivize positivize_all simple_perron "
                      "validate_order"),
) for name in names.split()}


def __getattr__(name):
    """Import the layer that defines `name` and keep the name here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "Adversary", "Comparability", "EngineTrace", "FirstIndex", "GameOutcome",
    "GroupBasis", "GroupElement", "GroupOrder", "InteractiveAborted",
    "InternalError", "LexVec", "Matrix", "MaxGrowth", "MonomializationResult",
    "PerronError", "Polynomial", "PositivizeAllResult", "PositivizeResult",
    "Scripted", "SeededRandom", "Step", "StepLimitExceeded", "Substitution",
    "Trace", "ValidationError", "ValuedRing", "Vec", "advance_champion",
    "apply_matrix", "apply_step", "apply_substitution", "choose_J",
    "comparability", "compose_trace", "determinant", "divisibility_transform",
    "element_value", "game_tree", "is_won", "lex_sign", "lexvec",
    "monomialize", "natvec", "polynomial", "positivize", "positivize_all",
    "reduce_pair", "run_pair", "simple_perron", "solve", "tau",
    "validate_order", "validate_ring",
]
