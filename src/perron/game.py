"""The polyhedra game: rules, win detection, and the champion strategy.

One player proposes J, the opponent picks j in J, and every tracked point
updates by the same step.  The proposer wins once some point is a
componentwise minimum of the set.  The strategy below keeps a champion that
is below every point already processed and attacks the first point the
champion cannot be compared with; steps preserve componentwise inequalities,
so settled points stay settled.
"""

from __future__ import annotations

from operator import ge, le
from typing import NamedTuple, Optional, Sequence

from .engine import Adversary, choose_J, drive
from .errors import ValidationError
from .tau import comparability
from .transforms import Step, Trace, Vec, apply_step, natvec


class GameOutcome(NamedTuple):
    final_vectors: tuple[Vec, ...]
    winner_index: int
    trace: Trace
    rounds: int


def _plain(vs: tuple) -> bool:
    """Whether vs is a non-empty tuple of plain tuples of non-negative ints,
    all of one non-zero length: one pass over the entries."""
    n = len(vs[0]) if vs and type(vs[0]) is tuple else 0
    for v in vs:
        if type(v) is not tuple or len(v) != n:
            return False
        for x in v:
            if type(x) is not int or x < 0:
                return False
    return n > 0


def _validated_vectors(vectors) -> tuple[Vec, ...]:
    """The start set as a tuple of natvecs sharing one dimension.

    A tuple or list of plain tuples of non-negative ints, all of one non-zero
    length, is taken as it is; anything else goes through natvec vector by
    vector, which raises the first error in input order.
    """
    vs = tuple(vectors) if type(vectors) is list else vectors
    if type(vs) is tuple and _plain(vs):
        return vs
    vs = tuple([natvec(v) for v in vectors])
    if not vs:
        raise ValidationError("vector list must be non-empty")
    n = len(vs[0])
    for v in vs:
        if len(v) != n:
            raise ValidationError("all vectors must share one dimension")
    return vs


def is_won(vectors: Sequence[Vec]) -> Optional[int]:
    """Index of a componentwise minimum (smallest index on ties), or None.

    v is below every point exactly when v is below the coordinatewise
    minimum of the set, that is when v equals it; one pass finds it.
    """
    vs = _validated_vectors(vectors)
    low = tuple(map(min, *vs)) if len(vs) > 1 else vs[0]
    return vs.index(low) if low in vs else None


def advance_champion(vectors: Sequence[Vec], champion_index: int) -> tuple[int, Optional[int]]:
    """Sweep the vectors in input order, absorbing everything comparable into
    the champion; return the updated champion index and the index of the first
    incomparable vector (None if the sweep completes).

    Strict inequalities survive steps, so the sweep is stable across rounds.
    """
    champ = champion_index
    c = vectors[champ] if vectors else None
    for i, v in enumerate(vectors):
        if i == champ:
            continue
        if len(c) != len(v):
            comparability(c, v)  # raises its dimension mismatch error
        if all(map(le, c, v)):
            continue
        if not all(map(ge, c, v)):
            return champ, i
        champ, c = i, v
    return champ, None


def game_tree(vectors, champion_index: int = 0):
    """Walk the champion strategy's adversary tree depth first, yielding one
    (path, vectors, champion, moves) per node.  path is the tuple of steps
    from the root; champion is the updated champion index, which every child
    inherits; moves is one (step, child) per j in sorted J, walked in that
    order, and is empty exactly when the position is won, the champion then
    being a componentwise minimum.  The start set is validated once, as solve
    validates it.  A pair is a two-point game.
    """
    stack = [((), _validated_vectors(vectors), champion_index)]
    while stack:
        path, vs, champ = stack.pop()
        champ, target = advance_champion(vs, champ)
        J = () if target is None else choose_J(vs[champ], vs[target])
        steps = [Step(J, j, len(vs[0])) for j in sorted(J)]
        moves = [(s, tuple([apply_step(s, v) for v in vs])) for s in steps]
        yield path, vs, champ, moves
        stack += [(path + (s,), child, champ) for s, child in reversed(moves)]


def solve(vectors, adversary: Adversary,
          step_limit: Optional[int] = None) -> GameOutcome:
    """Play the champion strategy to a won position, against any adversary.

    Each phase descends the champion and the first point it cannot be
    compared with, carrying the other points along; the sweep stays fixed
    until that pair is comparable, since steps preserve inequalities.  The
    winner is the final champion: it only ever moves to a strictly smaller
    point, so no earlier point equals it and it is is_won's answer.
    """
    vs = list(_validated_vectors(vectors))
    champ = 0

    def phase(rows):
        nonlocal champ
        champ, target = advance_champion(rows, champ)
        return None if target is None else (champ, target)

    steps = drive(vs, phase, adversary, step_limit,
                  f"game not won within {step_limit} rounds")
    return GameOutcome(tuple(vs), champ, steps, steps.rounds)

