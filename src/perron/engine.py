"""Descent of a vector pair to componentwise comparability.

choose_J builds an index set J such that applying the step (J, j) strictly
decreases tau for EVERY j in J, so the opponent's choice of j never matters.
drive plays every job as one game, the polyhedra game's champion strategy:
run_pair on the pair, solve on the start set, positivize on the origin and
the elements.  Its one loop descends each phase's pair against an adversary
until the pair is comparable; termination follows from the well-ordering of
the measure.  It plays runs of identical steps in one go (the division form
of the descent, as in multiplicative Euclid or Brun), so lopsided pairs need
few iterations.
"""

from __future__ import annotations

from functools import cached_property
from operator import ge, le, sub
from typing import NamedTuple, Optional, Sequence

from .errors import InteractiveAborted, InternalError, StepLimitExceeded, ValidationError
from .tau import Comparability, Tau, _check_dims, _tau_of, comparability
from .transforms import (Step, Trace, Vec, _is_int, _step, apply_run, apply_step, commute,
                         natvec)

class Adversary:
    """Picks j from a proposed J, seeing the tracked vectors and round number,
    and says for how many more rounds its answers hold.  drive reports each
    run it plays to _after_run, which does nothing here."""

    def choose(self, J: frozenset[int], vectors: Sequence[Vec], round_no: int) -> int:
        raise NotImplementedError

    def repeat(self, block: Sequence[Step], limit: int) -> int:
        """How many more times, 0..limit, the adversary would answer block's
        steps again, round by round, while their J come back.  drive asks it
        for the step just chosen and for a block just played twice (after a
        0, twice more); the descent may stop sooner.  Here 0: choose each round."""
        return 0

    def _after_run(self, block: Sequence[Step], m: int) -> None:
        """The descent has just played block m times: once per run."""


class FirstIndex(Adversary):
    """Always the smallest index in J: an answer by J alone, so it holds for
    whole runs and blocks, unless a subclass overrides choose."""

    def choose(self, J, vectors, round_no):
        return min(J)

    def repeat(self, block, limit):
        return limit if type(self).choose is FirstIndex.choose else 0


class SeededRandom(Adversary):
    """Uniform choice; the whole choice sequence is a pure function of the
    seed.  random.Random seeds with |seed|, so seeds s and -s draw alike."""

    def __init__(self, seed: int):
        import random  # loaded by the seeded adversary alone
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, J, vectors, round_no):
        return self._rng.choice(sorted(J))


class MaxGrowth(Adversary):
    """Greedy: maximize the total entry sum over all tracked vectors after the
    step; ties broken by the smallest index.  (J, j) adds the J-entries but
    entry j to each total, so the j with the smallest column sum wins."""

    def choose(self, J, vectors, round_no):
        return min(sorted(J), key=[0, *map(sum, zip(*vectors))].__getitem__)


class Scripted(Adversary):
    """Replays a fixed list of choices, falling back to the smallest index in J
    once the script is exhausted."""

    def __init__(self, choices: Sequence[int]):
        self.choices = list(choices)
        self._script = iter(self.choices)

    def choose(self, J, vectors, round_no):
        return next(self._script, min(J))


def _J_rule(d: Sequence[int]):
    """(J, swapped, order) for a pair with difference d = alpha - beta, or
    None when the pair is comparable.

    swapped says the roles were swapped to put the smaller reduced norm
    first; order lists the larger side's support by falling residual.  J is
    the smaller side's support plus the shortest prefix of order whose
    residuals cover that side's norm: that makes tau drop for every j.  The
    triple fixes every sign of d and the prefix length too, so equal triples
    mean every branch here went alike.  One pass over d sums both norms and
    collects each side's (key, index) pairs; only the larger side is sorted.
    """
    na = nb = 0
    pos, neg, i = [], [], 0  # keys sort by falling residual, then by index
    for x in d:
        i += 1
        if x > 0:
            na += x
            pos.append((-x, i))
        elif x < 0:
            nb -= x
            neg.append((x, i))
    if not na or not nb:
        return None
    swapped = na > nb
    large, small, need = (pos, neg, nb) if swapped else (neg, pos, na)
    large.sort()
    J = [i for _, i in small]
    acc = 0
    for key, i in large:
        J.append(i)
        acc -= key
        if acc >= need:
            break
    return frozenset(J), swapped, [i for _, i in large]


def choose_J(alpha: Vec, beta: Vec) -> frozenset[int]:
    """Index set J such that tau strictly decreases for every choice of j in J.

    Requires the pair to be incomparable (both reduced parts non-zero).
    """
    _check_dims(alpha, beta)
    rule = _J_rule(list(map(sub, alpha, beta)))
    if rule is None:
        raise ValidationError("pair is already comparable; no J to choose")
    return rule[0]


class _EngineTraceFields(NamedTuple):
    steps: Trace
    outcome: Comparability
    final_alpha: Vec
    final_beta: Vec
    alpha: Vec
    beta: Vec


class EngineTrace(_EngineTraceFields):
    """Record of one descent run: steps taken, the final relation and pair,
    and the start pair.  No __slots__: tau_history is cached in __dict__."""

    @property
    def rounds(self) -> int:
        return self.steps.rounds

    @cached_property
    def tau_history(self) -> tuple[Tau, ...]:
        """tau before each step and after the last, replayed from the start.
        Steps are linear, so d = alpha - beta moves by them too."""
        d = list(map(sub, self.alpha, self.beta))
        out = [_tau_of(d)]
        for s in self.steps:
            d = apply_step(s, d)
            out.append(_tau_of(d))
        return tuple(out)


def _run_length(tests: Sequence[tuple], limit: int) -> int:
    """_repeat_count's answer in closed form: each decision of _J_rule on an
    unswapped state d + t*delta is a test a + t*b >= 0 (or > 0) that holds
    at t = 0, so for b < 0 it holds up to (a - strict) // -b, and otherwise
    for ever.  One pass over the entries, then one over order, finds the
    least of limit and these ends: each entry's sign (a zero stays zero),
    each adjacent pair of order (falling residual, then index), na <= nb and
    the prefix cut (order's residuals before its L-th fall short of na, with
    it reach it).  It checks nothing: _repeat_count confirms it with _J_rule.
    """
    c = limit
    for d, delta, (J, _, order) in tests:
        a = b = i = 0  # a, b: d and delta over J, the positive entries then order's prefix
        for x, y in zip(d, delta):  # each entry keeps its sign, and a zero stays zero
            if x > 0:
                a, b = a + x, b + y
            if (x > 0 > y or x < 0 < y) and (e := (abs(x) - 1) // abs(y)) < c:
                c = e
            elif y and not x:
                return 0
        for k in order:  # each entry stays at or above the one before it, i's (u, v)
            x, y = d[k - 1], delta[k - 1]
            if i and y < v and (e := (x - u - (i > k)) // (v - y)) < c:
                c = e
            if k in J:  # the prefix, up to its last entry (x, y)
                a, b, lx, ly = a + x, b + y, x, y
            i, u, v = k, x, y
        for x, y, strict in ((-sum(d), -sum(delta), 0),  # na <= nb
                             (a - lx, b - ly, 1), (-a, -b, 0)):  # the cut
            if y < 0 and (e := (x - strict) // -y) < c:
                c = e
    return c


def _repeat_count(rounds: Sequence[tuple], shift: list[int], limit: int) -> int:
    """How many more times, at most limit >= 1, a block of rounds repeats.

    rounds[i] starts with (d, rule): d = alpha - beta at the start of round i
    of one repetition, incomparable, and rule = _J_rule(d).  Every repetition
    shifts each d by `shift`.  Counts the repetitions t = 1, 2, ... in which
    every round decides like its counterpart in repetition 0: same _J_rule
    triple, hence same signs and prefix cut, or a norm tie on repetition 0's
    side (J is then the whole support of d), so a run that ends at a tie is
    one run.  Each decision is the sign of a + t*b for integers a and b that
    holds at t = 0, and a tie is the edge of the test that sets swapped, so
    the repetitions that decide alike form an interval.  Repetition 1 is
    probed first, so a run of one round costs one probe; otherwise
    _run_length gives the interval's end c in closed form, and two probes
    confirm it: c decides alike and c + 1, when within limit, does not.  So
    _J_rule stays the one definition of a decision, and a call makes at most
    three probes whatever the entry size.  _repeat turns away a zero answer.
    """
    # _J_rule puts a tie on the unswapped side, so a swapped round tests -d
    tests = [([-x for x in d], [-y for y in shift], (J, False, order))
             if swapped else (d, shift, (J, False, order))
             for d, (J, swapped, order), *_ in rounds]

    def same(t):
        for d, delta, rule in tests:
            if _J_rule([x + t * y for x, y in zip(d, delta)]) != rule:
                return False
        return True

    if not same(1):
        return 0
    c = _run_length(tests, limit)
    if not 0 < c <= limit or c > 1 and not same(c) or c < limit and same(c + 1):
        raise InternalError(f"closed-form run length {c} disagrees with _J_rule")
    return c


def _repeating_block(played, rule) -> list:
    """The last p of the single rounds just played, when they end with two
    equal repetitions of p steps that commute (see transforms.commute) and
    the coming round, the first of a third repetition, decides alike (same
    _J_rule triple); else []."""
    for p in range(2, len(played) // 2 + 1):
        if played[-p][1] != rule:
            continue
        block = [r[2] for r in played[-p:]]
        if block == [r[2] for r in played[-2 * p:-p]] and commute(block):
            return played[-p:]
    return []


def advance_champion(vectors: Sequence[Vec], champion_index: int) -> tuple[int, Optional[int]]:
    """Sweep the vectors in input order, absorbing everything comparable into
    the champion; return the updated champion index and the index of the first
    incomparable vector (None if the sweep completes).

    Strict inequalities survive steps, so the sweep is stable across rounds.
    A champion index that is not an int (a bool is not) or lies outside the
    set raises ValidationError; an empty set returns (champion_index, None).
    """
    champ = champion_index
    if type(champ) is not int or not 0 <= champ < len(vectors):
        if not _is_int(champ):
            raise ValidationError(f"champion index must be an integer, got {champ!r}")
        if not vectors:
            return champ, None
        if not 0 <= champ < len(vectors):
            raise ValidationError(
                f"champion index {champ!r} is outside 0..{len(vectors) - 1}")
    c = vectors[champ]
    for i, v in enumerate(vectors):
        if i == champ:
            continue
        if len(c) != len(v):
            _check_dims(c, v)
        if all(map(le, c, v)):
            continue
        if not all(map(ge, c, v)):
            return champ, i
        champ, c = i, v
    return champ, None


def _repeat(adversary: Adversary, rounds: Sequence[tuple], limit: int) -> int:
    """adversary.repeat's answer for the block of rounds, checked to be an int
    (a bool is not) in 0..limit, and cut by _repeat_count when above 0."""
    block = [r[2] for r in rounds]
    k = adversary.repeat(block, limit)
    if not _is_int(k) or not 0 <= k <= limit:
        raise ValidationError(f"adversary repeat count {k!r} outside 0..{limit}")
    if not k:
        return 0
    d = end = rounds[0][0]
    for step in block:
        end = apply_step(step, end)
    return _repeat_count(rounds, list(map(sub, end, d)), k)


def drive(rows: list[Vec], adversary: Adversary, step_limit: Optional[int],
          failure: str) -> tuple[int, Trace]:
    """Play the champion strategy on rows, row 0 the first champion; return
    (final champion, steps).  `rows` changes in place.

    Each phase descends the champion and the first row it cannot be compared
    with to comparability, carrying every row along, in runs of identical
    steps: a run of k equal steps (J, j) adds k times the sum of the other
    J-entries to entry j.  The adversary chooses j, and its repeat says how
    long that step holds; when 4 or more single rounds just played end with a
    repeating block of commuting steps, it is first asked how long the block
    holds, and after a 0 again only after two fresh repetitions.
    _repeat_count cuts each answer to the repetitions that decide alike, a
    last round at a norm tie included, in closed form and with at most three
    probes of _J_rule.  Each run goes to adversary._after_run.  Only the
    adversary's answers are checked here: each step is built by
    transforms._step from _J_rule's J and a checked j, and each run recorded
    by Trace._append, as its block commutes and m >= 1.  The round that
    would pass step_limit raises StepLimitExceeded(failure, steps); an
    InteractiveAborted from the adversary leaves with `steps` attached as the
    partial trace.
    """
    if step_limit is not None and not (_is_int(step_limit) and step_limit >= 0):
        raise ValidationError(f"step_limit must be None or an int >= 0: {step_limit!r}")
    steps, champion = Trace(), 0
    try:
        while True:
            champion, target = advance_champion(rows, champion)
            if target is None:
                return champion, steps
            played = []  # (d, rule, step) of the single rounds just played
            while rule := _J_rule(d := list(map(sub, rows[champion], rows[target]))):
                left = (step_limit - steps.rounds if step_limit is not None
                        else sum(map(abs, d)) + 1 << 64)  # past the end of any run
                if left < 1:  # this round would pass step_limit
                    raise StepLimitExceeded(failure, steps)
                rounds = _repeating_block(played, rule) if len(played) > 3 else []
                m = rounds and _repeat(adversary, rounds, left // len(rounds))
                if not m:
                    if rounds:  # declined: ask again after two fresh repetitions
                        played.clear()
                    J = rule[0]
                    j = adversary.choose(J, tuple(rows), steps.rounds + 1)
                    if type(j) is not int and not _is_int(j) or j not in J:
                        raise ValidationError(f"adversary chose j={j!r} outside J={sorted(J)}")
                    rounds = [(d, rule, _step(J, j, len(d)))]
                    m = 1 + _repeat(adversary, rounds, left - 1)
                block = tuple([r[2] for r in rounds])
                for step in block:  # the block's steps commute: each one's run in turn
                    rows[:] = [apply_run(step, m, v) for v in rows]
                steps._append(block, m)
                adversary._after_run(block, m)
                if len(block) * m == 1:
                    played += rounds
                    del played[:-2 * len(d)]
                else:
                    played.clear()
    except InteractiveAborted as exc:
        exc.steps = steps
        raise


def run_pair(alpha: Vec, beta: Vec, adversary: Adversary,
             step_limit: Optional[int] = None) -> EngineTrace:
    """Descend the pair against the adversary until it is comparable.

    Terminates for every adversary; step_limit is a safety valve only and
    raises StepLimitExceeded (with the partial trace) when hit.
    """
    a, b = natvec(alpha), natvec(beta)
    vectors = [a, b]  # the champion sweep checks the dimensions
    steps = drive(vectors, adversary, step_limit,
                  f"pair not comparable within {step_limit} steps")[1]
    return EngineTrace(steps, comparability(*vectors), *vectors, a, b)
