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
from .transforms import Step, Trace, Vec, _is_int, apply_run, apply_step, commute, natvec

class Adversary:
    """Picks j from a proposed J, seeing the tracked vectors and round number."""

    #: True when the answer to J depends on J alone, whatever the vectors,
    #: the round and the answers before: it then holds for whole runs, and
    #: the descent replays a repeating block of steps without asking again.
    by_J = False

    def choose(self, J: frozenset[int], vectors: Sequence[Vec], round_no: int) -> int:
        raise NotImplementedError

    def choose_run(self, J: frozenset[int], vectors: Sequence[Vec], round_no: int,
                   limit: int) -> tuple[int, int]:
        """j and a run length k in 1..limit: the answer for this round and for
        each of the next k - 1 rounds, as long as they propose J again.

        The descent may end the run sooner, when J changes or the pair becomes
        comparable; the round_no of the next call tells how many rounds were
        played.  By default j is choose's answer, for limit rounds when by_J
        and for one round otherwise.
        """
        return self.choose(J, vectors, round_no), limit if self.by_J else 1


class FirstIndex(Adversary):
    """Always the smallest index in J: an answer by J alone (by_J), so it
    holds for whole runs and blocks, unless a subclass overrides choose."""

    @property
    def by_J(self):
        return type(self).choose is FirstIndex.choose

    def choose(self, J, vectors, round_no):
        return min(J)


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
    for ever.  The least of limit and these ends over every decision of
    every round: the sign of each entry (a zero stays zero), na <= nb, each
    adjacent pair of order (falling residual, then index), and the prefix
    cut (the residuals before order's L-th fall short of na, with it reach it).
    """
    ends = [limit]
    for d, delta, (J, _, order) in tests:
        # (a, b, strict) stands for a + t*b >= 0, or > 0 when strict
        checks = [(x, y, 1) if x > 0 else (-x, -y, 1) if x else (0, -abs(y), 0)
                  for x, y in zip(d, delta)]
        checks.append((-sum(d), -sum(delta), 0))
        checks += [(d[k - 1] - d[i - 1], delta[k - 1] - delta[i - 1], i > k)
                   for i, k in zip(order, order[1:])]
        a, b = sum(d[i - 1] for i in J), sum(delta[i - 1] for i in J)  # na - residuals
        last = order[len(J) - sum(x > 0 for x in d) - 1]  # the prefix's last index
        checks += [(a - d[last - 1], b - delta[last - 1], 1), (-a, -b, 0)]
        ends += [(a - strict) // -b for a, b, strict in checks if b < 0]
    return min(ends)


def _repeat_count(rounds: Sequence[tuple], shift: list[int], limit: int) -> int:
    """How many more times, at most limit, a block of rounds repeats.

    rounds[i] starts with (d, rule): d = alpha - beta at the start of round i
    of one repetition, incomparable, and rule = _J_rule(d).  Every repetition
    shifts each d by `shift`.  Counts the repetitions t = 1, 2, ... in which
    every round decides like its counterpart in repetition 0: same _J_rule
    triple, hence same signs and prefix cut, or a norm tie on repetition 0's
    side (J is then the whole support of d), so a run that ends at a tie is
    one run.  Each decision is the sign of a + t*b for integers a and b that
    holds at t = 0, and a tie is the edge of the test that sets swapped, so
    the repetitions that decide alike form an interval.  A limit below 1
    costs no probe.  Repetition 1 is probed first, so a run of one round
    costs one probe; otherwise _run_length gives the interval's end c in
    closed form, and two probes confirm it: c decides alike and c + 1, when
    within limit, does not.  So _J_rule stays the one definition of a
    decision, and a call makes at most three probes whatever the entry size.
    """
    if limit < 1:
        return 0
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


def _period(played, rule) -> int:
    """The period p of the single rounds just played, when they end with two
    equal repetitions of p steps that commute (see transforms.commute) and
    the coming round, the first of a third repetition, decides alike (same
    _J_rule triple); else 0."""
    for p in range(2, len(played) // 2 + 1):
        if played[-p][1] != rule:
            continue
        block = [r[2] for r in played[-p:]]
        if block == [r[2] for r in played[-2 * p:-p]] and commute(block):
            return p
    return 0


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


def drive(rows: list[Vec], adversary: Adversary, step_limit: Optional[int],
          failure: str) -> tuple[int, Trace]:
    """Play the champion strategy on rows, row 0 the first champion; return
    (final champion, steps).  `rows` changes in place.

    Each phase descends the champion and the first row it cannot be compared
    with to comparability, carrying every row along, in runs of identical
    steps: a run of k equal steps (J, j) adds k times the sum of the other
    J-entries to entry j.  The adversary's run length caps the run, and
    _repeat_count finds how many of its rounds decide alike, a last round at
    a norm tie included: in closed form, confirmed by at most three probes of
    _J_rule whatever the size of the entries.  For an adversary that answers
    by J alone, a repeating block of commuting steps is likewise applied in
    one go.  The round that would pass step_limit raises
    StepLimitExceeded(failure, steps); an InteractiveAborted from the
    adversary leaves with `steps` attached as the partial trace.
    """
    if step_limit is not None and not (_is_int(step_limit) and step_limit >= 0):
        raise ValidationError(f"step_limit must be None or an int >= 0: {step_limit!r}")
    steps, champion, by_J = Trace(), 0, adversary.by_J
    while True:
        champion, target = advance_champion(rows, champion)
        if target is None:
            return champion, steps
        played = []  # (d, rule, step) of the single rounds just played, when by_J
        while rule := _J_rule(d := list(map(sub, rows[champion], rows[target]))):
            round_no = steps.rounds + 1
            if step_limit is not None and round_no > step_limit:
                raise StepLimitExceeded(failure, steps)
            J = rule[0]
            left = (step_limit - round_no + 1 if step_limit is not None
                    else sum(map(abs, d)) + 1 << 64)  # past the end of any run
            period = _period(played, rule) if by_J else 0
            m = 0
            if period:  # the block played twice now starts again
                rounds = played[-period:]
                m = _repeat_count(rounds, list(map(sub, d, rounds[0][0])), left // period)
            if not m:
                try:
                    j, k = adversary.choose_run(J, tuple(rows), round_no, left)
                except InteractiveAborted as exc:
                    exc.steps = steps
                    raise
                if type(j) is not int and not _is_int(j) or j not in J:
                    raise ValidationError(f"adversary chose j={j!r} outside J={sorted(J)}")
                if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= left:
                    raise ValidationError(f"adversary run length {k!r} outside 1..{left}")
                step = Step(J, j, len(d))
                rounds, m = [(d, rule, step)], 1
                if k > 1:  # each round adds the step's change of d once more
                    shift = list(map(sub, apply_step(step, d), d))
                    m += _repeat_count(rounds, shift, k - 1)
            block = [r[2] for r in rounds]
            for step in block:  # the block's steps commute: each one's run in turn
                rows[:] = [apply_run(step, m, v) for v in rows]
            steps.add_run(block, m)
            if by_J and len(block) * m == 1:
                played += rounds
                del played[:-2 * len(d)]
            else:
                played.clear()


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
