"""Descent of a vector pair to componentwise comparability.

choose_J builds an index set J such that applying the step (J, j) strictly
decreases tau for EVERY j in J, so the opponent's choice of j never matters.
descend iterates this against an adversary until the pair is comparable;
termination follows from the well-ordering of the measure.  It plays runs of
identical steps in one go (the division form of the descent, as in
multiplicative Euclid or Brun), so lopsided pairs need few iterations.
run_pair, solve and positivize are phase rules over drive, which plays a job.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import InteractiveAborted, StepLimitExceeded, ValidationError
from .tau import Comparability, Tau, comparability, tau
from .transforms import Step, Trace, Vec, _is_int, apply_run, commute, natvec

class Adversary:
    """Picks j from a proposed J, seeing the tracked vectors and round number."""

    #: True when the answer to J depends on J alone, whatever the vectors,
    #: the round and the answers before.  The descent then also replays a
    #: repeating block of different steps without asking again.
    by_J = False

    def choose(self, J: frozenset[int], vectors: Sequence[Vec], round_no: int) -> int:
        raise NotImplementedError

    def choose_run(self, J: frozenset[int], vectors: Sequence[Vec], round_no: int,
                   limit: int) -> tuple[int, int]:
        """j and a run length k in 1..limit: the answer for this round and for
        each of the next k - 1 rounds, as long as they propose J again.

        The descent may end the run sooner, when J changes or the pair becomes
        comparable; the round_no of the next call tells how many rounds were
        played.  By default every run is one round.
        """
        return self.choose(J, vectors, round_no), 1


class FirstIndex(Adversary):
    """Always the smallest index in J.  That answer depends on J alone, so it
    holds for whole runs and blocks, unless a subclass overrides choose."""

    @property
    def by_J(self):
        return type(self).choose is FirstIndex.choose

    def choose(self, J, vectors, round_no):
        return min(J)

    def choose_run(self, J, vectors, round_no, limit):
        if not self.by_J:
            return super().choose_run(J, vectors, round_no, limit)
        return min(J), limit


class SeededRandom(Adversary):
    """Uniform choice; the whole choice sequence is a pure function of the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, J, vectors, round_no):
        candidates = sorted(J)
        return candidates[self._rng.randrange(len(candidates))]


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
    if len(alpha) != len(beta):
        raise ValidationError(f"dimension mismatch: {len(alpha)} vs {len(beta)}")
    rule = _J_rule([x - y for x, y in zip(alpha, beta)])
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

        Steps are linear, so d = alpha - beta moves by them too.  Within a
        run, each step of the commuting block adds the same sum of its other
        J-entries to d_j every time, and tau is
        ((|d|_1 - |sum d|) / 2, (|d|_1 + |sum d|) / 2), kept up to date.
        """
        d = [x - y for x, y in zip(self.alpha, self.beta)]
        norm, total = sum(map(abs, d)), sum(d)
        out = [tau(self.alpha, self.beta)]
        for block, m in self.steps.runs:
            adds = [(s.j - 1, sum(d[i - 1] for i in s.J if i != s.j))
                    for s in block]
            for _ in range(m):
                for j, add in adds:
                    norm += abs(d[j] + add) - abs(d[j])
                    d[j] += add
                    total += add
                    t = abs(total)
                    out.append(Tau((norm - t) // 2, (norm + t) // 2))
        return tuple(out)


def _repeat_count(rounds: Sequence[tuple], shift: list[int], limit: int) -> int:
    """How many more times, at most limit, a block of rounds repeats.

    rounds[i] starts with (d, rule): d = alpha - beta at the start of round i
    of one repetition, incomparable, and rule = _J_rule(d).  Every repetition
    shifts each d by `shift`.  Counts the repetitions t = 1, 2, ... in which
    every round decides like its counterpart in repetition 0: same _J_rule
    triple, hence same signs and prefix cut.  Each decision is the sign of
    a + t*b for integers a and b, |a| at most twice the norm of a state, so
    the repetitions that decide alike form an interval, which ends within
    2*|state|_1 + 1 of them: gallop to its end, then bisect.
    """
    def same(t):
        for r in rounds:
            if _J_rule([x + t * y for x, y in zip(r[0], shift)]) != r[1]:
                return False
        return True

    lo, stride = 0, 1  # repetitions up to lo decide like repetition 0
    while lo + stride <= limit and same(lo + stride):
        lo += stride
        stride *= 2
    hi = min(lo + stride, limit + 1)  # repetition hi does not, or is past the limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(mid):
            lo = mid
        else:
            hi = mid
    return lo


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


def descend(vectors: list[Vec], p: int, q: int, adversary: Adversary,
            steps: Trace, step_limit: Optional[int] = None) -> None:
    """Descend the pair vectors[p], vectors[q] to comparability, carrying
    every tracked vector along, in runs of identical steps.

    `vectors` changes in place, and each iteration adds one run to `steps`.
    Returns once the pair is comparable, or still incomparable once round
    step_limit has been played; an InteractiveAborted from the adversary
    leaves with `steps` attached as the partial trace.

    A run of k equal steps (J, j) adds k times the sum of the other
    J-entries to entry j.  For an adversary that answers by J alone, a
    repeating block of commuting steps is likewise applied in one go.
    """
    n = len(vectors[p])
    played = []  # (d, rule, step) of the single rounds just played, when by_J
    while True:
        round_no = steps.rounds + 1
        d = [x - y for x, y in zip(vectors[p], vectors[q])]
        rule = _J_rule(d)
        if rule is None or (step_limit is not None and round_no > step_limit):
            return
        J = rule[0]
        left = (step_limit - round_no + 1 if step_limit is not None
                else sum(map(abs, d)) + 1 << 64)  # past any run: _repeat_count
        period = m = 0
        if adversary.by_J:
            period = _period(played, rule)
        if period:  # the block played twice now starts again
            rounds = played[-period:]
            shift = [x - y for x, y in zip(d, rounds[0][0])]
            m = _repeat_count(rounds, shift, left // period)
        if not m:
            try:
                j, k = adversary.choose_run(J, tuple(vectors), round_no, left)
            except InteractiveAborted as exc:
                exc.steps = steps
                raise
            if j not in J:
                raise ValidationError(f"adversary chose j={j} outside J={sorted(J)}")
            if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= left:
                raise ValidationError(f"adversary run length {k!r} outside 1..{left}")
            rounds = [(d, rule, Step(J, j, n))]
            m = 1
            if k > 1:
                shift = [0] * n
                shift[j - 1] = sum(d[i - 1] for i in J if i != j)
                m += _repeat_count(rounds, shift, k - 1)
        block = [r[2] for r in rounds]
        for step in block:  # the block's steps commute: each one's run in turn
            vectors[:] = [apply_run(step, m, v) for v in vectors]
        steps.add_run(block, m)
        if adversary.by_J and len(block) * m == 1:
            played += rounds
            del played[:-2 * n]
        else:
            played.clear()


def drive(rows: list[Vec], phase, adversary: Adversary,
          step_limit: Optional[int], failure: str) -> Trace:
    """Descend each pair phase(rows) names (it may edit rows) until it names
    None; one due past round step_limit raises StepLimitExceeded(failure)."""
    if step_limit is not None and not (_is_int(step_limit) and step_limit >= 0):
        raise ValidationError(f"step_limit must be None or an int >= 0: {step_limit!r}")
    steps = Trace()
    while (pair := phase(rows)) is not None:
        if step_limit is not None and steps.rounds >= step_limit:
            raise StepLimitExceeded(failure, steps)
        descend(rows, *pair, adversary, steps, step_limit)
    return steps


def _pair_phase(rows):  # run_pair's phase rule: the pair, while incomparable
    return (0, 1) if comparability(*rows) is Comparability.INCOMPARABLE else None


def run_pair(alpha: Vec, beta: Vec, adversary: Adversary,
             step_limit: Optional[int] = None) -> EngineTrace:
    """Descend the pair against the adversary until it is comparable.

    Terminates for every adversary; step_limit is a safety valve only and
    raises StepLimitExceeded (with the partial trace) when hit.
    """
    a, b = natvec(alpha), natvec(beta)
    vectors = [a, b]  # the phase rule's comparability checks the dimensions
    steps = drive(vectors, _pair_phase, adversary, step_limit,
                  f"pair not comparable within {step_limit} steps")
    return EngineTrace(steps, comparability(*vectors), *vectors, a, b)
