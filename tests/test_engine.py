import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perron import (Adversary, Comparability, FirstIndex, GroupBasis,
                    GroupElement, GroupOrder, InternalError, MaxGrowth,
                    PositivizeResult, Scripted, SeededRandom, Step,
                    StepLimitExceeded, ValidationError, ValuedRing,
                    apply_matrix, apply_step,
                    choose_J, comparability, compose_trace, element_value,
                    game_tree, lex_sign, monomialize, polynomial, positivize,
                    positivize_all, run_pair, simple_perron, solve, tau)
import perron.engine
import perron.ordered_group
from perron.engine import _J_rule, _repeat_count
from perron.tau import Tau

from conftest import adversary_kinds, build_adversary, vec_pairs


def assert_J_decreases_for_every_j(alpha, beta):
    """Exhaustive-j oracle: every choice in choose_J must strictly drop tau."""
    J = choose_J(alpha, beta)
    before = tau(alpha, beta)
    for j in J:
        step = Step(J, j, len(alpha))
        after = tau(apply_step(step, alpha), apply_step(step, beta))
        assert after < before, (alpha, beta, j)
    return J


def test_choose_J_examples():
    # roles swap since the first reduced part has the larger norm
    assert assert_J_decreases_for_every_j((3, 1), (1, 2)) == {1, 2}
    assert _J_rule((3 - 1, 1 - 2)) == ({1, 2}, True, [1])

    # both positive residuals of (0,1,1) are needed to cover norm 2
    assert assert_J_decreases_for_every_j((2, 0, 0), (0, 1, 1)) == {1, 2, 3}
    step = Step(frozenset({1, 2, 3}), 1, 3)
    assert tau(apply_step(step, (2, 0, 0)), apply_step(step, (0, 1, 1))) == (0, 2)
    for j in (2, 3):
        step = Step(frozenset({1, 2, 3}), j, 3)
        assert tau(apply_step(step, (2, 0, 0)), apply_step(step, (0, 1, 1))) == (1, 2)

    assert assert_J_decreases_for_every_j((1, 0), (0, 1)) == {1, 2}
    for j in (1, 2):
        step = Step(frozenset({1, 2}), j, 2)
        assert tau(apply_step(step, (1, 0)), apply_step(step, (0, 1))).first == 0


def oracle_J_rule(d):
    """The J rule as it was before the one-pass _J_rule: norms in one pass,
    then each side's keys, J and order by comprehensions over d."""
    na = nb = 0
    for x in d:
        if x > 0:
            na += x
        elif x < 0:
            nb -= x
    if not na or not nb:
        return None
    swapped = na > nb
    if swapped:
        large = sorted([(-x, i) for i, x in enumerate(d, start=1) if x > 0])
        J = [i for i, x in enumerate(d, start=1) if x < 0]
        need = nb
    else:
        large = sorted([(x, i) for i, x in enumerate(d, start=1) if x < 0])
        J = [i for i, x in enumerate(d, start=1) if x > 0]
        need = na
    acc = 0
    for key, i in large:
        J.append(i)
        acc -= key
        if acc >= need:
            break
    return frozenset(J), swapped, [i for _, i in large]


mixed_entries = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.integers(1, 256).flatmap(lambda b: st.integers(-2 ** b, 2 ** b)))


@st.composite
def mixed_differences(draw):
    """d of length 1-8: zeros, small and huge entries of both signs, and
    values repeated on one side or mirrored across sides (ties)."""
    pool = draw(st.lists(mixed_entries, min_size=1, max_size=4))
    pool += [-x for x in pool]
    return draw(st.lists(st.sampled_from(pool) | mixed_entries,
                         min_size=1, max_size=8))


@settings(max_examples=500)
@given(mixed_differences())
def test_J_rule_matches_the_oracle(d):
    assert _J_rule(d) == oracle_J_rule(d)
    assert _J_rule(tuple(d)) == oracle_J_rule(d)


def test_choose_J_requires_incomparable():
    with pytest.raises(ValidationError):
        choose_J((1, 0), (1, 1))
    with pytest.raises(ValidationError):
        choose_J((2, 2), (2, 2))


def test_choose_J_requires_equal_dimensions():
    with pytest.raises(ValidationError):
        choose_J((1, 0), (0, 1, 1))


def replay(steps, vec):
    for step in steps:
        vec = apply_step(step, vec)
    return vec


def test_run_pair_already_comparable():
    trace = run_pair((1, 0), (1, 1), FirstIndex())
    assert trace.steps == ()
    assert trace.outcome is Comparability.LESS_EQ
    assert trace.tau_history == ((0, 1),)


def test_run_pair_scripted_one_round():
    trace = run_pair((3, 1), (1, 2), Scripted([2]))
    assert len(trace.steps) == 1
    assert trace.steps[0].J == {1, 2} and trace.steps[0].j == 2
    assert trace.final_alpha == (3, 4)
    assert trace.final_beta == (1, 3)
    assert trace.outcome is Comparability.GREATER_EQ
    # replay oracle
    assert replay(trace.steps, (3, 1)) == (3, 4)
    assert replay(trace.steps, (1, 2)) == (1, 3)
    assert comparability((3, 4), (1, 3)) is Comparability.GREATER_EQ


def test_run_pair_scripted_then_fallback():
    trace = run_pair((3, 1), (1, 2), Scripted([1]))
    assert trace.steps[0].J == {1, 2} and trace.steps[0].j == 1
    assert trace.tau_history[0] == (1, 2)
    assert trace.tau_history[1] == (1, 1)
    assert trace.tau_history[-1].first == 0
    assert replay(trace.steps, (3, 1)) == trace.final_alpha
    assert replay(trace.steps, (1, 2)) == trace.final_beta


def test_step_limit_raises_with_partial_trace():
    with pytest.raises(StepLimitExceeded) as err:
        run_pair((3, 1), (1, 2), Scripted([1]), step_limit=1)
    assert len(err.value.steps) == 1


def test_adversary_outside_J_rejected():
    class Cheater(FirstIndex):
        def choose(self, J, vectors, round_no):
            return max(J) + 1

    with pytest.raises(ValidationError):
        run_pair((3, 1), (1, 2), Cheater())


@pytest.mark.parametrize("answer", [True, 1.0, [1]])
def test_adversary_answering_a_non_integer_rejected(answer):
    # True == 1.0 == 1, so "j in J" alone lets both by; a list is unhashable
    class Sly(FirstIndex):
        def choose(self, J, vectors, round_no):
            return answer

    with pytest.raises(ValidationError) as info:
        run_pair((3, 1), (1, 2), Sly())
    assert str(info.value) == f"adversary chose j={answer!r} outside J=[1, 2]"


def test_max_growth_picks_largest_total_then_smallest_index():
    # J={1,2} on (3,1),(1,2): j=1 totals 4+1+3+2=10, j=2 totals 3+4+1+3=11
    trace = run_pair((3, 1), (1, 2), MaxGrowth(), step_limit=1)
    assert trace.steps[0].j == 2
    # tie: alpha=(1,0), beta=(0,1) gives the same total either way -> j=1
    trace = run_pair((1, 0), (0, 1), MaxGrowth())
    assert trace.steps[0].j == 1


def max_growth_by_steps(J, vectors):
    """Oracle: MaxGrowth's definition, each candidate step applied in turn."""
    steps = [Step(J, j, len(vectors[0])) for j in sorted(J)]
    return max(steps, key=lambda step: sum(  # max keeps the first of equals
        sum(apply_step(step, v)) for v in vectors)).j


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.frozensets(st.integers(1, n), min_size=1),
    st.lists(st.tuples(*[st.integers(-9, 9)] * n), min_size=1, max_size=4))))
def test_max_growth_closed_form_matches_applying_each_step(case):
    J, vectors = case
    assert MaxGrowth().choose(J, vectors, 1) == max_growth_by_steps(J, vectors)


def test_seeded_random_is_reproducible():
    a, b = (9, 2, 0), (1, 3, 4)
    t1 = run_pair(a, b, SeededRandom(42))
    t2 = run_pair(a, b, SeededRandom(42))
    assert t1 == t2


@given(vec_pairs(), adversary_kinds, st.integers(0, 2 ** 32 - 1))
def test_descent_is_strict_and_terminates(pair, kind, seed):
    alpha, beta = pair
    trace = run_pair(alpha, beta, build_adversary(kind, seed))
    assert trace.tau_history[-1].first == 0
    assert trace.outcome is not Comparability.INCOMPARABLE
    for before, after in zip(trace.tau_history, trace.tau_history[1:]):
        assert after < before
    assert len(trace.tau_history) == len(trace.steps) + 1


@given(vec_pairs(), adversary_kinds, st.integers(0, 2 ** 32 - 1))
def test_composed_trace_reproduces_final_pair(pair, kind, seed):
    alpha, beta = pair
    trace = run_pair(alpha, beta, build_adversary(kind, seed))
    matrix = compose_trace(trace.steps, len(alpha))
    assert apply_matrix(matrix, alpha) == trace.final_alpha
    assert apply_matrix(matrix, beta) == trace.final_beta


@settings(max_examples=40)
@given(vec_pairs(max_dim=3, max_entry=8))
def test_every_adversary_sequence_terminates(pair):
    """Exhaustive game tree over all j choices for one starting pair."""
    for _, vs, _, moves in game_tree(pair):
        t = tau(*vs)
        for _, child in moves:
            assert tau(*child) < t


# ---------------------------------------------------------------------------
# division-form descent against the one-round path

class OneRound(FirstIndex):
    """FirstIndex one round at a time: overriding choose opts out of runs."""

    def choose(self, J, vectors, round_no):
        return min(J)


class OneRoundPerron(FirstIndex):
    """The positivize chooser one round at a time: one simple_perron per round."""

    def __init__(self, basis):
        self.basis = basis

    def choose(self, J, vectors, round_no):
        self.basis, step = simple_perron(self.basis, J)
        return step.j


def positivize_one_round(basis, element, step_limit):
    coords = element.coords
    if all(c >= 0 for c in coords):
        return PositivizeResult(basis, coords, ())
    chooser = OneRoundPerron(basis)
    trace = run_pair(tuple(max(c, 0) for c in coords),
                     tuple(max(-c, 0) for c in coords), chooser, step_limit)
    final = tuple(p - m for p, m in zip(trace.final_alpha, trace.final_beta))
    return PositivizeResult(chooser.basis, final, trace.steps)


def outcome_of(call):
    try:
        return call()
    except StepLimitExceeded as exc:
        return "step limit", exc.steps


@st.composite
def lopsided_vectors(draw, count, max_dim=4):
    """Entries mixing small values with large ones, some of them close to
    each other, so both long runs of one step and repeating blocks of
    alternating steps occur."""
    n = draw(st.integers(1, max_dim))
    big = draw(st.sampled_from([10, 100, 600]))
    entry = st.one_of(st.integers(0, 3), st.integers(0, big),
                      st.integers(big - 6, big + 6))
    return [tuple(draw(entry) for _ in range(n)) for _ in range(count)]


step_limits = st.one_of(st.none(), st.integers(0, 400))


@settings(max_examples=150)
@given(lopsided_vectors(2), step_limits)
def test_run_pair_runs_match_one_round_path(pair, step_limit):
    alpha, beta = pair
    fast = outcome_of(lambda: run_pair(alpha, beta, FirstIndex(), step_limit))
    slow = outcome_of(lambda: run_pair(alpha, beta, OneRound(), step_limit))
    assert fast == slow


@settings(max_examples=150)
@given(lopsided_vectors(2))
def test_tau_history_matches_tau_round_by_round(pair):
    """The replayed history against tau of the pair after each step, over
    long runs and repeating blocks."""
    alpha, beta = pair
    trace = run_pair(alpha, beta, FirstIndex())
    assert len(trace.tau_history) == trace.rounds + 1
    assert trace.tau_history[0] == tau(alpha, beta)
    for step, t in zip(trace.steps, trace.tau_history[1:]):
        alpha, beta = apply_step(step, alpha), apply_step(step, beta)
        assert type(t) is Tau and t == tau(alpha, beta)


@settings(max_examples=100)
@given(st.integers(2, 4).flatmap(lopsided_vectors), step_limits)
def test_solve_runs_match_one_round_path(vectors, step_limit):
    fast = outcome_of(lambda: solve(vectors, FirstIndex(), step_limit))
    slow = outcome_of(lambda: solve(vectors, OneRound(), step_limit))
    assert fast == slow


@st.composite
def ill_conditioned_elements(draw):
    """Echelon images whose later rows are scaled far down, and a positive
    element with large mixed-sign coordinates."""
    n = draw(st.integers(1, 3))
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 300)))
        for c in range(i + 1, n):
            row[c] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        rows.append(tuple(row))
    rows = draw(st.permutations(rows))
    basis = GroupBasis.initial(GroupOrder(tuple(rows)))
    coords = tuple(draw(st.integers(-300, 300)) for _ in range(n))
    element = GroupElement(basis, coords)
    if lex_sign(element_value(element)) < 0:
        element = GroupElement(basis, tuple(-c for c in coords))
    return basis, element


@settings(max_examples=150)
@given(ill_conditioned_elements(), step_limits)
def test_positivize_runs_match_one_round_path(case, step_limit):
    basis, element = case
    fast = outcome_of(lambda: positivize(basis, element, step_limit))
    slow = outcome_of(lambda: positivize_one_round(basis, element, step_limit))
    assert fast == slow


class CountingFirstIndex(FirstIndex):
    def __init__(self):
        self.calls = 0

    def choose_run(self, J, vectors, round_no, limit):
        self.calls += 1
        return super().choose_run(J, vectors, round_no, limit)


def test_lopsided_pair_runs_in_few_iterations():
    N = 10 ** 6
    adversary = CountingFirstIndex()
    trace = run_pair((N, 0), (0, 1), adversary)
    assert trace.rounds == N
    assert adversary.calls == 1  # the last round, at the norm tie (1, -1), included
    assert set(trace.steps) == {Step(frozenset({1, 2}), 1, 2)}
    assert (trace.final_alpha, trace.final_beta) == ((N, 0), (N, 1))
    assert trace.outcome is Comparability.LESS_EQ
    assert trace.tau_history[:3] == ((1, N), (1, N - 1), (1, N - 2))
    assert trace.tau_history[-2:] == ((1, 1), (0, 1))


@pytest.mark.parametrize("N", [2, 3, 1000])
def test_a_run_ending_at_a_norm_tie_is_one_iteration(N, monkeypatch):
    """d = alpha - beta moves from (N, -1) to the tie (1, -1), then becomes
    comparable; the element (1, -(N - 1)) of the group ends its run at a tie
    likewise.  Each run asks its chooser once and keeps the one-round steps."""
    adversary = CountingFirstIndex()
    trace = run_pair((N, 0), (0, 1), adversary)
    assert adversary.calls == 1
    assert trace == run_pair((N, 0), (0, 1), OneRound())

    lengths = []
    run_length = perron.ordered_group._perron_run_length
    monkeypatch.setattr(perron.ordered_group, "_perron_run_length",
                        lambda *args: lengths.append(run_length(*args)) or lengths[-1])
    basis = GroupBasis.initial(GroupOrder(((Fraction(1), Fraction(0)),
                                           (Fraction(1, N), Fraction(1)))))
    element = GroupElement(basis, (1, -(N - 1)))
    result = positivize(basis, element)
    assert len(lengths) == 1 and result.steps.rounds == N - 1
    assert result == positivize_one_round(basis, element, None)


def test_repeating_blocks_run_in_few_iterations():
    # the two large entries take turns: the steps alternate with period 2,
    # and with period 3 for three large entries
    N = 10 ** 6
    adversary = CountingFirstIndex()
    trace = run_pair((N, N + 3, 0), (0, 0, 5), adversary)
    assert trace.rounds == 400001
    assert [(sorted(s.J), s.j) for s in trace.steps[:4]] == \
        [([2, 3], 2), ([1, 3], 1), ([2, 3], 2), ([1, 3], 1)]
    assert 1 <= adversary.calls <= 10
    assert run_pair((1000, 1003, 0), (0, 0, 5), FirstIndex()) == \
        run_pair((1000, 1003, 0), (0, 0, 5), OneRound())

    adversary = CountingFirstIndex()
    M = 10 ** 5
    trace = run_pair((M, M + 1, M + 2, 0), (0, 0, 0, 1), adversary)
    assert trace.rounds == 3 * M + 3
    assert 1 <= adversary.calls <= 10

    adversary = CountingFirstIndex()
    vectors = ((3, 17021, 4, 5), (1, 17023, 2, 4), (0, 0, 0, 2), (0, 17020, 1, 0))
    outcome = solve(vectors, adversary)
    assert outcome.rounds == 17024
    assert 1 <= adversary.calls <= 10
    assert outcome == solve(vectors, OneRound())


class CountingOneRound(OneRound):
    def __init__(self):
        self.calls = 0

    def choose(self, J, vectors, round_no):
        self.calls += 1
        return super().choose(J, vectors, round_no)


def test_overriding_choose_plays_one_round_at_a_time():
    adversary = CountingOneRound()
    trace = run_pair((500, 503, 0), (0, 0, 5), adversary)
    assert adversary.calls == trace.rounds == 201


def test_an_adversary_by_J_gets_whole_runs_from_adversary():
    """by_J alone, without a choose_run of its own, earns whole runs: on
    (0, 0, 3000) against (5, 1, 0) every round plays ({1, 2, 3}, 3), so the
    adversary is asked once, and the trace is the one-round replay's."""
    class CountingMax(Adversary):
        by_J = True

        def __init__(self):
            self.calls = 0

        def choose(self, J, vectors, round_no):
            self.calls += 1
            return max(J)

    class OneRoundMax(CountingMax):
        by_J = False

    pair = (0, 0, 3000), (5, 1, 0)
    adversary, one_round = CountingMax(), OneRoundMax()
    trace = run_pair(*pair, adversary)
    assert adversary.calls == 1
    assert trace.steps.runs == [((Step({1, 2, 3}, 3, 3),), 500)]
    assert trace == run_pair(*pair, one_round)
    assert one_round.calls == 500

    counting = CountingOneRound()
    assert run_pair(*pair, counting).rounds == counting.calls


def test_run_stops_at_the_step_limit():
    with pytest.raises(StepLimitExceeded) as err:
        run_pair((10 ** 6, 0), (0, 1), FirstIndex(), step_limit=12345)
    assert len(err.value.steps) == 12345


def _limited_jobs():
    """One job per driver entry point, each needing at least one round."""
    basis = GroupBasis.initial(GroupOrder(((Fraction(1), Fraction(0)),
                                           (Fraction(0), Fraction(1)))))
    element = GroupElement(basis, (2, -1))
    ring = ValuedRing(2, 2, basis.images)
    f = polynomial([((1, 0), 1), ((0, 1), 1)])
    return {
        "run_pair": lambda limit: run_pair((3, 1), (1, 2), FirstIndex(), limit),
        "solve": lambda limit: solve([(3, 1), (1, 2)], FirstIndex(), limit),
        "positivize": lambda limit: positivize(basis, element, limit),
        "positivize_all": lambda limit: positivize_all(basis, [element], limit),
        "monomialize": lambda limit: monomialize(ring, f, limit),
    }


@pytest.mark.parametrize("entry", list(_limited_jobs()))
@pytest.mark.parametrize("limit, error", [
    (-1, ValidationError), (True, ValidationError), (2.5, ValidationError),
    ("3", ValidationError), (0, StepLimitExceeded),
], ids=["negative", "bool", "float", "str", "zero"])
def test_step_limit_is_none_or_a_non_negative_int(entry, limit, error):
    """engine.drive checks every entry point's limit; 0 is a valid limit."""
    with pytest.raises(error) as err:
        _limited_jobs()[entry](limit)
    if error is ValidationError:
        assert str(err.value) == f"step_limit must be None or an int >= 0: {limit!r}"


MEMORY_GUARD = """
import resource, time
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from perron import (FirstIndex, StepLimitExceeded, apply_matrix, compose_trace,
                    determinant, run_pair)

start = time.perf_counter()
trace = run_pair((299857033, 11, 3), (7218397668, 1132981884, 1), FirstIndex())
assert time.perf_counter() - start < 1
assert trace.rounds == 4025761255 and len(trace.steps.runs) <= 30
matrix = compose_trace(trace.steps, 3)
assert determinant(matrix) == 1
assert apply_matrix(matrix, trace.alpha) == trace.final_alpha
assert apply_matrix(matrix, trace.beta) == trace.final_beta
try:
    run_pair((10 ** 9, 0), (0, 1), FirstIndex(), step_limit=10 ** 8)
except StepLimitExceeded as exc:
    assert len(exc.steps) == 10 ** 8
else:
    raise AssertionError("step limit not hit")
"""


def test_billions_of_rounds_fit_in_one_gibibyte():
    """Traces hold runs, not rounds: 4*10^9 rounds in a few runs, under a
    1 GiB address-space limit, in a child process of its own."""
    pytest.importorskip("resource")
    import perron
    src = str(Path(perron.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", MEMORY_GUARD],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_run_length_outside_limit_rejected():
    class Overrun(FirstIndex):
        def choose_run(self, J, vectors, round_no, limit):
            return min(J), limit + 1

    with pytest.raises(ValidationError):
        run_pair((30, 0), (0, 1), Overrun(), step_limit=10)


# rounds past 2^63: a trace counts them in an int, len() would overflow ------

BIG_PAIR = ((3435507337509639330305, 0, 2151282967170019),
            (12266223833, 6, 2481112314))
BIG_ROUNDS = 572584197702814508129  # about 2^69


def test_round_counts_past_a_machine_word():
    trace = run_pair(*BIG_PAIR, FirstIndex())
    assert trace.rounds == trace.steps.rounds == BIG_ROUNDS > sys.maxsize
    assert len(trace.steps.runs) == 2
    assert trace.outcome is Comparability.GREATER_EQ
    matrix = compose_trace(trace.steps, 3)
    assert apply_matrix(matrix, trace.alpha) == trace.final_alpha
    assert apply_matrix(matrix, trace.beta) == trace.final_beta
    assert trace.steps[-1] == Step({2, 3}, 2, 3)
    outcome = solve(BIG_PAIR, FirstIndex())
    assert outcome.rounds == outcome.trace.rounds == BIG_ROUNDS
    with pytest.raises(StepLimitExceeded) as err:
        run_pair(*BIG_PAIR, FirstIndex(), step_limit=BIG_ROUNDS - 1)
    assert err.value.steps.rounds == BIG_ROUNDS - 1


def test_positivize_past_a_machine_word():
    basis = GroupBasis.initial(GroupOrder(((Fraction(1), Fraction(0)),
                                           (Fraction(0), Fraction(1)))))
    element = GroupElement(basis, (1, -2 ** 70))
    result = positivize(basis, element)
    assert result.steps.rounds == 2 ** 70
    assert result.coords == (1, 0)
    assert element_value(GroupElement(result.basis, result.coords)) == \
        element_value(element)
    combined = positivize_all(basis, [element], step_limit=10 ** 30)
    assert combined.steps.rounds == 2 ** 70 and combined.coords == ((1, 0),)


mixed_entries = st.integers(0, 256).flatmap(lambda b: st.integers(0, 2 ** b - 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(mixed_entries, min_size=n, max_size=n),
    st.lists(mixed_entries, min_size=n, max_size=n))))
def test_mixed_magnitude_pairs_compose_to_their_finals(pair):
    """Entries up to 2^256 of mixed bit lengths: round counts pass 2^63, and
    compose_trace multiplies runs of huge m."""
    alpha, beta = pair
    trace = run_pair(alpha, beta, FirstIndex())
    assert trace.rounds == sum(len(block) * m for block, m in trace.steps.runs)
    matrix = compose_trace(trace.steps, len(alpha))
    assert apply_matrix(matrix, tuple(alpha)) == trace.final_alpha
    assert apply_matrix(matrix, tuple(beta)) == trace.final_beta
    assert comparability(trace.final_alpha, trace.final_beta) \
        is not Comparability.INCOMPARABLE


def decides_like(d, first):
    """Whether state d decides like first, the oracle triple of repetition 0:
    the same triple, or a norm tie on first's side.  At a tie J is the whole
    support of d on either side, and on the swapped side order lists the
    positive entries by falling residual."""
    if oracle_J_rule(d) == first:
        return True
    if not first[1] or sum(d):
        return False
    positive = sorted((-x, i) for i, x in enumerate(d, start=1) if x > 0)
    return first == (frozenset(i for i, x in enumerate(d, start=1) if x),
                     True, [i for _, i in positive])


def scanned_repeat_count(states, shift, limit):
    """The oracle: the largest t <= limit such that repetitions 1..t decide
    like repetition 0 (same _J_rule triple for every state, or a norm tie on
    its side), by a direct scan over t."""
    firsts = [oracle_J_rule(d) for d in states]
    t = 0
    while t < limit and all(
            decides_like([x + (t + 1) * y for x, y in zip(d, shift)], first)
            for d, first in zip(states, firsts)):
        t += 1
    return t


@st.composite
def repeating_blocks(draw):
    """A block's states (alpha - beta at each of its rounds), one shift per
    repetition, and a limit.  Every state is incomparable, as in drive,
    which passes the states of rounds it played."""
    n = draw(st.integers(2, 4))
    state = st.lists(st.integers(-20, 20), min_size=n, max_size=n).filter(
        lambda d: min(d) < 0 < max(d))
    states = draw(st.lists(state, min_size=1, max_size=3))
    shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return states, shift, draw(st.integers(0, 60))


A_300 = 2 ** 300 - 2 ** 150 + 7
C_300 = 2 ** 299 + 3


def bisected_repeat_count(rounds, shift, limit):
    """The oracle that was _repeat_count before its closed form: probe a limit
    within the bound B = 2*|state|_1 + 1 first, then repetition 1 and, for a
    limit past B, B + 1, alike only when alike for ever; then bisect the rest
    of [1, min(limit, B + 1)].  It probes through perron.engine._J_rule, so
    the `probed` fixture records its probes."""
    tests = [([-x for x in d], [-y for y in shift], (J, False, order))
             if swapped else (d, shift, (J, False, order))
             for d, (J, swapped, order), *_ in rounds]

    def same(t):
        return all(perron.engine._J_rule([x + t * y for x, y in zip(d, delta)]) == rule
                   for d, delta, rule in tests)

    bound = 2 * max([sum(map(abs, d)) for d, *_ in tests]) + 1
    if limit <= bound and same(limit):
        return limit
    lo, hi = 1, min(limit, bound + 1)  # once probed: lo decides alike, hi does not
    if hi < 2 or not same(1):
        return 0
    if limit > bound and same(hi):
        return limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(mid):
            lo = mid
        else:
            hi = mid
    return lo


def assert_repeat_count(oracle, states, shift, limit):
    """_repeat_count and the bisection oracle against the oracle at limit,
    and, since the bisection probes a limit within the bound 2*|state|_1 + 1
    first, at the oracle's count and one either side, which lie within it
    when the run ends before limit."""
    rounds = [(d, oracle_J_rule(d)) for d in states]
    count = oracle(states, shift, limit)
    for cap in {limit, count + 1, count, max(count - 1, 0)}:
        expected = oracle(states, shift, cap)
        assert _repeat_count(rounds, shift, cap) == expected, cap
        assert bisected_repeat_count(rounds, shift, cap) == expected, cap


@pytest.fixture
def probed(monkeypatch):
    """The states _repeat_count probes, in order, through engine._J_rule."""
    states = []

    def recording(d):
        states.append(d)
        return _J_rule(d)

    monkeypatch.setattr(perron.engine, "_J_rule", recording)
    return states


@pytest.mark.parametrize("limit, first", [(4, 4), (10 ** 6, 1)])
def test_repeat_count_probes_a_limit_within_the_bound_first(probed, limit, first):
    """The bisection oracle: (-1, 5) with shift (0, -1) runs 4 repetitions,
    to a norm tie; the bound is 2*6 + 1 = 13.  A limit of 4 lies within it
    and is probed first, a limit of 10^6 cannot be where the run ends, so
    repetition 1 is probed first.  The state is swapped, so repetition t is
    tested as -(d + t*shift)."""
    assert bisected_repeat_count([([-1, 5], _J_rule([-1, 5]))], [0, -1], limit) == 4
    assert probed[0] == [1, first - 5]


@pytest.mark.parametrize("N", [10 ** 3, 10 ** 5])
def test_repeat_count_bisects_within_the_bound(probed, N):
    """The bisection oracle: (-1, N) with shift (0, -1) runs N - 1
    repetitions, to a norm tie, and the bound is B = 2*(N + 1) + 1.  A limit
    of 10^6 lies past B: after repetitions 1 and B + 1, one bisection of
    [1, B + 1] finds the end."""
    bound = 2 * (N + 1) + 1
    assert bisected_repeat_count([([-1, N], _J_rule([-1, N]))], [0, -1], 10 ** 6) == N - 1
    assert len(probed) <= math.ceil(math.log2(bound + 1)) + 2


def test_repeat_count_probes_a_single_round_once(probed):
    """The bisection oracle: (-1, 5) with shift (0, -5) is comparable at
    repetition 1, so a limit of 10^6, past the bound 13, costs that one probe."""
    assert bisected_repeat_count([([-1, 5], _J_rule([-1, 5]))], [0, -5], 10 ** 6) == 0
    assert len(probed) == 1


@settings(max_examples=300)
@given(repeating_blocks())
# a run that ends at a norm tie: (-1, 1) is repetition 4, and it is one run;
# limits at the oracle's count, one past it and one short of it
@example(([[-1, 5]], [0, -1], 4))
@example(([[-1, 5]], [0, -1], 5))
@example(([[-1, 5]], [0, -1], 3))
# a period-2 block whose first round reaches a tie while the second goes on
@example(([[-1, 5, 0], [-2, 9, 3]], [0, -1, 0], 10))
@example(([[-1, 5, 0], [-2, 9, 3]], [0, -1, 0], 5))
# entries of about 300 bits, with the tie at repetition 4 of 9
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 9))
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 5))
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 4))
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 3))
def test_repeat_count_matches_a_direct_scan(case):
    """The closed form and the bisection oracle find the end of the repetitions
    that decide alike because, from an incomparable state, they form an
    interval.  From a comparable one they need not: d = (1, 3) with shift
    (-1, -1) is comparable at t = 0, 1 and 3 but not at 2."""
    assert_repeat_count(scanned_repeat_count, *case)


def closed_form_repeat_count(states, shift, limit):
    """The oracle in closed form: every decision of _J_rule on a state d + t*shift
    is a test a + t*b >= 0 (or > 0) that holds at t = 0, so it holds up to
    (a - strict) // -b when b < 0, and forever otherwise.  The count is the
    smallest such bound over every decision of every round, at most limit.

    A swapped round is negated first, so that its rule is unswapped and a
    norm tie decides like it.  The decisions are the sign of each entry (a
    zero stays zero), na <= nb, each adjacent pair of order by falling
    residual, then by index, and the prefix cut: the first L - 1 residuals
    of order sum below na, and the first L reach it."""
    count = limit

    def holds_up_to(a, b, strict=False):
        nonlocal count
        if b < 0:
            count = min(count, (a - strict) // -b)

    for d in states:
        delta = shift
        if oracle_J_rule(d)[1]:
            d, delta = [-x for x in d], [-y for y in shift]
        J, swapped, order = oracle_J_rule(d)
        assert not swapped

        def part(indices):  # the sum of d + t*delta over indices, as (a, b)
            return (sum(d[i - 1] for i in indices),
                    sum(delta[i - 1] for i in indices))

        for x, y in zip(d, delta):
            if x:  # the sign of x
                holds_up_to(abs(x), y if x > 0 else -y, True)
            else:  # a zero stays zero: 0 <= t*y and 0 >= t*y
                holds_up_to(0, y)
                holds_up_to(0, -y)
        a, b = part(range(1, len(d) + 1))
        holds_up_to(-a, -b)  # na <= nb
        for i, k in zip(order, order[1:]):  # d_i < d_k, or equal with i < k
            holds_up_to(d[k - 1] - d[i - 1], delta[k - 1] - delta[i - 1], i > k)
        # J is the positive entries plus the first L of order: without its
        # L-th, the residuals fall short of na; with it, they reach na
        cut = len(J) - sum(x > 0 for x in d)
        a, b = part(J - {order[cut - 1]})
        holds_up_to(a, b, True)
        a, b = part(J)
        holds_up_to(-a, -b)
    return count


@st.composite
def wide_blocks(draw):
    """Blocks of 1-3 rounds with entries of up to a few hundred bits, shifts
    that may be zero, and limits from 1 to 2^200.  Half the time the first
    round's last entry is set so that it reaches a norm tie (its entries
    sum to zero) at repetition t0."""
    n = draw(st.integers(2, 4))
    bits = draw(st.integers(0, 300))
    entry = st.integers(-2 ** bits, 2 ** bits)
    shift = draw(st.one_of(
        st.just([0] * n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(entry, min_size=n, max_size=n)))
    states = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=1, max_size=3))
    if draw(st.booleans()):
        t0 = draw(st.integers(0, 2 ** 20))
        first = states[0]
        first[-1] = -t0 * sum(shift) - sum(first[:-1])
    assume(all(min(d) < 0 < max(d) for d in states))
    return states, shift, draw(st.integers(1, 2 ** 200))


@settings(max_examples=500)
@given(wide_blocks())
@example(([[-1, 5]], [0, -1], 4))
@example(([[-1, 5]], [0, -1], 5))
@example(([[-1, 5]], [0, -1], 3))
@example(([[-1, 5, 0], [-2, 9, 3]], [0, -1, 0], 10))
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 2 ** 200))
@example(([[-A_300, 3, A_300 - 3], [C_300, -A_300, 1]], [0, 0, 0], 2 ** 200))
@example(([[2, -1, -1], [1, 1, -3], [-5, 2, 2]], [1, -1, 0], 1))
def test_repeat_count_matches_the_closed_form(case):
    """The run length in closed form, one floor division per linear
    decision, against _repeat_count and the bisection oracle."""
    assert_repeat_count(closed_form_repeat_count, *case)


@settings(max_examples=300)
@given(wide_blocks())
@example(([[-1, 5]], [0, -5], 2 ** 200))  # comparable at repetition 1
@example(([[-1, 5]], [0, -1], 4))  # the run lasts to its limit
@example(([[-1, 5]], [0, -1], 2 ** 200))  # it ends at a norm tie
@example(([[-A_300, A_300 + 4 * C_300]], [0, -C_300], 2 ** 200))
@example(([[-A_300, 3, A_300 - 3], [C_300, -A_300, 1]], [0, 0, 0], 2 ** 200))
def test_repeat_count_makes_at_most_three_probes(case):
    """Repetition 1, then the closed form's c and c + 1: at most three probes
    whatever the entry size, and one when repetition 1 differs.  A probe
    calls _J_rule once per round of the block at most, so a single round
    costs at most three calls, and one when repetition 1 differs."""
    states, shift, limit = case
    rounds = [(d, oracle_J_rule(d)) for d in states]
    probes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perron.engine, "_J_rule", lambda d: probes.append(d) or _J_rule(d))
        _repeat_count(rounds, shift, limit)
    assert 1 <= len(probes) <= 3 * len(states)
    if closed_form_repeat_count(states, shift, 1) == 0:
        assert len(probes) <= len(states)


def big_entry_pair(n, bits, seed):
    """An incomparable pair whose entries lie below 2^k, k uniform in 1..bits."""
    rng = random.Random(seed)
    while True:
        alpha, beta = ([rng.getrandbits(rng.randint(1, bits)) for _ in range(n)]
                       for _ in "ab")
        if min(map(sub, alpha, beta)) < 0 < max(map(sub, alpha, beta)):
            return alpha, beta


def test_big_entries_cost_a_few_probes_per_run(probed):
    """A FirstIndex pair of 4,096-bit entries in 9 runs: each run costs the
    loop's own _J_rule and at most three probes, plus the final one that
    finds the pair comparable.  The bisection made about 800 per run."""
    trace = run_pair(*big_entry_pair(3, 4096, 0), FirstIndex())
    runs = len(trace.steps.runs)
    assert runs == 9
    assert len(probed) <= 4 * runs + 1


@pytest.mark.parametrize("error", [1, -1])
def test_a_closed_form_that_disagrees_is_an_internal_error(monkeypatch, error):
    """_J_rule confirms the closed form: an answer one past the run's end or
    one short of it raises InternalError."""
    closed_form = perron.engine._run_length
    monkeypatch.setattr(perron.engine, "_run_length",
                        lambda tests, limit: closed_form(tests, limit) + error)
    with pytest.raises(InternalError, match="disagrees with _J_rule"):
        run_pair((299857033, 11, 3), (7218397668, 1132981884, 1), FirstIndex())
