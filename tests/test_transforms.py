import ast
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perron import (Step, Trace, ValidationError, apply_matrix, apply_step,
                    compose_trace, determinant, natvec)
import perron
import perron.transforms
from perron.transforms import (_bareiss, apply_run, commute, identity_matrix,
                               intvec)

from conftest import ordered_pair_with_step, step_matrix, traces, vec_with_step


# independent oracles ------------------------------------------------------

def naive_matvec(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(len(v)))
                 for r in range(len(m)))


def naive_matmul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(len(b)))
              for c in range(len(b[0])))
        for r in range(len(a)))


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for k in range(i + 1, len(perm)):
            if perm[i] > perm[k]:
                sign = -sign
    return sign


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for r in range(n):
            prod *= m[r][perm[r]]
        total += permutation_sign(perm) * prod
    return total


def fraction_rank_det(rows):
    """(rank, determinant) by Gaussian elimination over Fraction; the
    determinant is meaningful for square rows only."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


def random_trace(rng, n, length):
    steps = []
    for _ in range(length):
        J = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        steps.append(Step(J, rng.choice(sorted(J)), n))
    return steps


# worked examples ----------------------------------------------------------

def test_step_matrix_examples():
    assert step_matrix(Step({1, 3}, 1, 3)) == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert step_matrix(Step({2}, 2, 2)) == identity_matrix(2)
    assert step_matrix(Step({1, 2, 3}, 2, 3)) == ((1, 0, 0), (1, 1, 1), (0, 0, 1))


def test_apply_step_examples():
    assert apply_step(Step({1, 3}, 1, 3), (2, 3, 5)) == (7, 3, 5)
    assert apply_step(Step({2}, 2, 2), (4, 9)) == (4, 9)
    # signed overload: oracle is the matrix-vector product
    step = Step({1, 2}, 2, 2)
    assert naive_matvec(step_matrix(step), (2, -1)) == (2, 1)
    assert apply_step(step, (2, -1)) == (2, 1)


def test_compose_trace_examples():
    assert compose_trace([], 2) == identity_matrix(2)
    assert compose_trace([Step({1, 2}, 1, 2)], 2) == ((1, 1), (0, 1))
    # last step leftmost: A2 * A1
    first = Step({1, 2}, 1, 2)
    second = Step({1, 2}, 2, 2)
    expected = naive_matmul(step_matrix(second), step_matrix(first))
    assert expected == ((1, 1), (1, 2))
    assert compose_trace([first, second], 2) == expected


def test_apply_matrix_examples():
    assert apply_matrix(identity_matrix(2), (3, 1)) == (3, 1)
    m = ((1, 1), (0, 1))
    assert naive_matvec(m, (3, 1)) == (4, 1)
    assert apply_matrix(m, (3, 1)) == (4, 1)
    m = ((1, 1), (1, 2))
    assert naive_matvec(m, (1, 0)) == (1, 1)
    assert apply_matrix(m, (1, 0)) == (1, 1)


def test_determinant_examples():
    assert determinant(identity_matrix(3)) == 1
    assert determinant(()) == determinant(compose_trace([], 0)) == 1
    assert determinant(step_matrix(Step({1, 2, 3}, 2, 3))) == 1
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        steps = random_trace(rng, n, rng.randint(0, 8))
        assert determinant(compose_trace(steps, n)) == 1


@pytest.mark.parametrize("m, v", [
    (((1, 2), (3, 4, 5)), (1, 2)),  # a long row after a row that fits
    (((1, 2), (3,)), (1, 2)),  # a short one
    (((1, 2),), (1, 2, 3)),
    ((), (1,)),
])
def test_apply_matrix_checks_every_row(m, v):
    with pytest.raises(ValidationError, match="dimension mismatch"):
        apply_matrix(m, v)


@pytest.mark.parametrize("m", [
    ((Fraction(1, 3), 1), (1, 1)),  # det -2/3, not the -1 a floored Bareiss gives
    ((0.5, 0.0), (0.0, 1.0)),  # det 0.5, not 0
    ((1, 0), (0, "1")),
    ((True, 0), (0, 1)),
])
def test_determinant_takes_integer_entries_only(m):
    with pytest.raises(ValidationError, match="must be integers"):
        determinant(m)


def test_determinant_against_leibniz():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert determinant(m) == leibniz_det(m)


@st.composite
def integer_rows(draw):
    """1-8 rows of 1-8 integers up to 2^70 of either sign.  Some rows are
    integer combinations of earlier ones, some are zero, and some columns
    are zero throughout."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=2))
    entry = st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70)
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(["free"] * 4 + ["combination", "zero"]))
        if kind == "free" or kind == "combination" and not rows:
            row = [0 if k in zero_cols else draw(entry) for k in range(c)]
        elif kind == "combination":
            coeffs = [draw(st.integers(-4, 4)) for _ in rows]
            row = [sum(a * x for a, x in zip(coeffs, col)) for col in zip(*rows)]
        else:
            row = [0] * c
        rows.append(tuple(row))
    return tuple(draw(st.permutations(rows)))


@given(integer_rows())
def test_elimination_matches_fraction_elimination(rows):
    """The kernel's rank, and determinant on the leading square block."""
    assert _bareiss(rows)[0] == fraction_rank_det(rows)[0]
    k = min(len(rows), len(rows[0]))
    square = tuple(row[:k] for row in rows[:k])
    assert determinant(square) == fraction_rank_det(square)[1]


# invariants ---------------------------------------------------------------

@given(vec_with_step(signed=True))
def test_apply_step_matches_matrix_action(case):
    v, step = case
    m = step_matrix(step)
    assert apply_step(step, v) == naive_matvec(m, v)
    assert apply_step(step, list(v)) == naive_matvec(m, v)
    w = v  # the matrix applied k times: apply_run's closed form must agree
    for k in range(6):
        assert apply_run(step, k, v) == apply_run(step, k, list(v)) == w
        w = naive_matvec(m, w)


@given(vec_with_step(signed=True, max_entry=2 ** 40), st.integers(1, 6))
def test_apply_run_is_k_applications_of_apply_step(case, k):
    """apply_run sums the J-entries itself, in one pass; apply_step, applied
    k times, is its oracle, on tuples and lists of signed entries."""
    v, step = case
    w = v
    for _ in range(k):
        w = apply_step(step, w)
    assert apply_run(step, k, v) == apply_run(step, k, list(v)) == w
    longer = v + (0,)
    with pytest.raises(ValidationError) as by_step:
        apply_step(step, longer)
    with pytest.raises(ValidationError) as by_run:
        apply_run(step, k, longer)
    assert str(by_run.value) == str(by_step.value) == (
        f"dimension mismatch: step has dim {step.dim}, vector has {len(longer)}")


def test_only_drive_and_add_run_take_the_unchecked_paths():
    """transforms._step builds a Step without its checks and Trace._append
    records a run without them: engine.drive calls both, Trace.add_run calls
    _append after its checks, and nothing else in src/ calls either.  Neither
    is exported."""
    callers = {"_step": set(), "_append": set()}
    for path in Path(perron.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add(f"{path.stem}.{function.name}")
    assert callers == {"_step": {"engine.drive"},
                       "_append": {"engine.drive", "transforms.add_run"}}
    assert len(perron.__all__) == 53
    assert not {"_step", "_append"} & set(perron.__all__)


@given(traces())
def test_composed_traces_are_unimodular(case):
    n, steps = case
    assert determinant(compose_trace(steps, n)) == 1


@given(ordered_pair_with_step())
def test_steps_preserve_componentwise_order(case):
    u, v, step = case
    iu = apply_step(step, u)
    iv = apply_step(step, v)
    assert all(x <= y for x, y in zip(iu, iv))


@given(vec_with_step(), traces())
def test_compose_equals_step_fold(case, trace_case):
    n, steps = trace_case
    v = tuple(range(1, n + 1))
    folded = v
    for step in steps:
        folded = apply_step(step, folded)
    assert apply_matrix(compose_trace(steps, n), v) == folded


# run-length traces against their expansion --------------------------------

@st.composite
def trace_runs(draw, max_dim=4, max_runs=6):
    """(n, runs): blocks of one step or of commuting steps (distinct targets,
    each J free of the other targets), with repeated blocks now and then."""
    n = draw(st.integers(1, max_dim))
    runs = []
    for _ in range(draw(st.integers(0, max_runs))):
        if runs and draw(st.booleans()):
            block = runs[-1][0]
        else:
            targets = draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                                    unique=True))
            block = tuple(
                Step(draw(st.frozensets(st.integers(1, n))) - set(targets) | {j},
                     j, n)
                for j in targets)
        runs.append((block, draw(st.integers(1, 4))))
    return n, runs


bounds = st.one_of(st.none(), st.integers(-30, 30))


@given(trace_runs(), bounds, bounds, st.one_of(st.none(), st.integers(-3, 3)
                                               .filter(bool)))
def test_trace_behaves_as_its_expansion(case, start, stop, stride):
    n, runs = case
    trace = Trace(runs)
    flat = tuple(s for block, m in runs for _ in range(m) for s in block)
    assert trace == flat and flat == trace
    assert trace == list(flat) and not trace != flat
    assert trace == Trace(((s,), 1) for s in flat)
    assert len(trace) == len(flat) == sum(len(b) * m for b, m in trace.runs)
    assert list(trace) == list(flat)
    for i in range(-len(flat), len(flat)):
        assert trace[i] == flat[i]
    for i in (len(flat), -len(flat) - 1):
        with pytest.raises(IndexError):
            trace[i]
    assert trace[start:stop:stride] == flat[start:stop:stride]
    if flat:
        assert trace != flat[:-1] and trace != flat + flat[:1]
    assert compose_trace(trace, n) == compose_trace(list(trace), n)


huge = st.sampled_from([1, 10 ** 6, sys.maxsize, 2 ** 64, 10 ** 30])


def round_of(trace, k):
    """Oracle: the step of round k (0-based), found by walking the runs."""
    for block, m in trace.runs:
        if k < len(block) * m:
            return block[k % len(block)]
        k -= len(block) * m


@given(trace_runs(), st.data())
def test_trace_slices_and_iterates_past_a_machine_word(case, data):
    """Runs of up to 10^30 rounds: a slice skips the runs outside it, and
    iteration splits runs longer than sys.maxsize."""
    a, b = Step({1, 2}, 1, 2), Step({1, 2}, 2, 2)
    big = Trace([((a,), 10 ** 30), ((b,), 2 ** 64), ((a,), 1)])
    assert big[10 ** 30 - 1:10 ** 30 + 2] == (a, b, b)
    assert big[2 ** 64:2 ** 64 + 2] == big[0:2] == (a, a)
    assert big[::-10 ** 30] == (a, a)
    assert big[10 ** 30 + 1:10 ** 30 - 2:-2] == (b, a)
    assert big[-2:] == (b, a) and next(iter(big)) == a

    _, runs = case
    trace = Trace((block, m * data.draw(huge)) for block, m in runs)
    rounds = trace.rounds
    start = data.draw(st.integers(-rounds - 3, rounds + 3))
    stride = data.draw(st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
                       .filter(bool))
    stop = start + stride * data.draw(st.integers(0, 4))
    for key in (slice(start, stop, stride), slice(None, 4), slice(-3, None),
                slice(start, start + 3)):
        assert trace[key] == tuple(round_of(trace, k) for k in range(rounds)[key])
    for k in (start, stop):
        if -rounds <= k < rounds:
            assert trace[k] == round_of(trace, k % rounds)
    assert list(itertools.islice(trace, 5)) == \
        [round_of(trace, k) for k in range(min(5, rounds))]


def test_trace_merges_repeated_blocks_and_checks_its_runs():
    a, b = Step({1, 3}, 1, 3), Step({2, 3}, 2, 3)
    trace = Trace([((a,), 2), ((a,), 3), ((a, b), 4), ((a, b), 1), ((b,), 1)])
    assert trace.runs == [((a,), 5), ((a, b), 5), ((b,), 1)]
    assert len(trace) == 16 and trace[5:8] == (a, b, a)
    assert Trace() == () == Trace() and Trace() != [a]
    assert Trace().__eq__(5) is NotImplemented and Trace() != 5
    assert Trace([((a,), 2)]) != Trace([((a,), 3)]) != Trace([((a,), 2)])
    assert Trace([((a,), 2)]) != (a, b) and (b, a) != Trace([((a, b), 1)])
    assert compose_trace(trace, 3) == compose_trace(list(trace), 3)
    for block, m in (((), 1), ((a,), 0), ((Step({1, 2}, 1, 2),
                                          Step({1, 2}, 2, 2)), 1),
                     ((a,), 2.5), ((a,), True)):
        with pytest.raises(ValidationError, match="^a run is a non-empty block"):
            Trace([(block, m)])


def test_trace_and_compose_trace_take_only_steps(monkeypatch):
    step = Step({1, 2}, 1, 2)
    # the perfbench tracer rebinds the module name Step to a wrapper function
    monkeypatch.setattr(perron.transforms, "Step", lambda *args: Step(*args))
    assert Trace([((step,), 2)]).runs == [((step,), 2)]
    # drive's unchecked steps are built from the class, not the module name
    assert [type(s) for s in perron.run_pair((3, 1), (1, 2), perron.FirstIndex()).steps] \
        == [Step, Step]
    assert compose_trace([step, step], 2) == ((1, 2), (0, 1))
    for runs, bad in (([((1,), 1)], 1), ([((step, 3), 1)], 3),
                      ([((step,), 1), ((step, None), 1)], None)):
        with pytest.raises(ValidationError, match=rf"^a trace holds steps, got {bad}$"):
            Trace(runs)
    with pytest.raises(ValidationError,
                       match=r"^a trace holds steps, got \(frozenset\(\{1, 2\}\), 1\)$"):
        compose_trace([(frozenset({1, 2}), 1)], 2)
    with pytest.raises(ValidationError, match="^a trace holds steps, got 'x'$"):
        compose_trace([step, "x"], 2)


@st.composite
def recut_traces(draw):
    """A trace drawn as runs of three commuting steps, and its expansion cut
    at random into runs of each piece's shortest period; now and then one
    round of the second differs."""
    steps = st.sampled_from((Step({1, 3}, 1, 3), Step({2, 3}, 2, 3),
                             Step({1}, 1, 3)))
    first = Trace(draw(st.lists(st.tuples(
        st.lists(steps, min_size=1, max_size=3), st.integers(1, 4)), max_size=5)))
    flat = list(first)
    if flat and draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(steps)
    cuts = sorted(draw(st.sets(st.integers(0, len(flat)))) | {0, len(flat)})
    second = Trace()
    for piece in (flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])):
        p = next(p for p in range(1, len(piece) + 1)
                 if piece == piece[:p] * (len(piece) // p))
        second.add_run(piece[:p], len(piece) // p)
    return first, second


@given(recut_traces())
def test_trace_equality_walks_the_runs_together(case):
    """Traces compare run against run, so 10^30 rounds cut differently take
    a few comparisons; on small traces == agrees with the expansions."""
    a, b = Step({1, 3}, 1, 3), Step({2, 3}, 2, 3)
    long = Trace([((a, b), 10 ** 30)])
    recut = Trace([((a,), 1), ((b, a), 10 ** 30 - 1), ((b,), 1)])
    last_differs = Trace([((a,), 1), ((b, a), 10 ** 30 - 1), ((a,), 1)])
    assert long == recut and recut == long and not long != recut
    assert long != last_differs and last_differs != long
    # periods 2 and 3 agree on 3 rounds, not on |A| + |B| = 5
    assert long != Trace([((a, b, a), 2), ((a, b), 10 ** 30 - 3)])
    first, second = case
    assert (first == second) == (second == first) == \
        (tuple(first) == tuple(second))
    assert first == tuple(first) and tuple(second) == second


# validation ---------------------------------------------------------------

def test_step_validation():
    with pytest.raises(ValidationError):
        Step(frozenset(), 1, 2)
    with pytest.raises(ValidationError):
        Step({1, 2}, 3, 2)  # j not in J
    with pytest.raises(ValidationError):
        Step({0, 1}, 1, 2)  # J outside 1..n


def test_vector_validation():
    with pytest.raises(ValidationError):
        natvec([])
    with pytest.raises(ValidationError):
        natvec([1, -2])
    with pytest.raises(ValidationError):
        apply_step(Step({1}, 1, 2), (1, 2, 3))
    with pytest.raises(ValidationError, match="step has dim 2, vector has 3"):
        apply_run(Step({1, 2}, 1, 2), 3, (1, 2, 3))
    with pytest.raises(ValidationError):
        apply_matrix(((1, 0), (0, 1)), (1, 2, 3))
    with pytest.raises(ValidationError):
        compose_trace([Step({1}, 1, 2), Step({1}, 1, 3)], 2)
    with pytest.raises(ValidationError):
        determinant(((1, 2, 3), (4, 5, 6)))


# primitives against the definitions their fast paths replaced --------------

class IntSubclass(int):
    """An int subclass; accepted wherever int is."""


def test_vector_validation_messages():
    with pytest.raises(ValidationError) as info:
        intvec([1, True])
    assert str(info.value) == "vector entries must be integers, got True"
    with pytest.raises(ValidationError) as info:
        natvec([1, 2.0])
    assert str(info.value) == "vector entries must be integers, got 2.0"
    with pytest.raises(ValidationError) as info:
        natvec([0, 3, -2, -5])
    assert str(info.value) == "entry 3 is negative: -2"
    with pytest.raises(ValidationError) as info:
        natvec([])
    assert str(info.value) == "vector must have dimension >= 1"
    assert natvec([IntSubclass(2), 0]) == (2, 0)
    assert intvec((IntSubclass(-4), 1)) == (-4, 1)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_natvec_reports_the_first_negative_entry(entries):
    negatives = [(k, e) for k, e in enumerate(entries) if e < 0]
    if not negatives:
        assert natvec(entries) == tuple(entries)
        return
    k, e = negatives[0]
    with pytest.raises(ValidationError) as info:
        natvec(entries)
    assert str(info.value) == f"entry {k + 1} is negative: {e}"


def test_step_validation_messages():
    cases = [
        ((frozenset(), 1, 2), "J must be non-empty"),
        (({True, 2}, 2, 2), "J must be a subset of 1..2, got [True, 2]"),
        (({0, 1}, 1, 2), "J must be a subset of 1..2, got [0, 1]"),
        (({1, 3}, 1, 2), "J must be a subset of 1..2, got [1, 3]"),
        (({1.0, 2}, 2, 2), "J must be a subset of 1..2, got [1.0, 2]"),
        (({1, 2}, 3, 3), "j=3 is not a member of J=[1, 2]"),
        (([[1]], 1, 2), "J must be a set of integers, got [[1]]"),
        ((5, 1, 2), "J must be a set of integers, got 5"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError) as info:
            Step(*args)
        assert str(info.value) == message
    step = Step([IntSubclass(1), 2], 2, 2)
    assert step.J == frozenset({1, 2})
    assert apply_step(step, (3, 4)) == (3, 7)


def test_step_rejects_a_non_integer_j_or_dim():
    cases = [
        (({1, 2}, True, 2), "j=True is not a member of J=[1, 2]"),
        (({1, 2}, 1.0, 2), "j=1.0 is not a member of J=[1, 2]"),
        (({1}, 1, 1.5), "J must be a subset of 1..1.5, got [1]"),
        (({1}, 1, True), "J must be a subset of 1..True, got [1]"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError) as info:
            Step(*args)
        assert str(info.value) == message
    step = Step({1, 2}, IntSubclass(2), IntSubclass(2))
    assert (step.j, step.dim) == (2, 2)


# identity_matrix and compose_trace against the generator forms they replaced

def oracle_identity_matrix(n):
    return tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))


def oracle_compose_trace(steps, n):
    runs = steps.runs if isinstance(steps, Trace) else [((s,), 1) for s in steps]
    rows = [list(row) for row in oracle_identity_matrix(n)]
    for block, m in runs:
        for step in block:
            if step.dim != n:
                raise ValidationError(
                    f"trace mixes dimensions: expected {n}, found {step.dim}")
            others = [rows[i - 1] for i in step.J if i != step.j]
            if others:
                rows[step.j - 1] = [x + m * sum(col) for x, col
                                    in zip(rows[step.j - 1], zip(*others))]
    return tuple(tuple(row) for row in rows)


@given(st.integers(-2, 12))
def test_identity_matrix_matches_the_generator_form(n):
    assert identity_matrix(n) == oracle_identity_matrix(n)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@st.composite
def runs_of_blocks(draw, max_dim=4):
    """(n, steps): a Trace of runs, each a block of commuting steps played up
    to 2^70 times, or a plain list of steps; now and then a step of another
    dimension, which both must reject alike."""
    n = draw(st.integers(1, max_dim))
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        block = []
        for _ in range(draw(st.integers(1, 3))):
            J = draw(st.frozensets(st.integers(1, n), min_size=1))
            block.append(Step(J, draw(st.sampled_from(sorted(J))), n))
        if commute(block):
            steps.append((tuple(block), draw(st.integers(1, 2 ** 70))))
    if draw(st.booleans()):
        return n, Trace(steps)
    flat = [step for block, m in steps for step in block * min(m, 3)]
    if flat and draw(st.booleans()):
        flat.insert(draw(st.integers(0, len(flat))), Step({1}, 1, n + 1))
    return n, flat


@given(runs_of_blocks())
def test_compose_trace_matches_the_generator_form(case):
    n, steps = case
    assert _outcome(compose_trace, steps, n) == \
        _outcome(oracle_compose_trace, steps, n)
