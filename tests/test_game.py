import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perron import (Comparability, FirstIndex, Scripted, Step,
                    ValidationError, advance_champion, apply_matrix,
                    apply_step, choose_J, comparability, compose_trace,
                    game_tree, is_won, natvec, solve, step_matrix)
from perron.game import _validated_vectors

from conftest import adversary_kinds, build_adversary


@st.composite
def vector_lists(draw, max_count=4, max_dim=3, max_entry=6):
    n = draw(st.integers(1, max_dim))
    count = draw(st.integers(1, max_count))
    return [tuple(draw(st.integers(0, max_entry)) for _ in range(n))
            for _ in range(count)]


def test_is_won_examples():
    assert is_won([(1, 0), (1, 1)]) == 0
    assert is_won([(1, 0), (0, 1)]) is None
    assert is_won([(2, 3), (2, 3), (5, 3)]) == 0
    with pytest.raises(ValidationError):
        is_won([])


def play_round(vectors, J, j):
    """Every point moves by the same step (J, j)."""
    step = Step(frozenset(J), j, len(vectors[0]))
    return tuple(apply_step(step, v) for v in vectors)


def test_apply_round_examples():
    vectors = ((1, 0), (0, 1))
    # oracle: the step matrix applied to each point
    step = Step(frozenset({1, 2}), 1, 2)
    assert tuple(apply_matrix(step_matrix(step), v) for v in vectors) == \
        ((1, 0), (1, 1))
    assert play_round(vectors, {1, 2}, 1) == ((1, 0), (1, 1))
    assert play_round(vectors, {1, 2}, 2) == ((1, 1), (0, 1))
    assert next(game_tree(vectors))[3] == [
        (Step(frozenset({1, 2}), 1, 2), ((1, 0), (1, 1))),
        (Step(frozenset({1, 2}), 2, 2), ((1, 1), (0, 1)))]
    assert play_round(((4, 4),), {2}, 2) == ((4, 4),)
    with pytest.raises(ValidationError):
        play_round(vectors, {1, 2}, 3)


def proposed_J(vectors):
    """The J of the champion strategy's moves: one move per j in J."""
    moves = next(game_tree(vectors))[3]
    (J,) = {step.J for step, _ in moves}
    assert [step.j for step, _ in moves] == sorted(J)
    return J


def test_propose_J_examples():
    assert proposed_J(((1, 0), (0, 1))) == {1, 2}
    # the first vector incomparable to the champion is (1,2); (9,9) waits
    assert proposed_J(((3, 1), (1, 2), (9, 9))) == {1, 2}
    assert proposed_J(((3, 1), (1, 2), (9, 9))) == choose_J((3, 1), (1, 2))
    assert proposed_J(((2, 0, 0), (0, 1, 1))) == {1, 2, 3}
    # a won position has no moves
    assert next(game_tree(((1, 0), (1, 1))))[2:] == (0, [])


def test_solve_examples():
    outcome = solve([(1, 0), (0, 1)], Scripted([1]))
    assert outcome.rounds == 1
    assert outcome.winner_index == 0
    assert outcome.final_vectors == ((1, 0), (1, 1))
    assert is_won(outcome.final_vectors) == 0

    outcome = solve([(5, 5)], FirstIndex())
    assert outcome.rounds == 0 and outcome.winner_index == 0

    with pytest.raises(ValidationError):
        solve([], FirstIndex())


def exhaustive_game_tree_is_won(vectors, depth_limit=200):
    """Walk every adversary choice sequence of the champion strategy."""
    leaves = 0
    for path, vs, _, moves in game_tree(vectors):
        assert len(path) <= depth_limit
        if not moves:
            winner = is_won(vs)
            assert winner is not None
            assert all(all(x <= y for x, y in zip(vs[winner], v)) for v in vs)
            leaves += 1
    return leaves


def test_solve_exhaustive_example():
    assert exhaustive_game_tree_is_won([(2, 0), (0, 3), (1, 1)]) >= 1


@given(vector_lists(), adversary_kinds, st.integers(0, 2 ** 32 - 1))
def test_trace_consistency(vectors, kind, seed):
    outcome = solve(vectors, build_adversary(kind, seed))
    matrix = compose_trace(outcome.trace, len(vectors[0]))
    assert tuple(apply_matrix(matrix, v) for v in vectors) == outcome.final_vectors
    winner = outcome.final_vectors[outcome.winner_index]
    assert all(all(x <= y for x, y in zip(winner, v))
               for v in outcome.final_vectors)


def positions(vectors, trace):
    """Every position of a game: the start, then the one after each round,
    replayed from the trace step by step."""
    vs = tuple(vectors)
    yield vs
    for step in trace:
        vs = tuple(apply_step(step, v) for v in vs)
        yield vs


@given(vector_lists(), adversary_kinds, st.integers(0, 2 ** 32 - 1))
def test_comparability_persists_round_by_round(vectors, kind, seed):
    comparable_at_start = [
        (i, k) for i, k in itertools.combinations(range(len(vectors)), 2)
        if all(x <= y for x, y in zip(vectors[i], vectors[k]))
        or all(x >= y for x, y in zip(vectors[i], vectors[k]))]

    outcome = solve(vectors, build_adversary(kind, seed))
    for vs in positions(vectors, outcome.trace):
        for i, k in comparable_at_start:
            assert (all(x <= y for x, y in zip(vs[i], vs[k]))
                    or all(x >= y for x, y in zip(vs[i], vs[k])))


@settings(max_examples=30)
@given(vector_lists(max_count=3, max_dim=3, max_entry=3))
def test_strategy_sound_for_every_adversary_sequence(vectors):
    assert exhaustive_game_tree_is_won(vectors) >= 1


@given(vector_lists(), adversary_kinds, st.integers(0, 2 ** 32 - 1))
def test_champion_stays_below_settled_prefix(vectors, kind, seed):
    outcome = solve(vectors, build_adversary(kind, seed))
    champ = 0
    steps = list(outcome.trace) + [None]  # no round after the last position
    for vs, step in zip(positions(vectors, outcome.trace), steps):
        champ, target = advance_champion(vs, champ)
        # the round played here descends the champion and the target
        assert (target is None) == (step is None)
        if step is not None:
            assert step.J == choose_J(vs[champ], vs[target])
        prefix_end = len(vs) if target is None else target
        for v in vs[:prefix_end]:
            assert all(x <= y for x, y in zip(vs[champ], v))
    assert champ == outcome.winner_index


# game_tree against the per-node moves function it replaced -----------------

def champion_moves(vectors, champion_index=0):
    """The oracle: the strategy's moves from one position, as the library
    gave them before game_tree.  The updated champion index, and one
    (step, child) per j in sorted J; no moves once the position is won."""
    champ, target = advance_champion(vectors, champion_index)
    if target is None:
        return champ, []
    J = choose_J(vectors[champ], vectors[target])
    steps = [Step(J, j, len(vectors[0])) for j in sorted(J)]
    return champ, [(s, tuple(apply_step(s, v) for v in vectors)) for s in steps]


def walk_with_champion_moves(vectors, champion_index, steps_taken=()):
    """Preorder over the moves, each child inheriting the updated champion."""
    champ, moves = champion_moves(vectors, champion_index)
    yield steps_taken, vectors, champ, moves
    for step, child in moves:
        yield from walk_with_champion_moves(child, champ, steps_taken + (step,))


@settings(max_examples=60)
@given(vector_lists(max_count=4, max_dim=4, max_entry=6), st.data())
def test_game_tree_matches_the_champion_moves_walk(vectors, data):
    champ = data.draw(st.integers(0, len(vectors) - 1))
    assert list(game_tree(vectors, champ)) == \
        list(walk_with_champion_moves(tuple(vectors), champ))


@given(vector_lists(max_count=4, max_dim=4, max_entry=6), st.data())
def test_root_moves_commute_with_translation(vectors, data):
    """The strategy reads only differences of points and steps are linear:
    from V + c it plays the champion and steps it plays from V, each child
    shifted by the step applied to c, and it wins on the same sets."""
    c = tuple(data.draw(st.integers(min_value=0)) for _ in vectors[0])
    champ = data.draw(st.integers(0, len(vectors) - 1))

    def shift(vs, d):
        return tuple(tuple(x + y for x, y in zip(v, d)) for v in vs)

    _, _, champion, moves = next(game_tree(vectors, champ))
    assert next(game_tree(shift(vectors, c), champ))[2:] == (champion, [
        (step, shift(child, apply_step(step, c))) for step, child in moves])
    assert is_won(shift(vectors, c)) == is_won(vectors)


# is_won against the pairwise scan it replaced ------------------------------

def oracle_is_won(vectors):
    """First point below every point, by comparing all pairs."""
    vs = [tuple(v) for v in vectors]
    for i, v in enumerate(vs):
        if all(all(x <= y for x, y in zip(v, w)) for w in vs):
            return i
    return None


@st.composite
def vector_lists_with_repeats(draw):
    """Point lists where points often repeat, in tuple or list form."""
    base = draw(vector_lists(max_count=4, max_dim=3, max_entry=3))
    count = draw(st.integers(1, 6))
    vs = [draw(st.sampled_from(base)) for _ in range(count)]
    if draw(st.booleans()):
        vs = [list(v) for v in vs]
    return vs


@given(vector_lists_with_repeats())
def test_is_won_matches_pairwise_scan(vectors):
    assert is_won(vectors) == oracle_is_won(vectors)


def test_is_won_oracle_edge_cases():
    cases = [
        [(4,)], [(3,), (1,), (1,), (2,)], [[0], [0]],
        [[2, 3], [2, 3], [5, 3]], [[5, 3], [2, 3], [2, 3]],
        [(1, 0), (0, 1), (0, 0), (0, 0)], [(1, 2), (2, 1), (1, 1)],
        [[1, 0], [0, 1]],
    ]
    for vectors in cases:
        assert is_won(vectors) == oracle_is_won(vectors)
    assert is_won([[3], [1], [1]]) == 1
    with pytest.raises(ValidationError, match="share one dimension"):
        is_won([(1, 2), (1,)])
    with pytest.raises(ValidationError, match="entry 2 is negative: -1"):
        is_won([[0, -1]])


# advance_champion against the comparability sweep it replaced ---------------

def oracle_advance_champion(vectors, champion_index):
    """The oracle: the sweep as the library ran it before, one comparability
    call and one Comparability dispatch per point."""
    champ = champion_index
    for i, v in enumerate(vectors):
        if i == champ:
            continue
        rel = comparability(vectors[champ], v)
        if rel is Comparability.INCOMPARABLE:
            return champ, i
        if rel is Comparability.GREATER_EQ:
            champ = i
    return champ, None


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as e:
        return "raised", type(e), str(e)


@st.composite
def sweeps(draw):
    """Point sets with repeats and chains, sometimes ragged, and a champion."""
    n = draw(st.integers(1, 3))
    points = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    if draw(st.integers(0, 4)) == 0:
        points = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
    vectors = draw(st.lists(points, min_size=1, max_size=6))
    return vectors, draw(st.integers(0, len(vectors) - 1))


@given(sweeps())
def test_advance_champion_matches_comparability_sweep(case):
    vectors, champ = case
    assert outcome(advance_champion, vectors, champ) == \
        outcome(oracle_advance_champion, vectors, champ)


def test_advance_champion_ragged_sets():
    for vectors, champ, message in (([(1, 2), (3,)], 0, "2 vs 1"),
                                    ([(3,), (1, 2)], 0, "1 vs 2"),
                                    ([(2, 2), (1, 1), (0,)], 0, "2 vs 1"),
                                    ([(1, 2), (0, 0), (5,)], 1, "2 vs 1")):
        with pytest.raises(ValidationError, match=f"^dimension mismatch: {message}$"):
            advance_champion(vectors, champ)
        assert outcome(advance_champion, vectors, champ) == \
            outcome(oracle_advance_champion, vectors, champ)
    # the sweep stops at the first incomparable point, before a ragged one
    assert advance_champion([(1, 0), (0, 1), (5,)], 0) == (0, 1)
    assert advance_champion([], 3) == oracle_advance_champion([], 3) == (3, None)


# set validation against the per-vector natvec path it short-cuts -------------

def oracle_validated_vectors(vectors):
    """The oracle: the start-set check as the library ran it before, natvec
    on every vector, then the set checks."""
    vs = tuple([natvec(v) for v in vectors])
    if not vs:
        raise ValidationError("vector list must be non-empty")
    n = len(vs[0])
    for v in vs:
        if len(v) != n:
            raise ValidationError("all vectors must share one dimension")
    return vs


class Nat(int):
    """An int subclass: natvec accepts it and keeps it."""


def typed(value):
    """A validated set with the type of every point and entry, or an error."""
    if value[0] != "ok":
        return value
    return "ok", value[1], [(type(v), [type(x) for x in v]) for v in value[1]]


@st.composite
def start_sets(draw):
    """Mostly good start sets in every accepted form, with a few flaws."""
    n = draw(st.integers(0, 3) if draw(st.integers(0, 5)) == 0 else st.integers(1, 3))
    entry = st.integers(0, 4)
    if draw(st.integers(0, 2)) == 0:
        entry = st.one_of(entry, st.integers(-2, -1), st.booleans(),
                          st.builds(Nat, st.integers(0, 4)), st.just(1.0))
    vectors = []
    for _ in range(draw(st.integers(0 if draw(st.integers(0, 5)) == 0 else 1, 4))):
        k = n if draw(st.integers(0, 5)) else draw(st.integers(0, 3))
        v = [draw(entry) for _ in range(k)]
        vectors.append(draw(st.sampled_from([tuple, list]))(v))
    return draw(st.sampled_from(["tuple", "list", "generator"])), vectors


def fresh(case):
    container, vectors = case
    if container == "generator":
        return (v for v in vectors)
    return tuple(vectors) if container == "tuple" else list(vectors)


@given(start_sets())
def test_validated_vectors_match_the_natvec_path(case):
    assert typed(outcome(_validated_vectors, fresh(case))) == \
        typed(outcome(oracle_validated_vectors, fresh(case)))


@pytest.mark.parametrize("make, error", [
    (lambda: [[1, 0], [0, 1]], None),
    (lambda: [[2, 3], (2, 3), [5, 3]], None),
    (lambda: [(Nat(1), 0), (0, Nat(1))], None),
    (lambda: (v for v in [(1, 0), (0, 1)]), None),
    (lambda: [[0, -1]], "entry 2 is negative: -1"),
    (lambda: [(1, 2), (0, -3)], "entry 2 is negative: -3"),
    (lambda: [(True, 0)], "vector entries must be integers, got True"),
    (lambda: [(1, 0), (0, 1.0)], "vector entries must be integers, got 1.0"),
    (lambda: [(1, 2), (1,)], "all vectors must share one dimension"),
    (lambda: [], "vector list must be non-empty"),
    (lambda: (), "vector list must be non-empty"),
    (lambda: [()], "vector must have dimension >= 1"),
    (lambda: [(1, 2), ()], "vector must have dimension >= 1"),
    # per-vector errors come first, in input order, before the set checks
    (lambda: [(1, 2, 3), (-1,), (True,)], "entry 1 is negative: -1"),
    (lambda: [(1,), (2, 2), (True,)], "vector entries must be integers, got True"),
    (lambda: (v for v in [(1, 0), (0, -1)]), "entry 2 is negative: -1"),
    (lambda: (v for v in [(1, 0), (0,)]), "all vectors must share one dimension"),
], ids=["lists", "mixed", "int-subclass", "generator", "list-negative",
        "negative", "bool", "float", "ragged", "empty-list", "empty-tuple",
        "zero-length", "zero-length-later", "negative-first", "bool-first",
        "generator-negative", "generator-ragged"])
def test_start_set_errors_are_the_natvec_path_errors(make, error):
    plain = None if error else tuple(tuple(map(int, v)) for v in make())
    calls = {"is_won": is_won,
             "solve": lambda vs: solve(vs, FirstIndex()),
             "game_tree": lambda vs: list(game_tree(vs))}
    for name, call in calls.items():
        if error:
            with pytest.raises(ValidationError) as raised:
                call(make())
            assert str(raised.value) == error, name
        else:
            assert call(make()) == call(plain), name
    assert typed(outcome(_validated_vectors, make())) == \
        typed(outcome(oracle_validated_vectors, make()))
