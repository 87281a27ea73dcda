"""Acceptance suite: the full property battery, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to stream one pass/fail line
per criterion.  Criterion 3 audits every trace produced by criteria 1, 2, 5,
6 and 7, so it is defined after them and expects a whole-module run; invoked
on its own it audits a self-generated batch instead.  Criterion 4 counts
every start set's whole tree in one walk memoized by translation classes;
`pytest -m full_walk tests/test_acceptance.py` also walks every start set's
tree without that lemma, which takes minutes and which a plain run
deselects (see pyproject.toml).
"""

import itertools
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from perron import (FirstIndex, GroupBasis, GroupElement, GroupOrder,
                    MaxGrowth, Scripted, SeededRandom, Step, ValuedRing,
                    apply_matrix, apply_step, apply_substitution,
                    choose_J, comparability, compose_trace, determinant,
                    divisibility_transform, element_value, game_tree,
                    is_won, lex_sign, monomialize, polynomial, positivize,
                    positivize_all, run_pair, simple_perron, solve, tau,
                    validate_order)
from perron.cli import main as cli_main
from perron.transforms import identity_matrix

from conftest import element_compare, monomial_value, step_matrix, substitute_exponents

# traces produced by criteria 1, 5, 6, 7 as (steps, dim); criterion 2 checks
# its (much more numerous) leaf traces inline and records the counts here.
_TRACES = []
_C2_COUNTS = {"nodes": 0, "leaves": 0, "verified": 0}


def mat_mul(a, b):
    """Exact matrix product, row by column: criterion 2 multiplies a leaf's
    step matrices with it, independently of compose_trace's row updates."""
    assert len(a[0]) == len(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_comparability_termination():
    with criterion(1, "pair descent terminates for every adversary"):
        rng = random.Random(20260810)
        runs = 0
        for _ in range(1000):
            n = rng.randint(2, 6)
            alpha = tuple(rng.randint(0, 30) for _ in range(n))
            beta = tuple(rng.randint(0, 30) for _ in range(n))
            adversaries = [FirstIndex(), SeededRandom(101), SeededRandom(202),
                           SeededRandom(303), MaxGrowth()]
            for adversary in adversaries:
                trace = run_pair(alpha, beta, adversary)
                assert trace.tau_history[-1].first == 0
                for before, after in zip(trace.tau_history,
                                         trace.tau_history[1:]):
                    assert after < before
                _TRACES.append((trace.steps, n))
                runs += 1
        assert runs == 5000


def test_criterion_2_adversary_universality():
    with criterion(2, "exhaustive pairs: tau drops for every j on every branch"):
        for n in (1, 2, 3):
            vectors = list(itertools.product(range(5), repeat=n))
            ident = identity_matrix(n)
            for alpha in vectors:
                for beta in vectors:
                    if tau(alpha, beta).first == 0:
                        continue
                    for path, pair, _, moves in game_tree((alpha, beta)):
                        _C2_COUNTS["nodes"] += 1
                        t = tau(*pair)
                        if not moves:
                            _C2_COUNTS["leaves"] += 1
                            assert t.first == 0
                            matrix = ident
                            for step in path:
                                matrix = mat_mul(step_matrix(step), matrix)
                            assert determinant(matrix) == 1
                            # the path is the walk: it maps the root to the leaf
                            assert (apply_matrix(matrix, alpha),
                                    apply_matrix(matrix, beta)) == pair
                            _C2_COUNTS["verified"] += 1
                        for step, child in moves:
                            assert tau(*child) < t
        assert _C2_COUNTS == {"nodes": 94706, "leaves": 53204,
                              "verified": 53204}


def _start_sets():
    """Criterion 4's grid, in order: every set of one to three distinct
    points of {0..4}^n, n = 1, 2, 3."""
    for n in (1, 2, 3):
        vectors = list(itertools.product(range(5), repeat=n))
        for size in (1, 2, 3):
            yield from itertools.combinations(vectors, size)


_GRID_SETS = sum(math.comb(5 ** n, k) for n in (1, 2, 3) for k in (1, 2, 3))


def _assert_won(vs):
    winner = is_won(vs)
    assert winner is not None
    assert all(all(x <= y for x, y in zip(vs[winner], v)) for v in vs)


def _spot_check_solve():
    """solve itself agrees with the walker on about one set in a thousand."""
    spot_rng = random.Random(4)
    for total_sets, combo in enumerate(_start_sets(), start=1):
        if spot_rng.random() < 0.001:
            outcome = solve(list(combo), SeededRandom(total_sets))
            assert is_won(outcome.final_vectors) == outcome.winner_index


def _shifted(vs, c):
    return tuple(tuple(x + y for x, y in zip(v, c)) for v in vs)


def _tree_counts(vs, champion, memo):
    """(nodes, leaves) of the tree below the position vs with the champion
    index it inherits.  By the translation lemma that tree is the one below
    vs shifted to coordinatewise minimum 0, so each (shifted position,
    champion) key is expanded once, by the public walker, and its leaves
    are checked once."""
    key = (_shifted(vs, [-x for x in map(min, zip(*vs))]), champion)
    if key not in memo:
        _, position, champ, moves = next(game_tree(*key))
        if not moves:
            _assert_won(position)
            memo[key] = (1, 1)
        else:
            counts = [_tree_counts(child, champ, memo) for _, child in moves]
            memo[key] = (1 + sum(c[0] for c in counts),
                         sum(c[1] for c in counts))
    return memo[key]


def test_criterion_4_game_soundness():
    """The whole grid in one memoized walk.  The strategy reads only
    differences of points and steps are linear, so the tree of V + c is the
    tree of V with each node shifted (tests/test_game.py checks this lemma
    at random roots).  Every position is therefore walked once per
    (shifted position, champion) key, and the counts of every start set's
    tree add up to those of test_criterion_4_full_walk, which walks every
    set's tree without the lemma.  Each class's representative, the set
    whose coordinatewise minimum is 0, is counted as well, and every other
    set's root node is checked against its representative's, shifted by
    the set's minimum."""
    with criterion(4, "exhaustive game, one memoized walk: every adversary "
                      "sequence gets won"):
        memo = {}
        total_sets = classes = class_nodes = nodes = leaves = 0
        for rep in _start_sets():
            if any(map(min, zip(*rep))):
                continue  # a translate, counted with its representative
            classes += 1
            _, _, champion, moves = next(game_tree(rep))
            counts = _tree_counts(rep, 0, memo)
            class_nodes += counts[0]
            # every c >= 0 that keeps the set inside the grid
            for c in itertools.product(*(range(5 - max(col))
                                         for col in zip(*rep))):
                total_sets += 1
                nodes += counts[0]
                leaves += counts[1]
                if not any(c):
                    continue
                vs = _shifted(rep, c)
                _, _, shifted_champion, shifted_moves = next(game_tree(vs))
                assert (shifted_champion, shifted_moves) == (champion, [
                    (step, _shifted(child, apply_step(step, c)))
                    for step, child in moves])
                if not shifted_moves:
                    _assert_won(vs)
        _spot_check_solve()
        assert (classes, class_nodes) == (38463, 803821)
        assert (nodes, leaves) == (4859026, 2648969)
        assert total_sets == _GRID_SETS == 328275
        assert len(memo) == 186640


@pytest.mark.full_walk
def test_criterion_4_full_walk():
    """Criterion 4 without the translation lemma: every start set's whole
    tree.  It takes minutes, so a plain run deselects it (pyproject.toml);
    select it with `pytest -m full_walk`."""
    with criterion(4, "exhaustive game, every start set walked: every "
                      "adversary sequence gets won"):
        total_sets = nodes = leaves = 0
        for combo in _start_sets():
            total_sets += 1
            for _, vs, _, moves in game_tree(combo):
                nodes += 1
                if not moves:
                    leaves += 1
                    _assert_won(vs)
        _spot_check_solve()
        assert (nodes, leaves) == (4859026, 2648969)
        assert total_sets == _GRID_SETS == 328275


def _random_order(rng, max_rank, max_order_dim):
    d = rng.randint(1, max_order_dim)
    n = rng.randint(1, min(max_rank, d))
    while True:
        rows = []
        for _ in range(n):
            row = [Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                   for _ in range(d)]
            if lex_sign(tuple(row)) < 0:
                row = [-c for c in row]
            rows.append(tuple(row))
        order = GroupOrder(tuple(rows))
        if not validate_order(order):
            return order


def _random_positive_element(rng, basis):
    while True:
        coords = tuple(rng.randint(-9, 9) for _ in range(basis.rank))
        if any(coords):
            break
    element = GroupElement(basis, coords)
    if lex_sign(element_value(element)) < 0:
        element = GroupElement(basis, tuple(-c for c in coords))
    return element


def _expansion(coords, images):
    total = [Fraction(0)] * len(images[0])
    for c, img in zip(coords, images):
        for k, x in enumerate(img):
            total[k] += c * x
    return tuple(total)


def test_criterion_5_positive_cone_membership():
    with criterion(5, "positivize yields exact non-negative cone coordinates"):
        rng = random.Random(55)
        for _ in range(500):
            order = _random_order(rng, max_rank=4, max_order_dim=3)
            basis = GroupBasis.initial(order)
            elements = [_random_positive_element(rng, basis)
                        for _ in range(rng.randint(1, 3))]

            single = positivize(basis, elements[0])
            assert all(c >= 0 for c in single.coords)
            assert _expansion(single.coords, single.basis.images) == \
                _expansion(elements[0].coords, basis.images)
            assert all(lex_sign(img) == 1 for img in single.basis.images)
            assert abs(determinant(single.basis.coords_in_original)) == 1

            combined = positivize_all(basis, elements)
            for element, coords in zip(elements, combined.coords):
                assert all(c >= 0 for c in coords)
                assert _expansion(coords, combined.basis.images) == \
                    _expansion(element.coords, basis.images)
            assert all(lex_sign(img) == 1 for img in combined.basis.images)
            assert abs(determinant(combined.basis.coords_in_original)) == 1
            _TRACES.append((combined.steps, order.rank))
            _TRACES.append((single.steps, order.rank))


def _random_ring(rng, max_toric, extra_vars=0):
    n = rng.randint(1, max_toric)
    while True:
        rows = []
        for _ in range(n):
            row = [Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                   for _ in range(n)]
            if lex_sign(tuple(row)) < 0:
                row = [-c for c in row]
            rows.append(tuple(row))
        if not validate_order(GroupOrder(tuple(rows))):
            break
    tails = []
    for _ in range(rng.randint(0, extra_vars)):
        row = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if lex_sign(tuple(row)) <= 0:
            row[0] = Fraction(1) + abs(row[0])
        tails.append(tuple(row))
    return ValuedRing(n + len(tails), n, tuple(rows) + tuple(tails))


def test_criterion_6_monomial_divisibility():
    with criterion(6, "divisibility transforms are unimodular and positive"):
        rng = random.Random(66)
        for _ in range(200):
            ring = _random_ring(rng, max_toric=4)
            n = ring.num_toric
            while True:
                d1 = tuple(rng.randint(0, 6) for _ in range(n))
                d2 = tuple(rng.randint(0, 6) for _ in range(n))
                if d1 != d2:
                    break
            v1, v2 = monomial_value(ring, d1), monomial_value(ring, d2)
            assert v1 != v2  # independent values separate distinct monomials
            m1, m2 = (d1, d2) if v1 < v2 else (d2, d1)
            substitution, primed = divisibility_transform(ring, m1, m2)
            p1 = substitute_exponents(m1, substitution)
            p2 = substitute_exponents(m2, substitution)
            assert all(b - a >= 0 for a, b in zip(p1, p2))
            assert determinant(substitution.matrix) == 1
            assert all(lex_sign(v) == 1 for v in primed.values)
            _TRACES.append((substitution.steps, n))


def test_criterion_7_monomialization_identity():
    with criterion(7, "monomialize factors exactly with a unit off the ideal"):
        rng = random.Random(77)
        for _ in range(200):
            base = _random_ring(rng, max_toric=3)
            extra = rng.randint(0, 5 - base.num_vars) if base.num_vars < 5 else 0
            tails = []
            for _ in range(extra):
                row = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(base.order_dim)]
                if lex_sign(tuple(row)) <= 0:
                    row[0] = Fraction(1) + abs(row[0])
                tails.append(tuple(row))
            ring = ValuedRing(base.num_vars + len(tails), base.num_toric,
                              base.values + tuple(tails))
            m, n = ring.num_vars, ring.num_toric
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exponents = tuple(rng.randint(0, 4) for _ in range(m))
                terms[exponents] = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                                            rng.randint(1, 9))
            f = polynomial(list(terms.items()))
            result = monomialize(ring, f)
            shift = result.factor_exponents + (0,) * (m - n)
            product = {tuple(x + y for x, y in zip(e, shift)): c
                       for e, c in result.unit_part.items()}
            assert product == apply_substitution(f, result.substitution)
            assert any(all(e[k] == 0 for k in range(n)) for e in result.unit_part)
            _TRACES.append((result.substitution.steps, n))


def test_criterion_3_unimodularity():
    with criterion(3, "every produced trace composes to determinant 1"):
        traces = _TRACES
        if not traces:  # standalone invocation: audit a fresh batch instead
            rng = random.Random(3)
            for _ in range(200):
                n = rng.randint(2, 5)
                alpha = tuple(rng.randint(0, 20) for _ in range(n))
                beta = tuple(rng.randint(0, 20) for _ in range(n))
                traces.append((run_pair(alpha, beta, SeededRandom(9)).steps, n))
        for steps, n in traces:
            assert determinant(compose_trace(steps, n)) == 1
        if _C2_COUNTS["leaves"]:
            assert _C2_COUNTS["leaves"] == _C2_COUNTS["verified"]
        print(f"  audited {len(traces)} collected traces plus "
              f"{_C2_COUNTS['verified']} exhaustive-tree leaves")


def test_criterion_8_worked_examples():
    with criterion(8, "every derived example recomputed by its stated oracle"):
        _worked_examples_transforms()
        _worked_examples_tau_and_engine()
        _worked_examples_game()
        _worked_examples_groups()
        _worked_examples_monomials()
        _worked_examples_cli()


def _naive_matvec(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(len(v)))
                 for r in range(len(m)))


def _naive_matmul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(len(b)))
                       for c in range(len(b[0]))) for r in range(len(a)))


def _replay(steps, vec):
    for step in steps:
        vec = apply_step(step, vec)
    return vec


def _worked_examples_transforms():
    # signed apply_step against the matrix-vector oracle
    step = Step(frozenset({1, 2}), 2, 2)
    assert _naive_matvec(step_matrix(step), (2, -1)) == (2, 1)
    assert apply_step(step, (2, -1)) == (2, 1)

    # round-order composition against the hand/matrix-product oracle
    first, second = Step(frozenset({1, 2}), 1, 2), Step(frozenset({1, 2}), 2, 2)
    oracle = _naive_matmul(step_matrix(second), step_matrix(first))
    assert oracle == ((1, 1), (1, 2))
    assert compose_trace([first, second], 2) == oracle

    for matrix, vec, expected in ((((1, 1), (0, 1)), (3, 1), (4, 1)),
                                  (((1, 1), (1, 2)), (1, 0), (1, 1))):
        assert _naive_matvec(matrix, vec) == expected
        assert apply_matrix(matrix, vec) == expected

    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 4)
        steps = []
        for _ in range(rng.randint(0, 6)):
            J = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            steps.append(Step(J, rng.choice(sorted(J)), n))
        assert determinant(compose_trace(steps, n)) == 1


def _worked_examples_tau_and_engine():
    # reduce/tau against the per-coordinate-min oracle
    gamma = tuple(min(a, b) for a, b in zip((3, 1), (1, 2)))
    abar = tuple(a - c for a, c in zip((3, 1), gamma))
    bbar = tuple(b - c for b, c in zip((1, 2), gamma))
    assert (gamma, abar, bbar) == ((1, 1), (2, 0), (0, 1))
    from perron import reduce_pair
    assert tuple(reduce_pair((3, 1), (1, 2))) == (gamma, abar, bbar)
    assert tau((3, 1), (1, 2)) == (min(2, 1), max(2, 1))
    assert tau((2, 0, 0), (0, 1, 1)) == (2, 2)
    assert comparability((3, 1), (1, 2)).value == "incomparable"
    assert tau((3, 1), (1, 2)).first == 1

    # choose_J examples: exhaustive-j strict decrease
    for alpha, beta, expected in (((3, 1), (1, 2), {1, 2}),
                                  ((2, 0, 0), (0, 1, 1), {1, 2, 3}),
                                  ((1, 0), (0, 1), {1, 2})):
        J = choose_J(alpha, beta)
        assert J == expected
        for j in J:
            step = Step(J, j, len(alpha))
            assert tau(apply_step(step, alpha), apply_step(step, beta)) \
                < tau(alpha, beta)

    # run_pair examples: replay oracle
    trace = run_pair((3, 1), (1, 2), Scripted([2]))
    assert trace.rounds == 1
    assert _replay(trace.steps, (3, 1)) == (3, 4) == trace.final_alpha
    assert _replay(trace.steps, (1, 2)) == (1, 3) == trace.final_beta
    assert comparability((3, 4), (1, 3)).value == "ge"

    trace = run_pair((3, 1), (1, 2), Scripted([1]))
    assert trace.steps[0] == Step(frozenset({1, 2}), 1, 2)
    assert trace.tau_history[1] == (1, 1)
    assert trace.tau_history[-1].first == 0
    assert _replay(trace.steps, (3, 1)) == trace.final_alpha
    assert _replay(trace.steps, (1, 2)) == trace.final_beta


def _worked_examples_game():
    vectors = ((1, 0), (0, 1))
    moves = next(game_tree(vectors))[3]
    for j, expected in ((1, ((1, 0), (1, 1))), (2, ((1, 1), (0, 1)))):
        step = Step(frozenset({1, 2}), j, 2)
        assert tuple(apply_step(step, v) for v in vectors) == expected
        assert (step, expected) in moves

    # the J proposed is the J of every move
    for vectors, expected in ((((1, 0), (0, 1)), {1, 2}),
                              (((3, 1), (1, 2), (9, 9)), {1, 2}),
                              (((2, 0, 0), (0, 1, 1)), {1, 2, 3})):
        Js = {step.J for step, _ in next(game_tree(vectors))[3]}
        assert Js == {frozenset(expected)}
    assert choose_J((3, 1), (1, 2)) == {1, 2}

    outcome = solve([(1, 0), (0, 1)], Scripted([1]))
    assert outcome.rounds == 1 and outcome.winner_index == 0
    assert tuple(_replay(outcome.trace, v) for v in ((1, 0), (0, 1))) == \
        outcome.final_vectors == ((1, 0), (1, 1))
    assert is_won(outcome.final_vectors) == 0

    # exhaustive adversary tree for the three-point example
    start = ((2, 0), (0, 3), (1, 1))
    for _, vs, _, moves in game_tree(start):
        if not moves:
            assert is_won(vs) is not None


def _worked_examples_groups():
    from perron import lexvec

    order = GroupOrder((lexvec(["1", "0"]), lexvec(["0", "1"])))
    basis = GroupBasis.initial(order)

    # rational dot-product oracle for comparisons
    assert _expansion((2, -1), basis.images) == (Fraction(2), Fraction(-1))
    assert lex_sign(_expansion((2, -1), basis.images)) == 1
    assert element_compare(GroupElement(basis, (2, -1)),
                           GroupElement(basis, (0, 0))) == 1
    assert element_compare(GroupElement(basis, (0, 1)),
                           GroupElement(basis, (1, 0))) == -1

    # simple transform: subtraction oracle and positivity
    new_basis, step = simple_perron(basis, {1, 2})
    assert step.j == 2
    assert new_basis.images[0] == tuple(a - b for a, b in
                                        zip(basis.images[0], basis.images[1]))
    assert lex_sign(new_basis.images[0]) == 1
    new_coords = apply_step(step, (2, -1))
    assert new_coords == (2, 1)
    assert _expansion(new_coords, new_basis.images) == \
        _expansion((2, -1), basis.images)

    result = positivize(basis, GroupElement(basis, (2, -1)))
    assert len(result.steps) == 1
    assert result.steps[0].J == {1, 2} and result.steps[0].j == 2
    assert result.coords == (2, 1)
    assert result.basis.images == (lexvec(["1", "-1"]), lexvec(["0", "1"]))

    combined = positivize_all(
        basis, [GroupElement(basis, (2, -1)), GroupElement(basis, (0, 1))])
    assert combined.coords == ((2, 1), (0, 1))
    assert _expansion(combined.coords[1], combined.basis.images) == \
        _expansion((0, 1), basis.images)


def _worked_examples_monomials():
    from perron import lexvec

    ring = ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["0", "1"])))
    assert monomial_value(ring, (2, 1)) == (Fraction(2), Fraction(1))

    substitution, primed = divisibility_transform(ring, (0, 1), (1, 0))
    assert substitution.matrix == ((1, 1), (0, 1))
    assert primed.values == (lexvec(["1", "-1"]), lexvec(["0", "1"]))
    p1 = substitute_exponents((0, 1), substitution)
    p2 = substitute_exponents((1, 0), substitution)
    assert tuple(b - a for a, b in zip(p1, p2)) == (1, 0)

    f = polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    s = apply_substitution(f, substitution)
    assert s == {(1, 1): Fraction(1), (0, 1): Fraction(1)}
    assert len(s) == len(f)

    result = monomialize(ring, f)
    assert result.substitution.matrix == ((1, 1), (0, 1))
    assert result.factor_exponents == (0, 1)
    assert result.unit_part == {(1, 0): Fraction(1), (0, 0): Fraction(1)}
    product = {tuple(x + y for x, y in zip(e, (0, 1))): c
               for e, c in result.unit_part.items()}
    assert product == apply_substitution(f, result.substitution)


def _worked_examples_cli(tmp_dir=None):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)

        def run(cmd, doc):
            (base / "in.json").write_text(json.dumps(doc))
            code = cli_main(cmd + ["--input", str(base / "in.json"),
                                   "--output", str(base / "out.json"),
                                   "--trace"])
            return code, json.loads((base / "out.json").read_text())

        code, doc = run(["compare"], {"alpha": [3, 1], "beta": [1, 2],
                                      "adversary": {"kind": "scripted",
                                                    "choices": [2]}})
        assert code == 0
        assert doc["payload"]["relation"] == "ge"
        assert doc["payload"]["rounds"] == 1
        steps = [Step(frozenset(e["J"]), e["j"], 2) for e in doc["trace"]]
        assert list(_replay(steps, (3, 1))) == doc["payload"]["final_alpha"]
        assert list(_replay(steps, (1, 2))) == doc["payload"]["final_beta"]

        code, doc = run(["game", "solve"],
                        {"vectors": [[1, 0], [0, 1]],
                         "adversary": {"kind": "scripted", "choices": [1]}})
        assert code == 0
        assert doc["payload"]["winner_index"] == 0
        assert doc["payload"]["rounds"] == 1
        steps = [Step(frozenset(e["J"]), e["j"], 2) for e in doc["trace"]]
        assert [list(_replay(steps, v)) for v in ((1, 0), (0, 1))] == \
            doc["payload"]["final_vectors"]

        code, doc = run(["positivize"],
                        {"generator_images": [["1", "0"], ["0", "1"]],
                         "elements": [[2, -1]]})
        assert code == 0
        assert doc["payload"]["coords"] == [[2, 1]]
        assert doc["payload"]["basis_images"] == [["1", "-1"], ["0", "1"]]
        images = [tuple(Fraction(x) for x in row)
                  for row in doc["payload"]["basis_images"]]
        assert _expansion((2, 1), images) == (Fraction(2), Fraction(-1))

        code, doc = run(["monomialize"],
                        {"num_vars": 2, "num_toric": 2,
                         "values": [["1", "0"], ["0", "1"]],
                         "polynomial": [{"coeff": "1", "exponents": [1, 0]},
                                        {"coeff": "1", "exponents": [0, 1]}]})
        assert code == 0
        assert doc["payload"]["substitution"] == [[1, 1], [0, 1]]
        assert doc["payload"]["factor_exponents"] == [0, 1]
        assert doc["payload"]["unit"] == [
            {"coeff": "1", "exponents": [0, 0]},
            {"coeff": "1", "exponents": [1, 0]}]
        # exact-identity oracle rebuilt purely from the emitted document
        from perron import Substitution
        emitted = Substitution(
            tuple(tuple(int(x) for x in row)
                  for row in doc["payload"]["substitution"]), 2)
        unit = {tuple(int(x) for x in term["exponents"]): Fraction(term["coeff"])
                for term in doc["payload"]["unit"]}
        factor = tuple(int(x) for x in doc["payload"]["factor_exponents"])
        product = {tuple(x + y for x, y in zip(e, factor)): c
                   for e, c in unit.items()}
        f = polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
        assert product == apply_substitution(f, emitted)


def _run_cli_subprocess(args, payload=None):
    return subprocess.run([sys.executable, "-m", "perron", *args],
                          input=payload, capture_output=True, text=True)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI is byte-deterministic and exits as documented"):
        jobs = [
            (["compare"], {"alpha": [8, 0, 3], "beta": [2, 5, 1],
                           "adversary": {"kind": "random", "seed": 11}}),
            (["compare"], {"alpha": [3, 1], "beta": [1, 2],
                           "adversary": {"kind": "max_growth"}}),
            (["game", "solve"], {"vectors": [[2, 0], [0, 3], [1, 1]],
                                 "adversary": {"kind": "random", "seed": 5}}),
            (["positivize"], {"generator_images": [["1", "1/2"], ["0", "1"]],
                              "elements": [[3, -2], [1, 1]]}),
            (["monomialize"], {"num_vars": 2, "num_toric": 2,
                               "values": [["2", "1"], ["1", "1"]],
                               "polynomial": [
                                   {"coeff": "1/3", "exponents": [2, 0]},
                                   {"coeff": "-4", "exponents": [0, 3]}]}),
        ]
        for args, job in jobs:
            text = json.dumps(job)
            first = _run_cli_subprocess(args + ["--trace"], text)
            second = _run_cli_subprocess(args + ["--trace"], text)
            assert first.returncode == 0, first.stderr
            assert first.stdout == second.stdout
            assert json.loads(first.stdout)["status"] == "ok"

        # interactive play piped twice is byte-identical too
        play = json.dumps({"vectors": [[1, 0], [0, 1]]}) + "\n2\n"
        first = _run_cli_subprocess(["game", "play"], play)
        second = _run_cli_subprocess(["game", "play"], play)
        assert first.returncode == 0
        assert first.stdout == second.stdout

        # documented error exits
        cases = [
            (["compare"], "this is not json", 1),
            (["compare"], json.dumps({"alpha": [1], "beta": [1, 2]}), 2),
            (["game", "solve"], json.dumps({"vectors": []}), 2),
            (["positivize"], json.dumps(
                {"generator_images": [["1", "0"], ["2", "0"]],
                 "elements": [[1, 0]]}), 2),
            (["monomialize"], json.dumps(
                {"num_vars": 2, "num_toric": 2,
                 "values": [["1", "0"], ["0", "1"]], "polynomial": []}), 2),
            (["compare", "--step-limit", "0"], json.dumps(
                {"alpha": [3, 1], "beta": [1, 2]}), 3),
            (["game", "play"], json.dumps({"vectors": [[1, 0], [0, 1]]}), 4),
        ]
        for args, payload, expected in cases:
            result = _run_cli_subprocess(args, payload)
            assert result.returncode == expected, (args, result.returncode)
            document = json.loads(result.stdout)
            assert document["status"] == "error"
            assert document["schema_version"] == 1
