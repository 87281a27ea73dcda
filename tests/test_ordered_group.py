import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import perron.engine
import perron.ordered_group
from perron import (GroupBasis, GroupElement, GroupOrder, InternalError, Step,
                    StepLimitExceeded, Trace, ValidationError, ValuedRing,
                    apply_step, compose_trace, determinant, element_value,
                    lex_sign, lexvec, monomialize, polynomial, positivize,
                    positivize_all, run_pair, simple_perron, validate_order)
from perron.engine import Adversary
from perron.monomials import Substitution
from perron.ordered_group import (PositivizeAllResult, PositivizeResult,
                                  _PerronChooser, _dot, _perron_run_length,
                                  _scaled)
from perron.transforms import apply_run, commute, identity_matrix

from conftest import (element_compare, expansion, group_orders, merged_runs,
                      positive_element, substitute_exponents, valued_rings)


def standard_basis():
    order = GroupOrder((lexvec(["1", "0"]), lexvec(["0", "1"])))
    return GroupBasis.initial(order)


def test_validate_order_examples():
    ok = GroupOrder((lexvec(["1", "0"]), lexvec(["0", "1"])))
    assert validate_order(ok) == []
    dependent = GroupOrder((lexvec(["1", "0"]), lexvec(["2", "0"])))
    assert validate_order(dependent) == ["images not independent: rank 1 < 2"]
    negative = GroupOrder((lexvec(["1", "0"]), lexvec(["0", "-1"])))
    assert validate_order(negative) == ["image 2 is not lex-positive"]
    both = GroupOrder((lexvec(["0", "0"]), lexvec(["-1", "0"])))
    assert validate_order(both) == ["image 1 is not lex-positive",
                                    "image 2 is not lex-positive",
                                    "images not independent: rank 1 < 2"]
    with pytest.raises(ValidationError) as err:
        GroupBasis.initial(dependent)
    assert str(err.value) == "invalid order: images not independent: rank 1 < 2"
    with pytest.raises(ValidationError) as err:
        GroupBasis.initial(both)
    assert str(err.value) == ("invalid order: image 1 is not lex-positive; image 2 "
                              "is not lex-positive; images not independent: rank 1 < 2")
    assert validate_order(GroupOrder(())) == [
        "order must have at least one generator image"]
    ragged = GroupOrder((lexvec(["1", "0"]), lexvec(["1"])))
    assert validate_order(ragged) == ["generator images must share one length"]
    with pytest.raises(ValidationError, match="lex vector must have dimension >= 1"):
        lexvec([])


@pytest.mark.parametrize("bad", ["x", "1/0", None, float("inf"), float("nan"), [1]],
                         ids=["word", "zero-denominator", "none", "inf", "nan", "list"])
def test_a_bad_rational_is_a_validation_error(bad):
    """Fraction raises ValueError, ZeroDivisionError, TypeError or
    OverflowError for these; the library raises ValidationError, naming the
    entry."""
    with pytest.raises(ValidationError, match=f"lex vector entry is not a "
                                              f"rational number: {re.escape(repr(bad))}"):
        lexvec(["1", bad])
    with pytest.raises(ValidationError, match=f"coefficient is not a rational number: "
                                              f"{re.escape(repr(bad))}"):
        polynomial([((1,), bad)])


def test_rationals_read_as_before():
    """ints, Fractions, floats and numeric strings stay accepted."""
    assert lexvec([3, Fraction(1, 2), 0.25, " -3/6 ", "1.5"]) == (
        3, Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2), Fraction(3, 2))
    assert polynomial([((1,), "2/4"), ((0,), 0.5)]) == {(1,): Fraction(1, 2),
                                                        (0,): Fraction(1, 2)}


def test_element_compare_examples():
    basis = standard_basis()
    # oracle: exact dot products against the images
    assert lex_sign(expansion((2, -1), basis.images)) == 1
    e = GroupElement(basis, (2, -1))
    zero = GroupElement(basis, (0, 0))
    assert element_compare(e, zero) == 1
    assert element_compare(e, e) == 0
    assert expansion((0, 1), basis.images) < expansion((1, 0), basis.images)
    assert element_compare(GroupElement(basis, (0, 1)),
                           GroupElement(basis, (1, 0))) == -1


def test_element_compare_requires_same_basis():
    b1 = standard_basis()
    b2, _ = simple_perron(b1, {1, 2})
    with pytest.raises(ValidationError):
        element_compare(GroupElement(b1, (1, 0)), GroupElement(b2, (1, 0)))


def test_simple_perron_examples():
    basis = standard_basis()
    new_basis, step = simple_perron(basis, {1, 2})
    # lex-min of {(1,0),(0,1)} is (0,1), so j = 2
    assert step.j == 2
    assert new_basis.images == (lexvec(["1", "-1"]), lexvec(["0", "1"]))
    assert lex_sign(new_basis.images[0]) == 1

    # coordinates transform by the step matrix: (2,-1) -> (2,1), and the
    # expansion oracle agrees: 2(g1-g2) + 1*g2 == 2*g1 - g2
    new_coords = apply_step(step, (2, -1))
    assert new_coords == (2, 1)
    assert expansion(new_coords, new_basis.images) == expansion((2, -1), basis.images)

    unchanged, singleton = simple_perron(basis, {1})
    assert singleton.j == 1
    assert unchanged.images == basis.images


@pytest.mark.parametrize("J", [["1"], [1.0, 2], [Fraction(1)], [True], [0, 1], [3], []])
def test_simple_perron_rejects_a_J_outside_1_to_n(J):
    with pytest.raises(ValidationError) as err:
        simple_perron(standard_basis(), J)
    assert str(err.value) == "J must be a non-empty subset of 1..2"


def test_positivize_examples():
    basis = standard_basis()
    result = positivize(basis, GroupElement(basis, (2, -1)))
    assert len(result.steps) == 1
    assert result.steps[0].J == {1, 2} and result.steps[0].j == 2
    assert result.basis.images == (lexvec(["1", "-1"]), lexvec(["0", "1"]))
    assert result.coords == (2, 1)
    assert expansion(result.coords, result.basis.images) == \
        expansion((2, -1), basis.images)

    result = positivize(basis, GroupElement(basis, (1, 0)))
    assert result.steps == () and result.coords == (1, 0)
    assert result.basis == basis

    result = positivize(basis, GroupElement(basis, (0, 0)))
    assert result.steps == () and result.coords == (0, 0)


def test_positivize_rejects_negative():
    basis = standard_basis()
    with pytest.raises(ValidationError) as err:
        positivize(basis, GroupElement(basis, (-1, 0)))
    assert str(err.value) == "element 1 is negative"
    other, _ = simple_perron(basis, {1, 2})
    with pytest.raises(ValidationError) as err:
        positivize(basis, GroupElement(other, (1, 0)))
    assert str(err.value) == "element 1 is not expressed in the given basis"


def test_positivize_all_examples():
    basis = standard_basis()
    result = positivize_all(
        basis, [GroupElement(basis, (2, -1)), GroupElement(basis, (0, 1))])
    assert all(all(c >= 0 for c in row) for row in result.coords)
    # second element keeps coords (0,1): the transform fixes g2
    assert result.coords == ((2, 1), (0, 1))
    assert expansion(result.coords[1], result.basis.images) == \
        expansion((0, 1), basis.images)

    empty = positivize_all(basis, [])
    assert empty.basis == basis and empty.coords == () and empty.steps == ()

    already = positivize_all(
        basis, [GroupElement(basis, (1, 0)), GroupElement(basis, (0, 1))])
    assert already.steps == ()

    with pytest.raises(ValidationError) as err:
        positivize_all(basis, [GroupElement(basis, (1, 0)),
                               GroupElement(basis, (-2, 0))])
    assert "element 2" in str(err.value)
    other, _ = simple_perron(basis, {1, 2})
    for element in GroupElement(other, (1, 0)), (1, 0):  # a bare tuple is no element
        with pytest.raises(ValidationError) as err:
            positivize_all(basis, [element])
        assert str(err.value) == "element 1 is not expressed in the given basis"


def test_a_negative_row_ends_below_the_origin():
    """The origin's champion game moves off the origin only past a row that
    is below it, which a checked positive element never is."""
    basis = standard_basis()
    with pytest.raises(InternalError) as err:
        perron.ordered_group._into_cone(basis, _scaled(basis.images), [(-1, 0)], None)
    assert str(err.value) == "positive element ended with a negative coordinate"


def test_a_miscounted_run_ends_with_a_non_positive_image(monkeypatch):
    """A chooser that applies each run one round more than the descent played:
    (1, -6) takes 6 rounds of ({1,2}, 2), and (1, 0) - 7 * (1/7, 1) is
    (0, -7).  The descent ends as it would, and the final images are checked."""
    transform = perron.ordered_group._perron_transform
    monkeypatch.setattr("perron.ordered_group._perron_transform",
                        lambda basis, J, j, k: transform(basis, J, j, k + 1))
    basis = GroupBasis.initial(GroupOrder((lexvec(["1", "0"]), lexvec(["1/7", "1"]))))
    with pytest.raises(InternalError) as err:
        positivize(basis, GroupElement(basis, (1, -6)))
    assert str(err.value) == "transformed basis image is not lex-positive"


def hand_built_basis(*images):
    """A basis on the given images, built without GroupBasis.initial's check."""
    images = tuple(lexvec(img) for img in images)
    return GroupBasis(GroupOrder(images), ((1, 0), (0, 1)), images)


def test_simple_perron_checks_a_hand_built_basis():
    """Two equal images make no ordered group: one minus the other is zero.
    The basis is checked on entry, as an order is."""
    basis = hand_built_basis(["1", "0"], ["1", "0"])
    with pytest.raises(ValidationError) as err:
        simple_perron(basis, {1, 2})
    assert str(err.value) == "images not independent: rank 1 < 2"


@pytest.mark.parametrize("images, message", [
    ((["1", "0"], ["1", "0"]), "images not independent: rank 1 < 2"),
    ((["1", "0"], ["0", "-1"]), "image 2 is not lex-positive"),
    ((["1", "0"], ["1"]), "generator images must share one length"),
], ids=["equal-images", "non-positive-image", "ragged-images"])
def test_positivize_checks_a_hand_built_basis(images, message):
    """The caller's basis gets the order check's own diagnostics, unprefixed
    as the CLI prints them, from positivize and positivize_all alike, before
    any element is read."""
    basis = hand_built_basis(*images)
    element = GroupElement(basis, (2, -1))
    for call in (lambda: positivize(basis, element),
                 lambda: positivize_all(basis, [element]),
                 lambda: positivize_all(basis, [])):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message


def test_positivize_takes_back_its_own_basis():
    """A positivized basis is a valid one: it passes the check again."""
    basis = standard_basis()
    first = positivize(basis, GroupElement(basis, (2, -1)))
    second = positivize(first.basis, GroupElement(first.basis, (1, -3)))
    assert all(c >= 0 for c in second.coords)
    assert expansion(second.coords, second.basis.images) == \
        expansion((1, -3), first.basis.images)


@pytest.mark.parametrize("entry", [True, False])
def test_a_bool_is_not_a_rational(entry):
    """Fraction reads True as 1; lexvec and polynomial reject it, as intvec does."""
    with pytest.raises(ValidationError) as err:
        lexvec([entry, 0])
    assert str(err.value) == f"lex vector entry is not a rational number: {entry!r}"
    with pytest.raises(ValidationError) as err:
        polynomial([((1, 0), entry)])
    assert str(err.value) == f"coefficient is not a rational number: {entry!r}"


@given(group_orders(), st.data())
def test_positivize_all_step_limit_bounds_the_whole_job(order, data):
    basis = GroupBasis.initial(order)
    elements = [positive_element(data.draw, basis)
                for _ in range(data.draw(st.integers(1, 3)))]
    full = positivize_all(basis, elements).steps
    limit = data.draw(st.integers(0, len(full) + 1))
    try:
        result = positivize_all(basis, elements, step_limit=limit)
    except StepLimitExceeded as exc:
        assert len(full) > limit
        assert tuple(exc.steps) == tuple(full)[:limit]
        assert str(exc) == f"pair not comparable within {limit} steps"
    else:
        assert len(full) <= limit
        assert result.steps == full


# The Fraction path the group layer ran before it moved to one integer scale,
# kept as the oracle: per-entry lcm sums, and a chooser whose basis holds
# Fraction images.

def oracle_entry_sums(coeffs, vecs):
    """Entry by entry, the integer combination of lex vectors as (num, den):
    den is the lcm of the entry's denominators q, num the sum of c*p*(den/q)."""
    terms = [(c, v) for c, v in zip(coeffs, vecs) if c]
    for k in range(len(vecs[0])):
        num, den = 0, 1
        for c, v in terms:
            p, q = v[k].numerator, v[k].denominator
            lcm = math.lcm(den, q)
            num, den = num * (lcm // den) + c * p * (lcm // q), lcm
        yield num, den


def oracle_combination_sign(coeffs, vecs):
    return lex_sign(num for num, _ in oracle_entry_sums(coeffs, vecs))


def oracle_perron_transform(basis, J, j, k):
    def subtract(vecs):
        return tuple(tuple(x - k * y for x, y in zip(v, vecs[j - 1]))
                     if i in J and i != j else v for i, v in enumerate(vecs, start=1))

    images, rows = subtract(basis.images), subtract(basis.coords_in_original)
    for i in J:
        if i != j and lex_sign(images[i - 1]) <= 0:
            raise InternalError("transformed basis image is not lex-positive")
    return GroupBasis(basis.order, rows, images)


def oracle_perron_run_length(images, J, j, limit):
    j_img = images[j - 1]
    p = next(pos for pos, x in enumerate(j_img) if x)
    b_num, b_den = j_img[p].numerator, j_img[p].denominator
    K = limit
    for i in J:
        img = images[i - 1]
        if i == j or any(img[:p]):
            continue
        m, r = divmod(img[p].numerator * b_den, img[p].denominator * b_num)
        if not r and lex_sign(tuple(x - m * y for x, y in zip(img, j_img))) <= 0:
            m -= 1
        K = min(K, m)
    return K


class OraclePerronChooser(Adversary):
    def __init__(self, basis):
        self.basis = basis
        self._run = None

    def settle(self, round_no):
        if self._run is not None:
            J, j, start = self._run
            self.basis = oracle_perron_transform(self.basis, J, j, round_no - start)
            self._run = None

    def choose(self, J, vectors, round_no):
        self.settle(round_no)
        j = min(J, key=lambda i: self.basis.images[i - 1])
        self._run = (J, j, round_no)
        return j

    def repeat(self, block, limit):
        if len(block) > 1:  # a block is asked again round by round
            return 0
        J, j, _ = self._run
        return oracle_perron_run_length(self.basis.images, J, j, limit + 1) - 1


@pytest.mark.parametrize("lead, run", [(Fraction(1, 7), 6), (Fraction(2, 7), 3)])
def test_perron_run_length_at_and_off_an_exact_quotient(lead, run):
    """(1, 0) - K*(lead, 1) stays lex-positive for K up to run; at lead 1/7 the
    quotient 7 is exact and (1, 0) - 7*(1/7, 1) = (0, -7) is not positive."""
    images = ((Fraction(1), Fraction(0)), (lead, Fraction(1)))
    assert _perron_run_length(_scaled(images)[1], frozenset({1, 2}), 2, 100) == run
    assert oracle_perron_run_length(images, frozenset({1, 2}), 2, 100) == run


# sequential oracle: one run_pair per element, its runs replayed on the others,
# on the Fraction path above

def oracle_positivize(basis, element, step_limit=None):
    if element.basis != basis:
        raise ValidationError("element is not expressed in the given basis")
    if oracle_combination_sign(element.coords, basis.images) < 0:
        raise ValidationError(
            "element is negative; only positive elements join the cone")
    return _oracle_positivize(basis, element.coords, step_limit)


def _oracle_positivize(basis, coords, step_limit):
    if all(c >= 0 for c in coords):
        return PositivizeResult(basis, coords, Trace())
    plus = tuple(max(c, 0) for c in coords)
    minus = tuple(max(-c, 0) for c in coords)
    chooser = OraclePerronChooser(basis)
    trace = run_pair(plus, minus, chooser, step_limit=step_limit)
    chooser.settle(trace.rounds + 1)
    coords = tuple(p - m for p, m in zip(trace.final_alpha, trace.final_beta))
    if any(c < 0 for c in coords):
        raise InternalError("positive element ended with a negative coordinate")
    return PositivizeResult(chooser.basis, coords, trace.steps)


def oracle_positivize_all(basis, elements, step_limit=None):
    coords_list = []
    for k, e in enumerate(elements):
        if e.basis != basis:
            raise ValidationError(
                f"element {k + 1} is not expressed in the given basis")
        if oracle_combination_sign(e.coords, basis.images) < 0:
            raise ValidationError(f"element {k + 1} is negative")
        coords_list.append(e.coords)
    current, steps = basis, Trace()
    for k in range(len(coords_list)):
        left = None if step_limit is None else step_limit - steps.rounds
        try:
            result = _oracle_positivize(current, coords_list[k], left)
        except StepLimitExceeded as exc:
            for block, m in exc.steps.runs:
                steps.add_run(block, m)
            message = f"pair not comparable within {step_limit} steps"
            raise StepLimitExceeded(message, steps) from None
        for block, m in result.steps.runs:
            steps.add_run(block, m)
            for step in block:
                coords_list = [apply_run(step, m, c) for c in coords_list]
        coords_list[k] = result.coords
        current = result.basis
    return PositivizeAllResult(current, tuple(coords_list), steps)


def positivize_outcome(call):
    """(basis, coords, runs) of a result, or the message and partial runs."""
    try:
        result = call()
    except StepLimitExceeded as exc:
        return str(exc), exc.steps.runs
    return result.basis, result.coords, result.steps.runs


@given(group_orders(), st.data(),
       st.one_of(st.none(), st.just(0), st.integers(1, 50)))
def test_positivize_matches_the_sequential_oracle(order, data, step_limit):
    basis = GroupBasis.initial(order)
    elements = [positive_element(data.draw, basis)
                for _ in range(data.draw(st.integers(1, 4)))]
    assert positivize_outcome(
        lambda: positivize_all(basis, elements, step_limit)) == \
        positivize_outcome(
            lambda: oracle_positivize_all(basis, elements, step_limit))
    assert positivize_outcome(
        lambda: positivize(basis, elements[0], step_limit)) == \
        positivize_outcome(
            lambda: oracle_positivize(basis, elements[0], step_limit))


# wide orders: ranks 1-5, any lex-positive independent images, entries small
# (zeros and exact quotients) or with denominators up to 10^12
wide_rationals = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6])),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 12)))


@st.composite
def wide_orders(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(n, 6))
    rows = [tuple(draw(wide_rationals) for _ in range(d)) for _ in range(n)]
    order = GroupOrder(tuple(tuple(-x for x in r) if lex_sign(r) < 0 else r
                             for r in rows))
    assume(not validate_order(order))
    return order


@st.composite
def wide_rings(draw):
    order = draw(wide_orders())
    tails = []
    for _ in range(draw(st.integers(0, 2))):
        tail = tuple(draw(wide_rationals) for _ in range(order.order_dim))
        sign = lex_sign(tail)
        tails.append(tuple(sign * x for x in tail) if sign else
                     (Fraction(1),) + tail[1:])
    return ValuedRing(order.rank + len(tails), order.rank, order.images + tuple(tails))


def oracle_monomialize(ring, f, step_limit):
    """(substitution matrix, new values, factor exponents) from the sequential
    Fraction oracle: the value-minimal toric part, then its differences."""
    n = ring.num_toric
    parts = sorted({e[:n] for e in f})
    low = min(parts, key=lambda t: tuple(Fraction(num, den) for num, den
                                         in oracle_entry_sums(t, ring.values)))
    basis = GroupBasis.initial(GroupOrder(ring.values[:n]))
    deltas = [GroupElement(basis, tuple(a - b for a, b in zip(t, low)))
              for t in parts if t != low]
    result = oracle_positivize_all(basis, deltas, step_limit)
    matrix = tuple(zip(*compose_trace(result.steps, n)))
    new_values = result.basis.images + ring.values[n:]
    factor = substitute_exponents(low + (0,) * (ring.num_vars - n),
                                  Substitution(matrix, ring.num_vars))
    return matrix, new_values, factor[:n], result.steps.runs


def monomialize_outcome(ring, f, step_limit):
    try:
        result = monomialize(ring, f, step_limit)
    except StepLimitExceeded as exc:
        return str(exc), exc.steps.runs
    return (result.substitution.matrix, result.new_values,
            result.factor_exponents, result.substitution.steps.runs)


def oracle_monomialize_outcome(ring, f, step_limit):
    try:
        return oracle_monomialize(ring, f, step_limit)
    except StepLimitExceeded as exc:
        return str(exc), exc.steps.runs


@given(wide_orders(), wide_rings(), st.data(),
       st.one_of(st.none(), st.just(0), st.integers(1, 50)))
def test_integer_scale_matches_the_fraction_path(order, ring, data, step_limit):
    basis = GroupBasis.initial(order)
    max_coord = data.draw(st.sampled_from([9, 10 ** 3, 10 ** 6]))
    elements = [positive_element(data.draw, basis, max_coord)
                for _ in range(data.draw(st.integers(1, 4)))]
    f = {tuple(data.draw(st.integers(0, 4)) for _ in range(ring.num_vars)): Fraction(1)
         for _ in range(data.draw(st.integers(1, 5)))}
    made = []

    class Recording(_PerronChooser):  # the library's chooser, each one kept
        def __init__(self, basis):
            super().__init__(basis)
            made.append(self)

    with mock.patch.object(perron.ordered_group, "_PerronChooser", Recording):
        outcome = positivize_outcome(
            lambda: positivize_all(basis, elements, step_limit))
        assert outcome == positivize_outcome(
            lambda: oracle_positivize_all(basis, elements, step_limit))
        assert monomialize_outcome(ring, f, step_limit) == \
            oracle_monomialize_outcome(ring, f, step_limit)
    if len(outcome) == 3:  # Fraction values leave, divided by the scale
        assert all(type(x) is Fraction for img in outcome[0].images for x in img)
    # the descent itself held int images only
    assert len(made) == 2
    assert all(type(x) is int for chooser in made
               for img in chooser.basis.images for x in img)


def run_logging_positivize_all(basis, elements):
    """positivize_all with the library's chooser logging each run the descent
    hands it.  At each choose the runs so far make up round_no - 1 rounds,
    and in the end the log is the trace's runs."""
    made = []

    class RunLogging(_PerronChooser):
        def __init__(self, basis):
            super().__init__(basis)
            self.log = []
            made.append(self)

        def choose(self, J, vectors, round_no):
            assert sum(len(block) * m for block, m in self.log) == round_no - 1
            return super().choose(J, vectors, round_no)

        def _after_run(self, block, m):
            self.log.append((block, m))
            super()._after_run(block, m)

    with mock.patch.object(perron.ordered_group, "_PerronChooser", RunLogging):
        result = positivize_all(basis, elements)
    (chooser,) = made
    assert merged_runs(chooser.log) == result.steps.runs
    return result


@given(group_orders(), st.data())
def test_the_chooser_is_handed_each_run(order, data):
    basis = GroupBasis.initial(order)
    run_logging_positivize_all(basis, [positive_element(data.draw, basis)
                                       for _ in range(data.draw(st.integers(1, 3)))])


def test_the_chooser_is_handed_each_run_of_a_long_descent():
    """On the identity order in Q^3, (5, -2^8, 7) takes 102 rounds in 100 runs."""
    basis = GroupBasis.initial(GroupOrder(tuple(
        lexvec(row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))
    result = run_logging_positivize_all(basis, [GroupElement(basis, (5, -2 ** 8, 7))])
    assert result.steps.rounds == 102 and len(result.steps.runs) == 100


def subtracted(images, J, j):
    """The images after one round of the step (J, j)."""
    return tuple(tuple(x - y for x, y in zip(img, images[j - 1])) if i in J and i != j
                 else img for i, img in enumerate(images, start=1))


def replayed_repetitions(images, block, cap):
    """How many repetitions of the block of (J, j) pairs, at most cap, a
    one-round replay plays with each j the J-minimal image at its turn."""
    for t in range(cap):
        for J, j in block:
            if min(J, key=lambda i: images[i - 1]) != j:
                return t
            images = subtracted(images, J, j)
    return cap


@st.composite
def commuting_blocks(draw):
    """Independent lex-positive integer images of rank 2-4, a commuting block
    of 1-3 steps whose j is the J-minimal image at its turn, and a limit."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(n, 4))
    images = []
    for _ in range(n):
        row = draw(st.lists(st.integers(-3, 9), min_size=d, max_size=d))
        images.append(tuple(row) if lex_sign(row) >= 0 else tuple(-x for x in row))
    assume(not validate_order(GroupOrder(tuple(map(lexvec, images)))))
    block, replayed = [], images
    for _ in range(draw(st.integers(1, 3))):
        J = frozenset(draw(st.sets(st.integers(1, n), min_size=2)))
        j = min(J, key=lambda i: replayed[i - 1])
        if commute([Step(J, j, n) for J, j in block + [(J, j)]]):
            block.append((J, j))
            replayed = subtracted(replayed, J, j)
    return tuple(images), tuple(block), draw(st.integers(0, 40))


@settings(max_examples=300)
@given(commuting_blocks())
# image 1 loses image 2 + image 3 per repetition, so each j stays J-minimal
# for 4 repetitions, though each step alone would run 10 and 9 rounds
@example((((0, 10, 0, 1), (0, 1, 0, 0), (0, 1, 1, 0)),
          ((frozenset({1, 2}), 2), (frozenset({1, 3}), 3)), 20))
def test_the_chooser_promises_no_more_repetitions_than_a_replay_holds(case):
    """The chooser's repeat against a one-round replay from its basis: for a
    single step, the replay's count less the round just chosen, capped at
    limit; for a commuting block, never more than the replay's count."""
    images, block, limit = case
    chooser = _PerronChooser(GroupBasis.initial(GroupOrder(tuple(map(lexvec, images)))))
    answer = chooser.repeat([Step(J, j, len(images)) for J, j in block], limit)
    held = replayed_repetitions(images, block, limit + 1)
    if len(block) == 1:
        assert answer == held - 1
    else:
        assert answer <= held


@given(group_orders(), st.data())
def test_basis_integrity_under_random_transforms(order, data):
    basis = GroupBasis.initial(order)
    n = order.rank
    for _ in range(data.draw(st.integers(0, 5))):
        J = data.draw(st.frozensets(st.integers(1, n), min_size=1))
        basis, _ = simple_perron(basis, J)
    assert abs(determinant(basis.coords_in_original)) == 1
    assert all(lex_sign(img) == 1 for img in basis.images)


@given(group_orders(), st.data())
def test_change_of_basis_identity(order, data):
    basis = GroupBasis.initial(order)
    n = order.rank
    coords = tuple(data.draw(st.integers(-9, 9)) for _ in range(n))
    J = data.draw(st.frozensets(st.integers(1, n), min_size=1))
    new_basis, step = simple_perron(basis, J)
    new_coords = apply_step(step, coords)
    assert expansion(new_coords, new_basis.images) == expansion(coords, basis.images)


@given(group_orders(), st.data())
def test_cone_monotonicity(order, data):
    basis = GroupBasis.initial(order)
    n = order.rank
    coords = tuple(data.draw(st.integers(0, 9)) for _ in range(n))
    J = data.draw(st.frozensets(st.integers(1, n), min_size=1))
    _, step = simple_perron(basis, J)
    assert all(c >= 0 for c in apply_step(step, coords))


@given(group_orders(), st.data())
def test_positivize_round_trip(order, data):
    basis = GroupBasis.initial(order)
    element = positive_element(data.draw, basis)
    result = positivize(basis, element)
    assert all(c >= 0 for c in result.coords)
    assert expansion(result.coords, result.basis.images) == \
        expansion(element.coords, basis.images)
    assert abs(determinant(result.basis.coords_in_original)) == 1
    assert all(lex_sign(img) == 1 for img in result.basis.images)


@given(group_orders(), st.data())
def test_positivize_all_round_trip(order, data):
    basis = GroupBasis.initial(order)
    elements = [positive_element(data.draw, basis)
                for _ in range(data.draw(st.integers(0, 3)))]
    result = positivize_all(basis, elements)
    assert len(result.coords) == len(elements)
    for element, coords in zip(elements, result.coords):
        assert all(c >= 0 for c in coords)
        assert expansion(coords, result.basis.images) == \
            expansion(element.coords, basis.images)


def test_ill_conditioned_positivize_takes_one_run(monkeypatch):
    N = 10 ** 5
    basis = GroupBasis.initial(GroupOrder(((Fraction(1), Fraction(0)),
                                           (Fraction(1, N), Fraction(1)))))
    lengths = []  # one chooser run: its last round is a norm tie
    run_length = perron.ordered_group._perron_run_length
    monkeypatch.setattr(perron.ordered_group, "_perron_run_length",
                        lambda *args: lengths.append(run_length(*args)) or lengths[-1])
    result = positivize(basis, GroupElement(basis, (1, -(N - 1))))
    assert lengths == [N - 1]
    assert len(result.steps) == N - 1
    assert set(result.steps) == {Step(frozenset({1, 2}), 2, 2)}
    assert result.coords == (1, 0)
    assert result.basis.images == ((Fraction(1, N), Fraction(-(N - 1))),
                                   (Fraction(1, N), Fraction(1)))
    assert result.basis.coords_in_original == ((1, -(N - 1)), (0, 1))


@pytest.mark.parametrize("N", [10 ** 4, 10 ** 30])
def test_one_perron_run_costs_a_few_J_rule_calls(N, monkeypatch):
    """The long-descent shape: the chooser names the run's end, N - 1 rounds
    on, and one probe confirms it, so the cost does not grow with log N.
    Three calls: the run's first round, the probe, and the comparable pair."""
    basis = GroupBasis.initial(GroupOrder(((Fraction(1), Fraction(0)),
                                           (Fraction(1, N), Fraction(1)))))
    element = GroupElement(basis, (1, -(N - 1)))
    calls = []
    J_rule = perron.engine._J_rule
    monkeypatch.setattr(perron.engine, "_J_rule",
                        lambda d: calls.append(1) or J_rule(d))
    result = positivize(basis, element)
    assert len(calls) <= 4
    assert result.steps.runs == [((Step(frozenset({1, 2}), 2, 2),), N - 1)]
    if N == 10 ** 4:
        assert result == oracle_positivize(basis, element)


# the group layer sums in integers; the Fraction expansion is the oracle ------

# small numerators over mixed denominators: zero entries and cancellations
small_rationals = st.builds(Fraction, st.integers(-3, 3),
                            st.sampled_from([1, 2, 3, 4, 6, 12]))


@st.composite
def combinations(draw, max_vecs=4, max_dim=4):
    d = draw(st.integers(1, max_dim))
    vecs = draw(st.lists(st.tuples(*[small_rationals] * d), min_size=1,
                         max_size=max_vecs))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(vecs),
                           max_size=len(vecs)))
    return tuple(coeffs), tuple(vecs)


@given(combinations())
@example(((0, 0), ((Fraction(1, 2), Fraction(-1, 3)),
                   (Fraction(2, 5), Fraction(0)))))  # zero coefficients
@example(((2, -1), ((Fraction(1, 3), Fraction(-5, 4)),
                    (Fraction(2, 3), Fraction(-5, 2)))))  # a zero sum
@example(((3, -1, 0), ((Fraction(0), Fraction(1, 6)),
                       (Fraction(0), Fraction(1, 2)),
                       (Fraction(-7, 3), Fraction(1)))))  # zero, then sign
def test_integer_sums_match_the_fraction_oracle(case):
    coeffs, vecs = case
    total = expansion(coeffs, vecs)
    # neither GroupBasis nor GroupElement checks that the images are independent
    basis = GroupBasis(GroupOrder(vecs), identity_matrix(len(vecs)), vecs)
    assert element_value(GroupElement(basis, coeffs)) == total
    # the sign check of positivize: integer sums up to the first non-zero
    assert lex_sign(_dot(coeffs, _scaled(vecs)[1])) == lex_sign(total)


@given(group_orders(), valued_rings(), st.data())
def test_element_and_monomial_values_match_the_fraction_oracle(order, ring, data):
    basis = GroupBasis.initial(order)
    zero = GroupElement(basis, (0,) * basis.rank)
    assert element_value(zero) == (0,) * order.order_dim
    coords = tuple(data.draw(st.integers(-9, 9)) for _ in range(basis.rank))
    total = expansion(coords, basis.images)
    assert element_value(GroupElement(basis, coords)) == total
    assert lex_sign(_dot(coords, _scaled(basis.images)[1])) == lex_sign(total)
    assert element_compare(GroupElement(basis, coords), zero) == lex_sign(total)

    exponents = tuple(data.draw(st.integers(0, 5)) for _ in range(ring.num_vars))
    value_basis = GroupBasis(GroupOrder(ring.values), identity_matrix(ring.num_vars),
                             ring.values)
    assert element_value(GroupElement(value_basis, exponents)) \
        == expansion(exponents, ring.values)
