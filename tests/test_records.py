"""The library's record types: fields, construction, equality, hashing and
immutability, as callers rely on them."""

import copy
import pickle
from fractions import Fraction

import pytest

from perron import (Comparability, EngineTrace, FirstIndex, GameOutcome,
                    GroupBasis, GroupElement, GroupOrder, MonomializationResult,
                    Step, Substitution, Trace, ValidationError, ValuedRing,
                    lexvec, run_pair)

ORDER = GroupOrder((lexvec([1, 0]), lexvec([0, 1])))
BASIS = GroupBasis(ORDER, ((1, 0), (0, 1)), ORDER.images)
TRACE = Trace([((Step({1, 2}, 1, 2),), 2)])
SUBSTITUTION = Substitution(((1, 2), (0, 1)), 2, TRACE)
RING = ValuedRing(2, 2, ORDER.images)

# record type, its field names, and one value per field
RECORDS = [
    (EngineTrace, ("steps", "outcome", "final_alpha", "final_beta", "alpha",
                   "beta"),
     (TRACE, Comparability.LESS_EQ, (5, 1), (5, 2), (3, 1), (1, 2))),
    (GameOutcome, ("final_vectors", "winner_index", "trace", "rounds"),
     (((5, 1), (5, 2)), 0, TRACE, 2)),
    (ValuedRing, ("num_vars", "num_toric", "values"), (2, 2, ORDER.images)),
    (Substitution, ("matrix", "num_vars", "steps"), (((1, 2), (0, 1)), 2, TRACE)),
    (MonomializationResult, ("substitution", "new_values", "factor_exponents",
                             "unit_part"),
     (SUBSTITUTION, ORDER.images, (0, 1), {(0, 0): Fraction(1)})),
    (GroupOrder, ("images",), (ORDER.images,)),
    (GroupBasis, ("order", "coords_in_original", "images"),
     (ORDER, ((1, 0), (0, 1)), ORDER.images)),
    (GroupElement, ("basis", "coords"), (BASIS, (2, -1))),
    (Step, ("J", "j", "dim"), (frozenset({1, 2}), 1, 2)),
]
HASHABLE = {ValuedRing, GroupOrder, GroupBasis, GroupElement, Step}


@pytest.mark.parametrize("cls, fields, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, values):
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(positional, name) == value
    assert positional == keyword
    assert not positional != keyword
    if cls in HASHABLE:
        assert hash(positional) == hash(keyword)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(positional, name, values[0])
    assert copy.copy(positional) == positional
    assert pickle.loads(pickle.dumps(positional)) == positional


def test_records_with_different_fields_differ():
    assert Step({1, 2}, 1, 2) != Step({1, 2}, 2, 2)
    assert Step({1, 2}, 1, 2) != Step({1, 2}, 1, 3)
    assert Step({1, 2}, 1, 2) != (frozenset({1, 2}), 1, 2)
    assert GroupElement(BASIS, (2, -1)) != GroupElement(BASIS, (2, 1))
    assert ValuedRing(2, 1, ORDER.images) != RING


def test_step_repr_and_defaults():
    assert repr(Step([2, 1], 1, 2)) == "Step(J=frozenset({1, 2}), j=1, dim=2)"
    assert Step([2, 1], 1, 2).J == frozenset({1, 2})
    assert Substitution(((1,),), 1).steps == ()
    assert SUBSTITUTION.num_toric == 2 and RING.order_dim == 2
    assert ORDER.rank == 2 and ORDER.order_dim == 2 and BASIS.rank == 2
    step = Step({1}, 1, 1)
    with pytest.raises(AttributeError):
        del step.j


def test_tau_history_is_cached():
    trace = run_pair((3, 1), (1, 2), FirstIndex())
    assert isinstance(trace, EngineTrace) and trace.rounds == 2
    assert trace.tau_history is trace.tau_history
    assert [tuple(t) for t in trace.tau_history] == [(1, 2), (1, 1), (0, 1)]


def test_group_element_validation_messages():
    assert GroupElement(BASIS, [2, -1]).coords == (2, -1)
    cases = [
        ((2,), "element has 1 coordinates, basis rank is 2"),
        ((1, True), "vector entries must be integers, got True"),
        ((), "vector must have dimension >= 1"),
    ]
    for coords, message in cases:
        with pytest.raises(ValidationError) as info:
            GroupElement(BASIS, coords)
        assert str(info.value) == message
