import pytest
from hypothesis import given
from hypothesis import strategies as st

from perron import (Comparability, ValidationError, comparability, reduce_pair,
                    tau)

from conftest import vec_pairs


def oracle_reduce(alpha, beta):
    gamma = tuple(min(a, b) for a, b in zip(alpha, beta))
    return (gamma,
            tuple(a - g for a, g in zip(alpha, gamma)),
            tuple(b - g for b, g in zip(beta, gamma)))


def test_reduce_pair_examples():
    assert oracle_reduce((3, 1), (1, 2)) == ((1, 1), (2, 0), (0, 1))
    assert reduce_pair((3, 1), (1, 2)) == ((1, 1), (2, 0), (0, 1))
    assert reduce_pair((5, 5), (5, 5)) == ((5, 5), (0, 0), (0, 0))
    assert reduce_pair((0, 7), (0, 0)) == ((0, 0), (0, 7), (0, 0))


def test_tau_examples():
    _, abar, bbar = reduce_pair((3, 1), (1, 2))
    assert (sum(abar), sum(bbar)) == (2, 1)
    assert tau((3, 1), (1, 2)) == (1, 2)
    assert tau((4, 4), (4, 4)) == (0, 0)
    _, abar, bbar = reduce_pair((2, 0, 0), (0, 1, 1))
    assert sum(abar) == sum(bbar) == 2
    assert tau((2, 0, 0), (0, 1, 1)) == (2, 2)


def test_comparability_examples():
    assert comparability((1, 0), (1, 1)) is Comparability.LESS_EQ
    assert comparability((3, 1), (1, 2)) is Comparability.INCOMPARABLE
    assert comparability((2, 2), (2, 2)) is Comparability.EQUAL


def test_dim_mismatch():
    with pytest.raises(ValidationError):
        tau((1,), (1, 2))
    with pytest.raises(ValidationError):
        comparability((1,), (1, 2))


@given(vec_pairs())
def test_reduced_supports_are_disjoint(pair):
    alpha, beta = pair
    gamma, abar, bbar = reduce_pair(alpha, beta)
    assert all(min(a, b) == 0 for a, b in zip(abar, bbar))
    assert tuple(g + a for g, a in zip(gamma, abar)) == alpha
    assert tuple(g + b for g, b in zip(gamma, bbar)) == beta


def oracle_tau(alpha, beta):
    """tau from its definition: the sum norms of the reduced parts."""
    _, abar, bbar = reduce_pair(alpha, beta)
    na, nb = sum(abar), sum(bbar)
    return min(na, nb), max(na, nb)


@given(vec_pairs())
def test_tau_matches_the_reduced_pair_definition(pair):
    assert tau(*pair) == oracle_tau(*pair)


@given(vec_pairs())
def test_tau_is_symmetric(pair):
    alpha, beta = pair
    assert tau(alpha, beta) == tau(beta, alpha)
    assert tau(alpha, beta).first <= tau(alpha, beta).second


@given(vec_pairs())
def test_tau_zero_iff_comparable(pair):
    alpha, beta = pair
    comparable = comparability(alpha, beta) is not Comparability.INCOMPARABLE
    assert (tau(alpha, beta).first == 0) == comparable


@given(vec_pairs(), st.lists(st.integers(0, 9), min_size=5, max_size=5))
def test_tau_translation_invariance(pair, shifts):
    alpha, beta = pair
    delta = tuple(shifts[:len(alpha)])
    shifted_a = tuple(a + d for a, d in zip(alpha, delta))
    shifted_b = tuple(b + d for b, d in zip(beta, delta))
    assert tau(shifted_a, shifted_b) == tau(alpha, beta)


# comparability against the two-pass definition it replaced ----------------

def oracle_comparability(alpha, beta):
    le = all(a <= b for a, b in zip(alpha, beta))
    ge = all(a >= b for a, b in zip(alpha, beta))
    if le and ge:
        return Comparability.EQUAL
    if le:
        return Comparability.LESS_EQ
    if ge:
        return Comparability.GREATER_EQ
    return Comparability.INCOMPARABLE


@given(vec_pairs(max_entry=3), st.booleans())
def test_comparability_matches_two_pass_definition(pair, as_lists):
    alpha, beta = pair
    if as_lists:
        alpha, beta = list(alpha), list(beta)
    assert comparability(alpha, beta) is oracle_comparability(alpha, beta)


@given(vec_pairs(), st.integers(1, 3))
def test_comparability_length_mismatch_message(pair, extra):
    alpha, beta = pair
    longer = beta + (0,) * extra
    for a, b in ((alpha, longer), (longer, alpha)):
        with pytest.raises(ValidationError) as info:
            comparability(a, b)
        assert str(info.value) == f"dimension mismatch: {len(a)} vs {len(b)}"
