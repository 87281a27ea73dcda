"""Reduced pairs and the lexicographic descent measure for vector pairs."""

from __future__ import annotations

from enum import Enum
from operator import ge, le, sub
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .transforms import Vec


class Comparability(Enum):
    LESS_EQ = "le"
    GREATER_EQ = "ge"
    EQUAL = "eq"
    INCOMPARABLE = "incomparable"


class Tau(NamedTuple):
    """(min, max) of the sum norms of the reduced parts; compares lexicographically."""

    first: int
    second: int


def _check_dims(alpha: Vec, beta: Vec):
    if len(alpha) != len(beta):
        raise ValidationError(
            f"dimension mismatch: {len(alpha)} vs {len(beta)}")


def reduce_pair(alpha: Vec, beta: Vec) -> tuple[Vec, Vec, Vec]:
    """Split off the coordinatewise minimum: (gamma, abar, bbar), disjoint remainders."""
    _check_dims(alpha, beta)
    gamma = tuple(map(min, alpha, beta))
    abar = tuple(a - c for a, c in zip(alpha, gamma))
    bbar = tuple(b - c for b, c in zip(beta, gamma))
    return gamma, abar, bbar


def _tau_of(d: Sequence[int]) -> Tau:
    """tau of a pair with difference d = alpha - beta: its reduced parts are
    the positive and the negative part of d."""
    na = sum([x for x in d if x > 0])
    nb = na - sum(d)
    return Tau(min(na, nb), max(na, nb))


def tau(alpha: Vec, beta: Vec) -> Tau:
    _check_dims(alpha, beta)
    return _tau_of(list(map(sub, alpha, beta)))


def comparability(alpha: Vec, beta: Vec) -> Comparability:
    """Componentwise relation; Incomparable exactly when tau's first coordinate is positive."""
    if len(alpha) != len(beta):
        _check_dims(alpha, beta)
    below = all(map(le, alpha, beta))
    above = all(map(ge, alpha, beta))
    if below and above:
        return Comparability.EQUAL
    if below:
        return Comparability.LESS_EQ
    if above:
        return Comparability.GREATER_EQ
    return Comparability.INCOMPARABLE
