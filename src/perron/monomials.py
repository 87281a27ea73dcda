"""Monomial values under a valuation, divisibility transforms, and
monomialization of polynomials.

Variables x_1..x_m carry lex-vector values, the first n of them rationally
independent.  A substitution x_i = prod_j (x'_j)^(a_ij) with a non-negative
unimodular exponent matrix (identity beyond the first n variables) rewrites
polynomials so that a chosen monomial divides everything in sight.
Coefficients are exact rationals; identities below hold with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InternalError, ValidationError
from .ordered_group import (GroupOrder, LexVec, _check_values, _combination, _dot,
                            _initial_basis, _into_cone, _rational, _valid)
from .transforms import Matrix, Trace, Vec, compose_trace, natvec

# Canonical polynomial: exponent vector -> non-zero coefficient.
Polynomial = dict[Vec, Fraction]


class ValuedRing(NamedTuple):
    """m variables with lex-vector values; the first num_toric are the toric
    variables whose values form a rational basis."""

    num_vars: int
    num_toric: int
    values: tuple[LexVec, ...]

    @property
    def order_dim(self) -> int:
        return len(self.values[0])


def validate_ring(ring: ValuedRing) -> list[str]:
    """Return the list of violations (empty when the ring is usable)."""
    return _check_ring(ring)[0]


def _check_ring(ring: ValuedRing):
    """(violations, _scaled(ring.values)), scaled None when the shape is wrong."""
    if not 1 <= ring.num_toric <= ring.num_vars:
        return [f"need 1 <= num_toric <= num_vars, got {ring.num_toric} and "
                f"{ring.num_vars}"], None
    if len(ring.values) != ring.num_vars:
        return [f"expected {ring.num_vars} values, got {len(ring.values)}"], None
    return _check_values(ring.values, ring.num_toric, "values", "value of variable",
                         "toric values")


def polynomial(terms: Iterable[tuple[Sequence[int], Fraction]]) -> Polynomial:
    """Canonicalize a term list: merge duplicate exponents, drop zeros."""
    out: Polynomial = {}
    for exponents, coeff in terms:
        e = natvec(exponents)
        c = coeff if type(coeff) is Fraction else _rational(coeff, "coefficient")
        c = out[e] + c if e in out else c
        if c:
            out[e] = c
        elif e in out:
            del out[e]
    return out


def monomial_value(ring: ValuedRing, exponents: Sequence[int]) -> LexVec:
    """Value of a monomial: exponents combine the variable values linearly."""
    e = natvec(exponents)
    if len(e) != ring.num_vars:
        raise ValidationError(
            f"monomial has {len(e)} exponents, ring has {ring.num_vars} variables")
    return _combination(e, ring.values)


class Substitution(NamedTuple):
    """x_i = prod_j (x'_j)^(matrix[i][j]) for toric i; identity beyond.

    Carries the generating steps so callers can audit unimodularity."""

    matrix: Matrix
    num_vars: int
    steps: Trace = ()

    @property
    def num_toric(self) -> int:
        return len(self.matrix)


def substitute_exponents(e: Vec, s: Substitution) -> Vec:
    return tuple(_dot(e, s.matrix)) + tuple(e[s.num_toric:])


def apply_substitution(p: Polynomial, s: Substitution) -> Polynomial:
    """Map every exponent vector through the substitution; coefficients move
    unchanged.  A singular map that collides two terms raises ValidationError."""
    out: Polynomial = {}
    for e, c in p.items():
        if len(e) != s.num_vars:
            raise ValidationError(
                f"term has {len(e)} exponents, substitution covers {s.num_vars}")
        image = substitute_exponents(e, s)
        if image in out:
            raise ValidationError("substitution collided two exponent vectors")
        out[image] = c
    return out


def divisibility_transform(ring: ValuedRing, m1: Sequence[int],
                           m2: Sequence[int]) -> tuple[Substitution, ValuedRing]:
    """Substitution under which the lower-valued toric monomial m1 divides m2.

    It is monomialize of the binomial x^m1 + x^m2: the value difference joins
    the cone, and the basis images become the primed variable values.
    """
    _valid("ring", _check_ring(ring))
    m1 = natvec(m1)
    m2 = natvec(m2)
    n, m = ring.num_toric, ring.num_vars
    for name, mono in (("M1", m1), ("M2", m2)):
        if len(mono) != m:
            raise ValidationError(f"{name} has {len(mono)} exponents, expected {m}")
        if any(mono[n:]):
            raise ValidationError(
                f"{name} must involve only the first {n} variables")
    if not monomial_value(ring, m1) < monomial_value(ring, m2):
        raise ValidationError("value of M1 must be strictly below value of M2")
    result = monomialize(ring, {m1: Fraction(1), m2: Fraction(1)})
    return result.substitution, ValuedRing(m, n, result.new_values)


class MonomializationResult(NamedTuple):
    substitution: Substitution
    new_values: tuple[LexVec, ...]
    factor_exponents: Vec
    unit_part: Polynomial


def monomialize(ring: ValuedRing, f: Polynomial,
                step_limit: Optional[int] = None) -> MonomializationResult:
    """Rewrite f as (toric monomial) * unit with the unit outside the toric
    ideal: f's image under the substitution factors exactly, and the unit has
    a term with all toric exponents zero.

    Groups the terms by toric exponent part; the value-minimal part is unique
    because distinct toric monomials have distinct values.  One combined run
    positivizes every value difference at once, yielding a single substitution.
    step_limit bounds the rounds of that whole run, as in positivize_all.
    """
    L, rows = _valid("ring", _check_ring(ring))
    if not f:
        raise ValidationError("polynomial must be non-zero")
    n, m = ring.num_toric, ring.num_vars
    for e in f:
        if len(natvec(e)) != m:
            raise ValidationError(
                f"term has {len(e)} exponents, ring has {m} variables")

    toric_parts = sorted({e[:n] for e in f})
    zero_tail = (0,) * (m - n)
    scaled = L, rows[:n]  # each toric part's value, times one L > 0
    min_part = min(toric_parts, key=lambda t: tuple(_dot(t, scaled[1])))

    basis = _initial_basis(GroupOrder(ring.values[:n]))
    deltas = [tuple(map(sub, t, min_part))  # positive: min_part is least
              for t in toric_parts if t != min_part]
    combined = _into_cone(basis, scaled, deltas, step_limit)
    # column i of the composed step matrix holds the old value of x_i in the
    # new basis, so the exponent matrix is its transpose
    substitution = Substitution(tuple(zip(*compose_trace(combined.steps, n))), m,
                                combined.steps)

    transformed = apply_substitution(f, substitution)
    factor = substitute_exponents(min_part + zero_tail, substitution)[:n]
    shift = factor + zero_tail
    unit: Polynomial = {}
    for e, c in transformed.items():
        reduced = tuple(map(sub, e, shift))
        if min(reduced) < 0:
            raise InternalError("factor does not divide the transformed polynomial")
        unit[reduced] = c
    return MonomializationResult(substitution, combined.basis.images + ring.values[n:],
                                 factor, unit)
