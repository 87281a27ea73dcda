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
from operator import mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InternalError, ValidationError
from .ordered_group import (GroupOrder, LexVec, _check_values, _dot, _initial_basis,
                            _into_cone, _rational, _valid)
from .transforms import Matrix, Trace, Vec, _is_int, apply_matrix, compose_trace, natvec

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
    if not (_is_int(ring.num_toric) and _is_int(ring.num_vars)):
        return [f"num_toric and num_vars must be integers, got {ring.num_toric!r} "
                f"and {ring.num_vars!r}"], None
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


class Substitution(NamedTuple):
    """x_i = prod_j (x'_j)^(matrix[i][j]) for toric i; identity beyond.

    Carries the generating steps so callers can audit unimodularity."""

    matrix: Matrix
    num_vars: int
    steps: Trace = ()

    @property
    def num_toric(self) -> int:
        return len(self.matrix)


def apply_substitution(p: Polynomial, s: Substitution) -> Polynomial:
    """Map every exponent vector through the substitution; coefficients move
    unchanged.  A num_vars that is not an int >= 1 (a bool is not), a matrix
    that is not n x n ints, 1 <= n <= num_vars, or a singular map that
    collides two terms raises ValidationError."""
    if not (_is_int(s.num_vars) and s.num_vars >= 1):
        raise ValidationError(
            f"substitution num_vars must be an int >= 1, got {s.num_vars!r}")
    rows = s.matrix if isinstance(s.matrix, (tuple, list)) else ()
    if not (1 <= len(rows) <= s.num_vars and all(
            isinstance(row, (tuple, list)) and len(row) == len(rows)
            and all(map(_is_int, row)) for row in rows)):
        raise ValidationError(f"substitution matrix must be n x n ints with "
                              f"1 <= n <= {s.num_vars}, got {s.matrix!r}")
    columns = tuple(zip(*rows))  # toric entry j of an image: e dot column j
    out: Polynomial = {}
    for e, c in p.items():
        if len(e) != s.num_vars:
            raise ValidationError(
                f"term has {len(e)} exponents, substitution covers {s.num_vars}")
        image = tuple([sum(map(mul, e, col)) for col in columns]) + e[s.num_toric:]
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
    rows = _valid(_check_ring(ring), "invalid ring: ")[1]
    m1 = natvec(m1)
    m2 = natvec(m2)
    n, m = ring.num_toric, ring.num_vars
    for name, mono in (("M1", m1), ("M2", m2)):
        if len(mono) != m:
            raise ValidationError(f"{name} has {len(mono)} exponents, expected {m}")
        if any(mono[n:]):
            raise ValidationError(
                f"{name} must involve only the first {n} variables")
    if not tuple(_dot(m1, rows)) < tuple(_dot(m2, rows)):  # values times one L > 0
        raise ValidationError("value of M1 must be strictly below value of M2")
    result = monomialize(ring, {m1: Fraction(1), m2: Fraction(1)})
    return result.substitution, ValuedRing(m, n, result.new_values)


class MonomializationResult(NamedTuple):
    substitution: Substitution
    new_values: tuple[LexVec, ...]
    factor_exponents: Vec
    unit_part: Polynomial


def monomialize(ring: ValuedRing,
                f: Polynomial | Iterable[tuple[Sequence[int], Fraction]],
                step_limit: Optional[int] = None) -> MonomializationResult:
    """Rewrite f as (toric monomial) * unit with the unit outside the toric
    ideal: f's image under the substitution factors exactly, and the unit has
    a term with all toric exponents zero.

    Groups the terms by toric exponent part; the value-minimal part is unique
    because distinct toric monomials have distinct values.  One combined run
    positivizes every value difference at once, yielding a single substitution.
    step_limit bounds the rounds of that whole run, as in positivize_all.
    f is a Polynomial or a term list, read through polynomial(), which
    merges duplicate exponents and drops zero coefficients.
    """
    f = polynomial(f.items() if isinstance(f, dict) else f)
    if not f:
        raise ValidationError("zero polynomial")
    L, rows = _valid(_check_ring(ring), "invalid ring: ")
    n, m = ring.num_toric, ring.num_vars
    for e in f:
        if len(e) != m:
            raise ValidationError(
                f"term has {len(e)} exponents, ring has {m} variables")

    toric_parts = sorted({e[:n] for e in f})
    scaled = L, rows[:n]  # each toric part's value, times one L > 0
    min_part = min(toric_parts, key=lambda t: tuple(_dot(t, scaled[1])))

    basis = _initial_basis(GroupOrder(ring.values[:n]))
    deltas = [tuple(map(sub, t, min_part))  # positive: min_part is least
              for t in toric_parts if t != min_part]
    combined = _into_cone(basis, scaled, deltas, step_limit)
    composed = compose_trace(combined.steps, n)
    factor = apply_matrix(composed, min_part)
    unit: Polynomial = {}
    for e, c in f.items():  # e's image under the substitution, divided by the factor
        reduced = tuple(map(sub, apply_matrix(composed, e[:n]), factor)) + e[n:]
        if min(reduced) < 0:
            raise InternalError("factor does not divide the transformed polynomial")
        unit[reduced] = c
    # column i of the composed step matrix holds the old value of x_i in the
    # new basis, so the exponent matrix is its transpose
    return MonomializationResult(Substitution(tuple(zip(*composed)), m, combined.steps),
                                 combined.basis.images + ring.values[n:], factor, unit)
