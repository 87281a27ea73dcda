"""Finitely generated ordered abelian groups with rational lexicographic orders.

A rank-n group is described by the images of its generators in Q^d under a
lexicographic order.  The images must be lex-positive and linearly
independent over Q, which makes the coordinate map injective and the induced
order total.  Bases evolve by transforms that subtract the smallest selected
basis element from the others; every such transform keeps all basis images
positive and enlarges the cone of non-negative integer combinations, which is
what lets any positive element eventually acquire non-negative coordinates:
positivize plays engine.drive's champion game on the elements and the origin,
with a chooser that makes every step such a transform.

Ranks, signs, sums and the descent run on one integer scale: _scaled clears
a set of vectors by one L > 0, which keeps lex order, signs and rank, and a
value returns to Fraction once, divided by L.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .engine import Adversary, drive
from .errors import InternalError, ValidationError
from .transforms import Matrix, Step, Trace, Vec, _bareiss, _is_int, identity_matrix, intvec

LexVec = tuple[Fraction, ...]


def _rational(x, what: str) -> Fraction:
    """Fraction(x); ValidationError, naming x, for what Fraction cannot read
    and for a bool, which Fraction reads as 0 or 1."""
    try:
        if isinstance(x, bool):
            raise TypeError(x)
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise ValidationError(f"{what} is not a rational number: {x!r}") from None


def lexvec(entries) -> LexVec:
    """Freeze a vector of exact rationals."""
    v = tuple([e if type(e) is Fraction else _rational(e, "lex vector entry")
               for e in entries])
    if not v:
        raise ValidationError("lex vector must have dimension >= 1")
    return v


def lex_sign(v: LexVec) -> int:
    """Sign of the first non-zero coordinate; 0 for the zero vector."""
    for c in v:
        if c:
            return 1 if c > 0 else -1
    return 0


def _scaled(vecs: Sequence[LexVec]) -> tuple[int, tuple[Vec, ...]]:
    """(L, rows): L the lcm of every entry's denominator, row k L * vecs[k]."""
    L = math.lcm(*[x.denominator for v in vecs for x in v])
    return L, tuple([tuple([x.numerator * (L // x.denominator) for x in v]) for v in vecs])


def _dot(coeffs: Sequence[int], rows: Sequence[Vec]):
    """Entry by entry, and lazily, the integer combination of integer rows."""
    return (sum(map(mul, coeffs, column)) for column in zip(*rows))


class GroupOrder(NamedTuple):
    """Order data: the lex image of each original generator."""

    images: tuple[LexVec, ...]

    @property
    def rank(self) -> int:
        return len(self.images)

    @property
    def order_dim(self) -> int:
        return len(self.images[0])


def validate_order(order: GroupOrder) -> list[str]:
    """Return the list of violations (empty when the order is usable)."""
    return _check_order(order.images)[0]


def _check_order(images: Sequence[LexVec]):
    """(violations, _scaled(images)), scaled None for missing or ragged images."""
    if not images:
        return ["order must have at least one generator image"], None
    return _check_values(images, len(images), "generator images", "image", "images")


def _check_values(vecs: Sequence[LexVec], n: int, plural: str, each: str, first: str):
    """(violations, _scaled(vecs) or None if ragged): one length, each value
    lex-positive, the first n independent; plural, each and first name them."""
    if len({len(v) for v in vecs}) != 1:
        return [f"{plural} must share one length"], None
    scaled = _scaled(vecs)
    violations = [f"{each} {k} is not lex-positive"
                  for k, row in enumerate(scaled[1], start=1) if lex_sign(row) <= 0]
    rank = _bareiss(scaled[1][:n])[0]
    if rank != n:
        violations.append(f"{first} not independent: rank {rank} < {n}")
    return violations, scaled


def _valid(checked, prefix: str = ""):
    """checked's scaled copy, or a ValidationError: prefix, then its violations."""
    violations, scaled = checked
    if violations:
        raise ValidationError(prefix + "; ".join(violations))
    return scaled


class GroupBasis(NamedTuple):
    """A basis of the group: each row of coords_in_original writes one basis
    element in the original generators; images are cached lex values."""

    order: GroupOrder
    coords_in_original: Matrix
    images: tuple[LexVec, ...]

    @property
    def rank(self) -> int:
        return len(self.images)

    @classmethod
    def initial(cls, order: GroupOrder) -> "GroupBasis":
        _valid(_check_order(order.images), "invalid order: ")
        return _initial_basis(order)


def _initial_basis(order: GroupOrder) -> GroupBasis:
    """GroupBasis.initial for an order its caller has already validated."""
    return GroupBasis(order, identity_matrix(order.rank), order.images)


class _GroupElementFields(NamedTuple):
    basis: GroupBasis
    coords: Vec


class GroupElement(_GroupElementFields):
    """Integer coordinates relative to a designated basis."""

    __slots__ = ()

    def __new__(cls, basis: GroupBasis, coords: Vec):
        coords = intvec(coords)
        if len(coords) != basis.rank:
            raise ValidationError(
                f"element has {len(coords)} coordinates, basis rank is "
                f"{basis.rank}")
        return super().__new__(cls, basis, coords)


def element_value(element: GroupElement) -> LexVec:
    """The element's image: the coordinate combination of the basis images."""
    L, rows = _scaled(element.basis.images)
    return tuple(Fraction(s, L) for s in _dot(element.coords, rows))


def _lex_minimal(basis: GroupBasis, J: frozenset[int]) -> int:
    """The member of J with the lex-minimal image."""
    return min(J, key=lambda i: basis.images[i - 1])


def _perron_transform(basis: GroupBasis, J: frozenset[int], j: int,
                      k: int) -> GroupBasis:
    """Subtract k times basis element j from every other element of J."""
    def subtract(vecs):
        return tuple([tuple([x - k * y for x, y in zip(v, vecs[j - 1])])
                      if i in J and i != j else v for i, v in enumerate(vecs, start=1)])

    return GroupBasis(basis.order, subtract(basis.coords_in_original), subtract(basis.images))


def _perron_run_length(images: Sequence[LexVec], J: frozenset[int], j: int,
                       limit: int) -> int:
    """The largest K <= limit with image_i - K * image_j lex-positive for every
    i in J other than j: how long j stays the J-minimal image while it is
    subtracted from the others.

    image_j leads with a positive entry at some position p.  An image with a
    non-zero entry before p stays positive whatever K is; any other one stays
    positive exactly for K below the quotient of the entries at p, and at
    that quotient when the remainder after it is positive.
    """
    j_img = images[j - 1]
    p = next(pos for pos, x in enumerate(j_img) if x)
    K = limit
    for i in J:
        img = images[i - 1]
        if i == j or any(img[:p]):
            continue
        m, r = divmod(img[p], j_img[p])
        if not r and lex_sign(tuple(x - m * y for x, y in zip(img, j_img))) <= 0:
            m -= 1
        K = min(K, m)
    return K


def simple_perron(basis: GroupBasis, J) -> tuple[GroupBasis, Step]:
    """Subtract the J-minimal basis element from every other element of J.

    The basis images are checked as an order's are.  j is the member of J
    with lex-minimal image, and the transform subtracts it from larger,
    distinct images, so all new images stay lex-positive.  Coordinates of any
    element transform by the step matrix of the returned Step, and the basis
    stays unimodular over the original generators.
    """
    _valid(_check_order(basis.images))
    n = basis.rank
    Jset = frozenset(J)
    if not Jset or not all(_is_int(i) and 1 <= i <= n for i in Jset):
        raise ValidationError(f"J must be a non-empty subset of 1..{n}")
    j = _lex_minimal(basis, Jset)
    return _perron_transform(basis, Jset, j, 1), Step(Jset, j, n)


class _PerronChooser(Adversary):
    """j-chooser that tracks the evolving basis: picks the J-minimal image,
    repeats a single step while j stays minimal, and applies each run drive
    reports.  A legitimate adversary, so the pair engine's termination holds."""

    def __init__(self, basis: GroupBasis):
        self.basis = basis

    def choose(self, J, vectors, round_no):
        return _lex_minimal(self.basis, J)

    def repeat(self, block, limit):
        s, *more = block
        return 0 if more else _perron_run_length(self.basis.images, s.J, s.j, limit + 1) - 1

    def _after_run(self, block, m):
        for s in block:
            self.basis = _perron_transform(self.basis, s.J, s.j, m)


class PositivizeResult(NamedTuple):
    basis: GroupBasis
    coords: Vec
    steps: Trace


def positivize(basis: GroupBasis, element: GroupElement,
               step_limit: Optional[int] = None) -> PositivizeResult:
    """Transform the basis until the element has non-negative coordinates:
    positivize_all of the one element."""
    basis, (coords,), steps = positivize_all(basis, [element], step_limit)
    return PositivizeResult(basis, coords, steps)


class PositivizeAllResult(NamedTuple):
    basis: GroupBasis
    coords: tuple[Vec, ...]
    steps: Trace


def positivize_all(basis: GroupBasis, elements: Sequence[GroupElement],
                   step_limit: Optional[int] = None) -> PositivizeAllResult:
    """Positivize the elements one after another in one final basis.

    Phase by phase, the origin descends against the first element with a
    negative coordinate, with the J-minimal-image chooser, so every step is
    a basis transform.  Steps are linear: the origin stays zero, the element
    ends above it, non-negative, and stays so as the cone grows.  step_limit
    bounds the rounds of the whole job.  The basis images are checked as an
    order's are, and the violations raised as they are.
    """
    scaled = _valid(_check_order(basis.images))
    rows = []
    for k, e in enumerate(elements, start=1):
        if getattr(e, "basis", None) != basis:
            raise ValidationError(f"element {k} is not expressed in the given basis")
        if lex_sign(_dot(e.coords, scaled[1])) < 0:
            raise ValidationError(f"element {k} is negative")
        rows.append(e.coords)
    return _into_cone(basis, scaled, rows, step_limit)


def _into_cone(basis: GroupBasis, scaled: tuple[int, tuple[Vec, ...]],
               rows: list[Vec], step_limit: Optional[int]) -> PositivizeAllResult:
    """positivize_all for rows checked to be positive, scaled = _scaled(basis.images).
    A positive row with a negative coordinate has a positive one too, so the
    origin, row 0 and champion, descends against it until it is non-negative;
    drive hands the chooser each run, so its basis is final when drive returns."""
    L, images = scaled
    rows = [(0,) * basis.rank, *rows]
    chooser = _PerronChooser(GroupBasis(*basis[:2], images))  # images times L: ints
    champion, steps = drive(rows, chooser, step_limit,
                            f"pair not comparable within {step_limit} steps")
    if champion:
        raise InternalError("positive element ended with a negative coordinate")
    # a row no transform touched is still the very row scaled: keep its image
    images = tuple([old if new is row else tuple([Fraction(x, L) for x in new])
                    for old, row, new in zip(basis.images, images, chooser.basis.images)])
    # checked once: a transform keeps J's least image, so a bad image persists
    if any(lex_sign(new) <= 0 for old, new in zip(basis.images, images) if new is not old):
        raise InternalError("transformed basis image is not lex-positive")
    return PositivizeAllResult(GroupBasis(*chooser.basis[:2], images),
                               tuple(rows[1:]), steps)
