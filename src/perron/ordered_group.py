"""Finitely generated ordered abelian groups with rational lexicographic orders.

A rank-n group is described by the images of its generators in Q^d under a
lexicographic order.  The images must be lex-positive and linearly
independent over Q, which makes the coordinate map injective and the induced
order total.  Bases evolve by transforms that subtract the smallest selected
basis element from the others; every such transform keeps all basis images
positive and enlarges the cone of non-negative integer combinations, which is
what lets any positive element eventually acquire non-negative coordinates.

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
from .tau import Comparability, comparability
from .transforms import Matrix, Step, Trace, Vec, _is_int, identity_matrix, intvec

LexVec = tuple[Fraction, ...]


def lexvec(entries) -> LexVec:
    """Freeze a vector of exact rationals."""
    v = tuple([e if type(e) is Fraction else Fraction(e) for e in entries])
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


def _rational_rank(rows: Sequence[Vec]) -> int:
    """Rank over Q of integer rows, such as those of _scaled."""
    work = list(rows)
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for i in range(rank + 1, len(work)):
            if f := work[i][col]:
                work[i] = [lead * x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


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
    return _check_order(order)[0]


def _check_order(order: GroupOrder):
    """(violations, _scaled(order.images)), scaled None for missing or ragged images."""
    if not order.images:
        return ["order must have at least one generator image"], None
    if len({len(img) for img in order.images}) != 1:
        return ["generator images must share one length"], None
    scaled = _scaled(order.images)
    violations = [f"image {k} is not lex-positive"
                  for k, row in enumerate(scaled[1], start=1) if lex_sign(row) <= 0]
    rank = _rational_rank(scaled[1])
    if rank != order.rank:
        violations.append(
            f"images not independent: rank {rank} < {order.rank}")
    return violations, scaled


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
        violations = validate_order(order)
        if violations:
            raise ValidationError("invalid order: " + "; ".join(violations))
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


def _combination(coeffs: Sequence[int], vecs: Sequence[LexVec]) -> LexVec:
    """The integer combination of lex vectors with the given coefficients."""
    L, rows = _scaled(vecs)
    return tuple(Fraction(s, L) for s in _dot(coeffs, rows))


def _combination_sign(coeffs: Sequence[int], vecs: Sequence[LexVec]) -> int:
    """lex_sign of the combination, from integer sums up to the first non-zero."""
    return lex_sign(_dot(coeffs, _scaled(vecs)[1]))


def element_value(element: GroupElement) -> LexVec:
    """The element's image: the coordinate combination of the basis images."""
    return _combination(element.coords, element.basis.images)


def element_compare(e1: GroupElement, e2: GroupElement) -> int:
    """-1, 0 or 1 as e1 is below, equal to, or above e2 in the group order."""
    if e1.basis != e2.basis:
        raise ValidationError("elements must be expressed in the same basis")
    return _combination_sign([a - b for a, b in zip(e1.coords, e2.coords)],
                             e1.basis.images)


def _lex_minimal(basis: GroupBasis, J: frozenset[int]) -> int:
    """The member of J with the lex-minimal image; images must be distinct."""
    ranked = sorted(J, key=lambda i: basis.images[i - 1])
    if len(ranked) > 1 and basis.images[ranked[0] - 1] == basis.images[ranked[1] - 1]:
        raise InternalError("two basis elements share an image; order is degenerate")
    return ranked[0]


def _perron_transform(basis: GroupBasis, J: frozenset[int], j: int,
                      k: int) -> GroupBasis:
    """Subtract k times basis element j from every other element of J."""
    def subtract(vecs):
        return tuple([tuple([x - k * y for x, y in zip(v, vecs[j - 1])])
                      if i in J and i != j else v for i, v in enumerate(vecs, start=1)])

    images, rows = subtract(basis.images), subtract(basis.coords_in_original)
    if any(lex_sign(images[i - 1]) <= 0 for i in J if i != j):
        raise InternalError("transformed basis image is not lex-positive")
    return GroupBasis(basis.order, rows, images)


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

    j is the member of J with lex-minimal image (unique, since independent
    images are distinct).  Coordinates of any element transform by the step
    matrix of the returned Step; all new images stay lex-positive and the
    basis stays unimodular over the original generators.
    """
    n = basis.rank
    Jset = frozenset(J)
    if not Jset or not all(_is_int(i) and 1 <= i <= n for i in Jset):
        raise ValidationError(f"J must be a non-empty subset of 1..{n}")
    j = _lex_minimal(basis, Jset)
    return _perron_transform(basis, Jset, j, 1), Step(Jset, j, n)


class _PerronChooser(Adversary):
    """j-chooser that tracks the evolving basis: picks the J-minimal image for
    as many rounds as it stays minimal, and applies the matching basis
    transforms once the descent has played them.  A legitimate adversary, so
    the pair engine's termination guarantee applies unchanged."""

    def __init__(self, basis: GroupBasis):
        self.basis = basis
        self._run = None  # (J, j, first round) of the answer not yet applied

    def settle(self, round_no: int):
        """Apply the transforms of the rounds played before round_no."""
        if self._run is not None:
            J, j, start = self._run
            self.basis = _perron_transform(self.basis, J, j, round_no - start)
            self._run = None

    def choose_run(self, J, vectors, round_no, limit):
        self.settle(round_no)
        j = _lex_minimal(self.basis, J)
        self._run = (J, j, round_no)
        return j, _perron_run_length(self.basis.images, J, j, limit)


class PositivizeResult(NamedTuple):
    basis: GroupBasis
    coords: Vec
    steps: Trace


def positivize(basis: GroupBasis, element: GroupElement,
               step_limit: Optional[int] = None) -> PositivizeResult:
    """Transform the basis until the element has non-negative coordinates."""
    if element.basis != basis:
        raise ValidationError("element is not expressed in the given basis")
    scaled = _scaled(basis.images)
    if lex_sign(_dot(element.coords, scaled[1])) < 0:
        raise ValidationError("element is negative; only positive elements join the cone")
    basis, (coords,), steps = _into_cone(basis, scaled, [element.coords], step_limit)
    return PositivizeResult(basis, coords, steps)


class PositivizeAllResult(NamedTuple):
    basis: GroupBasis
    coords: tuple[Vec, ...]
    steps: Trace


def positivize_all(basis: GroupBasis, elements: Sequence[GroupElement],
                   step_limit: Optional[int] = None) -> PositivizeAllResult:
    """Positivize the elements one after another in one final basis.

    Phase by phase, the first element with a negative coordinate splits into
    plus and minus rows that descend with the J-minimal-image chooser, so
    every step is a basis transform.  Steps are linear: the element's row
    ends as plus - minus, non-negative as the element is positive, and stays
    so as the cone grows.  step_limit bounds the rounds of the whole job.
    """
    return _positivize_all(basis, _scaled(basis.images), elements, step_limit)


def _positivize_all(basis: GroupBasis, scaled, elements: Sequence[GroupElement],
                    step_limit: Optional[int]) -> PositivizeAllResult:
    """positivize_all with scaled = _scaled(basis.images) already taken."""
    rows = []
    for k, e in enumerate(elements, start=1):
        if e.basis != basis:
            raise ValidationError(f"element {k} is not expressed in the given basis")
        if lex_sign(_dot(e.coords, scaled[1])) < 0:
            raise ValidationError(f"element {k} is negative")
        rows.append(e.coords)
    return _into_cone(basis, scaled, rows, step_limit)


def _into_cone(basis: GroupBasis, scaled: tuple[int, tuple[Vec, ...]],
               rows: list[Vec], step_limit: Optional[int]) -> PositivizeAllResult:
    """positivize_all for rows checked to be positive, scaled = _scaled(basis.images)."""
    count = len(rows)

    def phase(rows):
        if len(rows) > count:  # a split element is descending
            rel = comparability(*rows[count:])
            if rel is Comparability.INCOMPARABLE:
                return count, count + 1
            if rel is Comparability.LESS_EQ:  # plus - minus <= 0, not 0
                raise InternalError(
                    "positive element ended with a negative coordinate")
            del rows[count:]
        row = next((row for row in rows if min(row) < 0), None)
        if row is None:
            return None
        rows += [tuple([max(c, 0) for c in row]), tuple([max(-c, 0) for c in row])]
        return count, count + 1

    L, images = scaled
    chooser = _PerronChooser(basis._replace(images=images))  # images times L: ints
    steps = drive(rows, phase, chooser, step_limit,
                  f"pair not comparable within {step_limit} steps")
    chooser.settle(steps.rounds + 1)
    # a row no transform touched is still the very row scaled: keep its image
    images = tuple([old if new is row else tuple([Fraction(x, L) for x in new])
                    for old, row, new in zip(basis.images, images, chooser.basis.images)])
    return PositivizeAllResult(chooser.basis._replace(images=images), tuple(rows), steps)
