"""Elementary row-sum transforms with exact unbounded-integer arithmetic.

A step (J, j) replaces coordinate j of a vector by the sum of its
J-coordinates.  The matrix of a step is the identity with row j widened to
cover J; it has determinant 1, so any composition of steps is unimodular.
Coordinate indices are 1-based throughout, matching the usual convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]


def intvec(entries: Iterable[int]) -> Vec:
    """Freeze a vector of signed integers, validating type and dimension."""
    v = tuple(entries)
    if not v:
        raise ValidationError("vector must have dimension >= 1")
    for e in v:
        if type(e) is not int and (isinstance(e, bool) or not isinstance(e, int)):
            raise ValidationError(f"vector entries must be integers, got {e!r}")
    return v


def natvec(entries: Iterable[int]) -> Vec:
    """Freeze a vector of non-negative integers."""
    v = intvec(entries)
    if min(v) < 0:
        k, e = next((k, e) for k, e in enumerate(v) if e < 0)
        raise ValidationError(f"entry {k + 1} is negative: {e}")
    return v


@dataclass(frozen=True)
class Step:
    """One move (J, j) in dimension dim, with j in J and J inside 1..dim."""

    J: frozenset[int]
    j: int
    dim: int

    def __post_init__(self):
        J = frozenset(self.J)
        object.__setattr__(self, "J", J)
        if not J:
            raise ValidationError("J must be non-empty")
        dim = self.dim
        for i in J:
            if (type(i) is not int and (isinstance(i, bool) or not isinstance(i, int))
                    or not 1 <= i <= dim):
                raise ValidationError(
                    f"J must be a subset of 1..{dim}, got {sorted(J)}")
        if self.j not in J:
            raise ValidationError(f"j={self.j} is not a member of J={sorted(J)}")


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))


def step_matrix(step: Step) -> Matrix:
    """Matrix with entry (r, s) = 1 iff r = s, or r = j and s in J."""
    n = step.dim
    return tuple(
        tuple(1 if (r == s or (r == step.j and s in step.J)) else 0
              for s in range(1, n + 1))
        for r in range(1, n + 1))


def apply_step(step: Step, v: Sequence[int]) -> Vec:
    """Replace coordinate j of v by the sum of its J-coordinates.

    Agrees entrywise with step_matrix(step) applied to v; works for signed
    vectors as well (needed for group-element coordinates).
    """
    if len(v) != step.dim:
        raise ValidationError(
            f"dimension mismatch: step has dim {step.dim}, vector has {len(v)}")
    total = sum([v[i - 1] for i in step.J])
    out = list(v)
    out[step.j - 1] = total
    return tuple(out)


def apply_run(step: Step, k: int, v: Sequence[int]) -> Vec:
    """apply_step k times, in closed form.

    The step leaves every coordinate but j fixed, so each application adds
    the same sum of the other J-coordinates to coordinate j.
    """
    if len(v) != step.dim:
        raise ValidationError(
            f"dimension mismatch: step has dim {step.dim}, vector has {len(v)}")
    j = step.j
    out = list(v)
    out[j - 1] += k * sum(v[i - 1] for i in step.J if i != j)
    return tuple(out)


def step_runs(steps: Iterable[Step]) -> Iterator[tuple[Step, int]]:
    """Group a trace into (step, count) runs of consecutive equal steps."""
    run, k = None, 0
    for step in steps:
        if step is run or step == run:
            k += 1
        else:
            if run is not None:
                yield run, k
            run, k = step, 1
    if run is not None:
        yield run, k


def apply_matrix(m: Matrix, v: Sequence[int]) -> Vec:
    """Exact matrix-vector product."""
    if not m or len(m[0]) != len(v):
        raise ValidationError(
            f"dimension mismatch: matrix is {len(m)}x{len(m[0]) if m else 0}, "
            f"vector has {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValidationError("dimension mismatch in matrix product")
    cols = range(len(b[0]))
    inner = range(len(b))
    return tuple(
        tuple(sum(row[k] * b[k][s] for k in inner) for s in cols)
        for row in a)


def compose_trace(steps: Sequence[Step], n: int) -> Matrix:
    """Product of the step matrices, last step leftmost; empty gives identity.

    Multiplying by a step matrix on the left is the row operation
    row_j <- sum of the J-rows, so a run of k equal steps adds k times the
    sum of the other J-rows to row j.
    """
    rows = [list(row) for row in identity_matrix(n)]
    for step, k in step_runs(steps):
        if step.dim != n:
            raise ValidationError(
                f"trace mixes dimensions: expected {n}, found {step.dim}")
        others = [rows[i - 1] for i in step.J if i != step.j]
        if others:
            rows[step.j - 1] = [x + k * sum(col) for x, col
                                in zip(rows[step.j - 1], zip(*others))]
    return tuple(tuple(row) for row in rows)


def determinant(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Stays in integers: every division below is exact.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValidationError("matrix is not square")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for s in range(k + 1, n):
                a[i][s] = (a[i][s] * a[k][k] - a[i][k] * a[k][s]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
