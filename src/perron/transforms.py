"""Elementary row-sum transforms with exact unbounded-integer arithmetic.

A step (J, j) replaces coordinate j of a vector by the sum of its
J-coordinates.  The matrix of a step is the identity with row j widened to
cover J; it has determinant 1, so any composition of steps is unimodular.
Coordinate indices are 1-based throughout, matching the usual convention.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Sequence
from itertools import chain, repeat
from typing import Iterable

from .errors import ValidationError

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]


def _is_int(x) -> bool:
    """An int, or a subclass of int other than bool."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def intvec(entries: Iterable[int]) -> Vec:
    """Freeze a vector of signed integers, validating type and dimension."""
    v = tuple(entries)
    if not v:
        raise ValidationError("vector must have dimension >= 1")
    for e in v:
        if type(e) is not int and not _is_int(e):
            raise ValidationError(f"vector entries must be integers, got {e!r}")
    return v


def natvec(entries: Iterable[int]) -> Vec:
    """Freeze a vector of non-negative integers."""
    v = intvec(entries)
    if min(v) < 0:
        k, e = next((k, e) for k, e in enumerate(v) if e < 0)
        raise ValidationError(f"entry {k + 1} is negative: {e}")
    return v


class Step:
    """One move (J, j) in dimension dim, with j in J and J inside 1..dim."""

    __slots__ = ("J", "j", "dim")

    def __init__(self, J: Iterable[int], j: int, dim: int):
        try:
            J = frozenset(J)
        except TypeError:  # not iterable, or an unhashable member
            raise ValidationError(f"J must be a set of integers, got {J!r}") from None
        if not J:
            raise ValidationError("J must be non-empty")
        dim_ok = type(dim) is int or _is_int(dim)
        for i in J:
            if not dim_ok or type(i) is not int and not _is_int(i) \
                    or not 1 <= i <= dim:
                raise ValidationError(
                    f"J must be a subset of 1..{dim}, got {sorted(J)}")
        if j not in J or type(j) is not int and not _is_int(j):
            raise ValidationError(f"j={j} is not a member of J={sorted(J)}")
        _set_J(self, J)
        _set_j(self, j)
        _set_dim(self, dim)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        # type(self), not Step: a profiler may rebind the module name Step
        if type(other) is not type(self):
            return NotImplemented
        return self.j == other.j and self.dim == other.dim and self.J == other.J

    def __hash__(self):
        return hash((self.J, self.j, self.dim))

    def __repr__(self):
        return f"Step(J={self.J!r}, j={self.j!r}, dim={self.dim!r})"

    def __reduce__(self):
        return type(self), (self.J, self.j, self.dim)


# the slots' own setters, past Step.__setattr__, which forbids assignment
_set_J, _set_j, _set_dim = Step.J.__set__, Step.j.__set__, Step.dim.__set__


def _step(J: frozenset[int], j: int, dim: int) -> Step:
    """Step(J, j, dim) without its checks, for engine.drive alone: its J is
    _J_rule's frozenset inside 1..dim, and it has checked j against J."""
    step = object.__new__(Trace._Step)  # a profiler may rebind the name Step
    _set_J(step, J)
    _set_j(step, j)
    _set_dim(step, dim)
    return step


def identity_matrix(n: int) -> Matrix:
    return tuple([(0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(n)])


def apply_step(step: Step, v: Sequence[int]) -> Vec:
    """Replace coordinate j of v by the sum of its J-coordinates.

    Agrees entrywise with the step's matrix applied to v; works for signed
    vectors as well (needed for group-element coordinates).
    """
    if len(v) != step.dim:
        raise ValidationError(
            f"dimension mismatch: step has dim {step.dim}, vector has {len(v)}")
    total = 0
    for i in step.J:
        total += v[i - 1]
    out = list(v)
    out[step.j - 1] = total
    return tuple(out)


def apply_run(step: Step, k: int, v: Sequence[int]) -> Vec:
    """apply_step k times, in closed form and one pass: each application adds
    the sum of the other J-coordinates to coordinate j, the one it changes."""
    if len(v) != step.dim:
        raise ValidationError(
            f"dimension mismatch: step has dim {step.dim}, vector has {len(v)}")
    j, out = step.j - 1, list(v)
    others = -out[j]
    for i in step.J:
        others += v[i - 1]
    out[j] += k * others
    return tuple(out)


def commute(block: Sequence[Step]) -> bool:
    """True when no step of the block adds to an entry in another step's J
    other than that step's own j: the sum each step adds then stays fixed
    while the block repeats, so m repetitions apply in closed form."""
    return all(s.j == t.j or s.j not in t.J for s in block for t in block)


class Trace(Sequence):
    """A step trace stored run-length.  `runs` holds (block, m) pairs: a block
    is one step, or one period of commuting steps, played m times over.

    As a sequence it is the flat tuple of steps, one per round: len is the
    round count, iteration, indexing and == with any other sequence expand
    the runs on demand, and == between traces walks the runs.  `rounds` is
    the round count as an int, exact past sys.maxsize, where len() raises
    OverflowError.
    """

    _Step = Step  # the class: a profiler may rebind the module name Step

    def __init__(self, runs: Iterable[tuple[Sequence[Step], int]] = ()):
        self.runs: list[tuple[tuple[Step, ...], int]] = []
        self.rounds = 0
        for block, m in runs:
            self.add_run(block, m)

    def add_run(self, block: Sequence[Step], m: int) -> None:
        """Record block played m more times, checked, through _append; a repeat
        of the last run's block extends that run."""
        block = tuple(block)
        for s in block:
            if not isinstance(s, self._Step):
                raise ValidationError(f"a trace holds steps, got {s!r}")
        if not block or len(block) > 1 and not commute(block) \
                or type(m) is not int and not _is_int(m) or m < 1:
            raise ValidationError(
                "a run is a non-empty block of commuting steps played m >= 1 times")
        self._append(block, m)

    def _append(self, block: tuple[Step, ...], m: int) -> None:
        """add_run past its checks: a non-empty tuple of commuting steps, m >= 1."""
        self.rounds += len(block) * m
        if self.runs and self.runs[-1][0] == block:
            m += self.runs.pop()[1]
        self.runs.append((block, m))

    def __len__(self) -> int:
        return self.rounds

    def __iter__(self):  # repeat takes at most sys.maxsize: split longer runs
        return chain.from_iterable(chain.from_iterable(
            repeat(block, min(m - k, sys.maxsize))
            for block, m in self.runs for k in range(0, m, sys.maxsize)))

    def __getitem__(self, i):
        r = range(self.rounds)[i]  # a negative index counts from the end
        if not isinstance(r, range):
            return self[r:r + 1][0]
        f = r if r.step > 0 else r[::-1]  # the same rounds, forwards
        out, runs, start, end = [], iter(self.runs), 0, 0
        for k in f:  # each run is passed once, whatever its length
            while k >= end:  # the run [start, end) holds round k
                block, m = next(runs)
                start, end = end, end + len(block) * m
            out.append(block[(k - start) % len(block)])
        return tuple(out if f is r else reversed(out))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        if not isinstance(other, Trace):
            return self.rounds == len(other) and all(map(operator.eq, self, other))
        if self.rounds != other.rounds:
            return False
        # Walk the runs together, i and j rounds into xs[x] and ys[y].  Runs of
        # blocks A and B are periodic: by Fine and Wilf, agreeing on |A| + |B|
        # rounds they agree to the end of the shorter run, whatever m.
        xs, ys, x, y, i, j = self.runs, other.runs, 0, 0, 0, 0
        while x < len(xs):  # equal round counts: ys ends with xs
            (a, m), (b, n) = xs[x], ys[y]
            k = min(len(a) * m - i, len(b) * n - j)
            if any(a[(i + t) % len(a)] != b[(j + t) % len(b)]
                   for t in range(min(k, len(a) + len(b)))):
                return False
            i, j = i + k, j + k
            if i == len(a) * m:
                x, i = x + 1, 0
            if j == len(b) * n:
                y, j = y + 1, 0
        return True

    def __repr__(self) -> str:
        return f"Trace({self.runs!r})"


def apply_matrix(m: Matrix, v: Sequence[int]) -> Vec:
    """Exact matrix-vector product."""
    if not m or any(len(row) != len(v) for row in m):
        raise ValidationError(
            f"dimension mismatch: matrix has row lengths {sorted({len(r) for r in m})}, "
            f"vector has {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def compose_trace(steps: Sequence[Step], n: int) -> Matrix:
    """Product of the step matrices, last step leftmost; empty gives identity.

    Column k of the product is the trace applied to the k-th unit vector, so
    the trace runs on the identity's columns.  It is read run by run, any
    other sequence as the Trace of its steps: m repetitions of a block of
    commuting steps are each step's run of m in turn, as drive plays them.
    """
    runs = (steps if isinstance(steps, Trace) else Trace(((s,), 1) for s in steps)).runs
    columns = identity_matrix(n)
    for block, m in runs:
        for step in block:
            if step.dim != n:
                raise ValidationError(
                    f"trace mixes dimensions: expected {n}, found {step.dim}")
            columns = [apply_run(step, m, c) for c in columns]
    return tuple(zip(*columns))


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank over Q, signed last pivot) of integer rows, by fraction-free
    (Bareiss) elimination.

    Each pivot updates every row below it and divides by the previous pivot,
    so every entry stays a minor of the input and every division is exact.
    For a square matrix of full rank the signed last pivot is the determinant;
    no rows give (0, 1).
    """
    work, rank, prev, sign = list(rows), 0, 1, 1
    for col in range(len(work[0]) if work else 0):
        if rank == len(work):
            break
        if not work[rank][col]:
            pivot = next((i for i in range(rank + 1, len(work)) if work[i][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot], sign = work[pivot], work[rank], -sign
        top = work[rank]
        lead = top[col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            work[i] = [(lead * x - f * y) // prev for x, y in zip(work[i], top)]
        prev, rank = lead, rank + 1
    return rank, sign * prev


def determinant(m: Matrix) -> int:
    """Exact determinant of an integer matrix, by _bareiss; 0x0 gives 1."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValidationError("matrix is not square")
        intvec(row)  # Bareiss floors: other entries would give a wrong result
    rank, pivot = _bareiss(m)
    return pivot if rank == n else 0
