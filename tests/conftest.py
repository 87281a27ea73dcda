"""Shared strategies and oracles for the test suite."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st

from perron import (FirstIndex, GroupElement, GroupOrder, MaxGrowth,
                    SeededRandom, Step, ValidationError, ValuedRing,
                    element_value, lex_sign)

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def build_adversary(kind, seed=0):
    if kind == "first":
        return FirstIndex()
    if kind == "max_growth":
        return MaxGrowth()
    return SeededRandom(seed)


adversary_kinds = st.sampled_from(["first", "max_growth", "random"])


def merged_runs(log):
    """(block, m) pairs as a trace records them: a run whose block repeats the
    last run's block extends that run."""
    runs = []
    for block, m in log:
        if runs and runs[-1][0] == tuple(block):
            m += runs.pop()[1]
        runs.append((tuple(block), m))
    return runs


def step_matrix(step):
    """Oracle: the matrix with entry (r, s) = 1 iff r = s, or r = j and s in J."""
    n = step.dim
    return tuple(
        tuple(1 if (r == s or (r == step.j and s in step.J)) else 0
              for s in range(1, n + 1))
        for r in range(1, n + 1))


def monomial_value(ring, exponents):
    """Oracle: the value of a monomial, the exact rational combination of the
    variable values with the exponents as coefficients."""
    total = [Fraction(0)] * ring.order_dim
    for e, val in zip(exponents, ring.values):
        for k, x in enumerate(val):
            total[k] += e * x
    return tuple(total)


def substitute_exponents(e, s):
    """Oracle: the exponents of x^e after the substitution, entry j the sum
    over toric i of e_i times matrix[i][j], the rest of e unchanged."""
    n = s.num_toric
    head = tuple(sum(e[i] * s.matrix[i][j] for i in range(n)) for j in range(n))
    return head + tuple(e[n:])


def element_compare(e1, e2):
    """Oracle: -1, 0 or 1 as e1 is below, equal to, or above e2 in the group
    order, the lex sign of the image of e1 - e2."""
    if e1.basis != e2.basis:
        raise ValidationError("elements must be expressed in the same basis")
    diff = tuple(a - b for a, b in zip(e1.coords, e2.coords))
    return lex_sign(element_value(GroupElement(e1.basis, diff)))


@st.composite
def vec_pairs(draw, min_dim=1, max_dim=5, max_entry=12):
    n = draw(st.integers(min_dim, max_dim))
    a = tuple(draw(st.integers(0, max_entry)) for _ in range(n))
    b = tuple(draw(st.integers(0, max_entry)) for _ in range(n))
    return a, b


@st.composite
def vec_with_step(draw, max_dim=5, max_entry=12, signed=False):
    n = draw(st.integers(1, max_dim))
    lo = -max_entry if signed else 0
    v = tuple(draw(st.integers(lo, max_entry)) for _ in range(n))
    J = draw(st.frozensets(st.integers(1, n), min_size=1))
    j = draw(st.sampled_from(sorted(J)))
    return v, Step(J, j, n)


@st.composite
def ordered_pair_with_step(draw, max_dim=5, max_entry=10):
    n = draw(st.integers(1, max_dim))
    v = tuple(draw(st.integers(0, max_entry)) for _ in range(n))
    u = tuple(draw(st.integers(0, x)) for x in v)
    J = draw(st.frozensets(st.integers(1, n), min_size=1))
    j = draw(st.sampled_from(sorted(J)))
    return u, v, Step(J, j, n)


@st.composite
def traces(draw, max_dim=4, max_len=6):
    n = draw(st.integers(1, max_dim))
    length = draw(st.integers(0, max_len))
    steps = []
    for _ in range(length):
        J = draw(st.frozensets(st.integers(1, n), min_size=1))
        j = draw(st.sampled_from(sorted(J)))
        steps.append(Step(J, j, n))
    return n, tuple(steps)


@st.composite
def group_orders(draw, max_rank=3, max_order_dim=3):
    """Echelon-shaped images: independent and lex-positive by construction."""
    n = draw(st.integers(1, max_rank))
    d = draw(st.integers(n, max_order_dim))
    rows = []
    for i in range(n):
        row = [Fraction(0)] * d
        row[i] = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        for c in range(i + 1, d):
            row[c] = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
        rows.append(tuple(row))
    return GroupOrder(tuple(rows))


def positive_element(draw, basis, max_coord=9):
    coords = tuple(draw(st.integers(-max_coord, max_coord))
                   for _ in range(basis.rank))
    if not any(coords):
        coords = (1,) + coords[1:]
    element = GroupElement(basis, coords)
    if lex_sign(element_value(element)) < 0:
        element = GroupElement(basis, tuple(-c for c in coords))
    return element


@st.composite
def valued_rings(draw, max_toric=3, max_extra=2):
    order = draw(group_orders(max_rank=max_toric, max_order_dim=max_toric))
    d = order.order_dim
    tails = []
    for _ in range(draw(st.integers(0, max_extra))):
        vec = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5)))
               for _ in range(d)]
        if lex_sign(tuple(vec)) < 0:
            vec = [-c for c in vec]
        if lex_sign(tuple(vec)) == 0:
            vec[0] = Fraction(1)
        tails.append(tuple(vec))
    n = order.rank
    return ValuedRing(n + len(tails), n, order.images + tuple(tails))


@st.composite
def ring_with_polynomial(draw, max_terms=5, max_exp=4):
    ring = draw(valued_rings())
    m = ring.num_vars
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(m))
        num = draw(st.integers(-9, 9).filter(bool))
        terms[e] = Fraction(num, draw(st.integers(1, 9)))
    return ring, terms
