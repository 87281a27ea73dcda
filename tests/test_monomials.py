from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perron import (Substitution, ValidationError, ValuedRing,
                    apply_substitution, determinant, divisibility_transform,
                    lex_sign, lexvec, monomialize, natvec, polynomial,
                    validate_ring)

from conftest import (monomial_value, ring_with_polynomial, substitute_exponents,
                      valued_rings)


def standard_ring():
    return ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["0", "1"])))


def poly_times_monomial(p, shift):
    return {tuple(x + y for x, y in zip(e, shift)): c for e, c in p.items()}


def test_validate_ring():
    assert validate_ring(standard_ring()) == []
    dependent = ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["2", "0"])))
    assert validate_ring(dependent) == ["toric values not independent: rank 1 < 2"]
    negative = ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["-1", "0"])))
    assert validate_ring(negative) == ["value of variable 2 is not lex-positive",
                                       "toric values not independent: rank 1 < 2"]
    # only the toric values are ranked; every value must be lex-positive
    beyond = ValuedRing(3, 2, (lexvec(["1", "0"]), lexvec(["0", "1"]), lexvec(["0", "-1"])))
    assert validate_ring(beyond) == ["value of variable 3 is not lex-positive"]
    assert validate_ring(ValuedRing(3, 2, beyond.values[:2] + (lexvec(["1", "1"]),))) == []
    with pytest.raises(ValidationError) as err:
        monomialize(dependent, {(1, 0): Fraction(1)})
    assert str(err.value) == "invalid ring: toric values not independent: rank 1 < 2"
    with pytest.raises(ValidationError) as err:
        divisibility_transform(negative, (1, 0), (0, 1))
    assert str(err.value) == ("invalid ring: value of variable 2 is not lex-positive; "
                              "toric values not independent: rank 1 < 2")
    values = standard_ring().values
    assert validate_ring(ValuedRing(2, 3, values)) == [
        "need 1 <= num_toric <= num_vars, got 3 and 2"]
    assert validate_ring(ValuedRing(3, 2, values)) == ["expected 3 values, got 2"]
    ragged = ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["1"])))
    assert validate_ring(ragged) == ["values must share one length"]


@pytest.mark.parametrize("num_vars, num_toric, shown", [
    (2, "1", "'1' and 2"),
    (2.0, 2, "2 and 2.0"),
    (2, True, "True and 2"),
], ids=["str-toric", "float-vars", "bool-toric"])
def test_ring_counts_must_be_integers(num_vars, num_toric, shown):
    """A count that is not an int is named, not compared or read as 1."""
    ring = ValuedRing(num_vars, num_toric, standard_ring().values)
    message = f"num_toric and num_vars must be integers, got {shown}"
    assert validate_ring(ring) == [message]
    with pytest.raises(ValidationError) as err:
        monomialize(ring, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert str(err.value) == f"invalid ring: {message}"


def test_polynomial_drops_terms_that_cancel():
    assert polynomial([((1, 0), 1), ((0, 1), 2), ((1, 0), -1)]) == {(0, 1): Fraction(2)}
    assert polynomial([((1, 0), Fraction(1, 2)), ((1, 0), Fraction(-1, 2))]) == {}


def test_wrong_exponent_counts_are_rejected():
    ring = standard_ring()
    cases = [
        (lambda: apply_substitution({(1, 0, 0): Fraction(1)},
                                    Substitution(((1, 0), (0, 1)), 2)),
         "term has 3 exponents, substitution covers 2"),
        (lambda: divisibility_transform(ring, (0, 1, 0), (1, 0)),
         "M1 has 3 exponents, expected 2"),
        (lambda: divisibility_transform(ring, (0, 1), (1,)),
         "M2 has 1 exponents, expected 2"),
        (lambda: monomialize(ring, {(1, 0): Fraction(1), (1, 0, 0): Fraction(1)}),
         "term has 3 exponents, ring has 2 variables"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message


def test_monomial_value_examples():
    ring = standard_ring()
    assert monomial_value(ring, (1, 0)) == lexvec(["1", "0"])
    assert monomial_value(ring, (2, 1)) == (Fraction(2), Fraction(1))
    assert monomial_value(ring, (0, 0)) == (Fraction(0), Fraction(0))


def test_divisibility_transform_example():
    ring = standard_ring()
    # nu(x2) < nu(x1) lexicographically, so M1=x2 divides M2=x1 after one step
    substitution, new_ring = divisibility_transform(ring, (0, 1), (1, 0))
    assert substitution.matrix == ((1, 1), (0, 1))
    assert new_ring.values == (lexvec(["1", "-1"]), lexvec(["0", "1"]))
    assert all(lex_sign(v) == 1 for v in new_ring.values)
    # division oracle: primed(M2) - primed(M1) = exponents of M2/M1 = x'_1
    primed_m1 = substitute_exponents((0, 1), substitution)
    primed_m2 = substitute_exponents((1, 0), substitution)
    quotient = tuple(b - a for a, b in zip(primed_m1, primed_m2))
    assert quotient == (1, 0)
    assert tuple(a + q for a, q in zip(primed_m1, quotient)) == primed_m2


def test_divisibility_transform_trivial_cases():
    ring = standard_ring()
    substitution, new_ring = divisibility_transform(ring, (0, 0), (1, 0))
    assert substitution.matrix == ((1, 0), (0, 1))
    assert new_ring.values == ring.values

    substitution, _ = divisibility_transform(ring, (1, 0), (1, 1))
    assert substitution.matrix == ((1, 0), (0, 1))


def test_divisibility_transform_preconditions():
    ring = standard_ring()
    halves = ValuedRing(2, 2, (lexvec(["1/2", "0"]), lexvec(["0", "1/3"])))
    below = "^value of M1 must be strictly below value of M2$"
    with pytest.raises(ValidationError, match=below):
        divisibility_transform(ring, (1, 0), (0, 1))  # nu(M1) > nu(M2)
    with pytest.raises(ValidationError, match=below):
        divisibility_transform(ring, (1, 0), (1, 0))  # equal values
    with pytest.raises(ValidationError, match=below):
        divisibility_transform(halves, (2, 0), (0, 5))  # (1, 0) > (0, 5/3)
    assert divisibility_transform(halves, (0, 3), (1, 0))[0].matrix == ((1, 3), (0, 1))
    mixed = ValuedRing(3, 2, (lexvec(["1", "0"]), lexvec(["0", "1"]),
                              lexvec(["1", "1"])))
    with pytest.raises(ValidationError):
        divisibility_transform(mixed, (0, 0, 1), (1, 0, 0))


def test_apply_substitution_examples():
    p = polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    s = Substitution(((1, 1), (0, 1)), 2)
    image = apply_substitution(p, s)
    assert image == {(1, 1): Fraction(1), (0, 1): Fraction(1)}
    assert len(image) == len(p)  # injectivity oracle

    identity = Substitution(((1, 0), (0, 1)), 2)
    assert apply_substitution(p, identity) == p
    assert apply_substitution({}, s) == {}


def test_a_singular_substitution_is_the_callers_error():
    """monomialize builds unimodular substitutions only; a caller's singular
    one can send two terms to one exponent vector."""
    p = polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    with pytest.raises(ValidationError) as err:
        apply_substitution(p, Substitution(((1, 1), (1, 1)), 2))
    assert str(err.value) == "substitution collided two exponent vectors"


@pytest.mark.parametrize("matrix", [((1, 0, 5),), ((1,), (0, 1)), ((1, 0), 5), 5])
def test_a_misshapen_substitution_is_the_callers_error(matrix):
    """A 1 x 3 matrix would give images of 4 exponents, a ragged one of 1;
    a row or a matrix that is no sequence is no matrix either."""
    with pytest.raises(ValidationError) as err:
        apply_substitution({(1, 0): Fraction(1)}, Substitution(matrix, 2))
    assert str(err.value) == ("substitution matrix must be n x n ints with "
                              f"1 <= n <= 2, got {matrix!r}")


@pytest.mark.parametrize("num_vars", ["2", True, 2.0, 0])
def test_a_substitution_needs_a_count_of_variables(num_vars):
    """num_vars is an int >= 1 that is not a bool: "2" raised TypeError,
    True read as 1 and 2.0 was blamed on the term."""
    with pytest.raises(ValidationError) as err:
        apply_substitution({(1,): Fraction(1)}, Substitution(((1,),), num_vars))
    assert str(err.value) == f"substitution num_vars must be an int >= 1, got {num_vars!r}"


def test_monomialize_example():
    ring = standard_ring()
    f = polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    result = monomialize(ring, f)
    assert result.substitution.matrix == ((1, 1), (0, 1))
    assert result.factor_exponents == (0, 1)
    assert result.unit_part == {(1, 0): Fraction(1), (0, 0): Fraction(1)}
    # exact-identity oracle: x'_2 * (x'_1 + 1) == x'_1 x'_2 + x'_2
    product = poly_times_monomial(result.unit_part, (0, 1))
    assert product == apply_substitution(f, result.substitution)


def test_monomialize_trivial_cases():
    ring = standard_ring()
    single = polynomial([((2, 1), Fraction(5))])
    result = monomialize(ring, single)
    assert result.substitution.matrix == ((1, 0), (0, 1))
    assert result.factor_exponents == (2, 1)
    assert result.unit_part == {(0, 0): Fraction(5)}

    constant = polynomial([((0, 0), Fraction(1))])
    result = monomialize(ring, constant)
    assert result.factor_exponents == (0, 0)
    assert result.unit_part == {(0, 0): Fraction(1)}


def test_monomialize_preconditions():
    ring = standard_ring()
    with pytest.raises(ValidationError, match="^zero polynomial$"):
        monomialize(ring, {})
    dependent = ValuedRing(2, 2, (lexvec(["1", "0"]), lexvec(["2", "0"])))
    with pytest.raises(ValidationError):
        monomialize(dependent, polynomial([((1, 0), Fraction(1))]))
    # the polynomial is read before the ring, as the CLI reads a job
    with pytest.raises(ValidationError, match="^zero polynomial$"):
        monomialize(dependent, {(1, 0): 0, (0, 1): Fraction(0)})


@pytest.mark.parametrize("toric, message", [
    ((-1, 0), "entry 1 is negative: -1"),
    ((1.0, 0), "vector entries must be integers, got 1.0"),
    ((True, 0), "vector entries must be integers, got True"),
])
def test_monomialize_checks_the_toric_exponents_of_a_raw_polynomial(toric, message):
    """A dict not made by polynomial() still gets natvec's errors."""
    ring = ValuedRing(3, 2, standard_ring().values + (lexvec(["1", "1"]),))
    with pytest.raises(ValidationError) as err:
        monomialize(ring, {toric + (0,): Fraction(1), (0, 1, 0): Fraction(1)})
    assert str(err.value) == message


@given(valued_rings(), st.data())
def test_divisibility_invariants(ring, data):
    n, m = ring.num_toric, ring.num_vars
    tail = (0,) * (m - n)
    d1 = tuple(data.draw(st.integers(0, 6)) for _ in range(n)) + tail
    d2 = tuple(data.draw(st.integers(0, 6)) for _ in range(n)) + tail
    v1, v2 = monomial_value(ring, d1), monomial_value(ring, d2)
    if v1 == v2:
        return
    m1, m2 = (d1, d2) if v1 < v2 else (d2, d1)
    substitution, new_ring = divisibility_transform(ring, m1, m2)
    assert determinant(substitution.matrix) == 1
    assert all(lex_sign(v) == 1 for v in new_ring.values)
    primed_m1 = substitute_exponents(m1, substitution)
    primed_m2 = substitute_exponents(m2, substitution)
    assert all(b - a >= 0 for a, b in zip(primed_m1, primed_m2))
    # value conservation: nu(x_i) = sum_j a_ij nu(x'_j)
    for i in range(n):
        recovered = [Fraction(0)] * ring.order_dim
        for j in range(n):
            for k, x in enumerate(new_ring.values[j]):
                recovered[k] += substitution.matrix[i][j] * x
        assert tuple(recovered) == ring.values[i]


@given(ring_with_polynomial())
def test_monomialize_invariants(case):
    ring, terms = case
    f = polynomial(list(terms.items()))
    result = monomialize(ring, f)
    n, m = ring.num_toric, ring.num_vars
    assert determinant(result.substitution.matrix) == 1
    assert all(lex_sign(v) == 1 for v in result.new_values)
    shift = result.factor_exponents + (0,) * (m - n)
    product = poly_times_monomial(result.unit_part, shift)
    assert product == apply_substitution(f, result.substitution)
    assert any(all(e[j] == 0 for j in range(n)) for e in result.unit_part)


@given(valued_rings(), st.data())
def test_substitution_preserves_monomial_values(ring, data):
    n, m = ring.num_toric, ring.num_vars
    tail = (0,) * (m - n)
    d1 = tuple(data.draw(st.integers(0, 6)) for _ in range(n)) + tail
    d2 = tuple(data.draw(st.integers(0, 6)) for _ in range(n)) + tail
    v1, v2 = monomial_value(ring, d1), monomial_value(ring, d2)
    if v1 == v2:
        return
    m1, m2 = (d1, d2) if v1 < v2 else (d2, d1)
    substitution, new_ring = divisibility_transform(ring, m1, m2)
    exponents = tuple(data.draw(st.integers(0, 4)) for _ in range(m))
    assert monomial_value(new_ring, substitute_exponents(exponents, substitution)) \
        == monomial_value(ring, exponents)


def test_monomialize_takes_a_term_list():
    """Terms as polynomial() takes them: a repeated exponent merges."""
    ring = standard_ring()
    assert monomialize(ring, [((1, 0), 1)]) == monomialize(ring, {(1, 0): Fraction(1)})
    assert monomialize(ring, [((1, 0), 1), ((0, 1), 2), ((1, 0), -1)]) == \
        monomialize(ring, {(0, 1): Fraction(2)})


@given(ring_with_polynomial())
def test_monomialize_reads_a_term_list_as_its_dict(case):
    ring, f = case
    assert monomialize(ring, list(f.items())) == monomialize(ring, f)


def test_monomialize_reads_a_raw_polynomial_as_polynomial_does():
    """A zero coefficient is no term, and a coefficient must be rational."""
    ring = standard_ring()
    # x1 with coefficient 0 is no term: x2 alone needs no substitution
    result = monomialize(ring, {(1, 0): 0, (0, 1): 1})
    assert result.substitution.matrix == ((1, 0), (0, 1))
    assert result.factor_exponents == (0, 1)
    assert result.unit_part == {(0, 0): Fraction(1)}
    for f, message in [({(1, 0): "x", (0, 1): 1}, "coefficient is not a rational number: 'x'"),
                       ({(1, 0): 0}, "zero polynomial")]:
        with pytest.raises(ValidationError) as err:
            monomialize(ring, f)
        assert str(err.value) == message


def test_monomialize_checks_every_exponent_vector():
    """A raw polynomial's exponents are checked whole, the non-toric tail
    too, so a negative one is a validation error and not an internal one."""
    ring = ValuedRing(3, 2, ((1, 0), (0, 1), (1, 1)))
    with pytest.raises(ValidationError, match=r"^entry 3 is negative: -1$"):
        monomialize(ring, {(1, 0, -1): 1, (0, 1, 0): 1})


# polynomial and apply_substitution against their oracles -----------------

def oracle_polynomial(terms):
    """The sum polynomial replaced; a coefficient Fraction cannot read is a
    ValidationError that names it, as the library's invalid input is."""
    out = {}
    for exponents, coeff in terms:
        e = natvec(exponents)
        try:
            c = Fraction(coeff)
        except ValueError:
            raise ValidationError(f"coefficient is not a rational number: {coeff!r}")
        acc = out.get(e, Fraction(0)) + c
        if acc:
            out[e] = acc
        elif e in out:
            del out[e]
    return out


def _outcome(f, *args):
    try:
        out = f(*args)
    except (ValidationError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return out, list(out.items()) if isinstance(out, dict) else None


coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(max_denominator=5).filter(lambda c: abs(c) < 4),
    st.sampled_from(["1/2", "-3", "x", 0.5]))


@given(st.integers(1, 3).flatmap(lambda m: st.lists(st.tuples(
    st.lists(st.integers(-1, 2), min_size=m, max_size=m), coefficients),
    max_size=8)))
def test_polynomial_matches_the_sum_it_replaced(terms):
    """Same dict, in the same order, and the same error: duplicates merge,
    zeros drop, and a term summing to zero leaves its place."""
    assert _outcome(polynomial, terms) == _outcome(oracle_polynomial, terms)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.integers(0, 10 ** 20), min_size=n, max_size=n + 3))))
def test_apply_substitution_matches_the_oracle_on_one_term(case):
    """A one-term polynomial's image is the oracle's exponents, with the
    coefficient unchanged."""
    matrix, e = case
    s = Substitution(tuple(map(tuple, matrix)), len(e))
    assert apply_substitution({tuple(e): Fraction(3)}, s) == \
        {substitute_exponents(tuple(e), s): Fraction(3)}
