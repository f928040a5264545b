"""Exact polynomial arithmetic, parsing, and single-divisor division."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolmosphere.polyring import (
    MAX_PAREN_DEPTH,
    NEG_INF,
    DimensionMismatchError,
    ParseError,
    Poly,
    VariableIndexError,
    ZeroDenominatorError,
    divide_exact,
    parse,
)

from conftest import rand_poly


# ----- construction and basic queries ----------------------------------------


def test_zero_polynomial_has_no_terms_and_minus_infinite_degree():
    z = Poly.zero(3)
    assert z.is_zero()
    assert len(z) == 0
    assert z.degree() is NEG_INF
    assert str(z) == "0"


def test_constant_and_variable_constructors():
    c = Poly.const(2, Fraction(3, 4))
    assert c.degree() == 0
    assert c.constant_term() == Fraction(3, 4)
    x2 = Poly.var(2, 2)
    assert str(x2) == "x2"
    assert x2.degree() == 1
    with pytest.raises(VariableIndexError):
        Poly.var(2, 3)
    with pytest.raises(VariableIndexError):
        Poly.var(2, 0)


def test_zero_coefficients_are_dropped():
    p = Poly.from_terms(1, [((1,), Fraction(0)), ((0,), Fraction(2))])
    assert p == Poly.const(1, 2)
    assert (Poly.var(1, 1) - Poly.var(1, 1)).is_zero()


def test_leading_term_uses_graded_lexicographic_order():
    p = parse("2*x1^2*x2 + x2^3 + 5", 2)
    assert p.leading() == ((2, 1), Fraction(2))
    assert p.degree() == 3
    assert p.degree() == 3
    assert not p.is_homogeneous()
    assert p.coefficient((2, 1)) == 2
    assert p.coefficient((9, 9)) == 0
    assert p.constant_term() == 5


def test_homogeneity_detection():
    assert parse("x1^2 - x2^2", 2).is_homogeneous()
    assert not parse("x1^2 - x2", 2).is_homogeneous()
    assert Poly.zero(2).is_homogeneous()


def test_mixed_dimension_arithmetic_is_rejected():
    with pytest.raises(DimensionMismatchError):
        Poly.var(2, 1) + Poly.var(3, 1)


def test_scalar_coercion_in_arithmetic():
    x = Poly.var(1, 1)
    assert str(2 * x + 1) == "2*x1 + 1"
    assert str(1 - x) == "-x1 + 1"
    assert (x * Fraction(1, 2)).coefficient((1,)) == Fraction(1, 2)


def test_power_matches_repeated_multiplication():
    p = parse("x1 + x2", 2)
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.const(2, 1)
    with pytest.raises(ValueError):
        p ** -1


def test_differentiate_known_values():
    p = parse("x1^3*x2 - 2*x2 + 7", 2)
    assert str(p.differentiate(1)) == "3*x1^2*x2"
    assert str(p.differentiate(2)) == "x1^3 - 2"
    assert Poly.const(2, 5).differentiate(1).is_zero()


def test_evaluate_known_values():
    p = parse("x1^2 + 1/2*x2", 2)
    assert p.evaluate((Fraction(2), Fraction(4))) == Fraction(6)
    assert p.evaluate((2, 4)) == 6


def test_polynomials_are_hashable_and_compare_by_value():
    a = parse("x1 + x2", 2)
    b = parse("x2 + x1", 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("x1 - x2", 2)
    assert len({a, b}) == 1


# ----- randomized ring laws ---------------------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def polys(draw, dim=2, max_degree=3):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree))
            for _ in range(dim)
        )
        terms[exps] = draw(coeffs)
    return Poly.from_terms(dim, terms.items())


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.const(2, 1) == p


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_degree_of_product_adds_for_nonzero_factors(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree() == p.degree() + q.degree()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_homomorphism(p, q):
    pt = (Fraction(2, 3), Fraction(-1, 2))
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_derivative_satisfies_leibniz_rule(p, q):
    for var in (1, 2):
        lhs = (p * q).differentiate(var)
        rhs = p.differentiate(var) * q + p * q.differentiate(var)
        assert lhs == rhs


# ----- exact division ---------------------------------------------------------


@pytest.mark.parametrize(
    "dividend,divisor,quotient",
    [
        ("x1^2 - x2^2", "x1 - x2", "x1 + x2"),
        ("x1^3*x2 - x1*x2^3 + 2*x1^2 - 2*x2^2", "x1^2 - x2^2", "x1*x2 + 2"),
        ("6*x1^2*x2^2", "3*x1*x2", "2*x1*x2"),
        ("x1^2 + 2*x1*x2 + x2^2", "x1 + x2", "x1 + x2"),
    ],
)
def test_divide_exact_known_quotients(dividend, divisor, quotient):
    q = divide_exact(parse(dividend, 2), parse(divisor, 2))
    assert q is not None
    assert str(q) == quotient


@pytest.mark.parametrize(
    "dividend,divisor",
    [
        ("x1^2 + 1", "x1"),
        ("x1 + x2", "x1*x2"),
        ("1", "x1"),
        ("x1^2 + x2", "x1 - 1"),
    ],
)
def test_divide_exact_returns_none_when_not_divisible(dividend, divisor):
    assert divide_exact(parse(dividend, 2), parse(divisor, 2)) is None


def test_divide_exact_zero_dividend_and_zero_divisor():
    assert divide_exact(Poly.zero(2), parse("x1", 2)) == Poly.zero(2)
    with pytest.raises(ZeroDivisionError):
        divide_exact(parse("x1", 2), Poly.zero(2))


def test_divide_exact_inverts_multiplication_on_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, 3)
        q = rand_poly(rng, dim, 3)
        if q.is_zero():
            continue
        assert divide_exact(p * q, q) == p


# ----- parsing and printing ---------------------------------------------------


@pytest.mark.parametrize(
    "text,dim,printed",
    [
        ("x2 + x1", 2, "x1 + x2"),
        ("0", 3, "0"),
        ("-x1", 1, "-x1"),
        ("3/4", 2, "3/4"),
        ("(x1 + x2)*(x1 - x2)", 2, "x1^2 - x2^2"),
        ("1/2*x1*x2^3 - 7", 2, "1/2*x1*x2^3 - 7"),
        ("x1^2 - 2*x1 + 1", 1, "x1^2 - 2*x1 + 1"),
        ("2^3 + x1", 1, "x1 + 8"),
        ("x1*x1", 1, "x1^2"),
        ("-(x1 - x2)", 2, "-x1 + x2"),
    ],
)
def test_parse_and_canonical_print(text, dim, printed):
    assert str(parse(text, dim)) == printed


def test_print_then_parse_is_identity_on_random_polynomials():
    rng = random.Random(13)
    for _ in range(300):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim, 4)
        assert parse(str(p), dim) == p


@pytest.mark.parametrize(
    "text,position,expected_hint",
    [
        ("x1 +", 4, "a rational, a variable, or '('"),
        ("x1 x2", 3, "'+', '-', '*', '^', or end of input"),
        ("x0", 0, "a positive variable index"),
        ("x1^-2", 3, "a natural exponent"),
        ("(x1", 3, "')'"),
        ("", 0, "a rational, a variable, or '('"),
        ("x1^2^3", 4, "'+', '-', '*', '^', or end of input"),
        ("2x1", 1, "'+', '-', '*', '^', or end of input"),
    ],
)
def test_parse_errors_carry_position_and_expectation(text, position, expected_hint):
    with pytest.raises(ParseError) as exc:
        parse(text, 2)
    assert exc.value.position == position
    assert exc.value.expected == expected_hint


def test_parenthesis_nesting_is_capped_at_the_offending_paren():
    depth = MAX_PAREN_DEPTH
    assert parse("(" * depth + "x1 + 1" + ")" * depth, 2) == parse("x1 + 1", 2)
    with pytest.raises(ParseError) as exc:
        parse("-" + "(" * (depth + 1) + "x1" + ")" * (depth + 1), 2)
    assert exc.value.position == depth + 1
    assert exc.value.expected == f"at most {depth} nested parentheses"


def test_variable_index_beyond_dimension_is_reported():
    with pytest.raises(VariableIndexError):
        parse("x3", 2)


def test_zero_denominator_is_reported():
    with pytest.raises(ZeroDenominatorError):
        parse("1/0", 2)
