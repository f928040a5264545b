"""Exact polynomial arithmetic, parsing, and single-divisor division."""

import functools
import hashlib
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolmosphere import polyring
from kolmosphere.field_forms import PolyVectorField, lie_derivative
from kolmosphere.invariance import Hypersurface, cofactor
from kolmosphere.polyring import (
    MAX_PAREN_DEPTH,
    NEG_INF,
    DimensionMismatchError,
    ParseError,
    Poly,
    UnprintableError,
    VariableIndexError,
    ZeroDenominatorError,
    divide_exact,
    parse,
)

from conftest import capped_exponents, rand_poly


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
    assert c.terms == {(0, 0): Fraction(3, 4)}
    x2 = Poly.var(2, 2)
    assert str(x2) == "x2"
    assert x2.degree() == 1
    with pytest.raises(VariableIndexError):
        Poly.var(2, 3)
    with pytest.raises(VariableIndexError):
        Poly.var(2, 0)


def test_zero_coefficients_are_dropped():
    p = Poly(1, {(1,): Fraction(0), (0,): Fraction(2)})
    assert p == Poly.const(1, 2)
    assert (Poly.var(1, 1) - Poly.var(1, 1)).is_zero()


@pytest.mark.parametrize(
    "build",
    [lambda: Poly.const(1, 0.1), lambda: Poly(1, {(0,): 0.1}),
     lambda: Poly(2, {(1, 0): 1, (0, 1): 0.5})],
    ids=["const", "terms", "second-term"],
)
def test_float_coefficients_are_refused(build):
    with pytest.raises(TypeError, match="is a float"):
        build()


def test_leading_term_uses_graded_lexicographic_order():
    p = parse("2*x1^2*x2 + x2^3 + 5", 2)
    assert p.leading() == ((2, 1), Fraction(2))
    assert p.degree() == 3
    assert p.degree() == 3
    assert not p.is_homogeneous()
    assert p.terms[(2, 1)] == 2
    assert (9, 9) not in p.terms
    assert p.terms[(0, 0)] == 5


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
    assert (x * Fraction(1, 2)).terms == {(1,): Fraction(1, 2)}


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
    return Poly(dim, terms)


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


@st.composite
def addend_lists(draw):
    """Up to six polynomials; a later one may repeat or negate an earlier
    one, so that monomials cancel and then reappear."""
    addends = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["new", "repeat", "negate"]))
        if kind == "new" or not addends:
            addends.append(draw(polys()))
        else:
            earlier = draw(st.sampled_from(addends))
            addends.append(earlier if kind == "repeat" else -earlier)
    return addends


@given(addend_lists())
@settings(max_examples=150, deadline=None)
def test_sum_equals_left_to_right_addition_in_value_and_term_order(addends):
    total = Poly.sum(2, addends)
    chained = functools.reduce(operator.add, addends, Poly.zero(2))
    assert total == chained
    assert list(total.terms) == list(chained.terms)


def test_sum_of_nothing_is_zero_and_mixed_dimensions_are_rejected():
    assert Poly.sum(3, []) == Poly.zero(3)
    assert Poly.sum(3, []).dim == 3
    with pytest.raises(DimensionMismatchError):
        Poly.sum(2, [Poly.var(2, 1), Poly.var(3, 1)])
    with pytest.raises(DimensionMismatchError):
        Poly.sum(2, [Poly.var(3, 1)])


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


# ----- coefficient representation ---------------------------------------------
#
# A coefficient is an int when it is integral and a Fraction otherwise.  The
# references below hold every coefficient as a Fraction and compute with
# plain dict arithmetic, sharing no code with the ring's operations.


def fraction_poly(dim, terms):
    """A Poly that holds every coefficient, integral ones included, as a
    Fraction."""
    p = object.__new__(Poly)
    object.__setattr__(p, "dim", dim)
    object.__setattr__(
        p, "terms", {e: Fraction(c) for e, c in terms.items() if c}
    )
    return p


def ref_add(p, q):
    acc = dict(p.terms)
    for e, c in q.terms.items():
        acc[e] = acc.get(e, Fraction(0)) + c
    return fraction_poly(p.dim, acc)


def ref_scale(p, c):
    return fraction_poly(p.dim, {e: c * v for e, v in p.terms.items()})


def ref_mul(p, q):
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    return fraction_poly(p.dim, acc)


def ref_pow(p, k):
    result = fraction_poly(p.dim, {(0,) * p.dim: 1})
    for _ in range(k):
        result = ref_mul(result, p)
    return result


def ref_differentiate(p, var):
    acc = {}
    for e, c in p.terms.items():
        if e[var - 1]:
            lowered = e[:var - 1] + (e[var - 1] - 1,) + e[var:]
            acc[lowered] = c * e[var - 1]
    return fraction_poly(p.dim, acc)


def assert_canonical_and_like(result, reference):
    for c in result.terms.values():
        assert type(c) in (int, Fraction), repr(c)
        assert (type(c) is int) == (Fraction(c).denominator == 1), repr(c)
        assert c != 0
    assert result == reference and reference == result
    assert hash(result) == hash(reference)
    assert str(result) == str(reference)


@given(polys(), polys(), polys(), coeffs, st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=2))
@settings(max_examples=100, deadline=None)
def test_coefficients_are_ints_exactly_when_integral(p, q, r, c, k, var):
    P, Q, R = (fraction_poly(2, x.terms) for x in (p, q, r))
    cases = [
        (p + q, ref_add(P, Q)),
        (p - q, ref_add(P, ref_scale(Q, -1))),
        (-p, ref_scale(P, -1)),
        (p + c, ref_add(P, fraction_poly(2, {(0, 0): c}))),
        (p * q, ref_mul(P, Q)),
        (c * p, ref_scale(P, c)),
        (p ** k, ref_pow(P, k)),
        (p.differentiate(var), ref_differentiate(P, var)),
        (Poly.sum(2, [p, q, r]), ref_add(ref_add(P, Q), R)),
        (parse(str(p), 2), P),
        (Poly(2, {(1, 0): c, (0, 0): Fraction(2)}),
         fraction_poly(2, {(1, 0): c, (0, 0): 2})),
        (Poly.const(2, c), fraction_poly(2, {(0, 0): c})),
        (Poly.var(2, var), fraction_poly(2, {(2 - var, var - 1): 1})),
    ]
    if not q.is_zero():
        cases.append((divide_exact(p * q, q), P))
        if not r.is_zero():
            quotient = divide_exact(r, q)
            if quotient is not None:
                assert ref_mul(fraction_poly(2, quotient.terms), Q) == R
                cases.append((quotient, fraction_poly(2, quotient.terms)))
    for result, reference in cases:
        assert_canonical_and_like(result, reference)


@pytest.mark.parametrize(
    "divisor,quotient",
    [("2*x1 + 2", Fraction(1, 2)), ("3*x1 + 3", Fraction(1, 3))],
)
def test_divide_exact_takes_an_exact_quotient_of_integer_coefficients(
    divisor, quotient
):
    q = divide_exact(parse("x1 + 1", 1), parse(divisor, 1))
    assert q.terms == {(0,): quotient}
    assert type(q.terms[(0,)]) is Fraction


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


@pytest.mark.parametrize(
    "text,dim,factors",
    [
        ("x1*(x2 + x3)*x4", 4, ["x1", "x2 + x3", "x4"]),
        ("(x1 + x2)*3*(x1 - x2)", 2, ["x1 + x2", "3", "x1 - x2"]),
        ("2^3*x1^0", 1, ["8", "1"]),
        ("0*x1", 1, ["0", "x1"]),
        ("1/2*x1*2", 1, ["1/2", "x1", "2"]),
        ("(x1 + x2)*x3*(x3 + x2)^2*x1", 3,
         ["x1 + x2", "x3", "x3^2 + 2*x3*x2 + x2^2", "x1"]),
        ("-2*(x2 - x1)*x1^2", 2, ["-2", "x2 - x1", "x1^2"]),
    ],
)
def test_a_parsed_term_is_the_left_to_right_product_of_its_factors(
    text, dim, factors
):
    """A term is the product of its factors from left to right: the
    value, the term order and the coefficient types of the product taken
    factor by factor."""
    product = functools.reduce(
        operator.mul, (parse(f, dim) for f in factors), Poly.const(dim, 1)
    )
    parsed = parse(text, dim)
    assert [(e, c, type(c)) for e, c in parsed] == [
        (e, c, type(c)) for e, c in product
    ]


def test_print_then_parse_is_identity_on_random_polynomials():
    rng = random.Random(13)
    for _ in range(300):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim, 4)
        assert parse(str(p), dim) == p


SUM_3000 = "1/7*x1*x2" + "".join(
    f" {'-' if i % 2 else '+'} {i}/7*x1^{i}*x2^{i % 5}" for i in range(2, 3001)
)


def test_a_3000_term_sum_round_trips_through_text():
    p = parse(SUM_3000, 2)
    assert len(p) == 3000
    assert p.terms[(3000, 0)] == Fraction(3000, 7)
    assert p.terms[(2999, 4)] == Fraction(-2999, 7)
    assert parse(str(p), 2) == p


def sign_and_abs_text(p):
    """A writer kept as the printer's byte contract: each term as its sign
    (none for a positive first term) and then the text of ``abs`` of its
    coefficient, a coefficient of 1 left out before a variable."""
    pieces = []
    for k, exps in enumerate(sorted(p.terms, key=lambda e: (sum(e), e),
                                    reverse=True)):
        c = p.terms[exps]
        body = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                        for i, e in enumerate(exps) if e)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if k == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces) or "0"


@st.composite
def printable_polys(draw):
    """Polynomials in 1-4 variables with coefficients 1 and -1, small
    fractions and long integers, a constant term often, and a negated
    leading term half the time."""
    dim = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        exps = tuple(draw(st.integers(min_value=0, max_value=2))
                     for _ in range(dim))
        terms[exps] = draw(st.one_of(
            st.sampled_from([1, -1]), coeffs,
            st.integers(min_value=-10**30, max_value=10**30),
        ))
    p = Poly(dim, terms)
    if p and draw(st.booleans()):
        lead, c = p.leading()
        p = Poly(dim, {**p.terms, lead: -abs(c)})
    return p


@given(printable_polys())
@settings(max_examples=120, deadline=None)
def test_str_writes_the_bytes_of_sign_and_abs_text(p):
    assert str(p) == sign_and_abs_text(p)


@pytest.mark.parametrize(
    "terms, part",
    [({(10**5000, 0): 1}, "its exponent of x1"),
     ({(0, 10**5000): 3, (1, 0): 1}, "its exponent of x2"),
     ({(2, 1): 10**5000}, "its coefficient of x1^2*x2")],
    ids=["exponent", "exponent-in-sum", "coefficient"],
)
def test_a_part_too_long_to_print_is_named_without_printing_it(terms, part):
    """The message names the variable of an exponent past the digit limit;
    naming its monomial would run into the same limit again."""
    with pytest.raises(UnprintableError) as exc:
        str(Poly(2, terms))
    assert exc.value.part == part
    assert str(exc.value) == (
        f"the polynomial cannot be printed: {part} exceeds the limit "
        f"({sys.get_int_max_str_digits()} digits) for integer string conversion"
    )


# A factor of printed text: a rational, or a variable with its power.
FACTOR = re.compile(r"[0-9/]+|x[0-9]+(?:\^[0-9]+)?")


@given(st.lists(polys(dim=3), min_size=1, max_size=3), st.data())
@settings(max_examples=80, deadline=None)
def test_parenthesising_the_text_or_one_factor_keeps_the_terms(ps, data):
    """Printed texts joined by their signs, so monomials repeat and
    cancel, are read by the flat reader; the same text with the whole of
    it or any one factor in parentheses goes to the grammar parser, which
    must give the same terms in the same order with the same types."""
    text = " + ".join(map(str, ps)).replace(" + -", " - ")
    factors = list(FACTOR.finditer(text))
    k = data.draw(st.integers(min_value=-1, max_value=len(factors) - 1))
    if k < 0:
        wrapped = f"({text})"
    else:
        start, end = factors[k].span()
        wrapped = f"{text[:start]}({text[start:end]}){text[end:]}"
    flat = parse(text, 3)
    assert [(e, c, type(c)) for e, c in parse(wrapped, 3)] == [
        (e, c, type(c)) for e, c in flat
    ]


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
        ("x\u0661", 0, "a variable index after 'x'"),
        ("x1^\u0662", 3, "a term"),
        ("x1^\u00b2", 3, "a term"),
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


def test_a_negative_dimension_is_refused_before_the_text_is_read():
    for text in ("1", "x1", "$"):
        with pytest.raises(ValueError, match="dim must be a natural number"):
            parse(text, -1)


def test_zero_denominator_is_reported():
    with pytest.raises(ZeroDenominatorError):
        parse("1/0", 2)


# ----- sympy as an independent oracle -------------------------------------------
#
# sympy shares no code with this module: its parser, expansion and division
# check every operation above on hypothesis-drawn polynomials.


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_poly(sympy, p):
    gens = sympy.symbols(f"x1:{p.dim + 1}")
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def agrees(sympy, p, theirs):
    """Is the Poly ``p`` the sympy polynomial ``theirs``, term for term?"""
    ours = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p}
    return ours == {e: c for e, c in theirs.terms() if c != 0}


monomials = st.builds(
    lambda exps, c: Poly(3, {exps: c}),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    coeffs.filter(lambda c: c != 0),
)


@st.composite
def texts(draw, dim=3, depth=2):
    """Polynomial text in the grammar of ``parse``, with parentheses,
    powers, rationals and redundant signs."""
    def factor(level):
        kinds = ["int", "ratio", "var"] + (["paren"] if level else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            base = str(draw(st.integers(min_value=0, max_value=9)))
        elif kind == "ratio":
            base = (f"{draw(st.integers(min_value=0, max_value=9))}/"
                    f"{draw(st.integers(min_value=1, max_value=9))}")
        elif kind == "var":
            base = f"x{draw(st.integers(min_value=1, max_value=dim))}"
        else:
            base = f"({poly(level - 1)})"
        if draw(st.booleans()):
            base += f"^{draw(st.integers(min_value=0, max_value=3))}"
        return base

    def term(level):
        n = draw(st.integers(min_value=1, max_value=3))
        return "*".join(factor(level) for _ in range(n))

    def poly(level):
        n = draw(st.integers(min_value=1, max_value=3))
        text = ("-" if draw(st.booleans()) else "") + term(level)
        for _ in range(n - 1):
            text += draw(st.sampled_from([" + ", " - "])) + term(level)
        return text

    return poly(depth)


@given(texts())
@settings(max_examples=80, deadline=None)
def test_parse_and_print_match_sympy(sympy, text):
    gens = sympy.symbols("x1:4")
    names = {str(g): g for g in gens}
    # A rational literal is one token here, so "1/2^3" is (1/2)^3.
    python_text = re.sub(r"(\d+/\d+)", r"(\1)", text).replace("^", "**")
    theirs = sympy.Poly(sympy.sympify(python_text, locals=names),
                        *gens, domain=sympy.QQ)
    p = parse(text, 3)
    assert agrees(sympy, p, theirs)
    assert parse(str(p), 3) == p
    assert agrees(sympy, parse(str(p), 3), theirs)


@given(polys(dim=3), polys(dim=3))
@settings(max_examples=60, deadline=None)
def test_ring_operations_match_sympy(sympy, p, q):
    sp, sq = sympy_poly(sympy, p), sympy_poly(sympy, q)
    assert agrees(sympy, p + q, sp + sq)
    assert agrees(sympy, p - q, sp - sq)
    assert agrees(sympy, -p, -sp)
    assert agrees(sympy, p * q, sp * sq)
    for var in (1, 2, 3):
        assert agrees(sympy, p.differentiate(var), sp.diff(sp.gens[var - 1]))


@given(polys(dim=3, max_degree=2), monomials, st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_powers_match_sympy(sympy, p, m, k):
    assert agrees(sympy, p ** k, sympy_poly(sympy, p) ** k)
    assert agrees(sympy, m ** k, sympy_poly(sympy, m) ** k)
    assert agrees(sympy, m ** (3 * k + 1), sympy_poly(sympy, m) ** (3 * k + 1))


@given(polys(dim=3), polys(dim=3), polys(dim=3), monomials)
@settings(max_examples=60, deadline=None)
def test_divide_exact_matches_sympy(sympy, p, q, r, m):
    for divisor in (q, m):
        if divisor.is_zero():
            continue
        sd = sympy_poly(sympy, divisor)
        quotient = divide_exact(p * divisor, divisor)
        assert quotient == p
        assert agrees(sympy, quotient, sympy_poly(sympy, p * divisor).exquo(sd))
        dividend = p * divisor + r
        their_q, their_r = sympy_poly(sympy, dividend).div(sd)
        ours = divide_exact(dividend, divisor)
        if their_r.is_zero:
            assert ours is not None and agrees(sympy, ours, their_q)
        else:
            assert ours is None


@st.composite
def kolmogorov_fields(draw, dim=3):
    """Fields P_i = x_i * Q_i: every hyperplane x_i = 0 is invariant with
    cofactor Q_i, so both outcomes of ``cofactor`` are drawn."""
    qs = [draw(polys(dim=dim, max_degree=2)) for _ in range(dim)]
    comps = tuple(Poly.var(dim, i + 1) * q for i, q in enumerate(qs))
    return PolyVectorField(dim, comps)


@given(kolmogorov_fields(), polys(dim=3, max_degree=2),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_lie_derivative_and_cofactor_match_sympy(sympy, vf, f, i, j):
    comps = [sympy_poly(sympy, c) for c in vf.components]
    for surface in (f, Poly.var(3, i) * Poly.var(3, j), f * Poly.var(3, i)):
        sf = sympy_poly(sympy, surface)
        theirs = sum((c * sf.diff(g) for c, g in zip(comps, sf.gens)),
                     sympy.Poly(0, *sf.gens, domain=sympy.QQ))
        ours = lie_derivative(vf, surface)
        assert agrees(sympy, ours, theirs)
        if surface.is_zero() or surface.degree() == 0:
            continue
        their_k, their_r = theirs.div(sf)
        k = cofactor(vf, Hypersurface(surface))
        if their_r.is_zero:
            assert k is not None and agrees(sympy, k, their_k)
        else:
            assert k is None


# ----- the character-loop parser as a reference ---------------------------------
#
# ``parse`` tokenizes with one regular expression and folds each term into
# one dict.  The parser it replaced read the text one character at a time
# and summed one ``Poly`` per term; it is kept here, unchanged but for its
# names, as the reference the rewrite must agree with.

_REF_OPS = set("+-*/^()")
_REF_DIGITS = set("0123456789")


class _RefToken:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value, position: int):
        self.kind = kind  # "int" | "var" | one of _REF_OPS | "end"
        self.value = value
        self.position = position

    def describe(self) -> str:
        if self.kind == "int":
            return f"integer {self.value}"
        if self.kind == "var":
            return f"variable x{self.value}"
        if self.kind == "end":
            return "end of input"
        return f"'{self.kind}'"


def _ref_tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REF_OPS:
            tokens.append(_RefToken(ch, ch, i))
            i += 1
            continue
        if ch in _REF_DIGITS:
            j = i
            while j < n and text[j] in _REF_DIGITS:
                j += 1
            tokens.append(_RefToken("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j] in _REF_DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError(i, "a variable index after 'x'", f"'{ch}'")
            index = int(text[i + 1:j])
            if index == 0:
                raise ParseError(i, "a positive variable index", text[i:j])
            tokens.append(_RefToken("var", index, i))
            i = j
            continue
        raise ParseError(i, "a term", f"'{ch}'")
    tokens.append(_RefToken("end", None, n))
    return tokens


class _RefParser:
    def __init__(self, tokens: list, dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def advance(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.position, expected, tok.describe())
        return self.advance()

    def parse_poly(self) -> Poly:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        terms = [self.parse_term(-1 if negate else 1)]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            terms.append(self.parse_term(1 if op.kind == "+" else -1))
        return Poly.sum(self.dim, terms)

    def parse_term(self, sign: int) -> Poly:
        coeff = sign
        exps = [0] * self.dim
        parenthesised = []
        while True:
            kind = self.peek().kind
            base = self.parse_base()
            power = 1
            if self.peek().kind == "^":
                self.advance()
                power = self.expect("int", "a natural exponent").value
            if kind == "var":
                exps[base - 1] += power
            elif kind == "(":
                parenthesised.append(base if power == 1 else base ** power)
            else:
                coeff *= base ** power
            if self.peek().kind != "*":
                break
            self.advance()
        result = Poly(self.dim, {tuple(exps): coeff})
        for factor in parenthesised:
            result = result * factor
        return result

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = tok.value
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("int", "a positive denominator")
                if den_tok.value == 0:
                    raise ZeroDenominatorError(
                        f"at position {den_tok.position}: denominator is zero"
                    )
                return Fraction(numerator, den_tok.value)
            return numerator
        if tok.kind == "var":
            self.advance()
            if tok.value > self.dim:
                raise VariableIndexError(
                    f"at position {tok.position}: variable x{tok.value} "
                    f"outside 1..{self.dim}"
                )
            return tok.value
        if tok.kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(
                    tok.position,
                    f"at most {MAX_PAREN_DEPTH} nested parentheses",
                    tok.describe(),
                )
            self.advance()
            self.depth += 1
            inner = self.parse_poly()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        raise ParseError(
            tok.position, "a rational, a variable, or '('", tok.describe()
        )


def reference_parse(text: str, dim: int) -> Poly:
    parser = _RefParser(_ref_tokenize(text), dim)
    result = parser.parse_poly()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.position, "'+', '-', '*', '^', or end of input",
                         tail.describe())
    return result


# Grammar pieces and what lies just outside the grammar: Unicode whitespace,
# a digit of another script, a superscript, stray characters, a variable
# past the dimension, a zero denominator and a zero index.
PIECES = [
    "x1", "x2", "x3", "x4", "x", "x0", "x01", "0", "1", "7", "12", "3/4",
    "1/0", "+", "-", "*", "/", "^", "^2", "^6", "(", ")", " ", "\t", "\n",
    "\u00a0", "\u2003", "\u001c", "\u0085", "\u0661", "\u00b2", "$", "X",
    ".", "**",
]


# Few monomials, so that sums often cancel a monomial and bring it back.
FEW_TERMS = ["x1", "2*x2", "x1*x2", "1", "1/2", "(x1 - x2)", "x1^2*(x2 + 1)"]


@st.composite
def near_grammar_texts(draw):
    """Grammar text or printed text with pieces inserted, pieces alone, or
    a signed sum of few terms, inside 0 to 101 pairs of parentheses;
    printed text, the flat reader's own traffic, stays outside them."""
    kind = draw(st.sampled_from(["grammar", "printed", "pieces", "sum"]))
    if kind in ("grammar", "printed"):
        text = draw(texts()) if kind == "grammar" else str(draw(polys(dim=3)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            at = draw(st.integers(min_value=0, max_value=len(text)))
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
    elif kind == "pieces":
        text = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=30)))
    else:
        text = "".join(
            sign + term for sign, term in draw(st.lists(
                st.tuples(st.sampled_from([" + ", " - "]),
                          st.sampled_from(FEW_TERMS)),
                min_size=1, max_size=8,
            ))
        )
    depth = 0 if kind == "printed" else draw(st.sampled_from(
        [0, 1, 3, MAX_PAREN_DEPTH - 1, MAX_PAREN_DEPTH, MAX_PAREN_DEPTH + 1]
    ))
    return capped_exponents("(" * depth + text + ")" * depth)


def _outcome(parser, text):
    """The terms, in order and with their types, or what was raised."""
    try:
        p = parser(text, 3)
    except Exception as err:
        return (type(err), getattr(err, "position", None),
                getattr(err, "expected", None), str(err))
    return [(e, c, type(c)) for e, c in p.terms.items()]


@given(near_grammar_texts())
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_the_character_loop_reference(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


@pytest.fixture
def parsers_built(monkeypatch):
    """The texts that ``parse`` hands to the grammar parser."""
    built = []

    class Counted(polyring._Parser):
        def __init__(self, text, dim):
            built.append(text)
            super().__init__(text, dim)

    monkeypatch.setattr(polyring, "_Parser", Counted)
    return built


def test_printed_text_is_read_without_the_grammar_parser(parsers_built):
    p = parse(SUM_3000, 2)
    assert parse(str(p), 2) == p
    assert parsers_built == []


@pytest.mark.parametrize("text", [
    "x1 ^ 2 * 3 / 4", "-x2*x1 - 0*x1", " 0 ", "007*x01^0", "\t1/2*x2\n",
    "2*3/4*x1*5 + x1\x1c- 2", "x1 - x1 + x1",
])
def test_flat_text_in_any_spacing_is_read_without_the_grammar_parser(
    parsers_built, text
):
    assert _outcome(parse, text) == _outcome(reference_parse, text)
    assert parsers_built == []


@pytest.mark.parametrize("text", ["(x1 + x2)*x1", "2^3*x1", "x1*(1)"])
def test_parenthesised_text_and_powers_of_rationals_build_one_parser(
    parsers_built, text
):
    assert parse(text, 2) == reference_parse(text, 2)
    assert parsers_built == [text]


@pytest.mark.parametrize("text", [
    "x1 + $", "x1**x2", "x1 + ", "+x1", "--x1", "x4", "x0", "x", "1/0*x1",
    "x1 x2", "2x1", "x1^2^3", "x1^\u0662", "1/2/3",
])
def test_flat_text_with_an_error_builds_one_parser(parsers_built, text):
    """The grammar parser reads the whole text again and raises its error,
    with the reference's type, position and message."""
    outcome = _outcome(parse, text)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(reference_parse, text)
    assert parsers_built == [text]


def test_a_literal_past_the_digit_limit_builds_one_parser(parsers_built):
    text = "x1 + 1" + "0" * 5000 + "*x2"
    with pytest.raises(ParseError) as exc:
        parse(text, 2)
    assert (exc.value.position, exc.value.found) == (5, "5001 digits")
    assert parsers_built == [text]


def test_the_regex_whitespace_class_is_str_isspace():
    """The tokenizer skips ``\\s``; the reference skipped ``str.isspace``."""
    everything = "".join(map(chr, range(0x110000)))
    assert set(re.findall(r"\s", everything)) == {
        c for c in everything if c.isspace()
    }


@pytest.mark.parametrize(
    "text, position, digits",
    [("1" + "0" * 5000 + "*x1", 0, 5001), ("x1^" + "9" * 5000, 3, 5000),
     ("x1 + x" + "1" * 5000, 5, 5000)],
    ids=["integer", "exponent", "variable-index"],
)
def test_a_literal_past_the_digit_limit_is_a_parse_error_at_its_position(
    text, position, digits
):
    """Not ``int``'s ValueError, whose advice to call
    sys.set_int_max_str_digits() no command-line user can follow."""
    with pytest.raises(ParseError) as exc:
        parse(text, 2)
    assert (exc.value.position, exc.value.expected, exc.value.found) == (
        position, "at most 4300 digits", f"{digits} digits"
    )


def test_literals_at_the_digit_limit_are_read():
    limit = sys.get_int_max_str_digits()
    one = "0" * (limit - 1) + "1"
    assert parse("9" * limit + "*x" + one + "^" + one, 1) == Poly(
        1, {(1,): 10**limit - 1}
    )


# ----- term insertion order -----------------------------------------------------
#
# A result's term insertion order is the order in which ``numeric_validate``
# evaluates it in floats, so it is part of the numeric results.
# These digests pin ``list(p.terms)`` for seeded results of every operation.


TERM_ORDER_DIGESTS = {
    "add":
        "4a48f64b2cf8d59c57730c30f5f4915c26dcebdf5bb765aa7fcbe19530ff8ac2",
    "sub":
        "7095ca5a69cb0e5f9cccd95b75ba861f461a9298a8827282b55f12e1490cc9e2",
    "mul":
        "5e8241362f37a5c874556935dfed5001470d37d6ab061ef1fec6f8d96ccb8e38",
    "pow":
        "19217a39301e5441e71ffe9c91b58d16d24cc50d9c153fb23b0fb7e336658212",
    "differentiate":
        "3ae4212fdc3e9432c932487533ac525a45bb57d1ee1a9226723002916ab876e1",
    "divide_exact_monomial":
        "549c2fddb48588e9207ace3bbff10c796ebf83c1aa52c0a2539f7dfe9fed7290",
    "divide_exact":
        "b59c594d4d69a0ed9791eae70b1138646280acfeb07791d8c8c9de360cddfd2d",
    "parse":
        "a8b8157bd3a09810d66f54fa8ea473f3b18478d7d2158c4d7a7b46c937adc8d1",
    "parse_flat":
        "1bfdc5dfa1d1eae2b986a0293a94e435bf8410ef00eb1aa0458c7537714f9be4",
}


def _flat_terms(p, sign=1, reverse=False):
    """``p``'s terms as flat text in insertion order, each after its own
    ' + ' or ' - '; ``reverse`` writes each monomial's variables last
    first."""
    pieces = []
    for exps, c in p:
        factors = str(Poly(p.dim, {exps: 1})).split("*")
        if reverse:
            factors.reverse()
        pieces.append(f" {'-' if sign * c < 0 else '+'} "
                      + "*".join([str(abs(c))] + factors))
    return "".join(pieces)


def _term_orders(rng):
    cases = {op: [] for op in TERM_ORDER_DIGESTS}
    for _ in range(80):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, 3, terms=6)
        q = rand_poly(rng, dim, 3, terms=6)
        m = rand_poly(rng, dim, 3, terms=1)
        k = rng.randint(0, 4)
        cases["add"].append(p + q)
        cases["sub"].append(p - q)
        cases["sub"].append(-p)
        cases["mul"].append(p * q)
        cases["pow"].append(p ** k)
        cases["pow"].append(m ** (k + 1))
        cases["differentiate"].append(p.differentiate(rng.randint(1, dim)))
        if not m.is_zero():
            cases["divide_exact_monomial"].append(divide_exact(q * m, m))
        if not q.is_zero():
            cases["divide_exact"].append(divide_exact(p * q, q))
        cases["parse"].append(parse(f"({p})*({q}) - ({m})^{k} + ({q})", dim))
        # Flat text only: printed results, and sums whose monomials repeat,
        # cancel and come back; no draw, so the other cases stay as pinned.
        cases["parse_flat"].append(parse(str(p * q), dim))
        cases["parse_flat"].append(parse(str(q), dim))
        cases["parse_flat"].append(parse(
            "0" + _flat_terms(p) + _flat_terms(q, reverse=True)
            + _flat_terms(m) + _flat_terms(p, -1) + _flat_terms(q)
            + _flat_terms(p, reverse=True) + _flat_terms(m, -1),
            dim,
        ))
    return cases


@pytest.mark.parametrize("op", sorted(TERM_ORDER_DIGESTS))
def test_term_insertion_order_is_pinned(op):
    results = _term_orders(random.Random(20260618))[op]
    text = "\n".join(repr(list(p.terms)) for p in results)
    assert hashlib.sha256(text.encode()).hexdigest() == TERM_ORDER_DIGESTS[op]
