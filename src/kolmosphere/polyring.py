"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``dim`` variables x1..x<dim> is stored as a dict mapping an
exponent tuple (one natural number per variable) to a nonzero coefficient:
an ``int`` when the coefficient is integral and a ``Fraction`` otherwise.
Integral coefficients, the common case, thus multiply and add as Python
ints, without a ``Fraction`` per operation.  ``Fraction(3) == 3`` and the
two hash alike, so equality, hashing and printing do not depend on the
representation.  The zero polynomial is the empty dict.  All arithmetic is
exact; no floating point enters this module.

``parse`` has two readers.  The flat reader takes ASCII text without
parentheses, the shape that ``str`` prints and every JSON field holds: one
``re.split`` cuts the terms at their signs, each term is cut at '*', and
each distinct factor text is read once per call, with ``str.partition`` at
'^' and '/'.  It gives up on anything else (a parenthesis, a character
outside ASCII, an empty factor, a variable outside 1..dim, a zero
denominator, a power of a rational, a literal past the interpreter's digit
limit, or any text outside the grammar) and hands the whole text to the
grammar parser, which alone reads parenthesised text and alone raises
every ``ParseError``, with its position.  The grammar parser tokenizes the
text with one pass of one regular expression.  Its matches cover every
character but trailing whitespace, so each token's position is the running
sum of the matched lengths, and a literal longer than the digit limit is
refused there, at its position.  It then reads the tokens by plain
recursive descent: a factor is a ``Poly``, a term is the product of its
factors from left to right, starting from its sign, and a sum folds its
terms, in text order, into one dict, deleting a monomial the moment its
coefficient cancels, as ``Poly.sum`` does.  The flat reader folds the same
terms the same way, so the two give the same terms in the same order.

``str`` writes the terms in grlex-descending order, each once with the sign
of its coefficient, and joins them so that a negative term reads " - ".

Monomial order everywhere is graded lexicographic with x1 > x2 > ... :
compare total degree first, then the exponent tuples lexicographically.
The same order drives both ``divide_exact`` and canonical printing, so
``parse(str(p), p.dim) == p`` holds for every polynomial.
"""

from __future__ import annotations

import heapq
import re
import sys
from fractions import Fraction
from operator import add, neg, sub
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

Monomial = Tuple[int, ...]
Scalar = Union[int, Fraction]

# Degree of the zero polynomial: a distinguished value below every natural.
NEG_INF = float("-inf")

# Deepest parenthesis nesting ``parse`` accepts; the parser recurses once per
# level, so a cap keeps hostile input from exhausting the interpreter stack.
MAX_PAREN_DEPTH = 100


class SelfCheckError(RuntimeError):
    """A result failed the package's own check of it: a fault in the code,
    never a verdict on the input.  Every module may raise it."""


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different numbers of variables."""


class VariableIndexError(IndexError):
    """A variable index lies outside 1..dim."""


class UnprintableError(ValueError):
    """``what`` cannot be printed because ``part`` of it has more digits
    than the interpreter converts to text (``sys.get_int_max_str_digits()``).
    The message leaves out Python's advice to raise that limit, which is no
    use to someone running a command."""

    def __init__(self, what: str, part: str):
        self.part = part
        super().__init__(
            f"{what} cannot be printed: {part} exceeds the limit "
            f"({sys.get_int_max_str_digits()} digits) for integer string "
            "conversion"
        )


class ParseError(ValueError):
    """Raised when polynomial text does not match the grammar.

    Carries the character offset of the offending token and a short
    description of what would have been accepted there.
    """

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"at position {position}: expected {expected}, found {found}"
        )


class ZeroDenominatorError(ValueError):
    """A rational literal has denominator zero."""


def _grlex_key(exponents: Monomial) -> tuple:
    return (sum(exponents), exponents)


def _canonical(value) -> Scalar:
    """``value`` as a coefficient: an ``int`` when it is integral, else a
    ``Fraction``.  The one entry of a scalar into the exact core: an
    ``int`` is kept, a float refused (not read as its binary fraction) and
    anything else read through ``Fraction``.  ``Poly._trusted``, whose
    input is already ``int`` or ``Fraction``, applies the rule inline."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float, not exact")
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Every coefficient is a nonzero ``int`` when it is integral and a
    ``Fraction`` otherwise; ``_canonical`` enforces this for every
    constructor, and so ``Poly(dim, terms)`` and :meth:`const` refuse a
    float coefficient.  ``Poly(dim, terms)`` takes input from outside the
    ring, so it checks every exponent tuple.  :meth:`zero`, :meth:`const`
    and :meth:`var` check their own arguments.  The ring's own results
    (:meth:`sum`, ``+ - *``, ``**``, :meth:`differentiate`,
    :func:`divide_exact`) and :func:`parse`, which builds each exponent
    tuple from checked tokens (an index in 1..dim, a natural exponent), are
    built by :meth:`_trusted`, which checks no exponent tuple.  The
    insertion order of ``terms`` is the order in which ``numeric_validate``
    sums and multiplies in floats, so every operation keeps it fixed.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Monomial, Scalar]):
        if dim < 0:
            raise ValueError("dim must be a natural number")
        clean: Dict[Monomial, Scalar] = {}
        for exps, coeff in terms.items():
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in monomial {exps}")
            c = _canonical(coeff)
            if c:
                clean[tuple(exps)] = c
        _set_dim(self, dim)
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, dim: int, terms: Mapping[Monomial, Scalar]) -> "Poly":
        """A Poly from exponent tuples of length ``dim`` and ``int`` or
        ``Fraction`` coefficients built by this module; zeros are dropped
        and integral ``Fraction``s become ``int``s, as ``_canonical`` would
        make them.  The slot descriptors set the slots past the immutability
        guard."""
        p = object.__new__(cls)
        _set_dim(p, dim)
        _set_terms(p, {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in terms.items() if c
        })
        return p

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim, {})

    @classmethod
    def const(cls, dim: int, value: Scalar) -> "Poly":
        if dim < 0:
            raise ValueError("dim must be a natural number")
        return cls._trusted(dim, {(0,) * dim: _canonical(value)})

    @classmethod
    def var(cls, dim: int, index: int) -> "Poly":
        """The variable x<index>, 1-based."""
        if not 1 <= index <= dim:
            raise VariableIndexError(
                f"variable index {index} outside 1..{dim}"
            )
        exps = [0] * dim
        exps[index - 1] = 1
        return cls._trusted(dim, {tuple(exps): 1})

    # ----- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        """True when all monomials share one total degree (zero counts)."""
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading(self) -> Tuple[Monomial, Scalar]:
        """Leading (monomial, coefficient) in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def __iter__(self) -> Iterator[Tuple[Monomial, Scalar]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ----- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.dim != self.dim:
                raise DimensionMismatchError(
                    f"cannot combine polynomials in {self.dim} and {other.dim} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.dim, other)
        return NotImplemented  # type: ignore[return-value]

    @classmethod
    def sum(cls, dim: int, addends: Iterable["Poly"]) -> "Poly":
        """The sum of ``addends`` in ``dim`` variables; zero when there are
        none.

        The first addend's terms are copied into one dict and each later
        addend is folded into it in place, as ``divide_exact`` updates its
        remainder, so the cost is the total term count, not one copy of the
        running sum per addend.  A monomial is deleted the moment its
        coefficient cancels, which keeps the term order of a left-to-right
        chain of ``+``.
        """
        acc = None
        for p in addends:
            if p.dim != dim:
                raise DimensionMismatchError(
                    f"cannot combine polynomials in {dim} and {p.dim} variables"
                )
            if acc is None:
                acc = dict(p.terms)
            else:
                _fold(acc, p.terms.items())
        return cls._trusted(dim, acc or {})

    def __add__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return Poly.sum(self.dim, (self, rhs))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        acc: Dict[Monomial, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(map(add, e1, e2))
                old = acc.get(key)
                acc[key] = c1 * c2 if old is None else old + c1 * c2
        return Poly._trusted(self.dim, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take natural exponents")
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            return Poly._trusted(
                self.dim, {tuple(e * exponent for e in exps): coeff ** exponent}
            )
        result = Poly.const(self.dim, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.dim, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    # ----- calculus and evaluation ----------------------------------------

    def differentiate(self, var: int) -> "Poly":
        """Partial derivative with respect to x<var> (1-based)."""
        if not 1 <= var <= self.dim:
            raise VariableIndexError(f"variable index {var} outside 1..{self.dim}")
        i = var - 1
        acc: Dict[Monomial, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            acc[exps[:i] + (e - 1,) + exps[i + 1:]] = coeff * e
        return Poly._trusted(self.dim, acc)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.dim}"
            )
        # Integral coordinates become ints: one Fraction product per monomial.
        coords = [c if type(c) is int else _canonical(c) for c in point]
        total = 0
        for exps, coeff in self.terms.items():
            value = 1
            for c, e in zip(coords, exps):
                if e:
                    value *= c ** e
            total += coeff * value
        return Fraction(total)

    # ----- printing --------------------------------------------------------

    def __str__(self) -> str:
        """Terms in grlex-descending order, each written once with its own
        sign and joined by " + ", so a negative term's joint reads " - "."""
        if not self.terms:
            return "0"
        names = [f"x{i}" for i in range(1, self.dim + 1)]
        pieces = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            try:
                pieces.append(_term_text(exps, self.terms[exps], names))
            except ValueError:  # a number of more digits than str writes
                big = 10 ** sys.get_int_max_str_digits()
                name = next((n for n, e in zip(names, exps) if e >= big), None)
                part = (f"its exponent of {name}" if name else
                        f"its coefficient of {_term_text(exps, 1, names)}")
                raise UnprintableError("the polynomial", part) from None
        return " + ".join(pieces).replace(" + -", " - ")

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, dim={self.dim})"


# The slots' own setters; ``Poly.__setattr__`` refuses every assignment.
_set_dim = Poly.dim.__set__
_set_terms = Poly.terms.__set__


def _fold(
    acc: Dict[Monomial, Scalar], terms: Iterable[Tuple[Monomial, Scalar]]
) -> None:
    """Add the nonzero ``terms`` into ``acc`` in place, deleting a monomial
    the moment its coefficient cancels (see :meth:`Poly.sum`)."""
    for exps, coeff in terms:
        old = acc.get(exps)
        new = coeff if old is None else old + coeff
        if new:
            acc[exps] = new
        else:
            del acc[exps]


def _term_text(exps: Monomial, coeff: Scalar, names: Sequence[str]) -> str:
    """The term ``coeff`` * x^``exps`` with its sign: a coefficient of 1 or
    -1 is written as nothing or '-' before a variable."""
    vars_part = "*".join([
        names[i] if e == 1 else f"{names[i]}^{e}"
        for i, e in enumerate(exps) if e
    ])
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return vars_part
    if coeff == -1:
        return "-" + vars_part
    return f"{coeff}*{vars_part}"


def _heap_key(exps: Monomial) -> tuple:
    """Min-heap key of a monomial: the grlex-largest has the smallest key."""
    return (-sum(exps),) + tuple(map(neg, exps))


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact coefficient a / b: ``/`` on two ints would round to a
    float."""
    if type(a) is int and type(b) is int:
        c, rem = divmod(a, b)
        return Fraction(a, b) if rem else c
    return _canonical(a / b)


def divide_exact(dividend: Poly, divisor: Poly):
    """Quotient when ``divisor`` divides ``dividend`` exactly, else None.

    Single-divisor division under graded lex order: repeatedly cancel the
    leading term of the running remainder against the divisor's leading
    term.  If at any point the leading monomial is not divisible the
    dividend cannot be a multiple (over a field a nonzero remainder is
    definitive for a singleton divisor set), so the scan stops early.

    A one-term divisor c x^a needs no remainder: one pass over the
    dividend's monomials, sorted once in grlex-descending order, shifts each
    by a (the first negative exponent gives None) and divides its
    coefficient by c, or copies it when c is 1.  A longer divisor updates
    the remainder, one dict, in place by each step's ``c * divisor``, with
    a heap holding each of its monomials once to find the leading one
    (Johnson 1974; Monagan & Pearce 2007).  A monomial whose coefficient
    cancels stays, at zero, until it surfaces and is skipped.  Either way
    the quotient's terms come out in grlex-descending order.
    """
    if divisor.dim != dividend.dim:
        raise DimensionMismatchError(
            f"dividend in {dividend.dim} variables, divisor in {divisor.dim}"
        )
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_exps, lead_coeff = divisor.leading()
    quotient: Dict[Monomial, Scalar] = {}
    if len(divisor.terms) == 1:
        terms = dividend.terms
        for exps in sorted(terms, key=_grlex_key, reverse=True):
            step = tuple(map(sub, exps, lead_exps))
            if min(step, default=0) < 0:
                return None
            quotient[step] = (terms[exps] if lead_coeff == 1
                              else _quotient(terms[exps], lead_coeff))
        return Poly._trusted(dividend.dim, quotient)
    tail = [(e, c) for e, c in divisor.terms.items() if e != lead_exps]
    remainder = dict(dividend.terms)
    heap = [(_heap_key(e), e) for e in remainder]
    heapq.heapify(heap)
    while heap:
        r_exps = heapq.heappop(heap)[1]
        r_coeff = remainder.pop(r_exps)
        if not r_coeff:
            continue
        step = tuple(map(sub, r_exps, lead_exps))
        if min(step, default=0) < 0:
            return None
        c = quotient[step] = _quotient(r_coeff, lead_coeff)
        minus_c = -c
        for d_exps, d_coeff in tail:
            m = tuple(map(add, step, d_exps))
            old = remainder.get(m)
            if old is None:
                remainder[m] = minus_c * d_coeff
                heapq.heappush(heap, (_heap_key(m), m))
            else:
                remainder[m] = old + minus_c * d_coeff
    return Poly._trusted(dividend.dim, quotient)


# ----- parsing --------------------------------------------------------------
#
# poly     := ['-'] term (('+'|'-') term)*
# term     := factor ('*' factor)*
# factor   := base ('^' NAT)?
# base     := RATIONAL | VAR | '(' poly ')'
# RATIONAL := INT ('/' POSNAT)?
# VAR      := 'x' POSNAT
#
# Whitespace is insignificant.  There is no implicit multiplication:
# "2x1" is a syntax error.

# One match per token: the whitespace before it, then an integer, a
# variable, an operator or a stray character.  Only trailing whitespace lies
# outside every match, so a token's position is the running sum of the
# matched lengths.  ``\s`` is ``str.isspace``; ``[0-9]`` takes ASCII digits
# only, since ``str.isdigit`` also accepts other scripts' digits and
# superscripts, some of which ``int`` then rejects without a position.
_TOKEN = re.compile(r"(\s*)(?:([0-9]+)|(x[0-9]*)|([-+*/^()])|(\S))")


def _tokenize(text: str) -> Tuple[list, list, list]:
    """The tokens of ``text`` as three parallel lists: kinds ("int", "var",
    an operator character, and a last "end"), values (the integer, the
    variable's index, or the operator) and character positions.

    A literal longer than ``sys.get_int_max_str_digits()`` is refused at its
    position, before ``int`` can refuse it with advice to raise the limit.
    """
    kinds = []
    values = []
    positions = []
    limit = sys.get_int_max_str_digits() or len(text)  # 0 means no limit
    position = 0
    for space, digits, var, op, stray in _TOKEN.findall(text):
        position += len(space)
        if op:
            kinds.append(op)
            values.append(op)
        elif digits:
            if len(digits) > limit:
                raise ParseError(position, f"at most {limit} digits",
                                 f"{len(digits)} digits")
            kinds.append("int")
            values.append(int(digits))
        elif var:
            if var == "x":
                raise ParseError(position, "a variable index after 'x'", "'x'")
            if len(var) > limit + 1:
                raise ParseError(position, f"at most {limit} digits",
                                 f"{len(var) - 1} digits")
            index = int(var[1:])
            if index == 0:
                raise ParseError(position, "a positive variable index", var)
            kinds.append("var")
            values.append(index)
        else:
            raise ParseError(position, "a term", f"'{stray}'")
        positions.append(position)
        position += len(op or digits or var)
    kinds.append("end")
    values.append(None)
    positions.append(len(text))
    return kinds, values, positions


def _describe(kind: str, value) -> str:
    if kind == "int":
        return f"integer {value}"
    if kind == "var":
        return f"variable x{value}"
    if kind == "end":
        return "end of input"
    return f"'{kind}'"


class _Parser:
    """Recursive descent over the token lists of ``_tokenize``; ``i`` is the
    index of the next token.

    A factor is a ``Poly``, a term the product of its factors from left to
    right starting from its sign, and a sum folds its terms into one dict
    as ``Poly.sum`` folds its addends (``_fold``).  A one-term factor only
    shifts and scales the terms it meets, so flat text gives the terms,
    values and types of ``_read_flat``."""

    def __init__(self, text: str, dim: int):
        self.kinds, self.values, self.positions = _tokenize(text)
        self.i = 0
        self.dim = dim
        self.depth = 0

    def fail(self, expected: str):
        i = self.i
        raise ParseError(self.positions[i], expected,
                         _describe(self.kinds[i], self.values[i]))

    def take(self, kind: str, expected: str):
        """The value of the next token, which must be of ``kind``."""
        if self.kinds[self.i] != kind:
            self.fail(expected)
        self.i += 1
        return self.values[self.i - 1]

    def parse_poly(self) -> Poly:
        acc: Dict[Monomial, Scalar] = {}
        sign = 1
        if self.kinds[self.i] == "-":
            self.i += 1
            sign = -1
        while True:
            _fold(acc, self.parse_term(sign).terms.items())
            kind = self.kinds[self.i]
            if kind not in ("+", "-"):
                return Poly._trusted(self.dim, acc)
            self.i += 1
            sign = 1 if kind == "+" else -1

    def parse_term(self, sign: int) -> Poly:
        term = Poly.const(self.dim, sign)
        while True:
            term = term * self.parse_factor()
            if self.kinds[self.i] != "*":
                return term
            self.i += 1

    def parse_factor(self) -> Poly:
        i = self.i
        kind, value = self.kinds[i], self.values[i]
        if kind == "int":
            self.i += 1
            if self.kinds[self.i] == "/":
                self.i += 1
                position = self.positions[self.i]
                denominator = self.take("int", "a positive denominator")
                if denominator == 0:
                    raise ZeroDenominatorError(
                        f"at position {position}: denominator is zero"
                    )
                value = Fraction(value, denominator)
            base = Poly.const(self.dim, value)
        elif kind == "var":
            if value > self.dim:
                raise VariableIndexError(
                    f"at position {self.positions[i]}: variable x{value} "
                    f"outside 1..{self.dim}"
                )
            self.i += 1
            base = Poly.var(self.dim, value)
        elif kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self.fail(f"at most {MAX_PAREN_DEPTH} nested parentheses")
            self.i += 1
            self.depth += 1
            base = self.parse_poly()
            self.take(")", "')'")
            self.depth -= 1
        else:
            self.fail("a rational, a variable, or '('")
        if self.kinds[self.i] == "^":
            self.i += 1
            base = base ** self.take("int", "a natural exponent")
        return base


_SIGN = re.compile(r"([-+])")


def _natural(digits: str, limit: int):
    """The number that ASCII ``digits`` write when they are ``[0-9]+`` of
    at most ``limit`` digits, else None."""
    return int(digits) if digits.isdigit() and len(digits) <= limit else None


def _read_factor(text: str, dim: int, limit: int):
    """A flat factor as (index, power, None) for x<index + 1>^power or
    (-1, value, -value) for a rational.  None when it is neither, when a
    variable lies outside 1..dim, a denominator is zero or a literal has
    more than ``limit`` digits, and for a power of a rational: ``str``
    never prints one, and the grammar parser tokenizes the whole text
    before it computes any power, so "2^99999999 + $" fails at once."""
    base, caret, power = text.partition("^")
    base = base.strip()
    if base[:1] == "x":
        index = _natural(base[1:], limit)
        power = _natural(power.strip(), limit) if caret else 1
        if index is None or power is None or not 1 <= index <= dim:
            return None
        return index - 1, power, None
    if caret:
        return None
    num, slash, den = base.partition("/")
    num = _natural(num.strip(), limit)
    den = _natural(den.strip(), limit) if slash else 1
    if num is None or not den:
        return None
    value = Fraction(num, den) if slash else num
    return -1, value, -value


def _read_flat(text: str, dim: int):
    """The Poly of flat text (see the module docstring), else None.

    Each distinct factor text is read once, into a dict that lives for this
    call only.  A term's coefficient is its sign times its rationals from
    left to right, the value ``_Parser`` computes; the sign is taken from
    the first rational's cached negation instead of by a product.
    """
    if "(" in text or ")" in text or not text.isascii():
        return None
    pieces = _SIGN.split(text)  # [lead, sign, term, sign, term, ...]
    if pieces[0].strip():
        pieces.insert(0, "+")
    elif len(pieces) > 1 and pieces[1] == "-":
        del pieces[0]
    else:
        return None
    limit = sys.get_int_max_str_digits() or len(text)  # 0 means no limit
    factors: Dict[str, tuple] = {}
    terms = []
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coeff = None
        exps = [0] * dim
        for factor in term.split("*"):
            read = factors.get(factor)
            if read is None:
                read = _read_factor(factor, dim, limit)
                if read is None:
                    return None
                factors[factor] = read
            index, value, negated = read
            if index >= 0:
                exps[index] += value
            elif coeff is None:
                coeff = negated if sign == "-" else value
            else:
                coeff *= value
        if coeff is None:
            coeff = -1 if sign == "-" else 1
        if coeff:
            terms.append((tuple(exps), coeff))
    acc: Dict[Monomial, Scalar] = {}
    _fold(acc, terms)
    return Poly._trusted(dim, acc)


def parse(text: str, dim: int) -> Poly:
    """Parse polynomial text into a Poly in ``dim`` variables: the flat
    reader first, then the grammar parser for any text it hands over."""
    if dim < 0:
        raise ValueError("dim must be a natural number")
    result = _read_flat(text, dim)
    if result is not None:
        return result
    parser = _Parser(text, dim)
    result = parser.parse_poly()
    if parser.kinds[parser.i] != "end":
        parser.fail("'+', '-', '*', '^', or end of input")
    return result
