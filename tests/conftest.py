"""Shared helpers for the test suite: exact span comparison and small
random generators used by several modules."""

import random
import re
from fractions import Fraction

from kolmosphere import Poly
from kolmosphere.exactla import RationalMatrix, rank
from kolmosphere.field_forms import skew_matrix


def span_equal(vectors_a, vectors_b) -> bool:
    """Do two lists of rational vectors span the same subspace?

    Checked exactly: both stacks must have the same rank, and stacking
    them together must not raise it.
    """
    a = [tuple(Fraction(x) for x in v) for v in vectors_a]
    b = [tuple(Fraction(x) for x in v) for v in vectors_b]
    if not a and not b:
        return True
    if bool(a) != bool(b) or len(a[0]) != len(b[0]):
        return False
    ra = rank(RationalMatrix.from_rows(a))
    rb = rank(RationalMatrix.from_rows(b))
    rab = rank(RationalMatrix.from_rows(a + b))
    return ra == rb == rab


def dense_rows(m):
    """The rows of a ``RationalMatrix`` written out, zeros included."""
    return [tuple(row.get(c, 0) for c in range(m.cols)) for row in m.entries]


def rand_fraction(rng: random.Random, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-4, 4)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 3))


def rand_poly(rng: random.Random, dim: int, max_degree: int, terms: int = 4) -> Poly:
    acc = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        acc[tuple(exps)] = acc.get(tuple(exps), Fraction(0)) + rand_fraction(rng)
    return Poly(dim, acc)


def rand_nonzero_poly(rng: random.Random, dim: int, max_degree: int) -> Poly:
    while True:
        p = rand_poly(rng, dim, max_degree)
        if not p.is_zero():
            return p


def rand_skew_constant(rng: random.Random, dim: int):
    return skew_matrix(dim, lambda i, j: rand_fraction(rng), Fraction(0))


def capped_exponents(text: str) -> str:
    """``text`` with every exponent literal cut to at most 6, so that no
    power in drawn polynomial text expands hugely."""
    return re.sub(r"(\^\s*)([0-9]+)",
                  lambda m: m.group(1) + str(min(int(m.group(2)), 6)), text)
