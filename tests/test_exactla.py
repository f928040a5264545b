"""Fraction-exact matrix kernels: rank, determinant, nullspaces.

The oracles here are deliberately naive (Laplace expansion, exhaustive
minors) so that the production kernels are checked against something
independent of elimination order; sympy serves as an independent exact
oracle where it is installed.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from kolmosphere.darboux import hypothesis_matrix, standard_sample_points
from kolmosphere.exactla import (
    NotSquareError,
    RationalMatrix,
    _bareiss_echelon,
    _exact_quotient,
    determinant,
    nullspace,
    rank,
)
from kolmosphere.field_forms import sphere_polynomial
from kolmosphere.hamiltonian import _constraint_columns, hamiltonian_constraint_space
from kolmosphere.polyring import SelfCheckError

from conftest import dense_rows, span_equal


def laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_det(minor)
    return total


def minor_rank(rows, cols_n):
    """Largest k admitting a nonzero k x k minor."""
    m = len(rows)
    for k in range(min(m, cols_n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(cols_n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if laplace_det(sub) != 0:
                    return k
    return 0


def rand_rows(rng, m, n):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        for _ in range(m)
    ]


def test_constructors_and_accessors():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.entries[1][0] == 3
    assert m.entries[1] == {0: 3, 1: 4}
    assert m.transpose().entries[0] == {0: 1, 1: 3}


def test_from_rows_stores_only_nonzeros_as_ints_exactly_when_integral():
    m = RationalMatrix.from_rows(
        [[0, Fraction(4, 2), Fraction(1, 3)], [Fraction(0), 0, -5]]
    )
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == ({1: 2, 2: Fraction(1, 3)}, {2: -5})
    assert [type(x) for row in m.entries for x in row.values()] == [
        int, Fraction, int
    ]
    assert dense_rows(m) == [(0, 2, Fraction(1, 3)), (0, 0, -5)]
    assert RationalMatrix.from_rows([]) == RationalMatrix(0, 0, ())
    assert RationalMatrix.from_rows([[], []]) == RationalMatrix(2, 0, ({}, {}))


def test_the_constructor_refuses_a_stored_zero():
    """Bareiss would take a stored zero for a pivot and divide by it."""
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="stores a zero"):
            RationalMatrix(2, 2, ({0: 1}, {1: zero}))


@pytest.mark.parametrize("column", [-1, 2, 7])
def test_the_constructor_refuses_a_column_outside_the_matrix(column):
    with pytest.raises(ValueError, match="outside 0..1"):
        RationalMatrix(2, 2, ({0: 1}, {column: 3}))


def test_the_constructor_refuses_a_wrong_row_count_or_dimension():
    with pytest.raises(ValueError, match="expected 3 rows, got 2"):
        RationalMatrix(3, 2, ({0: 1}, {1: 1}))
    with pytest.raises(ValueError, match="natural numbers"):
        RationalMatrix(-1, 2, ())


def test_transposing_twice_is_the_identity():
    rng = random.Random(41)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = [
            [rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(n)]
            for _ in range(m)
        ]
        matrix = RationalMatrix.from_rows(rows)
        t = matrix.transpose()
        assert (t.rows, t.cols) == (matrix.cols, matrix.rows)
        assert dense_rows(t) == list(zip(*dense_rows(matrix)))
        assert t.transpose() == matrix


def test_determinant_known_values():
    assert determinant(RationalMatrix.from_rows([[5]])) == 5
    assert determinant(RationalMatrix.from_rows([[1, 2], [3, 4]])) == -2
    singular = RationalMatrix.from_rows(
        [[Fraction(1, 2), 2, 3], [1, 0, 1], [2, 4, 7]]
    )
    assert determinant(singular) == 0
    assert rank(singular) == 2


def test_determinant_requires_square_input():
    with pytest.raises(NotSquareError):
        determinant(RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_determinant_matches_laplace_expansion_on_random_matrices():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = rand_rows(rng, n, n)
        assert determinant(RationalMatrix.from_rows(rows)) == laplace_det(rows)


def test_rank_matches_exhaustive_minor_search():
    rng = random.Random(5)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = rand_rows(rng, m, n)
        assert rank(RationalMatrix.from_rows(rows)) == minor_rank(rows, n)


def test_rank_of_outer_product_stacks_is_bounded_by_factor_width():
    rng = random.Random(23)
    for _ in range(60):
        m, r, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
        a = rand_rows(rng, m, r)
        b = rand_rows(rng, r, n)
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
            for i in range(m)
        ]
        assert rank(RationalMatrix.from_rows(prod)) <= r


def test_right_nullspace_annihilates_and_fills_rank_nullity():
    rng = random.Random(3)
    for _ in range(120):
        m = RationalMatrix.from_rows(rand_rows(rng, rng.randint(1, 4), rng.randint(1, 4)))
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(
                sum(a * x for a, x in zip(row, v)) == 0 for row in dense_rows(m)
            )


def test_left_nullspace_annihilates_from_the_left():
    rng = random.Random(31)
    for _ in range(120):
        m = RationalMatrix.from_rows(rand_rows(rng, rng.randint(1, 4), rng.randint(1, 4)))
        basis = nullspace(m.transpose())
        assert len(basis) == m.rows - rank(m)
        for v in basis:
            assert all(
                sum(x * row[j] for x, row in zip(v, dense_rows(m))) == 0
                for j in range(m.cols)
            )


def test_nullspace_basis_vectors_lead_with_one():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert basis == [
        (Fraction(1), Fraction(-1, 2), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(-1, 3)),
    ]
    for v in basis:
        lead = next(x for x in v if x != 0)
        assert lead == 1


def test_full_rank_matrix_has_trivial_nullspaces():
    m = RationalMatrix.from_rows([[2, 0], [1, 1]])
    assert nullspace(m) == []
    assert nullspace(m.transpose()) == []


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="expected 1 columns, got 2"):
        RationalMatrix.from_rows([[1], [0, 0]])


def oracle_matrices(kind, rng, count=25):
    """Seeded random rational matrices of one shape family, some with a
    row or a column zeroed out."""
    for _ in range(count):
        density = 1.0
        if kind == "square":
            m = n = rng.randint(1, 6)
        elif kind == "wide":
            m = rng.randint(1, 4)
            n = m + rng.randint(1, 3)
        elif kind == "tall":
            n = rng.randint(1, 4)
            m = n + rng.randint(1, 3)
        else:
            m, n, density = rng.randint(1, 6), rng.randint(1, 6), 0.25
        rows = [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = Fraction(0)
        yield m, n, rows
    # Degenerate shapes: all zeros, and no rows or no columns at all.
    for m, n in ((3, 4), (4, 3), (0, 3), (3, 0), (0, 0)):
        yield m, n, [[Fraction(0)] * n for _ in range(m)]


def lead_scaled(v):
    first = next(x for x in v if x != 0)
    return tuple(x / first for x in v)


@pytest.mark.parametrize("kind", ["square", "wide", "tall", "sparse"])
def test_elimination_matches_the_sympy_oracle(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"oracle-{kind}")
    for m, n, rows in oracle_matrices(kind, rng):
        ours = RationalMatrix(m, n, tuple(
            {c: x for c, x in enumerate(row) if x} for row in rows
        ))
        theirs = sympy.Matrix(
            m, n, [sympy.Rational(x.numerator, x.denominator)
                   for row in rows for x in row]
        )
        assert rank(ours) == theirs.rank()
        if m == n:
            assert determinant(ours) == Fraction(str(theirs.det()))
        for matrix, oracle in ((ours, theirs), (ours.transpose(), theirs.T)):
            basis = nullspace(matrix)
            expected = [
                tuple(Fraction(str(x)) for x in v) for v in oracle.nullspace()
            ]
            assert span_equal(basis, expected)
            for v in basis:
                assert next(x for x in v if x != 0) == 1
            # sympy's basis also has one vector per free column of the
            # reduced echelon form, with a 1 there, so the two agree
            # exactly once both lead with 1.
            assert basis == [lead_scaled(v) for v in expected]


def test_mixed_int_and_fraction_rows_match_the_sympy_oracle():
    """All-int rows enter the elimination unscaled and rows holding a
    Fraction are scaled, so the determinant must undo exactly the scaling
    of the second kind."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random("oracle-mixed")
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            n = m
        rows = []
        for _ in range(m):
            if rng.random() < 0.5:
                rows.append([rng.randint(-5, 5) for _ in range(n)])
            else:
                rows.append([
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if rng.random() < 0.7 else rng.randint(-3, 3)
                    for _ in range(n)
                ])
        theirs = sympy.Matrix(
            m, n, [sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                   for row in rows for x in row]
        )
        ours = RationalMatrix.from_rows(rows)
        assert all(
            (type(x) is int) == (Fraction(x).denominator == 1)
            for row in ours.entries for x in row.values()
        )
        # The same values with every integral entry a Fraction: the rows
        # that hold one are scaled, by 1 where all of them are integral.
        as_fractions = RationalMatrix(m, n, tuple(
            {c: Fraction(x) for c, x in enumerate(row) if x} for row in rows
        ))
        for matrix in (ours, as_fractions):
            assert rank(matrix) == theirs.rank()
            if m == n:
                det = determinant(matrix)
                assert type(det) is Fraction
                assert det == Fraction(str(theirs.det()))
            for target, oracle in ((matrix, theirs), (matrix.transpose(), theirs.T)):
                basis = nullspace(target)
                assert all(type(x) is Fraction for v in basis for x in v)
                expected = [
                    lead_scaled(tuple(Fraction(str(x)) for x in v))
                    for v in oracle.nullspace()
                ]
                assert basis == expected


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@pytest.mark.parametrize("density", [0.2, 1.0])
def test_row_shuffles_keep_rank_and_nullspace_and_sign_the_determinant(density):
    """The pivot row is chosen by sparsity, so a row permutation changes
    the elimination path but none of the answers."""
    rng = random.Random(f"shuffle-{density}")
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            n = m
        rows = [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        perm = list(range(m))
        rng.shuffle(perm)
        ours = RationalMatrix.from_rows(rows)
        shuffled = RationalMatrix.from_rows([rows[i] for i in perm])
        assert rank(shuffled) == rank(ours)
        assert nullspace(shuffled) == nullspace(ours)
        if m == n:
            assert determinant(shuffled) == (
                permutation_sign(perm) * determinant(ours)
            )


def test_an_inexact_bareiss_quotient_is_a_self_check_failure():
    assert _exact_quotient(-12, 4) == -3
    assert _exact_quotient(2**72 * 3, -(2**71)) == -6
    for v, d in ((7, 2), (-7, 2), (2**72 + 1, 2**30)):
        with pytest.raises(SelfCheckError) as err:
            _exact_quotient(v, d)
        assert str(err.value) == "Bareiss step left a remainder"


def test_hamiltonian_constraint_bases_are_pinned():
    assert hamiltonian_constraint_space(1) == (
        1, [(Fraction(1), Fraction(-1), Fraction(-2))]
    )
    for n in range(2, 9):
        assert hamiltonian_constraint_space(n) == (0, [])


def eager_bareiss_echelon(m):
    """Reference elimination: the same pivot rule as the package, with
    every remaining row brought to the new pivot value at every step."""
    active = []
    scale = 1
    for row in m.entries:
        nonzero = list(row.items())
        if all(type(x) is int for _, x in nonzero):
            active.append(dict(nonzero))
            continue
        s = lcm(*(x.denominator for _, x in nonzero))
        active.append({c: x.numerator * (s // x.denominator) for c, x in nonzero})
        scale *= s
    sign = 1
    prev = 1
    pivots = []
    for col in range(m.cols):
        best = None
        for pos, row in enumerate(active):
            if col in row and (best is None or len(row) < len(active[best])):
                best = pos
        if best is None:
            continue
        if best % 2:
            sign = -sign
        prow = active.pop(best)
        a = prow[col]
        for r, row in enumerate(active):
            b = row.pop(col, 0)
            if not b and a == prev:
                continue
            for c, v in row.items():
                row[c] = a * v
            if b:
                for c, v in prow.items():
                    row[c] = row.get(c, 0) - b * v
                del row[col]
            if prev != 1:
                for c, v in row.items():
                    q, rem = divmod(v, prev)
                    assert not rem
                    row[c] = q
            if b:
                active[r] = {c: v for c, v in row.items() if v}
        prev = a
        pivots.append((col, prow))
    return pivots, sign, scale


def constraint_matrix(n):
    columns = _constraint_columns(n)
    keys = sorted({key for col in columns for key in col})
    return RationalMatrix(len(keys), len(columns), tuple(
        {p: col[key] for p, col in enumerate(columns) if key in col}
        for key in keys
    ))


def seeded_elimination_matrices():
    rng = random.Random("eager-reference")
    for _ in range(160):
        m, n = rng.randint(1, 40), rng.randint(1, 30)
        if rng.random() < 0.5:
            m, n = max(m, n), min(m, n)  # tall
        else:
            m, n = min(m, n), max(m, n)  # wide
        density = rng.choice([0.1, 0.2, 0.3, 1.0])
        fractions = rng.random() < 0.5
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if rng.random() >= density:
                    row.append(0)
                elif fractions:
                    row.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                else:
                    row.append(rng.randint(-5, 5))
            rows.append(row)
        yield RationalMatrix.from_rows(rows)
    for n in range(1, 7):
        yield constraint_matrix(n)
    for n in range(1, 13):
        d = n + 1
        yield hypothesis_matrix(sphere_polynomial(d), d, standard_sample_points(d))


def test_elimination_matches_the_eager_reference_step_for_step():
    """Pivot columns, echelon rows, sign and scale all agree with the
    reference that rescales every row at every step."""
    for matrix in seeded_elimination_matrices():
        pivots, sign, scale = _bareiss_echelon(matrix)
        ref_pivots, ref_sign, ref_scale = eager_bareiss_echelon(matrix)
        assert [col for col, _ in pivots] == [col for col, _ in ref_pivots]
        assert pivots == ref_pivots
        assert (sign, scale) == (ref_sign, ref_scale)
