"""Oracles for the paper's statements that share no code with the package.

sympy solves each statement as linear algebra over generic coefficients;
the package enters only through the function under test, with ``parse`` and
``str`` to translate between the two.
"""

import itertools

import pytest

from kolmosphere import (
    CubicKolmogorovForm,
    KolmogorovForm,
    assemble_cubic,
    construct_from_form,
    hamiltonian_constraint_space,
    parse,
)

sympy = pytest.importorskip("sympy")


def _monomials(xs, degree, lowest=0):
    """Every monomial in ``xs`` of total degree from ``lowest`` to
    ``degree``."""
    return [
        sympy.Mul(*powers)
        for k in range(lowest, degree + 1)
        for powers in itertools.combinations_with_replacement(xs, k)
    ]


def _generic(xs, degree, name, lowest=0):
    """A polynomial with fresh coefficients over the monomials of degree
    ``lowest`` to ``degree``."""
    basis = _monomials(xs, degree, lowest)
    coeffs = sympy.symbols(f"{name}0:{len(basis)}")
    return sum(c * m for c, m in zip(coeffs, basis)), list(coeffs)


def invariant_field_dimension(d, m):
    """The dimension of the space of fields P_i = x_i Q_i, deg Q_i <= m - 1,
    with X(|x|^2 - 1) = K (|x|^2 - 1) for some K; K is unique once the field
    is given, so the solution space in (Q, K) has that dimension."""
    xs = sympy.symbols(f"x1:{d + 1}")
    qs, unknowns = [], []
    for i in range(d):
        q, coeffs = _generic(xs, m - 1, f"q{i}_")
        qs.append(q)
        unknowns += coeffs
    k, coeffs = _generic(xs, m - 1, "k")
    unknowns += coeffs
    g = sum(x**2 for x in xs) - 1
    residual = sympy.expand(
        sum(x * q * sympy.diff(g, x) for x, q in zip(xs, qs)) - k * g
    )
    equations = sympy.Poly(residual, *xs).coeffs()
    matrix, _ = sympy.linear_eq_to_matrix(equations, unknowns)
    return len(unknowns) - matrix.rank()


def printed_fields(fields, d):
    """Each field's components, read back into sympy from their text."""
    xs = sympy.symbols(f"x1:{d + 1}")
    names = {str(x): x for x in xs}
    return [
        [sympy.sympify(str(p).replace("^", "**"), locals=names)
         for p in vf.components]
        for vf in fields
    ]


def keeps_the_sphere(components):
    """Does |x|^2 - 1 divide its own derivative along the field?"""
    xs = sympy.symbols(f"x1:{len(components) + 1}")
    g = sum(x**2 for x in xs) - 1
    derivative = sum(p * sympy.diff(g, x) for x, p in zip(xs, components))
    return sympy.div(sympy.expand(derivative), g, *xs)[1] == 0


def field_rank(fields):
    """The rank of the fields' coefficient vectors."""
    xs = sympy.symbols(f"x1:{len(fields[0]) + 1}")
    rows = [
        {(i, exps): coeff
         for i, p in enumerate(components)
         for exps, coeff in sympy.Poly(p, *xs).as_dict().items()}
        for components in fields
    ]
    keys = sorted({key for row in rows for key in row})
    return sympy.Matrix([[row.get(key, 0) for key in keys] for row in rows]).rank()


def unit_polynomial_forms(d, m):
    """The form of each unit datum of degree m: one monomial of degree at
    most m - 3 in one ftilde_i or in one atilde_ij (i < j), zeros elsewhere."""
    texts = [
        str(mono).replace("**", "^")
        for mono in _monomials(sympy.symbols(f"x1:{d + 1}"), m - 3)
    ]
    zero = parse("0", d)
    for i, text in itertools.product(range(d), texts):
        ftilde = [parse(text, d) if k == i else zero for k in range(d)]
        yield KolmogorovForm(d, tuple(ftilde), ((zero,) * d,) * d)
    for (i, j), text in itertools.product(
        itertools.combinations(range(d), 2), texts
    ):
        atilde = [[zero] * d for _ in range(d)]
        atilde[i][j], atilde[j][i] = parse(text, d), parse(f"-{text}", d)
        yield KolmogorovForm(d, (zero,) * d, tuple(map(tuple, atilde)))


def unit_cubic_forms(d):
    """The constant form of each unit alpha_i and each unit atilde_ij."""
    for i in range(d):
        yield CubicKolmogorovForm.from_values(
            [int(k == i) for k in range(d)], [[0] * d for _ in range(d)]
        )
    for i, j in itertools.combinations(range(d), 2):
        atilde = [[0] * d for _ in range(d)]
        atilde[i][j], atilde[j][i] = 1, -1
        yield CubicKolmogorovForm.from_values([0] * d, atilde)


@pytest.mark.parametrize(
    "d, m, dimension", [(2, 3, 3), (3, 3, 6), (2, 4, 9)]
)
def test_the_assembly_reaches_every_field_that_keeps_the_sphere(d, m, dimension):
    """The abstract's first statement: every polynomial Kolmogorov field
    of degree m that keeps S^(d-1) invariant assembles from (ftilde, atilde).
    The assembled fields keep the sphere, so equal dimensions make the two
    spaces equal."""
    assert invariant_field_dimension(d, m) == dimension
    assembled = [
        printed_fields(map(construct_from_form, unit_polynomial_forms(d, m)), d)
    ]
    if m == 3:
        assembled.append(printed_fields(map(assemble_cubic, unit_cubic_forms(d)), d))
    for fields in assembled:
        assert all(keeps_the_sphere(components) for components in fields)
        assert field_rank(fields) == dimension


def hamiltonian_invariant_fields(d, homogeneous):
    """A basis of the cubic Kolmogorov fields P_i = x_i Q_i on R^d that
    keep |x|^2 - 1 invariant and are Hamiltonian for the pairs (x1, x2),
    (x3, x4), ...: deg Q_i <= 2, or Q_i quadratic forms when
    ``homogeneous``.  Hamiltonian means the rearranged field
    (P_2, -P_1, P_4, -P_3, ...) has a symmetric Jacobian.  The cofactor K
    is unique once the field is given, so each solution in (Q, K) is one
    field."""
    xs = sympy.symbols(f"x1:{d + 1}")
    components, unknowns = [], []
    for i in range(d):
        q, coeffs = _generic(xs, 2, f"q{i}_", lowest=2 if homogeneous else 0)
        components.append(xs[i] * q)
        unknowns += coeffs
    k, coeffs = _generic(xs, 2, "k")
    unknowns += coeffs
    g = sum(x**2 for x in xs) - 1
    conditions = [
        sum(p * sympy.diff(g, x) for x, p in zip(xs, components)) - k * g
    ]
    rearranged = []
    for i in range(0, d, 2):
        rearranged += [components[i + 1], -components[i]]
    conditions += [
        sympy.diff(rearranged[j], xs[l]) - sympy.diff(rearranged[l], xs[j])
        for j, l in itertools.combinations(range(d), 2)
    ]
    equations = [
        c for e in conditions for c in sympy.Poly(sympy.expand(e), *xs).coeffs()
    ]
    matrix, _ = sympy.linear_eq_to_matrix(equations, unknowns)
    return [
        [sympy.expand(p.xreplace(dict(zip(unknowns, v)))) for p in components]
        for v in matrix.nullspace()
    ]


def parameter_form(n, values):
    """The constant form of the parameters alpha_1..alpha_2n, then atilde_ij
    for i < j in row-major order, as ``hamiltonian_constraint_space``
    orders them."""
    d = 2 * n
    atilde = [[0] * d for _ in range(d)]
    for value, (i, j) in zip(values[d:], itertools.combinations(range(d), 2)):
        atilde[i][j], atilde[j][i] = value, -value
    return CubicKolmogorovForm.from_values(values[:d], atilde)


@pytest.mark.parametrize("n, cubic, homogeneous", [(1, 1, 0), (2, 0, 0)])
def test_the_hamiltonian_fields_that_keep_an_odd_sphere(n, cubic, homogeneous):
    """The abstract's Hamiltonian statement on S^1 and S^3, in both classes:
    no homogeneous cubic Kolmogorov field keeping the sphere is
    Hamiltonian, but on R^2 one inhomogeneous family is.  The constraint
    space, assembled into fields, spans exactly the first class."""
    d = 2 * n
    assert len(hamiltonian_invariant_fields(d, homogeneous=True)) == homogeneous
    fields = hamiltonian_invariant_fields(d, homogeneous=False)
    assert len(fields) == cubic
    dimension, basis = hamiltonian_constraint_space(n)
    assert dimension == len(basis) == cubic
    if cubic:
        assembled = printed_fields(
            [assemble_cubic(parameter_form(n, v)) for v in basis], d
        )
        assert field_rank(fields) == field_rank(assembled) == cubic
        assert field_rank(fields + assembled) == cubic
