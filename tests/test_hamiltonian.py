"""Hamiltonian structure of planar-paired polynomial fields and the exact
constraint space for constant-form cubic fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolmosphere import (
    CubicKolmogorovForm,
    Poly,
    PolyVectorField,
    assemble_cubic,
    hamiltonian_constraint_space,
    is_hamiltonian,
    lie_derivative,
    parse,
)
from kolmosphere.field_forms import skew_matrix
from kolmosphere.hamiltonian import _constraint_columns, _defects

from conftest import rand_poly, rand_skew_constant


def gradient_system(h: Poly) -> PolyVectorField:
    """Canonical equations pair by pair: odd components take the partial
    with respect to the following coordinate, even ones the negated
    preceding partial."""
    comps = []
    for i in range(1, h.dim + 1, 2):
        comps.append(h.differentiate(i + 1))
        comps.append(-h.differentiate(i))
    return PolyVectorField(h.dim, tuple(comps))


def test_rotation_is_hamiltonian():
    report = is_hamiltonian(PolyVectorField(2, (parse("x2", 2), parse("-x1", 2))))
    assert report.is_hamiltonian
    assert report.defects == ()


def test_anisotropic_radial_field_is_not_hamiltonian():
    report = is_hamiltonian(PolyVectorField(2, (parse("x1", 2), parse("2*x2", 2))))
    assert not report.is_hamiltonian
    ((pair, defect),) = report.defects
    assert pair == (1, 2)
    assert str(defect) == "3"


def test_gradient_systems_are_always_hamiltonian():
    rng = random.Random(61)
    for _ in range(80):
        dim = rng.choice([2, 4])
        h = rand_poly(rng, dim, 3)
        assert is_hamiltonian(gradient_system(h)).is_hamiltonian


def test_conservation_of_the_generating_function():
    h = parse("x1^3*x2 + x1*x2^2 - 2*x1*x2", 2)
    vf = gradient_system(h)
    assert lie_derivative(vf, h).is_zero()


def test_odd_dimension_is_rejected():
    with pytest.raises(ValueError, match=r"coordinates, field on R\^3"):
        is_hamiltonian(PolyVectorField(3, (Poly.zero(3),) * 3))


def test_defects_locate_the_offending_pair():
    # symmetric in the first pair, broken across the (1, 3) pair
    vf = PolyVectorField(
        4,
        (
            parse("x2", 4),
            parse("-x1", 4),
            parse("x4 + x1^2", 4),
            parse("-x3", 4),
        ),
    )
    report = is_hamiltonian(vf)
    assert not report.is_hamiltonian
    pairs = [pair for pair, _ in report.defects]
    assert (1, 4) in pairs


def test_constraint_space_is_trivial_for_two_and_three_pairs():
    for n in (2, 3):
        dimension, basis = hamiltonian_constraint_space(n)
        assert dimension == 0
        assert basis == []


def test_single_pair_admits_a_one_parameter_family():
    """On the plane the balance alpha = (t, -t) with interaction -2t is
    Hamiltonian for every t; the solver must find exactly that line."""
    dimension, basis = hamiltonian_constraint_space(1)
    assert dimension == 1
    assert basis == [(Fraction(1), Fraction(-1), Fraction(-2))]

    member = CubicKolmogorovForm.from_values((1, -1), [[0, -2], [2, 0]])
    vf = assemble_cubic(member)
    assert is_hamiltonian(vf).is_hamiltonian
    # x1*x2*(x1^2 + x2^2 - 1) generates it
    h = parse("x1^3*x2 + x1*x2^3 - x1*x2", 2)
    assert vf.components[0] == -h.differentiate(2)
    assert vf.components[1] == h.differentiate(1)


def test_off_family_constant_forms_are_never_hamiltonian():
    rng = random.Random(83)
    checked = 0
    while checked < 60:
        n = rng.choice([1, 2])
        d = 2 * n
        alpha = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        atilde = rand_skew_constant(rng, d)
        if n == 1 and alpha[0] == -alpha[1] and atilde[0][1] == -2 * alpha[0]:
            continue  # that is the known family
        form = CubicKolmogorovForm.from_values(alpha, atilde)
        vf = assemble_cubic(form)
        if all(p.is_zero() for p in vf.components):
            continue
        assert not is_hamiltonian(vf).is_hamiltonian
        checked += 1


def unit_parameter_defect_entries(n):
    """Nonzero (pair slot, monomial, parameter) coefficients, built by
    assembling the full field of every unit parameter and taking all of
    its Jacobian defects."""
    d = 2 * n
    count = d * (d + 1) // 2  # d alphas, then d(d-1)/2 atilde entries
    entries = {}
    for p in range(count):
        values = [Fraction(int(q == p)) for q in range(count)]
        above = iter(values[d:])
        atilde = skew_matrix(d, lambda i, j: next(above), Fraction(0))
        vf = assemble_cubic(CubicKolmogorovForm.from_values(values[:d], atilde))
        g = []
        for i in range(0, d, 2):
            g += [vf.components[i + 1], -vf.components[i]]
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
        for slot, (j, k) in enumerate(pairs):
            defect = g[j].differentiate(k + 1) - g[k].differentiate(j + 1)
            for exps, coeff in defect:
                entries[(slot, exps, p)] = coeff
    return entries


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_constraint_columns_match_the_assembled_unit_fields(n):
    direct = {
        (slot, exps, p): coeff
        for p, column in enumerate(_constraint_columns(n))
        for (slot, exps), coeff in column.items()
    }
    assert direct == unit_parameter_defect_entries(n)


def test_defects_match_their_definition_on_random_fields():
    """Values and term order of every defect agree with the full
    difference g[j].differentiate(k + 1) - g[k].differentiate(j + 1),
    zeros dropped, on fields with zero components and unused variables."""
    rng = random.Random(97)
    for _ in range(90):
        d = rng.choice([2, 4, 6])
        components = [
            Poly.zero(d) if rng.random() < 0.3
            else rand_poly(rng, d, 3, terms=rng.randint(1, 6))
            for _ in range(d)
        ]
        g = []
        for i in range(0, d, 2):
            g += [components[i + 1], -components[i]]
        expected = {}
        for j in range(d):
            for k in range(j + 1, d):
                defect = g[j].differentiate(k + 1) - g[k].differentiate(j + 1)
                if defect:
                    expected[j, k] = defect
        ours = _defects(components)
        assert list(ours) == list(expected)
        for pair, defect in expected.items():
            assert list(ours[pair].terms.items()) == list(defect.terms.items())


def test_constraint_space_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        hamiltonian_constraint_space(0)


# ----- every n, by restriction to pairs of pairs -------------------------------
#
# A Kolmogorov field keeps every coordinate subspace invariant.  On the span
# of some pairs (x_{2p-1}, x_{2p}), every other coordinate zero, a
# Hamiltonian field restricts to the Hamiltonian field of H restricted, since
# its partials are taken along the subspace.  Each parameter of a constant
# form lies in the sub-form of some two pairs, and on R^4 the constraint
# space is {0}; so for every n >= 2 only the zero form is Hamiltonian.


def restrict(p: Poly, coords) -> Poly:
    """``p`` on the span of the (0-based, increasing) ``coords``, every
    other coordinate zero, in the variables of that span."""
    others = [i for i in range(p.dim) if i not in coords]
    return Poly(len(coords), {
        tuple(exps[i] for i in coords): coeff
        for exps, coeff in p if not any(exps[i] for i in others)
    })


def restrict_field(vf: PolyVectorField, pairs) -> PolyVectorField:
    coords = [i for p in pairs for i in (2 * p, 2 * p + 1)]
    return PolyVectorField(
        len(coords), tuple(restrict(vf.components[i], coords) for i in coords))


def sub_form(form: CubicKolmogorovForm, pairs) -> CubicKolmogorovForm:
    coords = [i for p in pairs for i in (2 * p, 2 * p + 1)]
    return CubicKolmogorovForm.from_values(
        [form.alpha[i] for i in coords],
        [[form.atilde[i][j] for j in coords] for i in coords])


def pair_subsets(n):
    """Every single pair and every pair of pairs of R^(2n)."""
    return [(p,) for p in range(n)] + [
        (p, q) for p in range(n) for q in range(p + 1, n)]


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def cubic_forms(draw, sizes=(2, 3, 4, 5)):
    """A constant form on R^(2n), often sparse, so that zero parameters and
    zero components occur."""
    d = 2 * draw(st.sampled_from(sizes))
    entry = st.one_of(st.just(Fraction(0)), SMALL)
    alpha = [draw(entry) for _ in range(d)]
    above = iter([draw(entry) for _ in range(d * (d - 1) // 2)])
    return CubicKolmogorovForm.from_values(
        alpha, skew_matrix(d, lambda i, j: next(above), Fraction(0)))


@given(cubic_forms())
@settings(max_examples=20, deadline=None)
def test_restricting_an_assembled_field_assembles_the_sub_form(form):
    vf = assemble_cubic(form)
    for pairs in pair_subsets(form.dim // 2):
        assert restrict_field(vf, pairs) == assemble_cubic(sub_form(form, pairs))


@given(cubic_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_every_restriction_of_a_hamiltonian_field_is_hamiltonian(form, seed):
    """Gradient systems are Hamiltonian, and so is each of their
    restrictions.  A constant form with a nonzero parameter is not
    Hamiltonian on some pair of pairs, and so not on R^(2n) either."""
    gradient = gradient_system(rand_poly(random.Random(seed), form.dim, 4, terms=6))
    assembled = assemble_cubic(form)
    subsets = pair_subsets(form.dim // 2)
    assert is_hamiltonian(gradient).is_hamiltonian
    for vf in (gradient, assembled):
        if is_hamiltonian(vf).is_hamiltonian:
            assert all(is_hamiltonian(restrict_field(vf, pairs)).is_hamiltonian
                       for pairs in subsets)
    nonzero = any(form.alpha) or any(map(any, form.atilde))
    on_r4 = [is_hamiltonian(restrict_field(assembled, pairs)).is_hamiltonian
             for pairs in subsets if len(pairs) == 2]
    assert all(on_r4) is not nonzero
    assert is_hamiltonian(assembled).is_hamiltonian is not nonzero


@pytest.mark.parametrize("pair", [0, 1])
@pytest.mark.parametrize("t", [Fraction(1), Fraction(-3, 2)])
def test_the_planar_family_embedded_in_r4_is_not_hamiltonian(pair, t):
    """On its own plane the n = 1 family is Hamiltonian, but in R^4 its
    U_i = x_i(1 - |x|^2) reads the other pair."""
    coords = (2 * pair, 2 * pair + 1)
    alpha = [Fraction(0)] * 4
    alpha[coords[0]], alpha[coords[1]] = t, -t
    atilde = [[Fraction(0)] * 4 for _ in range(4)]
    atilde[coords[0]][coords[1]], atilde[coords[1]][coords[0]] = -2 * t, 2 * t
    vf = assemble_cubic(CubicKolmogorovForm.from_values(alpha, atilde))
    assert not is_hamiltonian(vf).is_hamiltonian
    planar = restrict_field(vf, (pair,))
    assert planar == assemble_cubic(CubicKolmogorovForm.from_values(
        (t, -t), [[0, -2 * t], [2 * t, 0]]))
    assert is_hamiltonian(planar).is_hamiltonian
    assert is_hamiltonian(restrict_field(vf, (1 - pair,))).is_hamiltonian
