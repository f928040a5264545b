"""Exponent-matrix first integrals, syzygy decompositions, and the two
constructive families."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kolmosphere import (
    CubicKolmogorovForm,
    DarbouxIntegral,
    DegreeMismatchError,
    DimensionMismatchError,
    HyperplaneSpec,
    Hypersurface,
    HypothesisFailedError,
    NotASyzygyError,
    Poly,
    PolyVectorField,
    SamplePoint,
    SelfCheckError,
    ZeroSeedError,
    assemble_cubic,
    build_matrix_B,
    complete_integrability_check,
    construct_completely_integrable,
    construct_from_form,
    construct_linear_fi_field,
    cofactor,
    cubic_form_from_dict,
    decompose_syzygy,
    find_darboux,
    hypothesis_matrix,
    lie_derivative,
    parse,
    sphere_polynomial,
    standard_sample_points,
    syzygy_first_integral,
    verify_first_integral,
)
from kolmosphere import darboux
from kolmosphere.exactla import determinant, rank
from kolmosphere.field_forms import skew_matrix

from conftest import dense_rows, rand_poly, span_equal

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_form():
    with open(FIXDIR / "demo3d_form.json") as fh:
        return cubic_form_from_dict(json.load(fh))


def generic_form():
    return CubicKolmogorovForm.from_values(
        (1, 2, 5), [[0, 1, 2], [-1, 0, 4], [-2, -4, 0]]
    )


def sphere_surface(dim):
    return Hypersurface(sphere_polynomial(dim))


# ----- exponent matrix and integrals -------------------------------------------


def test_matrix_rows_for_fixture_form():
    form = fixture_form()
    vf = assemble_cubic(form)
    extra = cofactor(vf, sphere_surface(3))
    b = build_matrix_B(form, extra)
    assert b.rows == 4 and b.cols == 4
    assert dense_rows(b) == [
        (Fraction(2), Fraction(-2), Fraction(1), Fraction(-2)),
        (Fraction(0), Fraction(-3), Fraction(0), Fraction(-3)),
        (Fraction(2), Fraction(-2), Fraction(1), Fraction(-2)),
        (Fraction(0), Fraction(-4), Fraction(0), Fraction(-4)),
    ]
    assert rank(b) == 2


def test_coordinate_cofactors_of_fixture_form():
    form = fixture_form()
    cofactors = [form.coordinate_view(i).poly() for i in range(3)]
    assert [str(q) for q in cofactors] == [
        "-2*x1^2 + x2^2 - 2*x3^2 + 2",
        "-3*x1^2 - 3*x3^2",
        "-2*x1^2 + x2^2 - 2*x3^2 + 2",
    ]


def test_coordinate_cofactor_matches_division():
    form = fixture_form()
    vf = assemble_cubic(form)
    cofactors = [form.coordinate_view(i).poly() for i in range(3)]
    for i in (1, 2, 3):
        direct = cofactor(vf, Hypersurface(Poly.var(3, i)))
        assert cofactors[i - 1] == direct


def test_find_darboux_returns_the_expected_exponent_plane():
    integrals = find_darboux(fixture_form(), sphere_surface(3))
    assert len(integrals) == 2
    got = [i.exponents for i in integrals]
    expected = [
        (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-4), Fraction(0), Fraction(3)),
    ]
    assert span_equal(got, expected)
    vf = assemble_cubic(fixture_form())
    for integral in integrals:
        assert verify_first_integral(vf, integral)


def test_find_darboux_is_empty_for_a_full_rank_form(monkeypatch):
    form = generic_form()
    vf = assemble_cubic(form)
    b = build_matrix_B(form, cofactor(vf, sphere_surface(3)))
    assert rank(b) == 4
    # With no exponent vector to certify, no coordinate is divided out.
    monkeypatch.setattr(darboux, "coordinate_quotients", None)
    assert find_darboux(form, sphere_surface(3)) == []


@pytest.mark.parametrize("g_text", ["x1", "2*x1*x2", "x1^2"])
def test_find_darboux_refuses_a_one_term_g_before_any_division(
    monkeypatch, g_text
):
    """A monomial c x^beta has the cofactor sum beta_i K_i, so (beta, -1)
    would always come back, with the constant 1/c as its integral."""
    form = fixture_form()
    g = Hypersurface(parse(g_text, 3))
    monkeypatch.setattr(darboux, "assemble_cubic", None)
    monkeypatch.setattr(darboux, "cofactor", None)
    with pytest.raises(ValueError) as exc:
        find_darboux(form, g)
    assert str(exc.value) == (
        f"g = {g_text} is a single term, so its only integral with the "
        "coordinate hyperplanes is a constant"
    )


def test_verify_first_integral_raises_on_non_invariant_surface():
    from kolmosphere import NotInvariantError

    vf = assemble_cubic(fixture_form())
    bogus = DarbouxIntegral(
        (Fraction(1),), (Hypersurface(parse("x1 + x2", 3)),)
    )
    with pytest.raises(NotInvariantError):
        verify_first_integral(vf, bogus)


def test_integral_shape_validation():
    s = (Hypersurface(Poly.var(2, 1)),)
    with pytest.raises(ValueError):
        DarbouxIntegral((Fraction(0),), s)
    with pytest.raises(ValueError):
        DarbouxIntegral((Fraction(1), Fraction(1)), s)


# ----- the exponent space in closed form -----------------------------------------
# The hyperplanes x_i and the sphere g have the cofactors
# K_i = alpha_i + sum_j (atilde_ij - alpha_i) x_j^2 and K_g = -2 sum_j alpha_j x_j^2,
# so sum_i b_i K_i + c K_g = 0 exactly when sum_i b_i alpha_i = 0 and
# atilde b + 2 c alpha = 0: (b, c) is in the kernel of the skew matrix
# S = [[atilde, 2 alpha], [-2 alpha^T, 0]].  Nothing here goes through exactla.


def local_rank(rows):
    """The rank of rational ``rows``, by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for row in rows[found + 1:]:
            ratio = row[col] / top[col]
            row[:] = [a - ratio * t for a, t in zip(row, top)]
        found += 1
    return found


def exponent_matrix(form):
    """S = [[atilde, 2 alpha], [-2 alpha^T, 0]], of order d + 1."""
    rows = [[*row, 2 * a] for row, a in zip(form.atilde, form.alpha)]
    return rows + [[-2 * a for a in form.alpha] + [0]]


def closed_form_cases(seed, count):
    """Forms on R^2..R^6 with small entries, zeros frequent; every other one
    is planted: for a skew atilde, b and c != 0, alpha = -atilde b / (2c)
    puts (b, c) in the exponent space.  Each comes with its planted vector
    or None."""
    rng = random.Random(seed)
    values = [Fraction(v) for v in (-2, -1, 0, 0, 0, 1, 2)] + [Fraction(1, 2)]
    for k in range(count):
        d = rng.randint(2, 6)
        atilde = skew_matrix(d, lambda i, j: rng.choice(values), Fraction(0))
        if k % 2:
            alpha = [rng.choice(values) for _ in range(d)]
            yield CubicKolmogorovForm.from_values(alpha, atilde), None
            continue
        b = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        c = Fraction(rng.choice([-2, -1, 1, 3]))
        alpha = [-sum(a * bj for a, bj in zip(row, b)) / (2 * c) for row in atilde]
        yield CubicKolmogorovForm.from_values(alpha, atilde), (*b, c)


def test_the_exponent_space_is_the_kernel_of_a_skew_matrix():
    """The basis ``find_darboux`` gives over the sphere is independent, lies
    in the kernel of S and has the nullity of S as its size, so it spans the
    kernel.  A skew matrix has even rank, so the size is d + 1 mod 2: every
    form on R^2, R^4, R^6 has an integral.  On R^3 one exists exactly when
    the Pfaffian alpha1 atilde23 - alpha2 atilde13 + alpha3 atilde12 of S
    is zero."""
    seen = Counter()
    cases = [(fixture_form(), None), *closed_form_cases(15, 160)]
    for form, planted in cases:
        d = form.dim
        s = exponent_matrix(form)
        basis = [i.exponents for i in find_darboux(form, sphere_surface(d))]
        assert local_rank(basis) == len(basis) == d + 1 - local_rank(s), form
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in s), (form, v)
        assert len(basis) % 2 == (d + 1) % 2
        if planted is not None:
            assert local_rank(basis + [planted]) == len(basis), (form, planted)
        if d == 3:
            (a1, a2, a3), m = form.alpha, form.atilde
            pfaffian = a1 * m[1][2] - a2 * m[0][2] + a3 * m[0][1]
            assert (pfaffian == 0) == bool(basis), form
            seen[f"d=3 with {len(basis)}"] += 1
        seen[f"size {min(len(basis), 3)}"] += 1
    # Odd d with and without integrals, and bases of more than one vector.
    assert min(seen[key] for key in (
        "d=3 with 0", "d=3 with 2", "size 0", "size 1", "size 2", "size 3",
    )) >= 3, seen


# ----- monomial integrals from the stacked kernel -------------------------------


def test_syzygy_first_integral_on_fixture_form():
    integrals = syzygy_first_integral(fixture_form())
    assert len(integrals) == 1
    assert integrals[0].exponents == (Fraction(1), Fraction(0), Fraction(-1))
    assert [str(s.defining) for s in integrals[0].surfaces] == ["x1", "x2", "x3"]


def test_syzygy_first_integral_embeds_into_the_full_basis():
    monomial = syzygy_first_integral(fixture_form())[0]
    full = find_darboux(fixture_form(), sphere_surface(3))
    padded = tuple(monomial.exponents) + (Fraction(0),)
    joint = [i.exponents for i in full] + [padded]
    assert span_equal([i.exponents for i in full], joint)


def test_syzygy_first_integral_outputs_always_verify():
    rng = random.Random(99)
    from conftest import rand_skew_constant

    for _ in range(60):
        dim = rng.randint(2, 4)
        alpha = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        form = CubicKolmogorovForm.from_values(alpha, rand_skew_constant(rng, dim))
        vf = assemble_cubic(form)
        for integral in syzygy_first_integral(form):
            assert verify_first_integral(vf, integral)


# ----- syzygy decomposition ------------------------------------------------------


def rand_skew_poly_matrix(rng, dim, max_degree):
    return skew_matrix(
        dim, lambda i, j: rand_poly(rng, dim, max_degree), Poly.zero(dim)
    )


def syzygy_from_matrix(rows, k):
    dim = len(rows)
    q = []
    for i in range(dim):
        p = Poly.zero(dim)
        for j in range(dim):
            p = p + rows[i][j] * Poly.var(dim, j + 1) ** k
        q.append(p)
    return tuple(q)


def test_decompose_syzygy_recovers_a_constant_matrix():
    at = [
        [Fraction(0), Fraction(2), Fraction(-1)],
        [Fraction(-2), Fraction(0), Fraction(3)],
        [Fraction(1), Fraction(-3), Fraction(0)],
    ]
    rows = [[Poly.const(3, v) for v in row] for row in at]
    decomposed = decompose_syzygy(syzygy_from_matrix(rows, 2), 2)
    assert [[str(p) for p in row] for row in decomposed] == [
        ["0", "2", "-1"],
        ["-2", "0", "3"],
        ["1", "-3", "0"],
    ]


def test_decompose_syzygy_moves_each_monomial_to_its_first_later_column():
    """2*x2^2*x3^2 in q1 could pair with x2^2 or with x3^2; it goes to
    column 2, so atilde_13 = x2^2 - x1 comes back as -x1, and its x2^2
    part returns as x3^2 in atilde_12 and x1^2 in atilde_23."""
    at = [
        ["0", "x3^2 + 1", "x2^2 - x1"],
        ["-x3^2 - 1", "0", "x1*x2"],
        ["-x2^2 + x1", "-x1*x2", "0"],
    ]
    rows = [[parse(text, 3) for text in row] for row in at]
    decomposed = decompose_syzygy(syzygy_from_matrix(rows, 2), 2)
    assert [[str(p) for p in row] for row in decomposed] == [
        ["0", "2*x3^2 + 1", "-x1"],
        ["-2*x3^2 - 1", "0", "x1^2 + x1*x2"],
        ["x1", "-x1^2 - x1*x2", "0"],
    ]


def test_decompose_syzygy_reassembly_is_the_identity():
    rng = random.Random(2024)
    for _ in range(200):
        dim = rng.randint(2, 4)
        k = rng.randint(1, 3)
        rows = rand_skew_poly_matrix(rng, dim, 2)
        q = syzygy_from_matrix(rows, k)
        decomposed = decompose_syzygy(q, k)
        assert syzygy_from_matrix(decomposed, k) == q
        for i in range(dim):
            assert decomposed[i][i].is_zero()
            for j in range(dim):
                assert decomposed[i][j] == -decomposed[j][i]


def test_decompose_syzygy_rejects_non_syzygies():
    with pytest.raises(NotASyzygyError):
        decompose_syzygy((parse("x2^2", 2), parse("x1^2", 2)), 2)
    with pytest.raises(ValueError):
        decompose_syzygy((parse("x1", 1),), 0)


def test_decompose_zero_syzygy_gives_zero_matrix():
    q = (Poly.zero(2), Poly.zero(2))
    decomposed = decompose_syzygy(q, 3)
    assert all(p.is_zero() for row in decomposed for p in row)


# ----- field with a conserved affine function ------------------------------------


def rotation_seed(dim_field):
    z = Poly.zero(dim_field)
    one = Poly.const(dim_field, 1)
    return [[z, one], [-one, z]]


def test_linear_fi_construction_golden_instance():
    hp = HyperplaneSpec.from_values(5, [1, 2, 3])
    vf, form = construct_linear_fi_field(hp, rotation_seed(3))
    assert [str(p) for p in form.ftilde] == ["0", "0", "0"]
    assert [[str(p) for p in row] for row in form.atilde] == [
        ["0", "3*x3", "-2*x2"],
        ["-3*x3", "0", "x1"],
        ["2*x2", "-x1", "0"],
    ]
    assert vf == construct_from_form(form)
    assert lie_derivative(vf, hp.defining_poly()).is_zero()


def test_linear_fi_conserves_the_plane_on_random_specs():
    rng = random.Random(12)
    for _ in range(60):
        dim = rng.randint(2, 4)
        a = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if all(x == 0 for x in a):
            a[rng.randrange(dim)] = Fraction(1)
        hp = HyperplaneSpec(Fraction(rng.randint(-2, 2)), tuple(a))
        n = dim - 1
        seed = [[Poly.zero(dim) for _ in range(n)] for _ in range(n)]
        filled = False
        for i in range(n):
            for j in range(i + 1, n):
                p = rand_poly(rng, dim, 1)
                seed[i][j] = p
                seed[j][i] = -p
                filled = filled or not p.is_zero()
        if not filled:
            seed[0][-1] = Poly.const(dim, 1)
            seed[-1][0] = Poly.const(dim, -1)
        if n == 1:
            continue  # a 1 x 1 skew seed is identically zero
        vf, form = construct_linear_fi_field(hp, seed)
        assert vf == construct_from_form(form)
        assert lie_derivative(vf, hp.defining_poly()).is_zero()
        assert all(p.is_zero() for p in form.ftilde)


def test_linear_fi_seed_validation():
    hp = HyperplaneSpec.from_values(5, [1, 2, 3])
    z = Poly.zero(3)
    with pytest.raises(ZeroSeedError):
        construct_linear_fi_field(hp, [[z, z], [z, z]])
    with pytest.raises(ValueError):
        construct_linear_fi_field(hp, [[z, Poly.const(3, 1)], [Poly.const(3, 1), z]])
    with pytest.raises(ValueError):
        construct_linear_fi_field(hp, [[z]])


# ----- completely integrable family ----------------------------------------------


def test_completely_integrable_family_golden_instance():
    field, cert = construct_completely_integrable(2, 4, Poly.var(3, 1))
    assert [str(c) for c in field.components] == [
        "x1^2*x2^2",
        "-x1^3*x2",
        "0",
    ]
    assert cert.jacobian_rank == 2
    assert cert.sample_point.coords == (Fraction(1),) * 3
    names = [str(i.surfaces[0].defining) for i in cert.integrals]
    assert names == ["x1^2 + x2^2 + x3^2 - 1", "x3"]


def test_completely_integrable_family_certifies_for_all_small_sizes():
    for n in range(1, 5):
        for m in range(3, 7):
            d = n + 1
            a = Poly.const(d, 1) if m == 3 else Poly.var(d, 1) ** (m - 3)
            field, cert = construct_completely_integrable(n, m, a)
            assert max(p.degree() for p in field.components if not p.is_zero()) == m
            assert len(cert.integrals) == n
            assert cert.jacobian_rank == n
            for integral in cert.integrals:
                assert lie_derivative(field, integral.surfaces[0].defining).is_zero()


def test_the_jacobian_check_evaluates_only_the_nonzero_partials(monkeypatch):
    """The sphere has d nonzero partials and each x_j one, so 2d - 2 of the
    d^2 partials are evaluated; the rest are written as 0."""
    calls = Counter()
    evaluate = Poly.evaluate

    def counted(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    monkeypatch.setattr(Poly, "evaluate", counted)
    n = 30
    _, cert = construct_completely_integrable(n, 3, Poly.const(n + 1, 1))
    assert cert.jacobian_rank == n
    assert calls["evaluate"] == 2 * (n + 1) - 2


# ``list(p.terms)`` of every component of the family for seeded multi-term
# interaction polynomials: the float evaluation order that the RK4 pins and
# the drift reports read, as ``test_assembly_term_order_is_pinned`` pins it
# for the two assemblies.
COMPLETE_FAMILY_TERM_ORDER_DIGEST = (
    "994e2aa031787aa0c25f8af9e21e58b53e4a6547c0bacd09555f216807beba86"
)


def test_completely_integrable_family_term_order_is_pinned():
    rng = random.Random(20261019)
    lines = []
    for _ in range(100):
        d = rng.randint(2, 4)
        a = rand_poly(rng, d, 3, terms=5)
        while len(a) < 2:
            a = rand_poly(rng, d, 3, terms=5)
        field, _ = construct_completely_integrable(d - 1, a.degree() + 3, a)
        lines += [repr(list(p.terms)) for p in field.components]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        COMPLETE_FAMILY_TERM_ORDER_DIGEST
    )


def test_completely_integrable_family_input_validation():
    with pytest.raises(ValueError):
        construct_completely_integrable(0, 3, Poly.const(1, 1))
    with pytest.raises(ValueError):
        construct_completely_integrable(1, 2, Poly.const(2, 1))
    with pytest.raises(DegreeMismatchError):
        construct_completely_integrable(1, 4, Poly.const(2, 1))
    with pytest.raises(DegreeMismatchError):
        construct_completely_integrable(1, 3, Poly.zero(2))


# ----- rank test for complete integrability --------------------------------------


def test_sample_points_have_nonzero_coordinates():
    pts = standard_sample_points(4)
    assert len(pts) == 4
    assert pts[1].coords == (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        SamplePoint.of([1, 0, 1])


def test_sample_points_store_integral_coordinates_as_ints():
    """Poly.evaluate then uses the coordinates as they are; the matrix
    entries are ints exactly when integral, and the determinants stay
    Fractions."""
    pt = SamplePoint.of([1, Fraction(4, 2), Fraction(1, 2), Fraction(1, 4)])
    assert [type(c) for c in pt.coords] == [int, int, Fraction, Fraction]
    assert pt.coords == (1, 2, Fraction(1, 2), Fraction(1, 4))
    m = hypothesis_matrix(sphere_polynomial(3), 3, standard_sample_points(3))
    assert all(type(x) is int for row in m.entries for x in row.values())
    g = sphere_polynomial(3) * Fraction(1, 2)
    m = hypothesis_matrix(g, 3, standard_sample_points(3))
    types = {type(x) for row in m.entries for x in row.values()}
    assert types == {int, Fraction}
    assert all(
        (type(x) is int) == (Fraction(x).denominator == 1)
        for row in m.entries for x in row.values()
    )
    cert = complete_integrability_check(fixture_form(), sphere_surface(3))
    assert all(type(v) is Fraction for v in cert.hypothesis_determinants)


@pytest.mark.parametrize("n", range(1, 7))
def test_hypothesis_determinant_formula(n):
    d = n + 1
    m = hypothesis_matrix(sphere_polynomial(d), d, standard_sample_points(d))
    assert determinant(m) == -(6 ** n) * (n + 3)


def test_hypothesis_matrix_input_validation():
    g = sphere_polynomial(3)
    with pytest.raises(ValueError):
        hypothesis_matrix(g, 0, standard_sample_points(3))
    with pytest.raises(ValueError):
        hypothesis_matrix(g, 1, standard_sample_points(3)[:2])


@pytest.mark.parametrize(
    "coords, named",
    [([(2, 1, 5), (1, 2, 7)], "(2, 1, 5) has 3 coordinates"),
     ([(2,), (1,)], "(2) has 1 coordinates")],
    ids=["three-for-two", "one-for-two"],
)
def test_hypothesis_matrix_refuses_points_of_another_dimension(coords, named):
    """Not a matrix with the third coordinate dropped, nor a bare
    IndexError: the error names the first point that does not fit."""
    points = [SamplePoint.of(c) for c in coords]
    with pytest.raises(DimensionMismatchError) as exc:
        hypothesis_matrix(sphere_polynomial(2), 1, points)
    assert str(exc.value) == f"sample point {named}, expected 2"


def test_complete_integrability_verdict_on_fixture_form():
    cert = complete_integrability_check(fixture_form(), sphere_surface(3))
    assert cert.rank_b == 2
    assert cert.completely_integrable
    assert cert.hypothesis_determinants == (
        Fraction(-180), Fraction(180), Fraction(-180)
    )
    assert len(cert.integrals) == 2
    got = [i.exponents for i in cert.integrals]
    assert span_equal(
        got,
        [
            (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-4), Fraction(0), Fraction(3)),
        ],
    )
    payload = cert.to_dict()
    assert payload["rank_B"] == 2
    assert payload["hypothesis"]["checked"] is True


def test_complete_integrability_negative_verdict():
    cert = complete_integrability_check(generic_form(), sphere_surface(3))
    assert cert.rank_b == 4
    assert not cert.completely_integrable
    assert cert.integrals == ()


def test_complete_integrability_rejects_a_singular_hypothesis_matrix():
    # Every point's row is (2, 2, 2, -2) for g = x1*x2*x3.
    g = Hypersurface(parse("x1*x2*x3", 3))
    with pytest.raises(HypothesisFailedError) as exc:
        complete_integrability_check(fixture_form(), g)
    assert exc.value.index == 1
    assert str(exc.value) == (
        "hypothesis matrix for omitted coordinate 1 has rank 1, need 3"
    )


@pytest.mark.parametrize(
    "g_text, message",
    [
        ("x1^2 + x2^2 + x3^2 - 6",
         "g = x1^2 + x2^2 + x3^2 - 6 vanishes at the sample point "
         "(2, 1, 1) for omitted coordinate 1"),
        ("x1^2 - 2*x1*x2 + 5",
         "dg/dx1 = 2*x1 - 2*x2 vanishes at the sample point (1, 1, 2) "
         "for omitted coordinate 1"),
    ],
    ids=["g", "dg"],
)
def test_complete_integrability_names_the_point_where_a_polynomial_vanishes(
    g_text, message
):
    g = Hypersurface(parse(g_text, 3))
    with pytest.raises(HypothesisFailedError) as exc:
        complete_integrability_check(fixture_form(), g)
    assert exc.value.index == 1
    assert str(exc.value) == message


@st.composite
def polys_and_points(draw):
    """A polynomial with int and Fraction coefficients on R^1..R^4, and up
    to four points of nonzero coordinates, some of them Fractions (an
    integral one included, as a caller may pass it)."""
    dim = draw(st.integers(min_value=1, max_value=4))
    coeff = st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * dim),
        coeff, max_size=6,
    ))
    coord = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    ).filter(lambda c: c != 0)
    points = draw(st.lists(
        st.tuples(*[coord] * dim).map(SamplePoint), max_size=4
    ))
    return Poly(dim, terms), points


@given(polys_and_points())
@settings(max_examples=150, deadline=None)
def test_the_one_pass_table_matches_its_definition(case):
    g, points = case
    table = darboux._hypothesis_table(g, points)
    expected = [
        [c * g.differentiate(l).evaluate(pt.coords)
         for l, c in enumerate(pt.coords, 1)]
        + [-g.evaluate(pt.coords)]
        for pt in points
    ]
    assert table == expected
    assert all(type(x) in (int, Fraction) for row in table for x in row)


@pytest.mark.parametrize("d", range(3, 7))
def test_the_hypothesis_check_reads_one_table(monkeypatch, d):
    """The table is read off g's terms in one pass, so a passing check
    neither differentiates nor evaluates g; the rank test's own work is not
    counted."""
    calls = Counter()
    for name in ("differentiate", "evaluate"):
        real = getattr(Poly, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Poly, name, counted)
    real_find = darboux.find_darboux

    def uncounted_find(*args):
        before = Counter(calls)
        basis = real_find(*args)
        calls.clear()
        calls.update(before)
        return basis

    monkeypatch.setattr(darboux, "find_darboux", uncounted_find)
    form = CubicKolmogorovForm.from_values([1] * d, [[0] * d] * d)
    complete_integrability_check(form, sphere_surface(d))
    assert calls == Counter()


# ----- pinned outputs on seeded forms ---------------------------------------------


DARBOUX_DIGEST = "33d1d39d83c9be4702b66a55d2febefa2a27371f7dc4b738a1106b2a005b1e44"


def seeded_forms(seed, count):
    """Small constant forms on R^2..R^4 with entries in {-1, 0, 1/2, 1}; every
    third one has equal alpha and zero atilde, so B has rank at most two."""
    rng = random.Random(seed)
    values = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
    forms = []
    for k in range(count):
        dim = rng.randint(2, 4)
        if k % 3 == 2:
            c = rng.choice(values[2:])
            forms.append(CubicKolmogorovForm.from_values([c] * dim, [[0] * dim] * dim))
            continue
        alpha = [rng.choice(values) for _ in range(dim)]
        atilde = skew_matrix(dim, lambda i, j: rng.choice(values), Fraction(0))
        forms.append(CubicKolmogorovForm.from_values(alpha, atilde))
    return forms


def _outcome(call):
    try:
        return call()
    except ValueError as err:
        return [type(err).__name__, str(err)]


def test_darboux_outputs_on_seeded_forms_match_their_pinned_digest():
    records = []
    for form in seeded_forms(1234, 45):
        d = form.dim
        surfaces = [sphere_surface(d), Hypersurface(parse("x1 - x2", d))]
        records.append([i.to_dict() for i in syzygy_first_integral(form)])
        for g in surfaces:
            records.append(_outcome(
                lambda: [i.to_dict() for i in find_darboux(form, g)]
            ))
            records.append(_outcome(
                lambda: complete_integrability_check(form, g).to_dict()
            ))
    text = json.dumps(records, sort_keys=True)
    assert '"exponents"' in text and "NotInvariantError" in text
    assert hashlib.sha256(text.encode()).hexdigest() == DARBOUX_DIGEST


def test_hypothesis_determinants_are_those_of_the_hypothesis_matrices():
    for form in seeded_forms(1234, 45):
        d = form.dim
        g = sphere_surface(d)
        cert = complete_integrability_check(form, g)
        points = standard_sample_points(d)
        assert cert.hypothesis_determinants == tuple(
            determinant(hypothesis_matrix(g.defining, i, points))
            for i in range(1, d + 1)
        )


# ----- self-checks ----------------------------------------------------------------
# Each self-checked fact, fed a wrong input, raises ``SelfCheckError``.


def _plus_first(real, extra):
    """``real`` with ``extra(d)`` added to the first component of the field
    it returns."""
    def wrong(*args):
        vf = real(*args)
        first = vf.components[0] + extra(vf.dim)
        return PolyVectorField(vf.dim, (first,) + vf.components[1:])
    return wrong


def test_a_wrong_coordinate_cofactor_fails_the_cofactor_sum(monkeypatch):
    real = darboux.coordinate_quotients
    monkeypatch.setattr(
        darboux, "coordinate_quotients",
        lambda vf: tuple(q + i for i, q in enumerate(real(vf))),
    )
    for call in (lambda: find_darboux(fixture_form(), sphere_surface(3)),
                 lambda: syzygy_first_integral(fixture_form())):
        with pytest.raises(SelfCheckError, match="fails the cofactor-sum check"):
            call()


def test_a_field_that_moves_the_plane_fails_its_certificate(monkeypatch):
    monkeypatch.setattr(darboux, "construct_from_form", _plus_first(
        construct_from_form, lambda d: Poly.var(d, 1)
    ))
    hp = HyperplaneSpec.from_values(5, [1, 2, 3])
    with pytest.raises(SelfCheckError, match="is not invariant for the field"):
        construct_linear_fi_field(hp, rotation_seed(3))


def test_a_field_that_moves_the_sphere_fails_its_certificate(monkeypatch):
    # The sphere stays invariant, with cofactor 2 x1^2 instead of 0.
    monkeypatch.setattr(darboux, "construct_from_form", _plus_first(
        construct_from_form, lambda d: Poly.var(d, 1) * sphere_polynomial(d)
    ))
    with pytest.raises(SelfCheckError, match="fails the cofactor-sum check"):
        construct_completely_integrable(2, 4, Poly.var(3, 1))


@pytest.mark.parametrize("what, call", [
    ("the gradients of the integrals",
     lambda: construct_completely_integrable(2, 4, Poly.var(3, 1))),
    ("the emitted exponent vectors",
     lambda: complete_integrability_check(fixture_form(), sphere_surface(3))),
])
def test_a_rank_below_n_is_a_failed_self_check(monkeypatch, what, call):
    monkeypatch.setattr(darboux, "rank", lambda m: m.rows - 1)
    with pytest.raises(SelfCheckError, match=f"{what} have rank 1, expected 2"):
        call()
