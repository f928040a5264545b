"""Assembly of sphere-preserving coordinate-factored fields, membership
tests, and recovery of constant-coefficient cubic data."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from kolmosphere import (
    CubicKolmogorovForm,
    Hypersurface,
    KolmogorovForm,
    NotSkewError,
    Poly,
    PolyVectorField,
    assemble_cubic,
    classify_homogeneous,
    cofactor,
    construct_completely_integrable,
    construct_from_form,
    cubic_form_from_dict,
    cubic_form_to_dict,
    field_from_dict,
    field_to_dict,
    is_kolmogorov_on_sphere,
    lie_derivative,
    parse,
    recover_cubic_form,
    seed_from_dict,
    sphere_polynomial,
)
from kolmosphere import field_forms
from kolmosphere.field_forms import StructuredView, pure_square_profile, skew_matrix
from kolmosphere.polyring import NEG_INF

from conftest import rand_poly, rand_skew_constant


from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "demo3d_field.json"
FORM_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "demo3d_form.json"


def rand_form(rng, dim, max_degree):
    ftilde = tuple(rand_poly(rng, dim, max_degree) for _ in range(dim))
    atilde = skew_matrix(
        dim, lambda i, j: rand_poly(rng, dim, max_degree), Poly.zero(dim)
    )
    return KolmogorovForm(dim, ftilde, atilde)


def test_sphere_polynomial_text():
    assert str(sphere_polynomial(2)) == "x1^2 + x2^2 - 1"
    assert str(sphere_polynomial(3)) == "x1^2 + x2^2 + x3^2 - 1"


def test_lie_derivative_known_value():
    vf = PolyVectorField(2, (parse("-x2", 2), parse("x1", 2)))
    assert lie_derivative(vf, sphere_polynomial(2)).is_zero()
    assert str(lie_derivative(vf, parse("x1", 2))) == "-x2"


def test_lie_derivative_is_a_derivation():
    rng = random.Random(2)
    for _ in range(80):
        dim = rng.randint(2, 3)
        vf = PolyVectorField(
            dim, tuple(rand_poly(rng, dim, 2) for _ in range(dim))
        )
        f = rand_poly(rng, dim, 3)
        g = rand_poly(rng, dim, 3)
        assert lie_derivative(vf, f * g) == (
            lie_derivative(vf, f) * g + f * lie_derivative(vf, g)
        )
        assert lie_derivative(vf, f + g) == (
            lie_derivative(vf, f) + lie_derivative(vf, g)
        )


def test_construct_from_form_passes_membership_with_predicted_cofactor():
    rng = random.Random(17)
    for _ in range(60):
        dim = rng.randint(2, 4)
        form = rand_form(rng, dim, 2)
        vf = construct_from_form(form)
        report = is_kolmogorov_on_sphere(vf)
        assert report.passes
        predicted = Poly.zero(dim)
        for i in range(dim):
            predicted = predicted - 2 * form.ftilde[i] * Poly.var(dim, i + 1) ** 2
        assert report.sphere_cofactor == predicted


def test_constructed_components_factor_through_their_coordinate():
    rng = random.Random(29)
    from kolmosphere.polyring import divide_exact

    for _ in range(40):
        dim = rng.randint(2, 4)
        vf = construct_from_form(rand_form(rng, dim, 2))
        for i in range(1, dim + 1):
            assert divide_exact(vf.components[i - 1], Poly.var(dim, i)) is not None


def test_construction_golden_value():
    ftilde = (parse("x2", 3), parse("x1^2", 3), Poly.const(3, Fraction(1, 2)))
    atilde = [[Poly.zero(3)] * 3 for _ in range(3)]
    atilde[0][1] = parse("x3", 3)
    atilde[1][0] = parse("-x3", 3)
    form = KolmogorovForm(3, ftilde, tuple(tuple(r) for r in atilde))
    vf = construct_from_form(form)
    assert [str(c) for c in vf.components] == [
        "-x1^3*x2 - x1*x2^3 + x1*x2^2*x3 - x1*x2*x3^2 + x1*x2",
        "-x1^4*x2 - x1^2*x2^3 - x1^2*x2*x3^2 - x1^2*x2*x3 + x1^2*x2",
        "-1/2*x1^2*x3 - 1/2*x2^2*x3 - 1/2*x3^3 + 1/2*x3",
    ]
    report = is_kolmogorov_on_sphere(vf)
    assert str(report.sphere_cofactor) == "-2*x1^2*x2^2 - 2*x1^2*x2 - x3^2"


def test_non_skew_interaction_matrix_is_rejected():
    bad = [[Poly.zero(2), parse("x1", 2)], [parse("x1", 2), Poly.zero(2)]]
    with pytest.raises(NotSkewError):
        KolmogorovForm(2, (Poly.zero(2), Poly.zero(2)), tuple(tuple(r) for r in bad))
    with pytest.raises(NotSkewError):
        CubicKolmogorovForm.from_values((0, 0), [[0, 1], [1, 0]])


def test_rotation_field_is_sphere_invariant_but_not_coordinate_factored():
    vf = PolyVectorField(3, (parse("x2", 3), parse("-x1", 3), Poly.zero(3)))
    report = is_kolmogorov_on_sphere(vf)
    assert not report.kolmogorov
    assert report.sphere_invariant
    assert report.sphere_cofactor.is_zero()
    assert not report.passes


def test_outward_radial_field_does_not_preserve_the_sphere():
    vf = PolyVectorField(2, (parse("x1", 2), parse("x2", 2)))
    report = is_kolmogorov_on_sphere(vf)
    assert report.kolmogorov
    assert not report.sphere_invariant
    assert report.sphere_cofactor is None


def test_cubic_assembly_matches_field_fixture():
    with open(FORM_FIXTURE) as fh:
        form = cubic_form_from_dict(json.load(fh))
    with open(FIXTURE) as fh:
        vf = field_from_dict(json.load(fh))
    assert assemble_cubic(form).components == vf.components


def test_an_assembly_builds_only_the_unit_field_rows_its_data_touch():
    """The field (A x1 x2^2, -A x1^2 x2, 0, ..., 0) on R^41 touches rows 1
    and 2 alone; the other 39 rows are zero and build no unit field."""
    field_forms._unit_fields.cache_clear()
    field, _ = construct_completely_integrable(40, 3, Poly.const(41, 1))
    assert field_forms._unit_fields.cache_info().currsize == 2
    assert all(p.is_zero() for p in field.components[2:])


def rand_cubic_form(rng):
    """Small entries, so that alpha_i = 0 and atilde_ij = alpha_i (a zero
    in the coordinate view) both occur."""
    dim = rng.randint(1, 5)

    def entry(*_):
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    alpha = [entry() for _ in range(dim)]
    return CubicKolmogorovForm.from_values(
        alpha, skew_matrix(dim, entry, Fraction(0))
    )


@pytest.mark.parametrize("seed", range(6))
def test_cubic_assembly_matches_the_polynomial_form_term_for_term(seed):
    rng = random.Random(seed)
    for _ in range(30):
        form = rand_cubic_form(rng)
        d = form.dim
        general = construct_from_form(
            KolmogorovForm(
                d,
                tuple(Poly.const(d, a) for a in form.alpha),
                tuple(
                    tuple(Poly.const(d, x) for x in row) for row in form.atilde
                ),
            )
        )
        cubic = assemble_cubic(form)
        for p, q in zip(cubic.components, general.components):
            assert p == q
            assert list(p.terms) == list(q.terms)


@pytest.mark.parametrize("seed", range(6))
def test_coordinate_views_read_back_and_equal_the_division_cofactors(seed):
    rng = random.Random(seed)
    for _ in range(30):
        form = rand_cubic_form(rng)
        d = form.dim
        vf = assemble_cubic(form)
        for i in range(d):
            view = form.coordinate_view(i)
            assert pure_square_profile(view.poly()) == view
            division = cofactor(vf, Hypersurface(Poly.var(d, i + 1)))
            assert view.poly() == division


def test_view_polynomial_has_the_constant_first_and_no_zero_terms():
    view = StructuredView(Fraction(7), (Fraction(3), Fraction(0), Fraction(-1)))
    assert list(view.poly().terms) == [(0, 0, 0), (2, 0, 0), (0, 0, 2)]
    assert list(sphere_polynomial(2).terms) == [(0, 0), (2, 0), (0, 2)]
    assert StructuredView(Fraction(0), (Fraction(0),) * 2).poly().is_zero()


def test_pure_square_profile_reads_constant_and_square_coefficients():
    zero = (Fraction(0),) * 3
    assert pure_square_profile(Poly.zero(3)) == StructuredView(Fraction(0), zero)
    assert pure_square_profile(parse("-5/2", 3)) == StructuredView(
        Fraction(-5, 2), zero
    )
    assert pure_square_profile(parse("3*x1^2 - x3^2 + 7", 3)) == StructuredView(
        Fraction(7), (Fraction(3), Fraction(0), Fraction(-1))
    )
    assert pure_square_profile(parse("x1^2 + x1*x2", 3)) is None
    assert pure_square_profile(parse("x2^4 + 1", 3)) is None
    assert pure_square_profile(parse("x3", 3)) is None


def test_recover_cubic_form_round_trips_random_constant_forms():
    rng = random.Random(41)
    for _ in range(120):
        dim = rng.randint(2, 4)
        alpha = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        atilde = rand_skew_constant(rng, dim)
        form = CubicKolmogorovForm.from_values(alpha, atilde)
        recovered = recover_cubic_form(assemble_cubic(form))
        assert recovered is not None
        assert recovered.alpha == form.alpha
        assert recovered.atilde == form.atilde


def test_recover_cubic_form_golden_value():
    with open(FIXTURE) as fh:
        vf = field_from_dict(json.load(fh))
    form = recover_cubic_form(vf)
    assert form is not None
    assert form.alpha == (Fraction(2), Fraction(0), Fraction(2))
    assert form.atilde == (
        (Fraction(0), Fraction(3), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(-3)),
        (Fraction(0), Fraction(3), Fraction(0)),
    )


def test_recover_cubic_form_rejects_non_cubic_fields():
    vf = PolyVectorField(2, (parse("x2", 2), parse("-x1", 2)))
    assert recover_cubic_form(vf) is None
    quintic = construct_from_form(
        KolmogorovForm(
            2,
            (parse("x1^2", 2), Poly.zero(2)),
            ((Poly.zero(2), Poly.zero(2)), (Poly.zero(2), Poly.zero(2))),
        )
    )
    assert recover_cubic_form(quintic) is None


def test_classify_homogeneous_accepts_tangent_equal_degree_fields():
    vf = PolyVectorField(
        3, (parse("x1*x2^2", 3), parse("-x1^2*x2", 3), Poly.zero(3))
    )
    report = classify_homogeneous(vf)
    assert report.passes
    assert report.degree == 3
    assert classify_homogeneous(PolyVectorField(2, (Poly.zero(2),) * 2)).degree is NEG_INF


def test_classify_homogeneous_rejections():
    mixed = PolyVectorField(2, (parse("x1*x2^2", 2), parse("-x1^2", 2)))
    report = classify_homogeneous(mixed)
    assert not report.passes
    assert not report.homogeneous or not report.tangent

    not_tangent = PolyVectorField(2, (parse("x1*x2^2", 2), parse("x1^2*x2", 2)))
    assert not classify_homogeneous(not_tangent).tangent

    not_factored = PolyVectorField(2, (parse("x2^3", 2), parse("-x1^3", 2)))
    assert not classify_homogeneous(not_factored).kolmogorov


def test_field_json_round_trip():
    rng = random.Random(53)
    for _ in range(40):
        dim = rng.randint(1, 4)
        vf = PolyVectorField(
            dim, tuple(rand_poly(rng, dim, 3) for _ in range(dim))
        )
        text = json.dumps(field_to_dict(vf))
        assert field_from_dict(json.loads(text)).components == vf.components
    data = field_to_dict(vf)
    assert set(data) == {"dim", "components"}


def test_cubic_form_dict_round_trip_preserves_rationals():
    form = CubicKolmogorovForm.from_values(
        (Fraction(1, 3), Fraction(-2)), [[0, Fraction(5, 7)], [Fraction(-5, 7), 0]]
    )
    data = cubic_form_to_dict(form)
    assert data["alpha"] == ["1/3", "-2"]
    back = cubic_form_from_dict(data)
    assert back.alpha == form.alpha
    assert back.atilde == form.atilde


def test_form_entries_read_ascii_rational_text_and_json_numbers():
    form = cubic_form_from_dict({
        "dim": 3, "alpha": ["1/2", "-3", "0.5"],
        "atilde": [[0, 2, "-1/4"], [-2, 0, 0.25], ["1/4", "-0.25", "0"]],
    })
    assert form.alpha == (Fraction(1, 2), Fraction(-3), Fraction(1, 2))
    assert form.atilde[1] == (Fraction(-2), Fraction(0), Fraction(1, 4))
    assert form.atilde[2] == (Fraction(1, 4), Fraction(-1, 4), Fraction(0))


def test_skew_matrix_asks_for_the_upper_triangle_in_row_major_order():
    calls = []

    def entry(i, j):
        calls.append((i, j))
        return Fraction(len(calls))

    m = skew_matrix(3, entry, Fraction(0))
    assert calls == [(0, 1), (0, 2), (1, 2)]
    assert m == ((0, 1, 2), (-1, 0, 3), (-2, -3, 0))


def test_seed_from_dict_parses_polynomial_rows_in_the_given_dimension():
    seed = seed_from_dict({"entries": [["0", "x3"], ["-x3", "0"]]}, 3)
    assert seed == [
        [Poly.zero(3), Poly.var(3, 3)], [-Poly.var(3, 3), Poly.zero(3)]
    ]
    with pytest.raises(ValueError, match="entries row 2 must be an array"):
        seed_from_dict({"entries": [["0"], "0"]}, 3)
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is null"):
        seed_from_dict({"entries": [["0", None]]}, 3)
    with pytest.raises(KeyError):
        seed_from_dict({"rows": []}, 3)


# The assembled components' term insertion order is the order in which
# ``numeric_validate`` evaluates them in floats; these digests pin
# ``list(p.terms)`` of every component for seeded polynomial and constant
# forms, as ``test_term_insertion_order_is_pinned`` does for the ring.
ASSEMBLY_TERM_ORDER_DIGESTS = {
    "construct_from_form":
        "15083ada4b5cfc37c85dcb3dbf50d00be96524c019684ad156f9d59aba34c317",
    "assemble_cubic":
        "fb06e4e2fa170852022c075b93b94f5b4b32852e8c731a49e83ddceaf0d23534",
}


def _assembly_term_orders(rng):
    fields = {"construct_from_form": [], "assemble_cubic": []}
    for _ in range(100):
        form = rand_form(rng, rng.randint(1, 4), rng.randint(0, 2))
        fields["construct_from_form"].append(construct_from_form(form))
        fields["assemble_cubic"].append(assemble_cubic(rand_cubic_form(rng)))
    return fields


@pytest.mark.parametrize("name", sorted(ASSEMBLY_TERM_ORDER_DIGESTS))
def test_assembly_term_order_is_pinned(name):
    fields = _assembly_term_orders(random.Random(20261019))[name]
    text = "\n".join(
        repr(list(p.terms)) for vf in fields for p in vf.components
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        ASSEMBLY_TERM_ORDER_DIGESTS[name]
    )
