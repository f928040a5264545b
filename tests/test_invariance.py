"""Invariant hypersurfaces: cofactors, hyperplane classification, planes
through the origin of homogeneous fields, sphere slices, second spheres,
and the records that carry each verdict's witness."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kolmosphere import (
    BadRadiusError,
    ConeReport,
    CubicKolmogorovForm,
    HamiltonianReport,
    HyperplaneClassification,
    HyperplaneSpec,
    Hypersurface,
    NotHomogeneousError,
    Poly,
    PolyVectorField,
    RationalMatrix,
    SamplePoint,
    SelfCheckError,
    SphereKolmogorovReport,
    StructuredView,
    assemble_cubic,
    classify_homogeneous,
    classify_hyperplane,
    cofactor,
    cone_invariance,
    cubic_form_from_dict,
    field_from_dict,
    is_hamiltonian,
    is_kolmogorov_on_sphere,
    lie_derivative,
    parse,
    pure_square_profile,
    second_sphere_check,
    sphere_polynomial,
)
import kolmosphere
from kolmosphere import invariance
from kolmosphere.field_forms import skew_matrix
from kolmosphere.suites import hyperplane_suite, slice_negative_suite

from conftest import rand_skew_constant

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_demo3d():
    with open(FIXDIR / "demo3d_field.json") as fh:
        return field_from_dict(json.load(fh))


def load_demo3d_form():
    with open(FIXDIR / "demo3d_form.json") as fh:
        return cubic_form_from_dict(json.load(fh))


# ----- cofactor ---------------------------------------------------------------


def test_sphere_cofactor_of_fixture_field_is_structured():
    vf = load_demo3d()
    cof = cofactor(vf, Hypersurface(sphere_polynomial(3)))
    assert cof is not None
    assert str(cof) == "-4*x1^2 - 4*x3^2"
    assert pure_square_profile(cof) == StructuredView(
        k0=Fraction(0), k=(Fraction(-4), Fraction(0), Fraction(-4))
    )


def test_cofactor_of_coordinate_plane():
    vf = load_demo3d()
    cof = cofactor(vf, Hypersurface(Poly.var(3, 2)))
    assert str(cof) == "-3*x1^2 - 3*x3^2"


def test_cofactor_is_none_for_non_invariant_surface():
    vf = load_demo3d()
    assert cofactor(vf, Hypersurface(parse("x1 + x2 + x3", 3))) is None


def test_cofactor_witness_identity_holds():
    vf = load_demo3d()
    h = Hypersurface(sphere_polynomial(3))
    cof = cofactor(vf, h)
    assert lie_derivative(vf, h.defining) == cof * h.defining


def test_unstructured_cofactor_is_still_reported():
    # x1 = 0 is invariant for (x1*x2, x2) with cofactor x2, which has no
    # constant-plus-squares shape.
    vf = PolyVectorField(2, (parse("x1*x2", 2), parse("x2", 2)))
    cof = cofactor(vf, Hypersurface(Poly.var(2, 1)))
    assert str(cof) == "x2"
    assert pure_square_profile(cof) is None


def test_every_cofactor_is_a_polynomial_or_none():
    """``cofactor`` and the cofactor field of each report hold the quotient
    itself; the view k0 + sum k_i x_i^2 is read off where it is needed."""
    vf = load_demo3d()
    assert isinstance(cofactor(vf, Hypersurface(sphere_polynomial(3))), Poly)
    assert cofactor(vf, Hypersurface(parse("x1 + x2 + x3", 3))) is None
    assert isinstance(is_kolmogorov_on_sphere(vf).sphere_cofactor, Poly)
    origin = CubicKolmogorovForm.from_values(
        (3, 3, -1), [[0, 0, 4], [0, 0, 4], [-4, -4, 0]]
    )
    plane = HyperplaneSpec.from_values(0, [2, -1, 0])
    assert isinstance(classify_hyperplane(origin, plane).division_cofactor, Poly)
    assert classify_hyperplane(
        origin, HyperplaneSpec.from_values(0, [1, 1, 1])
    ).division_cofactor is None
    flat = cone_invariance(
        slice_field_with_flat_axis(), HyperplaneSpec.from_values(0, [0, 0, 1]),
        Fraction(1, 2),
    )
    assert isinstance(flat.cofactor, Poly)
    assert isinstance(second_sphere_check(great_sphere_form(), Fraction(2)), Poly)
    assert second_sphere_check(load_demo3d_form(), Fraction(2)) is None
    for record in ("Cofactor", "GreatSphereReport", "SecondSphereReport"):
        assert not hasattr(kolmosphere, record)
        assert not hasattr(invariance, record)


# ----- hyperplane classification ---------------------------------------------


def test_a_hyperplane_writes_its_terms_as_the_sum_of_its_parts():
    """``defining_poly`` builds the terms directly; they are those of the sum
    a0 + a1 x1 + ... + ad xd, in the same order and of the same types."""
    rng = random.Random(2024)
    for _ in range(500):
        d = rng.randint(1, 5)
        values = [0, 0, 1, -2, Fraction(3, 4), Fraction(-5, 2), Fraction(6, 3)]
        a = [rng.choice(values) for _ in range(d)]
        if all(x == 0 for x in a):
            a[rng.randrange(d)] = 1
        hp = HyperplaneSpec.from_values(rng.choice(values), a)
        summed = Poly.sum(
            d,
            [Poly.const(d, hp.a0)]
            + [c * Poly.var(d, i) for i, c in enumerate(hp.a, start=1)],
        )
        written = hp.defining_poly()
        assert [(e, c, type(c)) for e, c in written.terms.items()] == [
            (e, c, type(c)) for e, c in summed.terms.items()
        ]


def test_offset_hyperplane_invariant_only_with_silent_support_rows():
    hp = HyperplaneSpec.from_values(2, [1, 0, -3])
    quiet = CubicKolmogorovForm.from_values(
        (0, 5, 0), [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    verdict = classify_hyperplane(quiet, hp)
    assert verdict.invariant
    assert verdict.case == "nonzero_offset"
    assert verdict.predicted == StructuredView(
        k0=Fraction(0), k=(Fraction(0),) * 3
    )
    assert verdict.division_cofactor.is_zero()


@pytest.mark.parametrize(
    "alpha,atilde",
    [
        # interaction touching a support row
        ((0, 5, 0), [[0, 0, 0], [0, 0, 7], [0, -7, 0]]),
        ((0, 5, 0), [[0, -7, 0], [7, 0, 0], [0, 0, 0]]),
        # diagonal growth on a support coordinate
        ((1, 0, 0), [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ],
)
def test_offset_hyperplane_breaks_when_support_is_touched(alpha, atilde):
    hp = HyperplaneSpec.from_values(2, [1, 0, -3])
    form = CubicKolmogorovForm.from_values(alpha, atilde)
    verdict = classify_hyperplane(form, hp)
    assert not verdict.invariant
    assert verdict.case is None
    assert verdict.predicted is None


def test_origin_hyperplane_golden_classification():
    atilde = [[0, 0, 4], [0, 0, 4], [-4, -4, 0]]
    form = CubicKolmogorovForm.from_values((3, 3, -1), atilde)
    hp = HyperplaneSpec.from_values(0, [2, -1, 0])
    verdict = classify_hyperplane(form, hp)
    assert verdict.invariant
    assert verdict.case == "through_origin"
    assert verdict.predicted == StructuredView(
        k0=Fraction(3), k=(Fraction(-3), Fraction(-3), Fraction(1))
    )
    assert str(verdict.division_cofactor) == "-3*x1^2 - 3*x2^2 + x3^2 + 3"


def test_origin_hyperplane_breaks_under_single_perturbations():
    base = [[0, 0, 4], [0, 0, 4], [-4, -4, 0]]
    hp = HyperplaneSpec.from_values(0, [2, -1, 0])

    coupled = [row[:] for row in base]
    coupled[0][1], coupled[1][0] = 1, -1
    assert not classify_hyperplane(
        CubicKolmogorovForm.from_values((3, 3, -1), coupled), hp
    ).invariant

    unequal_rows = [row[:] for row in base]
    unequal_rows[1][2] = 5
    unequal_rows[2][1] = -5
    assert not classify_hyperplane(
        CubicKolmogorovForm.from_values((3, 3, -1), unequal_rows), hp
    ).invariant

    assert not classify_hyperplane(
        CubicKolmogorovForm.from_values((3, 2, -1), base), hp
    ).invariant


def test_classification_needs_two_active_coefficients():
    from kolmosphere.invariance import PreconditionError

    form = CubicKolmogorovForm.from_values((0, 0), [[0, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        classify_hyperplane(form, HyperplaneSpec.from_values(0, [1, 0]))
    # a0 != 0 with a single linear coefficient is fine
    verdict = classify_hyperplane(form, HyperplaneSpec.from_values(1, [1, 0]))
    assert verdict.invariant


def test_classification_agrees_with_direct_division_on_random_instances():
    report = hyperplane_suite(seed=20240817, instances=60)
    assert report.passed
    assert not report.failures


# ----- planes through the origin of homogeneous fields -------------------------


def great_sphere_form():
    atilde = [[0, 0, 4], [0, 0, 4], [-4, -4, 0]]
    return CubicKolmogorovForm.from_values((0, 0, 0), atilde)


def great_sphere_sides(form, hp):
    """The paper's two conditions on an invariant plane sum a_i x_i = 0 of a
    homogeneous constant-form field, read off its cofactor K:
    sum_ij a_i atilde_ij = (sum_i a_i) K(1, ..., 1) and K(a) = 0.  Returns K
    and the sides (sum_ij a_i atilde_ij, (sum_i a_i) K(1, ..., 1), K(a)), or
    None when the plane is not invariant."""
    cof = cofactor(assemble_cubic(form), Hypersurface(hp.defining_poly()))
    if cof is None:
        return None
    interaction = sum(
        hp.a[i] * form.atilde[i][j]
        for i in range(form.dim) for j in range(form.dim)
    )
    balance = sum(hp.a) * cof.evaluate((1,) * form.dim)
    return cof, interaction, balance, cof.evaluate(hp.a)


def test_great_sphere_conditions_golden_instance():
    cof, interaction, balance, at_a = great_sphere_sides(
        great_sphere_form(), HyperplaneSpec.from_values(0, [2, -1, 0])
    )
    assert str(cof) == "4*x3^2"
    assert (interaction, balance, at_a) == (4, 4, 0)


def test_great_sphere_conditions_hold_on_random_invariant_planes():
    rng = random.Random(97)
    found = 0
    while found < 25:
        dim = rng.randint(2, 4)
        atilde = rand_skew_constant(rng, dim)
        form = CubicKolmogorovForm.from_values((Fraction(0),) * dim, atilde)
        a = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if all(x == 0 for x in a):
            continue
        sides = great_sphere_sides(form, HyperplaneSpec(Fraction(0), tuple(a)))
        if sides is None:
            continue
        _, interaction, balance, at_a = sides
        assert interaction == balance
        assert at_a == 0
        found += 1


# ----- sphere slices and cones --------------------------------------------------


def slice_field_with_flat_axis():
    return PolyVectorField(
        3, (parse("x1*x2^2", 3), parse("-x1^2*x2", 3), Poly.zero(3))
    )


def test_every_horizontal_slice_is_invariant_when_the_axis_is_flat():
    # The third component vanishes identically, so x3 is constant along
    # every orbit and each slice x3 = d of the sphere is preserved.
    vf = slice_field_with_flat_axis()
    for d in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        report = cone_invariance(vf, HyperplaneSpec.from_values(0, [0, 0, 1]), d)
        assert isinstance(report, ConeReport)
        assert report.invariant
        assert report.cofactor.is_zero()


def test_cone_polynomial_shape():
    vf = slice_field_with_flat_axis()
    report = cone_invariance(
        vf, HyperplaneSpec.from_values(0, [0, 0, 1]), Fraction(1, 2)
    )
    assert str(report.cone) == "-1/4*x1^2 - 1/4*x2^2 + 3/4*x3^2"


def test_generic_slices_of_a_mixing_field_are_not_invariant():
    vf = PolyVectorField(
        3,
        (
            parse("x1*x2^2", 3),
            parse("-x1^2*x2 + x2*x3^2", 3),
            parse("-x2^2*x3", 3),
        ),
    )
    assert classify_homogeneous(vf).passes
    for d in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        assert not cone_invariance(
            vf, HyperplaneSpec.from_values(0, [0, 0, 1]), d
        ).invariant
    # the great-circle slice d = 0 of the same field is preserved
    zero_slice = cone_invariance(vf, HyperplaneSpec.from_values(0, [0, 0, 1]), 0)
    assert zero_slice.invariant
    assert str(zero_slice.cofactor) == "-2*x2^2"


def test_cone_invariance_rejects_inhomogeneous_fields():
    vf = assemble_cubic(load_demo3d_form())
    with pytest.raises(NotHomogeneousError):
        cone_invariance(vf, HyperplaneSpec.from_values(0, [0, 0, 1]), Fraction(1, 2))


def test_random_generic_slices_are_never_invariant():
    report = slice_negative_suite(seed=5, instances=30)
    assert report.passed
    assert not report.failures


# ----- second spheres -----------------------------------------------------------


def test_second_sphere_invariant_only_for_homogeneous_fields():
    rotation = CubicKolmogorovForm.from_values(
        (0, 0, 0), [[0, 3, 0], [-3, 0, -3], [0, 3, 0]]
    )
    assert second_sphere_check(rotation, Fraction(2)) == Poly.zero(3)


def test_second_sphere_not_invariant_when_alpha_is_present():
    assert second_sphere_check(load_demo3d_form(), Fraction(2)) is None


def test_second_sphere_radius_validation():
    form = load_demo3d_form()
    for r in (0, 1, -1):
        with pytest.raises(BadRadiusError):
            second_sphere_check(form, Fraction(r))


def test_second_sphere_random_homogeneous_forms_conserve_every_radius():
    rng = random.Random(71)
    for _ in range(25):
        dim = rng.randint(2, 4)
        form = CubicKolmogorovForm.from_values(
            (Fraction(0),) * dim, rand_skew_constant(rng, dim)
        )
        r = Fraction(rng.randint(2, 5), rng.choice([1, 2]))
        if r in (1, -1):
            continue
        assert second_sphere_check(form, r) == Poly.zero(dim)


# ----- exact scalars at the entry points ----------------------------------------


@pytest.mark.parametrize(
    "call",
    [lambda: CubicKolmogorovForm.from_values((0.1, 0), [[0, 0], [0, 0]]),
     lambda: CubicKolmogorovForm.from_values((0, 0), [[0, 0.5], [-0.5, 0]]),
     lambda: HyperplaneSpec.from_values(0.1, [1, 0, 0]),
     lambda: HyperplaneSpec.from_values(0, [1, 0.25, 0]),
     lambda: second_sphere_check(load_demo3d_form(), 0.1),
     lambda: cone_invariance(slice_field_with_flat_axis(),
                             HyperplaneSpec.from_values(0, [0, 0, 1]), 0.1)],
    ids=["alpha", "atilde", "a0", "a", "radius", "slice-offset"],
)
def test_a_float_scalar_is_refused_as_poly_refuses_it(call):
    """0.1 is not read as its binary fraction 3602879701896397/2^55."""
    with pytest.raises(TypeError, match=r"^coefficient 0\.(1|5|25) is a "
                                        r"float, not exact$"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: SamplePoint.of([1, 0.25]),
     lambda: parse("x1 + x2", 2).evaluate((1, 0.25)),
     lambda: RationalMatrix.from_rows([[1, 0.25]])],
    ids=["sample-point", "evaluate", "matrix-row"],
)
def test_every_exact_entry_point_refuses_a_float_as_poly_does(call):
    """A coordinate or a matrix entry enters the exact core through the
    same function as a coefficient, so it meets the same rule."""
    with pytest.raises(TypeError, match=r"^coefficient 0\.25 is a float, "
                                        r"not exact$"):
        call()


def test_integral_scalars_are_stored_as_ints():
    form = CubicKolmogorovForm.from_values(
        (Fraction(4, 2), Fraction(1, 2)), [[0, Fraction(3)], [-3, 0]]
    )
    hp = HyperplaneSpec.from_values(Fraction(6, 3), [Fraction(1, 3), 1])
    assert [type(x) for x in form.alpha + form.atilde[0] + form.atilde[1]] == [
        int, Fraction, int, int, int, int
    ]
    assert [type(x) for x in (hp.a0,) + hp.a] == [int, Fraction, int]
    assert str(hp.defining_poly()) == "1/3*x1 + x2 + 2"


# ----- pinned classifications on seeded forms ------------------------------------


HYPERPLANE_DIGEST = "b6e7a1c08a2be4ed140f9f24f2c402ccd768edfec1a4e4287b16c27a9d8e22fd"


def test_hyperplane_classifications_on_seeded_forms_match_their_pinned_digest():
    """Forms on R^3 with entries in {-1, 0, 1}, mostly 0, against planes
    with and without an offset; the digest covers each verdict's case and
    predicted cofactor view."""
    rng = random.Random(4321)
    values = (0, 0, 0, 1, -1)
    planes = [
        HyperplaneSpec.from_values(0, [1, -1, 0]),
        HyperplaneSpec.from_values(0, [2, 0, -1]),
        HyperplaneSpec.from_values(0, [1, 1, 1]),
        HyperplaneSpec.from_values(1, [1, 0, 0]),
        HyperplaneSpec.from_values(-2, [0, 1, 3]),
    ]
    records = []
    for _ in range(300):
        alpha = [rng.choice(values) for _ in range(3)]
        atilde = skew_matrix(3, lambda i, j: Fraction(rng.choice(values)), Fraction(0))
        form = CubicKolmogorovForm.from_values(alpha, atilde)
        verdict = classify_hyperplane(form, rng.choice(planes))
        view = verdict.predicted
        records.append([
            verdict.invariant,
            verdict.case,
            None if view is None else [str(view.k0)] + [str(c) for c in view.k],
        ])
    assert sum(r[0] for r in records) >= 30
    text = json.dumps(records)
    assert hashlib.sha256(text.encode()).hexdigest() == HYPERPLANE_DIGEST


# ----- self-checks ----------------------------------------------------------------


def _origin_case(alpha):
    form = CubicKolmogorovForm.from_values(
        alpha, [[0, 0, 4], [0, 0, 4], [-4, -4, 0]]
    )
    return form, HyperplaneSpec.from_values(0, [2, -1, 0])


@pytest.mark.parametrize("alpha, view", [
    ((3, 3, -1), lambda form, support, offset: None),
    ((3, 2, -1), lambda form, support, offset: form.coordinate_view(0)),
    ((3, 3, -1), lambda form, support, offset: StructuredView(0, (0, 0, 0))),
], ids=["missed", "invented", "wrong-view"])
def test_conditions_that_disagree_with_division_fail_the_self_check(
    monkeypatch, alpha, view
):
    form, hp = _origin_case(alpha)
    monkeypatch.setattr(invariance, "_shared_view", view)
    with pytest.raises(SelfCheckError, match="direct division finds"):
        classify_hyperplane(form, hp)


@pytest.mark.parametrize("alpha, quotient", [
    ((0, 0, 0), Poly.const(3, 1)),
    ((1, 0, 0), Poly.zero(3)),
], ids=["nonzero-cofactor", "alpha-nonzero"])
def test_an_impossible_second_sphere_fails_the_self_check(
    monkeypatch, alpha, quotient
):
    form = CubicKolmogorovForm.from_values(
        alpha, [[0, 3, 0], [-3, 0, -3], [0, 3, 0]]
    )
    monkeypatch.setattr(invariance, "cofactor", lambda vf, h: quotient)
    with pytest.raises(SelfCheckError, match="second invariant sphere"):
        second_sphere_check(form, Fraction(2))


# ----- each record holds its witness once ------------------------------------------


RECORD_WITNESSES = {
    HamiltonianReport: ("defects",),
    SphereKolmogorovReport: ("kolmogorov", "sphere_cofactor"),
    HyperplaneClassification: ("case", "predicted", "division_cofactor"),
    ConeReport: ("cone", "cofactor"),
}


def test_every_record_stores_witnesses_and_reads_its_verdict_off_them():
    """A record whose flag were stored beside its witness could disagree
    with it; each verdict is a property of the witness instead.  Each is
    checked on a yes and a no case: the fixture field and a field that
    leaves the sphere, a golden plane and one that is not invariant, a
    flat slice and a mixing one, a rotation and a field with a defect."""
    for record, witnesses in RECORD_WITNESSES.items():
        assert tuple(f.name for f in dataclasses.fields(record)) == witnesses

    spheres = [is_kolmogorov_on_sphere(load_demo3d()),
               is_kolmogorov_on_sphere(PolyVectorField(
                   3, tuple(Poly.var(3, i) for i in (1, 2, 3))))]
    assert [r.sphere_invariant for r in spheres] == [True, False]
    assert all(r.sphere_invariant == (r.sphere_cofactor is not None)
               for r in spheres)

    form, hp = _origin_case((3, 3, -1))
    planes = [classify_hyperplane(form, hp),
              classify_hyperplane(form, HyperplaneSpec.from_values(0, [1, 1, 1]))]
    assert [v.invariant for v in planes] == [True, False]
    assert all(v.invariant == (v.predicted is not None) for v in planes)

    slice_plane = HyperplaneSpec.from_values(0, [0, 0, 1])
    mixing = PolyVectorField(3, (parse("x1*x2^2", 3),
                                 parse("-x1^2*x2 + x2*x3^2", 3),
                                 parse("-x2^2*x3", 3)))
    cones = [cone_invariance(slice_field_with_flat_axis(), slice_plane,
                             Fraction(1, 2)),
             cone_invariance(mixing, slice_plane, Fraction(1, 2))]
    assert [c.invariant for c in cones] == [True, False]
    assert all(c.invariant == (c.cofactor is not None) for c in cones)

    fields = [PolyVectorField(2, (parse("x2", 2), parse("-x1", 2))),
              PolyVectorField(2, (parse("x1", 2), parse("2*x2", 2)))]
    reports = [is_hamiltonian(vf) for vf in fields]
    assert [r.is_hamiltonian for r in reports] == [True, False]
    assert all(r.is_hamiltonian == (not r.defects) for r in reports)
