"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two criteria fail by design and are left failing on purpose, because the
demanded numbers are not what exact computation yields:

* criterion 3 demands an empty Hamiltonian constraint space for every
  n in {1, 2, 3}, but on the plane (n = 1) the space is a genuine line:
  alpha = (t, -t) with interaction -2t is Hamiltonian for every t, with
  generating function t*x1*x2*(x1^2 + x2^2 - 1).
* criterion 9 demands drift < 1e-6 over T = 10 for every certified
  integral, but the fixture flow is attracted onto the zero sets of two
  of the certified surfaces; their values decay below what double
  precision can evaluate (about 1e-13 for the sphere residual), so the
  stated measurement exits the declared evaluation domain and no start
  point in the required box avoids that.  The halving clause likewise
  cannot show an 8x gain at h = 1e-3 where the measured drifts already
  sit at the rounding floor near 1e-14.

The details live in each failure message.
"""

import functools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from kolmosphere import (
    CubicKolmogorovForm,
    DomainViolationError,
    HyperplaneSpec,
    Hypersurface,
    Poly,
    assemble_cubic,
    build_matrix_B,
    cofactor,
    conservation_report,
    construct_completely_integrable,
    construct_from_form,
    construct_linear_fi_field,
    cubic_form_from_dict,
    decompose_syzygy,
    field_from_dict,
    find_darboux,
    hamiltonian_constraint_space,
    hypothesis_matrix,
    integrate_rk4,
    lie_derivative,
    parse,
    recover_cubic_form,
    sphere_polynomial,
    standard_sample_points,
    syzygy_first_integral,
    verify_first_integral,
)
from kolmosphere.exactla import determinant, rank
from kolmosphere.suites import (
    hyperplane_suite,
    roundtrip_suite,
    slice_negative_suite,
)

from conftest import rand_poly, span_equal

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def conclude(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def fixture_field():
    with open(FIXDIR / "demo3d_field.json") as fh:
        return field_from_dict(json.load(fh))


def test_criterion_01_fixture_field_end_to_end():
    started = time.perf_counter()
    vf = fixture_field()
    form = recover_cubic_form(vf)
    assert form is not None
    assert form.alpha == (Fraction(2), Fraction(0), Fraction(2))
    assert form.atilde == (
        (Fraction(0), Fraction(3), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(-3)),
        (Fraction(0), Fraction(3), Fraction(0)),
    )
    g = Hypersurface(sphere_polynomial(3))
    extra = cofactor(vf, g)
    b = build_matrix_B(form, extra)
    assert (b.rows, b.cols) == (4, 4)
    assert rank(b) == 2
    integrals = find_darboux(form, g)
    got = [i.exponents for i in integrals]
    expected = [
        (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-4), Fraction(0), Fraction(3)),
    ]
    assert span_equal(got, expected)
    for integral in integrals:
        assert verify_first_integral(vf, integral)
    elapsed = time.perf_counter() - started
    conclude(
        1,
        elapsed < 1.0,
        f"recovery, rank 2, expected exponent plane, exact verification "
        f"in {elapsed:.3f}s",
    )


def test_criterion_02_hypothesis_determinants():
    started = time.perf_counter()
    for n in range(1, 7):
        d = n + 1
        m = hypothesis_matrix(sphere_polynomial(d), d, standard_sample_points(d))
        det = determinant(m)
        target = -(6 ** n) * (n + 3)
        assert det == target, f"n={n}: det {det} != {target}"
    elapsed = time.perf_counter() - started
    conclude(2, elapsed < 1.0, f"det = -6^n*(n+3) for n=1..6 in {elapsed:.3f}s")


def test_criterion_03_constraint_space_is_trivial():
    started = time.perf_counter()
    dims = {}
    bases = {}
    for n in (1, 2, 3):
        dims[n], bases[n] = hamiltonian_constraint_space(n)
    elapsed = time.perf_counter() - started
    ok = all(dims[n] == 0 for n in (1, 2, 3)) and elapsed < 10.0
    detail = (
        f"constraint space dimensions {dims} in {elapsed:.1f}s"
        if ok
        else (
            f"dimensions came back {dims}; the demanded 0 for n=1 is "
            f"impossible because the basis vector {bases[1]} "
            "(alpha = (t, -t), interaction -2t) is a genuine Hamiltonian "
            "family with generating function t*x1*x2*(x1^2 + x2^2 - 1); "
            "n=2 and n=3 are 0 as demanded"
        )
    )
    conclude(3, ok, detail)


def test_criterion_04_assembly_round_trip_suite():
    report = roundtrip_suite(seed=424242, instances=200)
    conclude(
        4,
        report.passed and report.instances == 200,
        f"{report.lines[0]}" if report.passed else f"failures: {report.failures[:3]}",
    )


def test_criterion_05_hyperplane_condition_suite():
    report = hyperplane_suite(seed=171717, instances=200)
    conclude(
        5,
        report.passed and report.instances == 200,
        report.lines[0] if report.passed else f"failures: {report.failures[:3]}",
    )


def test_criterion_06_syzygy_suite():
    rng = random.Random(606060)
    reassembly_failures = []
    for idx in range(200):
        dim = rng.randint(2, 4)
        k = rng.randint(1, 3)
        rows = [[Poly.zero(dim) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                rows[i][j] = rand_poly(rng, dim, 2)
                rows[j][i] = -rows[i][j]
        q = []
        for i in range(dim):
            p = Poly.zero(dim)
            for j in range(dim):
                p = p + rows[i][j] * Poly.var(dim, j + 1) ** k
            q.append(p)
        decomposed = decompose_syzygy(tuple(q), k)
        rebuilt = []
        for i in range(dim):
            p = Poly.zero(dim)
            for j in range(dim):
                p = p + decomposed[i][j] * Poly.var(dim, j + 1) ** k
            rebuilt.append(p)
        if tuple(rebuilt) != tuple(q):
            reassembly_failures.append(idx)

    verify_failures = []
    from conftest import rand_skew_constant

    for idx in range(100):
        dim = rng.randint(2, 4)
        alpha = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        form = CubicKolmogorovForm.from_values(alpha, rand_skew_constant(rng, dim))
        vf = assemble_cubic(form)
        for integral in syzygy_first_integral(form):
            if not verify_first_integral(vf, integral):
                verify_failures.append(idx)
    conclude(
        6,
        not reassembly_failures and not verify_failures,
        "200 reassembly identities and all monomial integrals verified"
        if not reassembly_failures and not verify_failures
        else f"reassembly {reassembly_failures[:3]} verify {verify_failures[:3]}",
    )


def construction_instances():
    """Every constructed instance for criteria 7 and 9: the integrable
    family over n <= 4, m <= 6, with its declared integrals."""
    out = []
    for n in range(1, 5):
        for m in range(3, 7):
            d = n + 1
            a = Poly.const(d, 1) if m == 3 else Poly.var(d, 1) ** (m - 3)
            field, cert = construct_completely_integrable(n, m, a)
            out.append((n, m, field, cert))
    return out


def test_criterion_07_constructions_conserve_their_integrals():
    rng = random.Random(707070)
    # integrable family instances, with the independence certificate
    for n, m, field, cert in construction_instances():
        assert len(cert.integrals) == n
        assert cert.jacobian_rank == n
        assert cert.sample_point.coords == (Fraction(1),) * (n + 1)
        for integral in cert.integrals:
            assert lie_derivative(field, integral.surfaces[0].defining).is_zero()
    # affine-function constructions on random specs
    for _ in range(40):
        dim = rng.randint(3, 5)
        a = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if all(x == 0 for x in a):
            a[0] = Fraction(1)
        hp = HyperplaneSpec(Fraction(rng.randint(-2, 2)), tuple(a))
        width = dim - 1
        seed = [[Poly.zero(dim) for _ in range(width)] for _ in range(width)]
        for i in range(width):
            for j in range(i + 1, width):
                seed[i][j] = rand_poly(rng, dim, 1)
                seed[j][i] = -seed[i][j]
        if all(p.is_zero() for row in seed for p in row):
            seed[0][1] = Poly.const(dim, 1)
            seed[1][0] = Poly.const(dim, -1)
        vf, form = construct_linear_fi_field(hp, seed)
        assert vf == construct_from_form(form)
        assert lie_derivative(vf, hp.defining_poly()).is_zero()
    conclude(
        7,
        True,
        "all integrable-family and affine-function constructions conserve "
        "their declared integrals exactly; independence rank n certified",
    )


def test_criterion_08_negative_suites():
    report = slice_negative_suite(seed=808080, instances=100)
    conclude(
        8,
        report.passed,
        report.lines[0] if report.passed else f"failures: {report.failures[:3]}",
    )


def drift_pair(integrate, field, x0, integral):
    """Max relative drift at h = 1e-3 over T = 10, and at h = 5e-4, on the
    trajectories that ``integrate`` (integrate_rk4 or a cache of it) gives."""
    coarse = conservation_report(integrate(field, x0, 1e-3, 10_000), integral)
    fine = conservation_report(integrate(field, x0, 5e-4, 20_000), integral)
    return coarse, fine


def test_criterion_09_numeric_drift_budget():
    violations = []
    # One integration per (field, x0, h), shared by all of its integrals.
    integrate = functools.lru_cache(maxsize=None)(integrate_rk4)

    # integrals certified in criterion 1
    vf = fixture_field()
    form = recover_cubic_form(vf)
    integrals = find_darboux(form, Hypersurface(sphere_polynomial(3)))
    x0 = (0.5, 0.5, 0.5)
    for integral in integrals:
        label = "fixture integral " + "/".join(str(e) for e in integral.exponents)
        try:
            coarse, fine = drift_pair(integrate, vf, x0, integral)
        except DomainViolationError:
            noisy = conservation_report(
                integrate(vf, x0, 1e-3, 10_000), integral, floor=1e-300
            )
            violations.append(
                f"{label}: surfaces decay below the 1e-12 evaluation floor "
                f"before T=10 (measured value with the floor disabled is "
                f"{noisy:.2f}, pure cancellation noise); no start point in "
                f"[0.3,0.9]^3 stays measurable"
            )
            continue
        if coarse >= 1e-6:
            violations.append(f"{label}: drift {coarse:.3e} at h=1e-3")
        if not fine <= coarse / 8.0:
            violations.append(
                f"{label}: halving gave {coarse:.3e} -> {fine:.3e}, not 8x"
            )

    # integrals certified in criterion 7
    for n, m, field, cert in construction_instances():
        d = n + 1
        x0 = tuple(0.3 + 0.6 * i / max(1, d - 1) for i in range(d))
        for integral in cert.integrals:
            label = f"integrable n={n} m={m} {integral.surfaces[0].defining}"
            coarse, fine = drift_pair(integrate, field, x0, integral)
            if coarse >= 1e-6:
                violations.append(f"{label}: drift {coarse:.3e} at h=1e-3")
            if not fine <= coarse / 8.0:
                violations.append(
                    f"{label}: halving gave {coarse:.3e} -> {fine:.3e}, not 8x "
                    "(both already at the double-precision rounding floor)"
                )

    conclude(
        9,
        not violations,
        "all certified integrals inside the drift budget with 4th-order gain"
        if not violations
        else "; ".join(violations),
    )
