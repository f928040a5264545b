"""Fixed-step RK4 trajectories and log-space conservation measurement.

The drift measurements double as a record of what double precision can
and cannot certify: surfaces whose values decay below roughly 1e-13
cannot be evaluated accurately near their zero set, so trajectories
attracted onto a certified surface leave the measurable domain.  The
floor raises DomainViolationError there instead of reporting noise.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kolmosphere import (
    DEFAULT_DOMAIN_FLOOR,
    DarbouxIntegral,
    DomainViolationError,
    Hypersurface,
    NonFiniteError,
    Poly,
    PolyVectorField,
    Trajectory,
    compile_polys,
    conservation_report,
    construct_completely_integrable,
    field_from_dict,
    find_darboux,
    integrate_rk4,
    max_abs_drift,
    parse,
    recover_cubic_form,
    sphere_polynomial,
    trajectory_to_csv,
)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_field():
    with open(FIXDIR / "demo3d_field.json") as fh:
        return field_from_dict(json.load(fh))


def fixture_integrals():
    form = recover_cubic_form(fixture_field())
    return find_darboux(form, Hypersurface(sphere_polynomial(3)))


def test_compile_polys_matches_exact_evaluation():
    rng = random.Random(3)
    p = parse("1/2*x1^2*x2 - 3*x2^3 + x1 - 7", 2)
    fn = compile_polys(2, [p, Poly.zero(2), -p])
    for _ in range(50):
        pt = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        exact = float(
            p.evaluate((Fraction(pt[0]).limit_denominator(10**6),
                        Fraction(pt[1]).limit_denominator(10**6)))
        )
        value, zero, negated = fn(pt)
        assert math.isclose(value, exact, rel_tol=1e-9, abs_tol=1e-9)
        assert zero == 0.0 and negated == -value
    assert compile_polys(2, [])((1.0, 2.0)) == ()


def test_zero_field_gives_a_constant_trajectory():
    vf = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(vf, (0.3, -1.5), 0.01, 100)
    assert traj.states.shape == (101, 2)
    assert np.all(traj.states == traj.states[0])
    assert traj.times[0] == 0.0
    assert math.isclose(traj.times[-1], 1.0)


def test_rotation_stays_on_the_unit_circle():
    vf = PolyVectorField(2, (parse("-x2", 2), parse("x1", 2)))
    traj = integrate_rk4(vf, (1.0, 0.0), 1e-3, 1000)
    radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-10


def test_flat_axis_field_keeps_the_sphere_residual_tiny():
    vf = PolyVectorField(
        3, (parse("x1*x2^2", 3), parse("-x1^2*x2", 3), Poly.zero(3))
    )
    traj = integrate_rk4(vf, (0.6, 0.8, 0.0), 1e-3, 1000)
    residual = np.abs(np.sum(traj.states**2, axis=1) - 1.0)
    assert np.max(residual) < 1e-9


def test_integrator_input_validation():
    vf = PolyVectorField(1, (Poly.var(1, 1),))
    with pytest.raises(ValueError):
        integrate_rk4(vf, (1.0,), -0.1, 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="need a finite h > 0"):
            integrate_rk4(vf, (0.5,), bad, 3)
    with pytest.raises(ValueError):
        integrate_rk4(vf, (1.0,), 0.1, 0)
    with pytest.raises(ValueError):
        integrate_rk4(vf, (1.0, 2.0), 0.1, 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            integrate_rk4(vf, (bad,), 0.1, 10)


def test_blowup_is_reported_with_the_step_index():
    vf = PolyVectorField(1, (parse("x1^2 + 1", 1),))
    with pytest.raises(NonFiniteError) as exc:
        integrate_rk4(vf, (0.0,), 0.05, 100)
    assert 0 <= exc.value.step_index <= 100


@pytest.mark.parametrize(
    "surface", ["x1^200", "10^300*x1^10"], ids=["power-overflows", "product-is-inf"]
)
def test_overflowing_surface_value_fails_instead_of_a_nan_drift(surface):
    vf = PolyVectorField(1, (Poly.var(1, 1),))
    traj = integrate_rk4(vf, (100.0,), 0.01, 10)
    integral = DarbouxIntegral((Fraction(1),), (Hypersurface(parse(surface, 1)),))
    with pytest.raises(NonFiniteError) as exc:
        conservation_report(traj, integral)
    assert str(exc.value) == "surface value became non-finite at step 0"


def test_max_abs_drift_is_the_largest_change_of_the_watched_value():
    vf = PolyVectorField(2, (parse("-x2", 2), parse("x1", 2)))
    traj = integrate_rk4(vf, (1.0, 0.0), 1e-2, 200)
    x1 = traj.states[:, 0]
    assert max_abs_drift(traj, parse("x1", 2), "x1") == np.max(np.abs(x1 - x1[0]))
    assert max_abs_drift(traj, parse("x1^2 + x2^2", 2), "r2") < 1e-10
    # Every value is finite, but its change from 1e308 overflows.
    with pytest.raises(NonFiniteError) as exc:
        max_abs_drift(traj, parse("10^308*x1 - 10^308*x2", 2), "watched v")
    assert str(exc.value).startswith("watched v became non-finite at step ")
    assert exc.value.step_index > 0


def test_constant_trajectory_has_zero_drift():
    vf = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(vf, (0.5, 0.5), 0.01, 50)
    integral = DarbouxIntegral(
        (Fraction(1), Fraction(2)),
        (Hypersurface(Poly.var(2, 1)), Hypersurface(Poly.var(2, 2))),
    )
    assert conservation_report(traj, integral) == 0.0


def test_symmetric_monomial_integral_has_zero_drift_from_the_box_point():
    vf = fixture_field()
    monomial, _ = fixture_integrals()
    traj = integrate_rk4(vf, (0.5, 0.5, 0.5), 1e-3, 10000)
    assert conservation_report(traj, monomial) < 1e-6


def test_attracted_surfaces_exit_the_measurable_domain():
    """The flow squeezes both x2 and the sphere residual toward zero, so
    the rational-exponent integral leaves the evaluation domain before
    T = 10 and the report says so rather than returning noise."""
    vf = fixture_field()
    _, rational = fixture_integrals()
    traj = integrate_rk4(vf, (0.5, 0.5, 0.5), 1e-3, 10000)
    with pytest.raises(DomainViolationError):
        conservation_report(traj, rational)
    # With the floor effectively disabled the number that comes back is
    # dominated by cancellation noise in evaluating the surfaces, orders
    # of magnitude above the integrator's own error.
    noise = conservation_report(traj, rational, floor=1e-300)
    assert noise > 1.0


def test_wrong_exponents_are_detected():
    vf = fixture_field()
    monomial, _ = fixture_integrals()
    wrong = DarbouxIntegral(
        (Fraction(1), Fraction(0), Fraction(-2), Fraction(0)),
        monomial.surfaces,
    )
    traj = integrate_rk4(vf, (0.5, 0.5, 0.5), 1e-3, 10000)
    assert conservation_report(traj, wrong) > 1e-2


def test_short_horizon_drift_is_within_budget_for_both_integrals():
    """Before the attractor takes over (T = 1 keeps every surface value
    above the floor) both certified integrals conserve to RK4 accuracy."""
    vf = fixture_field()
    traj = integrate_rk4(vf, (0.5, 0.5, 0.5), 1e-3, 1000)
    for integral in fixture_integrals():
        assert conservation_report(traj, integral) < 1e-6


def test_halving_the_step_shows_fourth_order_convergence():
    """Measured where truncation still dominates rounding: large enough h
    on a field whose trajectory stays away from every surface zero."""
    field, cert = construct_completely_integrable(2, 3, Poly.const(3, 1))
    x0 = (0.5, 0.6, 0.7)
    sphere_integral = cert.integrals[0]
    coarse = conservation_report(
        integrate_rk4(field, x0, 0.02, 500), sphere_integral
    )
    fine = conservation_report(
        integrate_rk4(field, x0, 0.01, 1000), sphere_integral
    )
    assert coarse > 0 and fine > 0
    assert coarse / fine >= 8.0


def test_domain_floor_is_configurable():
    vf = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(vf, (1e-9, 1.0), 0.01, 5)
    integral = DarbouxIntegral(
        (Fraction(1),), (Hypersurface(Poly.var(2, 1)),)
    )
    assert DEFAULT_DOMAIN_FLOOR == 1e-12
    assert conservation_report(traj, integral) == 0.0
    with pytest.raises(DomainViolationError):
        conservation_report(traj, integral, floor=1e-6)


def _pinned_cases():
    yield "fixture", fixture_field(), fixture_integrals()
    field, cert = construct_completely_integrable(2, 4, parse("x1", 3))
    yield "complete-n2-m4", field, cert.integrals


# Generated once and kept: any change to the term order of the evaluated
# polynomials, to the RK4 arithmetic or to the drift sum moves these bits.
# The digests are of float64 states in the machine's native byte order.
PINNED_BITS = {
    "fixture": (
        "51634975e27788901111ab0aad08b5f922c26bd51b3d5f229c27923dbb482a66",
        ["0x1.2000000000000p-48", "0x1.d880000000000p-41"],
    ),
    "complete-n2-m4": (
        "b9400cc29e7fc5ebcc71a3a8f6ac1c6b600f1649efd813df9de136d091ce80e4",
        ["0x1.e000000000000p-49", "0x0.0p+0"],
    ),
}


def test_trajectories_and_drifts_are_bit_identical_to_the_pinned_values():
    for name, field, integrals in _pinned_cases():
        traj = integrate_rk4(field, (0.5, 0.4, 0.3), 1e-3, 500)
        digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
        drifts = [conservation_report(traj, i).hex() for i in integrals]
        assert (digest, drifts) == PINNED_BITS[name], name


def test_csv_dump_round_trips_at_full_precision():
    vf = PolyVectorField(2, (parse("-x2", 2), parse("x1", 2)))
    traj = integrate_rk4(vf, (1.0, 0.0), 0.125, 8)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 10
    for idx, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == traj.times[idx]
        assert cells[1] == traj.states[idx, 0]
        assert cells[2] == traj.states[idx, 1]
