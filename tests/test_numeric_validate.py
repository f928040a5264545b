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
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kolmosphere import (
    DEFAULT_DOMAIN_FLOOR,
    DarbouxIntegral,
    DimensionMismatchError,
    DomainViolationError,
    Hypersurface,
    NonFiniteError,
    Poly,
    PolyVectorField,
    Trajectory,
    conservation_report,
    construct_completely_integrable,
    drift_sweep,
    field_from_dict,
    find_darboux,
    integrate_rk4,
    numeric_validate,
    parse,
    recover_cubic_form,
    sphere_polynomial,
    trajectory_to_csv,
)

from conftest import rand_fraction, rand_poly

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_field():
    with open(FIXDIR / "demo3d_field.json") as fh:
        return field_from_dict(json.load(fh))


def fixture_integrals():
    form = recover_cubic_form(fixture_field())
    return find_darboux(form, Hypersurface(sphere_polynomial(3)))


def test_zero_field_gives_a_constant_trajectory():
    vf = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(vf, (0.3, -1.5), 0.01, 100)
    assert traj.states.shape == (101, 2)
    assert np.all(traj.states == traj.states[0])
    assert traj.times[0] == 0.0
    for h, steps in ((0.01, 100), (0.1, 37)):
        assert integrate_rk4(vf, (0.3, -1.5), h, steps).times.tobytes() == (
            h * np.arange(steps + 1, dtype=np.float64)
        ).tobytes()
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
    for h, steps in ((1e308, 3), (0.1, 10**400)):
        with pytest.raises(ValueError, match=r"need a finite final time h \* steps"):
            integrate_rk4(vf, (1.0,), h, steps)


def test_a_number_past_the_double_range_is_refused_naming_its_polynomial():
    big = 10**400
    huge = Poly(1, {(1,): -big, (0,): 1})
    message = f"the coefficient {-big} of {huge} is past the double range"
    zero = PolyVectorField(1, (Poly.zero(1),))
    traj = integrate_rk4(zero, (1.0,), 0.1, 3)
    for call in (
        lambda: integrate_rk4(PolyVectorField(1, (huge,)), (1.0,), 0.1, 3),
        lambda: drift_sweep(huge, "watched v")(traj),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    integral = DarbouxIntegral(
        (Fraction(1), Fraction(big, 3)),
        (Hypersurface(parse("x1 + 2", 1)), Hypersurface(parse("x1", 1))),
    )
    with pytest.raises(ValueError) as exc:
        conservation_report(traj, integral)
    assert str(exc.value) == f"the exponent {big}/3 of x1 is past the double range"


def test_a_number_too_long_to_print_is_refused_naming_its_monomial():
    """Past the interpreter's digit limit ``str`` raises, so the message
    names the coefficient by its monomial and prints no number."""
    big = 10**5000
    huge = Poly(2, {(1, 1): big, (0, 0): 1})
    message = "the coefficient of x1*x2, too long to print, is past the double range"
    zero = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(zero, (1.0, 1.0), 0.1, 3)
    for call in (
        lambda: integrate_rk4(PolyVectorField(2, (huge, huge)), (1.0, 1.0), 0.1, 3),
        lambda: drift_sweep(huge, "watched v")(traj),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    integral = DarbouxIntegral(
        (Fraction(big, 3),), (Hypersurface(parse("x1", 2)),)
    )
    with pytest.raises(ValueError) as exc:
        conservation_report(traj, integral)
    assert str(exc.value) == "the exponent, too long to print, is past the double range"


def test_a_step_count_past_the_budget_is_refused_before_any_step(monkeypatch):
    """The kept rows grow with the step count, so a count past
    ``MAX_STEPS`` is refused before the stepper is built.  The budget is
    made small here: a count past the real one would fill memory."""
    assert numeric_validate.MAX_STEPS >= 100 * 20_000  # criterion 9's longest run
    vf = PolyVectorField(1, (Poly.var(1, 1),))
    monkeypatch.setattr(numeric_validate, "MAX_STEPS", 5)
    assert len(integrate_rk4(vf, (1.0,), 0.1, 5).rows) == 6

    def no_stepper(*args):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(numeric_validate, "_compile", no_stepper)
    with pytest.raises(ValueError) as exc:
        integrate_rk4(vf, (1.0,), 0.1, 6)
    assert str(exc.value) == "need steps <= 5, got 6"
    # The final-time check comes first, so its message still names h * steps.
    with pytest.raises(ValueError, match=r"need a finite final time h \* steps"):
        integrate_rk4(vf, (1.0,), 0.1, 10**400)


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
    assert drift_sweep(parse("x1", 2), "x1")(traj) == np.max(np.abs(x1 - x1[0]))
    assert drift_sweep(parse("x1^2 + x2^2", 2), "r2")(traj) < 1e-10
    # Every value is finite, but its change from 1e308 overflows.
    with pytest.raises(NonFiniteError) as exc:
        drift_sweep(parse("10^308*x1 - 10^308*x2", 2), "watched v")(traj)
    assert str(exc.value).startswith("watched v became non-finite at step ")
    assert exc.value.step_index > 0
    # The step is the first one whose drift overflows, not a later one.
    huge = parse("10^308*x1 - 10^308*x2", 2)
    assert outcome(drift_sweep(huge, "v"), traj) == outcome(
        reference_max_abs_drift, traj, huge, "v"
    )


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


@pytest.mark.parametrize("floor", [0.0, -1e-12, float("nan")])
def test_a_floor_that_is_not_positive_is_refused_before_the_sweep(floor):
    """Under such a floor a zero surface value would reach ``log`` as a
    bare math domain error; the floor is named instead."""
    vf = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(vf, (0.0, 1.0), 0.01, 5)
    integral = DarbouxIntegral(
        (Fraction(1),), (Hypersurface(Poly.var(2, 1)),)
    )
    with pytest.raises(ValueError, match=r"^evaluation floor must be positive, "
                       rf"got {re.escape(repr(floor))}$"):
        conservation_report(traj, integral, floor=floor)


@pytest.mark.parametrize("entry", ["conservation_report", "drift_sweep"])
@pytest.mark.parametrize("text, dim", [("x1*x3^2 + 2", 3), ("x3 + 1", 3), ("x1 + 2", 1)])
def test_a_polynomial_on_another_ring_than_the_trajectory_is_refused(
    monkeypatch, entry, text, dim
):
    """A polynomial is read at the trajectory's coordinates.  Over rows in
    R^2 a surface in x1..x3 was read with x3 dropped (``x1*x3^2 + 2`` as
    ``x1 + 2``), and a watched value in another number of variables failed
    to unpack the rows.  Each is refused by its dimensions before anything
    is written; a watch's sweep is built before there is a trajectory, and
    refused before it runs."""
    traj = Trajectory(1.0, [(1.0, 2.0), (2.0, 3.0)])
    poly = parse(text, dim)
    if entry == "drift_sweep":
        calls = [(drift_sweep(poly, "watched v"), traj)]
    else:
        # Every surface is checked, one whose exponent is 0 included.
        surfaces = (Hypersurface(poly), Hypersurface(parse("x1 + 2", 2)))
        calls = [(conservation_report, traj, DarbouxIntegral(exponents, surfaces))
                 for exponents in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))]

    def no_compile(*args):
        raise AssertionError("generated code was compiled")

    monkeypatch.setattr(numeric_validate, "_compile", no_compile)
    for call, *args in calls:
        with pytest.raises(DimensionMismatchError) as exc:
            call(*args)
        assert str(exc.value) == f"polynomial over {dim} variables, trajectory on R^2"


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


# ----- the term-walking reference ---------------------------------------------
#
# integrate_rk4, conservation_report and drift_sweep each run generated code.
# The functions below share none of it: ``term_value`` walks a polynomial's
# terms in their own order, RK4 runs on tuples, and the drifts are taken
# from lists of row values.  The generated code must match them bit
# for bit, errors and step indices included.


def term_value(p, point):
    """``p`` at ``point`` in floats: each term is float(c) times x**e for
    each variable in order (times x itself for e = 1), and the terms are
    summed from the left in the polynomial's own term order."""
    total = None
    for exps, coeff in p:
        value = float(coeff)
        for x, e in zip(point, exps):
            if e:
                value = value * (x if e == 1 else x ** e)
        total = value if total is None else total + value
    return 0.0 if total is None else total


def term_values(polys, point):
    return tuple(term_value(p, point) for p in polys)


def reference_step(polys, state, h):
    """One RK4 step of size ``h`` from ``state``, unchecked."""
    half = h / 2.0
    sixth = h / 6.0
    k1 = term_values(polys, state)
    k2 = term_values(polys, tuple(x + half * k for x, k in zip(state, k1)))
    k3 = term_values(polys, tuple(x + half * k for x, k in zip(state, k2)))
    k4 = term_values(polys, tuple(x + h * k for x, k in zip(state, k3)))
    return tuple(
        x + sixth * (a + 2.0 * b + 2.0 * c + e)
        for x, a, b, c, e in zip(state, k1, k2, k3, k4)
    )


def reference_rk4(vf, x0, h, steps):
    state = tuple(float(v) for v in x0)
    rows = [state]
    for step in range(1, steps + 1):
        try:
            state = reference_step(vf.components, state, h)
        except OverflowError as err:
            raise NonFiniteError(step) from err
        if not all(math.isfinite(v) for v in state):
            raise NonFiniteError(step)
        rows.append(state)
    return Trajectory(h, rows)


def reference_values(traj, polys, what):
    for step, row in enumerate(traj.rows):
        try:
            out = term_values(polys, row)
        except OverflowError as err:
            raise NonFiniteError(step, what) from err
        if not all(map(math.isfinite, out)):
            raise NonFiniteError(step, what)
        yield out


def reference_report(traj, integral, floor=DEFAULT_DOMAIN_FLOOR):
    if not floor > 0.0:
        raise ValueError(f"evaluation floor must be positive, got {floor!r}")
    betas = [float(b) for b in integral.exponents]
    surfaces = [s.defining for b, s in zip(betas, integral.surfaces) if b != 0.0]
    betas = [b for b in betas if b != 0.0]

    def log_value(row_values):
        total = 0.0
        for beta, value in zip(betas, row_values):
            if abs(value) < floor:
                raise DomainViolationError(
                    f"surface value {value!r} within {floor} of zero"
                )
            total += beta * math.log(abs(value))
        return total

    logs = [
        log_value(v) for v in reference_values(traj, surfaces, "surface value")
    ]
    scale = max(1.0, abs(logs[0]))
    return max(abs(log - logs[0]) for log in logs) / scale


def reference_max_abs_drift(traj, poly, what):
    values = [value for (value,) in reference_values(traj, [poly], what)]
    drifts = [abs(value - values[0]) for value in values]
    for step, drift in enumerate(drifts):
        if not math.isfinite(drift):
            raise NonFiniteError(step, what)
    return max(drifts)


def outcome(fn, *args):
    """("ok", the result as exact bits), or the error's type, message and
    step.  A ValueError is a floor that is not positive."""
    try:
        result = fn(*args)
    except (NonFiniteError, DomainViolationError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "step_index", None)
    if isinstance(result, Trajectory):
        result = result.states
    if isinstance(result, np.ndarray):
        return "ok", result.shape, result.tobytes()
    return "ok", result.hex()


def random_component(rng, dim, kind):
    if kind == "zero":
        return Poly.zero(dim)
    if kind == "single":
        exps = [0] * dim
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(dim)] += 1
        return Poly(dim, {tuple(exps): rand_fraction(rng, False)})
    while True:
        p = rand_poly(rng, dim, 3, terms=5)
        if len(p.terms) >= 2:
            return p


def random_surface(rng, dim):
    while True:
        p = random_component(rng, dim, rng.choice(["single", "multi"]))
        if p.degree() >= 1:
            return Hypersurface(p)


def test_generated_loops_match_the_scalar_reference_bit_for_bit():
    rng = random.Random(2024)
    seen = Counter()
    for dim in range(1, 6):
        for _ in range(16):
            vf = PolyVectorField(dim, tuple(
                random_component(rng, dim, rng.choice(["zero", "single", "multi"]))
                for _ in range(dim)
            ))
            x0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(dim))
            h, steps = rng.choice([1e-3, 1e-2, 0.05]), 120
            result = outcome(integrate_rk4, vf, x0, h, steps)
            assert result == outcome(reference_rk4, vf, x0, h, steps), (vf, x0, h)
            seen[f"rk4 {result[0]}"] += 1
            if result[0] != "ok":
                continue
            traj = integrate_rk4(vf, x0, h, steps)
            for _ in range(3):
                count = rng.randint(1, 3)
                integral = DarbouxIntegral(
                    (Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 3)),)
                    + tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(count - 1)),
                    tuple(random_surface(rng, dim) for _ in range(count)),
                )
                floor = rng.choice([DEFAULT_DOMAIN_FLOOR, 1e-3, 0.2])
                result = outcome(conservation_report, traj, integral, floor)
                assert result == outcome(reference_report, traj, integral, floor)
                seen[f"report {result[0]}"] += 1
            watched = random_component(rng, dim, rng.choice(["single", "multi"]))
            result = outcome(drift_sweep(watched, "watched v"), traj)
            assert result == outcome(
                reference_max_abs_drift, traj, watched, "watched v"
            )
    # Every path was taken: finished and blown-up runs, finished reports and
    # reports stopped by the floor.
    assert min(seen[key] for key in (
        "rk4 ok", "rk4 NonFiniteError", "report ok", "report DomainViolationError",
    )) >= 3, seen


def signed_component(rng, dim):
    """A component rich in what the generated text writes specially: unit
    and negative coefficients, a constant term, and powers that other
    terms and components repeat; or the zero polynomial."""
    if rng.random() < 0.3:
        return Poly.zero(dim)
    terms = {}
    if rng.random() < 0.4:
        terms[(0,) * dim] = rng.choice([1, -1, Fraction(-3, 2)])
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(dim))
        terms[exps] = rng.choice([1, -1, 1, -1, 2, -3, Fraction(-1, 3), Fraction(5, 2)])
    return Poly(dim, terms)


def signed_surface(rng, dim):
    while True:
        p = signed_component(rng, dim)
        if not p.is_zero() and p.degree() >= 1:
            return p


def signed_start(rng, dim):
    return tuple(rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0)]) for _ in range(dim))


def test_generated_code_matches_the_term_walking_reference_bit_for_bit():
    """Fields with zero components, unit and negative coefficients, constant
    terms and repeated powers, from start points with 0.0 and -0.0
    coordinates: the stepper and the sweeps agree with the reference to
    the bit, the sign of a zero included, and so does the sweep of a zero
    watched value.  Twins equal
    under ``==`` but built in other term orders, run one after the other,
    each get their own functions."""
    rng = random.Random(27)
    seen = Counter()
    cases = [
        # A zero component whose -0.0 start meets another component's
        # product: the first stage must see -0.0, the later stages +0.0.
        (PolyVectorField(2, (Poly.zero(2), parse("x1*x2", 2))), (-0.0, -0.0)),
        (PolyVectorField(2, (Poly.zero(2), parse("-x1*x2", 2))), (-0.0, -0.0)),
        (PolyVectorField(3, (parse("x1*x3", 3), Poly.zero(3), parse("x2^3*x3", 3))),
         (-0.0, -0.0, 0.0)),
    ]
    for dim in range(1, 5):
        for _ in range(14):
            vf = PolyVectorField(
                dim, tuple(signed_component(rng, dim) for _ in range(dim))
            )
            cases.append((vf, signed_start(rng, dim)))
    # At (1, 1), 10^16 + 1 rounds to 10^16: the twins read 0.0 and 1.0.
    twins = [parse("10^16*x1 + 1 - 10^16*x2", 2), parse("10^16*x1 - 10^16*x2 + 1", 2)]
    assert twins[0] == twins[1] and list(twins[0]) != list(twins[1])
    cases += [(PolyVectorField(2, (p, p)), (1.0, 1.0)) for p in twins]
    for vf, x0 in cases:
        dim = vf.dim
        h, steps = rng.choice([1e-3, 1e-2, 0.1]), 60
        result = outcome(integrate_rk4, vf, x0, h, steps)
        assert result == outcome(reference_rk4, vf, x0, h, steps), (vf, x0, h)
        seen[f"rk4 {result[0]}"] += 1
        if result[0] != "ok":
            continue
        traj = integrate_rk4(vf, x0, h, steps)
        for _ in range(2):
            surfaces = [signed_surface(rng, dim) for _ in range(rng.randint(1, 3))]
            integral = DarbouxIntegral(
                tuple(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
                      for _ in surfaces),
                tuple(Hypersurface(p) for p in surfaces),
            )
            floor = rng.choice([DEFAULT_DOMAIN_FLOOR, 1e-3, 1e-300, 0.0])
            result = outcome(conservation_report, traj, integral, floor)
            assert result == outcome(reference_report, traj, integral, floor)
            seen[f"report {result[0]}"] += 1
            for watched in (surfaces[0], Poly.zero(dim)):
                assert outcome(drift_sweep(watched, "watched v"), traj) == outcome(
                    reference_max_abs_drift, traj, watched, "watched v"
                )
    assert min(seen[key] for key in (
        "rk4 ok", "rk4 NonFiniteError", "report ok", "report DomainViolationError",
    )) >= 3, seen
    # The twins' sweeps over rows where they differ: 0.0 against 1.0 at
    # (1, 1), and 5e15 against 5e15 + 1 at (1, 0.5).
    traj = Trajectory(0.5, [(0.0, 0.0), (1.0, 1.0), (1.0, 0.5)])
    for p in twins:
        integral = DarbouxIntegral((Fraction(1),), (Hypersurface(p),))
        assert outcome(conservation_report, traj, integral) == outcome(
            reference_report, traj, integral)
        assert outcome(drift_sweep(p, "watched v"), traj) == outcome(
            reference_max_abs_drift, traj, p, "watched v")


def test_an_exponent_past_the_double_range_is_refused_naming_its_variable(
    monkeypatch
):
    """Such an exponent has no float to write in the text, so it is refused
    while the text is written, before anything is compiled or run; past
    the digit limit the polynomial is not printed."""
    zero = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    traj = integrate_rk4(zero, (0.5, 0.5), 0.1, 3)

    def no_compile(*args):
        raise AssertionError("generated code was compiled")

    monkeypatch.setattr(numeric_validate, "_compile", no_compile)
    for e in (10**400, 10**5000):
        huge = Poly(2, {(1, 0): 1, (0, e): 1})
        named = (f"x2 in {huge}" if e == 10**400
                 else "x2, in a polynomial too long to print,")
        integral = DarbouxIntegral((Fraction(1),), (Hypersurface(huge),))
        for call in (
            lambda: integrate_rk4(PolyVectorField(2, (huge, huge)), (0.5, 0.5), 0.1, 3),
            lambda: drift_sweep(huge, "watched v"),
            lambda: conservation_report(traj, integral),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"the exponent of {named} is past the double range"


def test_a_state_that_becomes_inf_through_a_product_stops_at_the_reference_step():
    """x1 = x2 solves x' = x^2 and blows up at t = 1; the product x1*x2
    reaches inf without an OverflowError, so only the finiteness test can
    see it."""
    vf = PolyVectorField(2, (parse("x1*x2", 2), parse("x1*x2", 2)))
    with pytest.raises(NonFiniteError) as exc:
        integrate_rk4(vf, (1.0, 1.0), 0.05, 100)
    assert exc.value.__cause__ is None
    assert 1 < exc.value.step_index < 100
    assert outcome(integrate_rk4, vf, (1.0, 1.0), 0.05, 100) == outcome(
        reference_rk4, vf, (1.0, 1.0), 0.05, 100
    )


def test_a_state_that_becomes_nan_through_inf_minus_inf_stops_at_the_reference_step():
    """x1 stays 1, so 10^200*x1*x2 - 10^200*x2 is 0 until both products
    reach inf together, and their difference is NaN."""
    vf = PolyVectorField(2, (parse("10^200*x1*x2 - 10^200*x2", 2), parse("10*x2", 2)))
    x0, h = (1.0, 1e100), 0.1
    with pytest.raises(NonFiniteError) as exc:
        integrate_rk4(vf, x0, h, 100)
    assert exc.value.__cause__ is None
    step = exc.value.step_index
    assert outcome(integrate_rk4, vf, x0, h, 100) == outcome(
        reference_rk4, vf, x0, h, 100
    )
    last = integrate_rk4(vf, x0, h, step - 1).rows[-1]
    assert last[0] == 1.0 and step > 10
    failed = reference_step(vf.components, last, h)
    assert math.isnan(failed[0]) and math.isfinite(failed[1])


def test_a_sweep_value_that_is_inf_or_under_the_floor_names_its_step_and_value():
    """The products 10^200*x1 reach inf, and their difference NaN, with no
    OverflowError; a value under the floor keeps its sign in the message."""
    traj = Trajectory(1.0, [(1.0, 1.0), (0.5, 2.0), (1e120, 1e110), (1.0, 1.0)])
    step = 2
    for text in ("10^200*x1 + x2", "10^200*x1 - 10^200*x2 + 1"):
        poly = parse(text, 2)
        integral = DarbouxIntegral((Fraction(1),), (Hypersurface(poly),))
        with pytest.raises(NonFiniteError) as exc:
            conservation_report(traj, integral)
        assert str(exc.value) == f"surface value became non-finite at step {step}"
        assert exc.value.__cause__ is None
        with pytest.raises(NonFiniteError) as exc:
            drift_sweep(poly, "watched v")(traj)
        assert str(exc.value) == f"watched v became non-finite at step {step}"
        assert outcome(conservation_report, traj, integral) == outcome(
            reference_report, traj, integral)
    x1 = DarbouxIntegral((Fraction(1),), (Hypersurface(parse("x1", 2)),))
    for value in (1e-13, -1e-13, 0.0, -0.0):
        low = Trajectory(1.0, [(1.0, 1.0), (0.5, 1.0), (value, 1.0)])
        with pytest.raises(DomainViolationError) as exc:
            conservation_report(low, x1)
        assert str(exc.value) == f"surface value {value!r} within 1e-12 of zero"
        assert outcome(conservation_report, low, x1) == outcome(
            reference_report, low, x1)


def test_a_row_under_the_floor_before_an_overflowing_row_is_a_domain_exit():
    rows = [(1.0, 1.0), (1e-13, 1.0), (1e200, 1e200)]
    traj = Trajectory(1.0, rows)
    square = DarbouxIntegral((Fraction(1),), (Hypersurface(parse("x1^2", 2)),))
    with pytest.raises(DomainViolationError, match="within 1e-12 of zero"):
        conservation_report(traj, square)
    # With the rows swapped, the overflow comes first.
    swapped = Trajectory(1.0, [rows[0], rows[2], rows[1]])
    with pytest.raises(NonFiniteError) as exc:
        conservation_report(swapped, square)
    assert str(exc.value) == "surface value became non-finite at step 1"
    # Within one row, every surface is checked for finiteness before any
    # is checked against the floor.
    both = DarbouxIntegral(
        (Fraction(1), Fraction(1)),
        (Hypersurface(parse("x1", 2)), Hypersurface(parse("10^300*x2", 2))),
    )
    mixed = Trajectory(1.0, [(1.0, 1.0), (1e-13, 1e10), (1.0, 1.0)])
    with pytest.raises(NonFiniteError) as exc:
        conservation_report(mixed, both)
    assert exc.value.step_index == 1
    for case in (traj, swapped, mixed):
        for integral in (square, both):
            assert outcome(conservation_report, case, integral) == outcome(
                reference_report, case, integral
            )


def test_an_overflowing_power_reports_the_same_step_as_the_scalar_loop():
    vf = PolyVectorField(1, (parse("x1^3", 1),))
    with pytest.raises(NonFiniteError) as exc:
        integrate_rk4(vf, (1.0,), 0.01, 200)
    assert isinstance(exc.value.__cause__, OverflowError)
    assert outcome(integrate_rk4, vf, (1.0,), 0.01, 200) == outcome(
        reference_rk4, vf, (1.0,), 0.01, 200
    )
    growth = PolyVectorField(1, (Poly.var(1, 1),))
    traj = integrate_rk4(growth, (1e30,), 0.05, 200)
    watched = parse("x1^10", 1)
    with pytest.raises(NonFiniteError) as exc:
        drift_sweep(watched, "watched x1^10")(traj)
    assert isinstance(exc.value.__cause__, OverflowError)
    assert exc.value.step_index > 0
    assert outcome(drift_sweep(watched, "watched x1^10"), traj) == outcome(
        reference_max_abs_drift, traj, watched, "watched x1^10"
    )


def test_one_field_compiles_one_stepper_and_one_sweep_per_integral(monkeypatch):
    """Start point, step size, exponents and floor are arguments of the
    generated functions, so only the polynomials choose their source, and
    a cached function is run without its text being written again."""
    vf = fixture_field()
    integrals = fixture_integrals()
    caches = (numeric_validate._stepper, numeric_validate._row_sweep)
    for cache in caches:
        cache.cache_clear()
    for x0 in ((0.5, 0.4, 0.3), (0.6, 0.5, 0.4), (0.7, 0.3, 0.5)):
        for h in (1e-3, 5e-4):
            traj = integrate_rk4(vf, x0, h, 20)
            for integral in integrals:
                conservation_report(traj, integral)
    # Six runs: one stepper, and one sweep for each of the two integrals.
    counts = [(cache.cache_info().misses, cache.cache_info().hits) for cache in caches]
    assert counts == [(1, 6 - 1), (2, 6 * 2 - 2)]

    def no_text(*args):
        raise AssertionError("a generated text was written")

    monkeypatch.setattr(numeric_validate, "_values", no_text)
    traj = integrate_rk4(vf, (0.5, 0.4, 0.3), 1e-3, 20)
    for integral in integrals:
        conservation_report(traj, integral)


def test_integrating_and_sweeping_build_no_ndarray(monkeypatch):
    vf = fixture_field()
    integrals = fixture_integrals()

    def refuse(*args, **kwargs):
        raise AssertionError("an ndarray was built")

    monkeypatch.setattr(np, "array", refuse)
    traj = integrate_rk4(vf, (0.5, 0.4, 0.3), 1e-3, 50)
    for integral in integrals:
        conservation_report(traj, integral)
    drift_sweep(sphere_polynomial(3), "sphere residual")(traj)
    trajectory_to_csv(traj)
    # The states are built from the rows only when read.
    with pytest.raises(AssertionError, match="an ndarray was built"):
        traj.states


def test_a_trajectory_built_from_rows_sweeps_as_the_scalar_reference():
    rotation = integrate_rk4(
        PolyVectorField(2, (parse("-x2", 2), parse("x1", 2))), (1.0, 0.0), 1e-2, 200
    )
    by_hand = Trajectory(1.0, [(1.0, 1.0), (1e-13, 1.0), (1e200, 1e200)])
    integrals = [
        DarbouxIntegral((Fraction(1),), (Hypersurface(parse(text, 2)),))
        for text in ("x1^2", "x1^2 + x2^2", "10^300*x2")
    ]
    watched = [parse(text, 2) for text in ("x1", "10^308*x1 - 10^308*x2")]
    seen = set()
    for traj in (rotation, by_hand):
        assert {type(v) for row in traj.rows for v in row} == {float}
        assert traj.dim == 2
        assert traj.states.tolist() == [list(row) for row in traj.rows]
        for integral in integrals:
            result = outcome(conservation_report, traj, integral)
            assert result == outcome(reference_report, traj, integral)
            seen.add(result[0])
        for poly in watched:
            result = outcome(drift_sweep(poly, "watched v"), traj)
            assert result == outcome(reference_max_abs_drift, traj, poly, "watched v")
            seen.add(result[0])
    assert seen == {"ok", "DomainViolationError", "NonFiniteError"}


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


def test_sums_and_products_longer_than_one_line_compile_in_their_own_order():
    """A sum of 5000 terms, a product of 5000 factors and a check of 300
    coordinates each go on in running assignments; the compiler used to
    stop at about 3000 operands with a RecursionError."""
    long_sum = Poly(1, {(i,): (-1) ** i * (i % 7 + 1) for i in range(1, 5001)})
    traj = Trajectory(0.1, [(0.5,), (0.25,), (-0.0,), (1e10,)])
    assert outcome(drift_sweep(long_sum, "v"), traj) == outcome(
        reference_max_abs_drift, traj, long_sum, "v")
    rng = random.Random(5000)
    rows = [tuple(rng.uniform(0.9, 1.1) for _ in range(5000)) for _ in range(2)]
    product = Poly(5000, {(1,) * 5000: -3, (0,) * 4999 + (2,): 1})
    traj = Trajectory(0.1, rows)
    assert outcome(drift_sweep(product, "v"), traj) == outcome(
        reference_max_abs_drift, traj, product, "v")
    # The last of 300 coordinates reaches inf through a product.
    wide = PolyVectorField(300, tuple(
        Poly(300, {tuple(int(j == i) for j in range(300)): -1}) for i in range(299)
    ) + (parse("10^300*x300", 300),))
    x0 = (1.0,) * 300
    with pytest.raises(NonFiniteError) as exc:
        integrate_rk4(wide, x0, 0.1, 3)
    assert exc.value.__cause__ is None
    assert outcome(integrate_rk4, wide, x0, 0.1, 3) == outcome(
        reference_rk4, wide, x0, 0.1, 3)


# ----- coordinates the stepper held fixed ------------------------------------


def held_cases():
    """Family fields n = 2..4, one whose interaction reads x3, from start
    points whose held coordinates x3 .. x(n+1) are 0.0, -0.0, -0.7 or 3.0,
    alone or mixed."""
    for n in (2, 3, 4):
        d = n + 1
        for m, interaction in ((3, Poly.const(d, 1)), (4, Poly.var(d, 1)),
                               (4, Poly.var(d, 3))):
            field, cert = construct_completely_integrable(n, m, interaction)
            for held in ([0.0], [-0.0], [-0.7], [3.0], [-0.0, 0.0, -0.7]):
                tail = [held[k % len(held)] for k in range(n - 1)]
                yield field, cert.integrals, (0.5, 0.4, *tail)


def held_integrals(d):
    """Integrals and watched values over held coordinates only, over moving
    ones only, and over both; 10^308*x3^2 overflows at x3 = 3.0."""
    texts = ["x3", "x3^2 - 1/2", "10^308*x3^2", "x1^2 + x2^2", "x1*x3 + 1"]
    if d > 3:
        texts += [f"x3*x{d}^2", f"x2 + x{d}"]
    return [parse(text, d) for text in texts]


def test_a_sweep_over_held_coordinates_matches_the_sweep_over_all_rows():
    """A stepped trajectory sweeps held-only polynomials over two rows; its
    copy built from the rows holds nothing and is swept in full.  Every
    drift keeps its bits and every error its type, message and step."""
    seen = Counter()
    for field, integrals, x0 in held_cases():
        traj = integrate_rk4(field, x0, 1e-2, 150)
        copy = Trajectory(traj.h, list(traj.rows))
        d = field.dim
        assert traj.held == frozenset(range(2, d)) and copy.held == frozenset()
        assert traj == copy and repr(traj) == repr(copy)
        extra = [DarbouxIntegral((Fraction(b),), (Hypersurface(p),))
                 for b, p in zip((1, -2, 3, Fraction(1, 2)), held_integrals(d))]
        for integral in (*integrals, *extra):
            result = outcome(conservation_report, traj, integral)
            assert result == outcome(conservation_report, copy, integral), (x0, integral)
            seen[result[0]] += 1
        for poly in (*(Poly.var(d, k) for k in range(1, d + 1)), *held_integrals(d)):
            result = outcome(drift_sweep(poly, "watched v"), traj)
            assert result == outcome(drift_sweep(poly, "watched v"), copy), (x0, poly)
            seen[result[0]] += 1
    assert set(seen) == {"ok", "DomainViolationError", "NonFiniteError"}


@pytest.mark.parametrize("start, message", [
    (0.0, "surface value 0.0 within 1e-12 of zero"),
    (-0.0, "surface value -0.0 within 1e-12 of zero"),
])
def test_a_zero_held_coordinate_exits_the_domain_at_step_0(start, message):
    """Row 1 holds x3 + 0.0 = 0.0, so a message naming -0.0 comes from
    row 0."""
    field, cert = construct_completely_integrable(3, 3, Poly.const(4, 1))
    traj = integrate_rk4(field, (0.5, 0.4, start, -0.7), 1e-2, 50)
    assert [math.copysign(1.0, row[2]) for row in traj.rows[:3]] == [
        math.copysign(1.0, start), 1.0, 1.0]
    x3 = cert.integrals[1]
    assert [str(s.defining) for s in x3.surfaces] == ["x3"]
    for case in (traj, Trajectory(traj.h, list(traj.rows))):
        with pytest.raises(DomainViolationError) as exc:
            conservation_report(case, x3)
        assert str(exc.value) == message


def test_a_report_over_held_coordinates_only_sweeps_two_rows(monkeypatch):
    swept = []
    row_sweep = numeric_validate._row_sweep

    def counting(*args):
        sweep, reads = row_sweep(*args)

        def counted(rows, *rest):
            swept.append(len(rows))
            return sweep(rows, *rest)

        return counted, reads

    monkeypatch.setattr(numeric_validate, "_row_sweep", counting)
    field, cert = construct_completely_integrable(3, 4, Poly.var(4, 3))
    traj = integrate_rk4(field, (0.5, 0.4, -0.7, 0.3), 1e-2, 100)
    sphere, x3, x4 = cert.integrals
    for integral in (x3, x4, sphere):
        conservation_report(traj, integral)
    for poly in (parse("x3*x4", 4), parse("x1", 4)):
        drift_sweep(poly, "watched v")(traj)
    conservation_report(Trajectory(traj.h, traj.rows), x3)
    assert swept == [2, 2, 101, 2, 101, 101]


def test_only_the_stepper_records_held_coordinates():
    with pytest.raises(TypeError):
        Trajectory(0.1, [(1.0, 0.0)], frozenset({1}))
    with pytest.raises(TypeError):
        Trajectory(0.1, [(1.0, 0.0)], held=frozenset({1}))
    vf = PolyVectorField(2, (parse("-x2", 2), parse("x1", 2)))
    assert integrate_rk4(vf, (1.0, 0.0), 0.1, 3).held == frozenset()
    still = PolyVectorField(2, (Poly.zero(2), Poly.zero(2)))
    assert integrate_rk4(still, (1.0, 0.0), 0.1, 3).held == frozenset({0, 1})
