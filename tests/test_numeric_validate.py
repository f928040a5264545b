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
from collections import Counter
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
        lambda: compile_polys(1, [huge]),
        lambda: integrate_rk4(PolyVectorField(1, (huge,)), (1.0,), 0.1, 3),
        lambda: max_abs_drift(traj, huge, "watched v"),
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
        lambda: compile_polys(2, [huge]),
        lambda: integrate_rk4(PolyVectorField(2, (huge, huge)), (1.0, 1.0), 0.1, 3),
        lambda: max_abs_drift(traj, huge, "watched v"),
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
    assert max_abs_drift(traj, parse("x1", 2), "x1") == np.max(np.abs(x1 - x1[0]))
    assert max_abs_drift(traj, parse("x1^2 + x2^2", 2), "r2") < 1e-10
    # Every value is finite, but its change from 1e308 overflows.
    with pytest.raises(NonFiniteError) as exc:
        max_abs_drift(traj, parse("10^308*x1 - 10^308*x2", 2), "watched v")
    assert str(exc.value).startswith("watched v became non-finite at step ")
    assert exc.value.step_index > 0
    # The step is the first one whose drift overflows, not a later one.
    huge = parse("10^308*x1 - 10^308*x2", 2)
    assert outcome(max_abs_drift, traj, huge, "v") == outcome(
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


# ----- the scalar reference ---------------------------------------------------
#
# integrate_rk4, conservation_report and max_abs_drift each run one generated
# loop.  The functions below are the loops those replaced: a compile_polys
# evaluator called once per point, RK4 on tuples, and the drifts taken from
# lists of row values.  The generated loops must match them bit for bit,
# errors and step indices included.


def reference_rk4(vf, x0, h, steps):
    f = compile_polys(vf.dim, vf.components)
    d = vf.dim
    state = tuple(float(v) for v in x0)
    rows = [state]
    half = h / 2.0
    sixth = h / 6.0
    for step in range(steps):
        try:
            k1 = f(state)
            k2 = f(tuple(state[i] + half * k1[i] for i in range(d)))
            k3 = f(tuple(state[i] + half * k2[i] for i in range(d)))
            k4 = f(tuple(state[i] + h * k3[i] for i in range(d)))
            state = tuple(
                state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(d)
            )
        except OverflowError as err:
            raise NonFiniteError(step + 1) from err
        if not all(math.isfinite(v) for v in state):
            raise NonFiniteError(step + 1)
        rows.append(state)
    return np.array(rows, dtype=np.float64)


def reference_values(traj, polys, what):
    values = compile_polys(traj.dim, polys)
    for step, row in enumerate(traj.states.tolist()):
        try:
            out = values(row)
        except OverflowError as err:
            raise NonFiniteError(step, what) from err
        if not all(map(math.isfinite, out)):
            raise NonFiniteError(step, what)
        yield out


def reference_report(traj, integral, floor=DEFAULT_DOMAIN_FLOOR):
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
    step."""
    try:
        result = fn(*args)
    except (NonFiniteError, DomainViolationError) as err:
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
            result = outcome(max_abs_drift, traj, watched, "watched v")
            assert result == outcome(
                reference_max_abs_drift, traj, watched, "watched v"
            )
    # Every path was taken: finished and blown-up runs, finished reports and
    # reports stopped by the floor.
    assert min(seen[key] for key in (
        "rk4 ok", "rk4 NonFiniteError", "report ok", "report DomainViolationError",
    )) >= 3, seen


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
        max_abs_drift(traj, watched, "watched x1^10")
    assert isinstance(exc.value.__cause__, OverflowError)
    assert exc.value.step_index > 0
    assert outcome(max_abs_drift, traj, watched, "watched x1^10") == outcome(
        reference_max_abs_drift, traj, watched, "watched x1^10"
    )


def test_one_field_compiles_one_stepper_and_one_sweep_per_integral():
    """Start point, step size, exponents and floor are arguments of the
    generated functions, so only the polynomials choose their source."""
    vf = fixture_field()
    integrals = fixture_integrals()
    numeric_validate._define.cache_clear()
    for x0 in ((0.5, 0.4, 0.3), (0.6, 0.5, 0.4), (0.7, 0.3, 0.5)):
        for h in (1e-3, 5e-4):
            traj = integrate_rk4(vf, x0, h, 20)
            for integral in integrals:
                conservation_report(traj, integral)
    info = numeric_validate._define.cache_info()
    assert (info.misses, info.hits) == (3, 6 * 3 - 3)


def test_integrating_and_sweeping_build_no_ndarray(monkeypatch):
    vf = fixture_field()
    integrals = fixture_integrals()

    def refuse(*args, **kwargs):
        raise AssertionError("an ndarray was built")

    monkeypatch.setattr(np, "array", refuse)
    traj = integrate_rk4(vf, (0.5, 0.4, 0.3), 1e-3, 50)
    for integral in integrals:
        conservation_report(traj, integral)
    max_abs_drift(traj, sphere_polynomial(3), "sphere residual")
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
            result = outcome(max_abs_drift, traj, poly, "watched v")
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
