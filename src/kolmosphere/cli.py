"""Command-line interface.

Exit codes: 0 for a positive verdict (or successful construction), 1 for a
negative mathematical verdict, 2 for unusable input.  Every subcommand
accepts ``--format json`` for machine-readable output; runs are
deterministic, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .polyring import ParseError, Poly, parse
from .field_forms import (
    CubicKolmogorovForm,
    PolyVectorField,
    assemble_cubic,
    construct_from_form,
    cubic_form_from_dict,
    field_from_dict,
    field_to_dict,
    is_kolmogorov_on_sphere,
)
from .invariance import (
    Hypersurface,
    HyperplaneSpec,
    NotInvariantError,
    classify_hyperplane,
    cofactor,
)
from .darboux import (
    construct_completely_integrable,
    construct_linear_fi_field,
    find_darboux,
    syzygy_first_integral,
)
from .hamiltonian import hamiltonian_constraint_space, is_hamiltonian
from .numeric_validate import (
    NonFiniteError,
    compile_poly,
    integrate_rk4,
    trajectory_to_csv,
)
from .suites import SUITES, run_suite


class InputError(Exception):
    """Bad file, bad text, bad flag combination: exit code 2."""


def _emit(payload: dict, text_lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err


def _load_field(path: str, dim_flag: Optional[int]) -> PolyVectorField:
    data = _load_json(path)
    try:
        vf = field_from_dict(data)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"{path}: {err}") from err
    if dim_flag is not None and dim_flag != vf.dim:
        raise InputError(
            f"--dim {dim_flag} disagrees with file dimension {vf.dim}"
        )
    return vf


def _load_form(path: str) -> CubicKolmogorovForm:
    data = _load_json(path)
    try:
        return cubic_form_from_dict(data)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as err:
        raise InputError(f"{path}: {err}") from err


def _parse_poly_arg(text: str, dim: int, what: str) -> Poly:
    try:
        return parse(text, dim)
    except (ParseError, ValueError, IndexError) as err:
        raise InputError(f"{what}: {err}") from err


def _fraction_list(text: str, what: str) -> List[Fraction]:
    try:
        return [Fraction(piece.strip()) for piece in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"{what}: {err}") from err


def _float_list(text: str, what: str) -> List[float]:
    try:
        return [float(piece.strip()) for piece in text.split(",")]
    except ValueError as err:
        raise InputError(f"{what}: {err}") from err


# ----- subcommands -----------------------------------------------------------


def _cmd_check(args) -> int:
    vf = _load_field(args.field, args.dim)
    report = is_kolmogorov_on_sphere(vf)
    degree = vf.degree()
    payload = {
        "dim": vf.dim,
        "degree": None if degree == float("-inf") else int(degree),
        "kolmogorov": report.kolmogorov,
        "sphere_invariant": report.sphere_invariant,
        "sphere_cofactor": (
            None if report.sphere_cofactor is None else str(report.sphere_cofactor)
        ),
    }
    lines = [
        f"dimension: {vf.dim}",
        f"degree: {payload['degree']}",
        f"coordinate factorization: {'yes' if report.kolmogorov else 'no'}",
        f"unit sphere invariant: {'yes' if report.sphere_invariant else 'no'}",
    ]
    if report.sphere_cofactor is not None:
        lines.append(f"sphere cofactor: {report.sphere_cofactor}")
    _emit(payload, lines, args.format)
    return 0 if report.passes else 1


def _cmd_cofactor(args) -> int:
    vf = _load_field(args.field, args.dim)
    surface_poly = _parse_poly_arg(args.surface, vf.dim, "--surface")
    try:
        surface = Hypersurface(surface_poly)
    except ValueError as err:
        raise InputError(f"--surface: {err}") from err
    outcome = cofactor(vf, surface)
    if outcome is None:
        payload = {"invariant": False, "cofactor": None, "structured": None}
        _emit(payload, ["not invariant"], args.format)
        return 1
    structured = None
    if outcome.structured is not None:
        structured = {
            "k0": str(outcome.structured.k0),
            "k": [str(v) for v in outcome.structured.k],
        }
    payload = {
        "invariant": True,
        "cofactor": str(outcome.poly),
        "structured": structured,
    }
    lines = [f"invariant with cofactor: {outcome.poly}"]
    if structured is not None:
        lines.append(
            f"structured: k0 = {structured['k0']}, k = ({', '.join(structured['k'])})"
        )
    _emit(payload, lines, args.format)
    return 0


def _integral_payload(integral) -> dict:
    return {
        "exponents": [str(e) for e in integral.exponents],
        "surfaces": [str(s.defining) for s in integral.surfaces],
    }


def _cmd_darboux(args) -> int:
    form = _load_form(args.form)
    g_poly = _parse_poly_arg(args.g, form.dim, "--g")
    try:
        g = Hypersurface(g_poly)
    except ValueError as err:
        raise InputError(f"--g: {err}") from err
    try:
        integrals = find_darboux(form, g)
    except NotInvariantError as err:
        _emit(
            {"invariant": False, "integrals": [], "error": str(err)},
            [f"no integrals: {err}"],
            args.format,
        )
        return 1
    payload = {
        "invariant": True,
        "integrals": [_integral_payload(i) for i in integrals],
    }
    lines = [f"{len(integrals)} integral(s)"]
    for integral in integrals:
        exps = ", ".join(str(e) for e in integral.exponents)
        lines.append(f"exponents: ({exps})")
    _emit(payload, lines, args.format)
    return 0 if integrals else 1


def _cmd_syzygy_fi(args) -> int:
    form = _load_form(args.form)
    integrals = syzygy_first_integral(form)
    payload = {"integrals": [_integral_payload(i) for i in integrals]}
    lines = [f"{len(integrals)} monomial integral(s)"]
    for integral in integrals:
        exps = ", ".join(str(e) for e in integral.exponents)
        lines.append(f"exponents: ({exps})")
    _emit(payload, lines, args.format)
    return 0 if integrals else 1


def _cmd_classify_hyperplane(args) -> int:
    form = _load_form(args.form)
    coeffs = _fraction_list(args.a, "--a")
    if len(coeffs) != form.dim:
        raise InputError(
            f"--a has {len(coeffs)} entries, form lives on R^{form.dim}"
        )
    try:
        hp = HyperplaneSpec.from_values(Fraction(args.a0), coeffs)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"hyperplane spec: {err}") from err
    try:
        verdict = classify_hyperplane(form, hp)
    except ValueError as err:
        raise InputError(str(err)) from err
    payload = {
        "invariant": verdict.invariant,
        "case": verdict.case,
        "k0": None if verdict.predicted is None else str(verdict.predicted.k0),
        "k": (
            None
            if verdict.predicted is None
            else [str(v) for v in verdict.predicted.k]
        ),
    }
    if verdict.invariant:
        lines = [
            f"invariant ({verdict.case}), cofactor k0 = {payload['k0']}, "
            f"k = ({', '.join(payload['k'])})"
        ]
    else:
        lines = ["not invariant with a structured cofactor"]
    _emit(payload, lines, args.format)
    return 0 if verdict.invariant else 1


def _cmd_construct_linear_fi(args) -> int:
    coeffs = _fraction_list(args.a, "--a")
    try:
        hp = HyperplaneSpec.from_values(Fraction(args.a0), coeffs)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"hyperplane spec: {err}") from err
    data = _load_json(args.seed)
    try:
        entries = data["entries"]
        seed = [
            [parse(text, hp.dim) for text in row] for row in entries
        ]
    except (KeyError, TypeError) as err:
        raise InputError(f"{args.seed}: expected an 'entries' matrix") from err
    except (ParseError, ValueError, IndexError) as err:
        raise InputError(f"{args.seed}: {err}") from err
    try:
        form = construct_linear_fi_field(hp, seed)
    except ValueError as err:
        raise InputError(str(err)) from err
    field = construct_from_form(form)
    payload = {
        "dim": field.dim,
        "components": [str(p) for p in field.components],
        "atilde": [[str(p) for p in row] for row in form.atilde],
        "first_integral": str(hp.defining_poly()),
        "verified": True,
    }
    lines = [f"field: {payload['components']}",
             f"conserves: {payload['first_integral']}"]
    _emit(payload, lines, args.format)
    return 0


def _cmd_construct_complete(args) -> int:
    dim = args.n + 1
    atilde_poly = _parse_poly_arg(args.atilde, dim, "--atilde")
    try:
        field, cert = construct_completely_integrable(args.n, args.m, atilde_poly)
    except ValueError as err:
        raise InputError(str(err)) from err
    payload = {
        "dim": field.dim,
        "components": [str(p) for p in field.components],
        "integrals": [_integral_payload(i) for i in cert.integrals],
        "sample_point": [str(c) for c in cert.sample_point.coords],
        "jacobian_rank": cert.jacobian_rank,
    }
    lines = [
        f"field: {payload['components']}",
        f"{len(cert.integrals)} independent integral(s), "
        f"jacobian rank {cert.jacobian_rank} at "
        f"({', '.join(payload['sample_point'])})",
    ]
    _emit(payload, lines, args.format)
    return 0


def _cmd_construct_cubic(args) -> int:
    form = _load_form(args.form)
    field = assemble_cubic(form)
    payload = field_to_dict(field)
    _emit(payload, [f"field: {payload['components']}"], args.format)
    return 0


def _cmd_hamiltonian(args) -> int:
    if args.constraint_space:
        if args.n is None or args.n < 1:
            raise InputError("--constraint-space needs --n >= 1")
        dimension, basis = hamiltonian_constraint_space(args.n)
        payload = {
            "n": args.n,
            "dimension": dimension,
            "basis": [[str(v) for v in vec] for vec in basis],
        }
        lines = [f"constraint space dimension: {dimension}"]
        _emit(payload, lines, args.format)
        return 0 if dimension == 0 else 1
    if args.field is None:
        raise InputError("need --field FILE or --constraint-space --n N")
    vf = _load_field(args.field, args.dim)
    try:
        report = is_hamiltonian(vf)
    except ValueError as err:
        raise InputError(str(err)) from err
    payload = {
        "dim": vf.dim,
        "is_hamiltonian": report.is_hamiltonian,
        "defects": [
            {"pair": list(pair), "poly": str(poly)}
            for pair, poly in report.defects
        ],
    }
    lines = [
        "Hamiltonian" if report.is_hamiltonian
        else f"not Hamiltonian ({len(report.defects)} defect pairs)"
    ]
    _emit(payload, lines, args.format)
    return 0 if report.is_hamiltonian else 1


def _cmd_integrate(args) -> int:
    vf = _load_field(args.field, args.dim)
    x0 = _float_list(args.x0, "--x0")
    if len(x0) != vf.dim:
        raise InputError(f"--x0 has {len(x0)} coordinates, field on R^{vf.dim}")
    if not 0 < args.h < float("inf") or args.steps < 1:
        raise InputError("need a finite --h > 0 and --steps >= 1")
    watches = [
        (_parse_poly_arg(text, vf.dim, "--watch"), text)
        for text in (args.watch or [])
    ]
    try:
        traj = integrate_rk4(vf, x0, args.h, args.steps)
    except NonFiniteError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 1
    final = [float(v) for v in traj.states[-1]]
    watch_payload = []
    for poly, text in watches:
        ev = compile_poly(poly)
        base = ev(tuple(traj.states[0]))
        drift = max(abs(ev(tuple(row)) - base) for row in traj.states)
        watch_payload.append({"poly": text, "max_abs_drift": drift})
    if args.dump:
        try:
            with open(args.dump, "w", encoding="utf-8") as handle:
                handle.write(trajectory_to_csv(traj))
        except OSError as err:
            raise InputError(f"cannot write {args.dump}: {err}") from err
    payload = {
        "t_final": float(traj.times[-1]),
        "x_final": final,
        "watch": watch_payload,
    }
    lines = [f"t = {payload['t_final']:.17g}",
             "x = (" + ", ".join(f"{v:.17g}" for v in final) + ")"]
    for entry in watch_payload:
        lines.append(
            f"watch {entry['poly']}: max drift {entry['max_abs_drift']:.3e}"
        )
    _emit(payload, lines, args.format)
    return 0


def _cmd_certify(args) -> int:
    if args.instances is not None and args.instances < 1:
        raise InputError("need --instances >= 1")
    report = run_suite(args.suite, seed=args.seed, instances=args.instances)
    payload = {
        "suite": report.name,
        "instances": report.instances,
        "passed": report.passed,
        "lines": report.lines,
        "failures": report.failures,
    }
    lines = list(report.lines)
    for failure in report.failures:
        lines.append(f"FAIL {failure}")
    lines.append("suite passed" if report.passed else "suite FAILED")
    _emit(payload, lines, args.format)
    return 0 if report.passed else 1


# ----- parser wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmosphere",
        description=(
            "Exact invariance tests, Darboux first integrals, and numeric "
            "cross-checks for coordinate-factoring polynomial fields with "
            "an invariant unit sphere."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="membership and sphere invariance")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cofactor", help="cofactor of a hypersurface")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--surface", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_cofactor)

    p = sub.add_parser("darboux", help="first integrals from the exponent matrix")
    p.add_argument("--form", required=True)
    p.add_argument("--g", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_darboux)

    p = sub.add_parser("syzygy-fi", help="monomial first integrals")
    p.add_argument("--form", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_syzygy_fi)

    p = sub.add_parser("classify-hyperplane", help="hyperplane invariance")
    p.add_argument("--form", required=True)
    p.add_argument("--a0", required=True)
    p.add_argument("--a", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_classify_hyperplane)

    construct = sub.add_parser("construct", help="build fields with integrals")
    csub = construct.add_subparsers(dest="construct_command", required=True)

    p = csub.add_parser("linear-fi", help="conserve an affine function")
    p.add_argument("--a0", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--seed", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_construct_linear_fi)

    p = csub.add_parser("complete", help="completely integrable family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--atilde", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_construct_complete)

    p = csub.add_parser("cubic", help="assemble a constant-form field")
    p.add_argument("--form", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_construct_cubic)

    p = sub.add_parser("hamiltonian", help="Hamiltonian structure tests")
    p.add_argument("--field")
    p.add_argument("--dim", type=int)
    p.add_argument("--constraint-space", action="store_true")
    p.add_argument("--n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_hamiltonian)

    p = sub.add_parser("integrate", help="fixed-step RK4 trajectory")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--x0", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--watch", action="append")
    p.add_argument("--dump")
    add_format(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("certify", help="randomized certification suites")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
