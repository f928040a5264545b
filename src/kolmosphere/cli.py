"""Command-line interface.

Exit codes: 0 for a positive verdict (or successful construction), 1 for a
negative mathematical verdict or a failed numerical integration, 2 for
unusable input, 3 for an internal error (a failed self-check, which raises
``SelfCheckError``, or any other unexpected exception), which is never a
verdict.  Every subcommand accepts ``--format json`` for machine-readable
output; runs are deterministic, so identical invocations produce identical
bytes.

Each ``_cmd_*`` returns ``(code, payload, lines)``: the exit code, the JSON
payload, and the text lines built from that payload.  ``main`` is the one
place that prints results and maps exceptions to exit codes.  It reuses one
argparse tree per process (``build_parser`` is cached), so a script or test
that calls ``main`` many times builds it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from .polyring import NEG_INF, ParseError, Poly, UnprintableError, parse
from .field_forms import (
    assemble_cubic,
    cubic_form_from_dict,
    field_from_dict,
    field_to_dict,
    is_kolmogorov_on_sphere,
    pure_square_profile,
    read_rational,
    seed_from_dict,
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
    drift_sweep,
    integrate_rk4,
    trajectory_to_csv,
)
from .suites import SUITES, run_suite

# (exit code, JSON payload, text lines)
Outcome = Tuple[int, dict, List[str]]


class InputError(Exception):
    """Bad file, bad text, bad flag combination: exit code 2."""


T = TypeVar("T")


def _load(path: str, reader: Callable[[dict], T]) -> T:
    """``reader`` applied to the JSON object in ``path``; every fault in
    the file becomes an ``InputError`` that names it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    except UnicodeDecodeError as err:
        raise InputError(f"{path} is not UTF-8 text: {err}") from err
    except RecursionError as err:
        raise InputError(f"{path} is nested too deeply") from err
    except ValueError as err:  # an integer past the interpreter's digit limit
        # The message ends with advice to call sys.set_int_max_str_digits(),
        # which is no use to someone running the command; keep the limit.
        raise InputError(f"{path}: {str(err).partition(';')[0]}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    try:
        return reader(data)
    except KeyError as err:
        raise InputError(f"{path}: missing key {err}") from err
    except (ValueError, TypeError, IndexError) as err:
        raise InputError(f"{path}: {err}") from err


def _parse_poly_arg(text: str, dim: int, what: str) -> Poly:
    try:
        return parse(text, dim)
    except (ParseError, ValueError, IndexError) as err:
        raise InputError(f"{what}: {err}") from err


def _surface_arg(text: str, dim: int, what: str) -> Hypersurface:
    poly = _parse_poly_arg(text, dim, what)
    try:
        return Hypersurface(poly)
    except ValueError as err:
        raise InputError(f"{what}: {err}") from err


def _hyperplane_arg(a0: str, a: str, dim: Optional[int] = None) -> HyperplaneSpec:
    """``--a0``/``--a`` as a hyperplane; ``dim``, when given, is the
    dimension the form lives in."""
    try:
        constant = read_rational(a0, "--a0")
        coeffs = [
            read_rational(piece.strip(), f"--a entry {k}")
            for k, piece in enumerate(a.split(","), start=1)
        ]
    except ValueError as err:
        raise InputError(str(err)) from err
    if dim is not None and len(coeffs) != dim:
        raise InputError(f"--a has {len(coeffs)} entries, form lives on R^{dim}")
    try:
        return HyperplaneSpec.from_values(constant, coeffs)
    except ValueError as err:
        raise InputError(f"hyperplane spec: {err}") from err


def _float_list(text: str, what: str) -> List[float]:
    try:
        return [float(piece.strip()) for piece in text.split(",")]
    except ValueError as err:
        raise InputError(f"{what}: {err}") from err


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def _poly_text(poly: Poly, what: str) -> str:
    """``str(poly)``, the ``what`` of a verdict; a coefficient too long to
    print is named as one of the ``what``."""
    try:
        return str(poly)
    except UnprintableError as err:
        raise UnprintableError(f"the {what}", err.part) from None


def _one_line(text: str) -> str:
    """``text`` on one line: each character that does not print, a line
    break included, is written as its escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _tuple_text(values: Iterable[str]) -> str:
    return f"({', '.join(values)})"


def _exponent_lines(integrals: List[dict]) -> List[str]:
    return [f"exponents: {_tuple_text(i['exponents'])}" for i in integrals]


# ----- subcommands -----------------------------------------------------------


def _cmd_check(args) -> Outcome:
    vf = _load(args.field, field_from_dict)
    report = is_kolmogorov_on_sphere(vf)
    degree = vf.degree()
    payload = {
        "dim": vf.dim,
        "degree": None if degree == NEG_INF else int(degree),
        "kolmogorov": report.kolmogorov,
        "sphere_invariant": report.sphere_invariant,
        "sphere_cofactor": (
            None if report.sphere_cofactor is None
            else _poly_text(report.sphere_cofactor, "sphere cofactor")
        ),
    }
    lines = [
        f"dimension: {payload['dim']}",
        f"degree: {payload['degree']}",
        f"coordinate factorization: {'yes' if payload['kolmogorov'] else 'no'}",
        f"unit sphere invariant: {'yes' if payload['sphere_invariant'] else 'no'}",
    ]
    if payload["sphere_cofactor"] is not None:
        lines.append(f"sphere cofactor: {payload['sphere_cofactor']}")
    return (0 if report.passes else 1), payload, lines


def _cmd_cofactor(args) -> Outcome:
    vf = _load(args.field, field_from_dict)
    outcome = cofactor(vf, _surface_arg(args.surface, vf.dim, "--surface"))
    if outcome is None:
        payload = {"invariant": False, "cofactor": None, "structured": None}
        return 1, payload, ["not invariant"]
    # k0 and k are coefficients of the cofactor: they print once it does.
    text = _poly_text(outcome, "cofactor")
    view = pure_square_profile(outcome)
    structured = (
        None if view is None
        else {"k0": str(view.k0), "k": [str(v) for v in view.k]}
    )
    payload = {"invariant": True, "cofactor": text, "structured": structured}
    lines = [f"invariant with cofactor: {payload['cofactor']}"]
    if structured is not None:
        lines.append(
            f"structured: k0 = {structured['k0']}, k = {_tuple_text(structured['k'])}"
        )
    return 0, payload, lines


def _cmd_darboux(args) -> Outcome:
    form = _load(args.form, cubic_form_from_dict)
    g = _surface_arg(args.g, form.dim, "--g")
    try:
        found = find_darboux(form, g)
    except NotInvariantError as err:
        payload = {"invariant": False, "integrals": [], "error": str(err)}
        return 1, payload, [f"no integrals: {payload['error']}"]
    integrals = [i.to_dict() for i in found]
    payload = {"invariant": True, "integrals": integrals}
    lines = [f"{len(integrals)} integral(s)"] + _exponent_lines(integrals)
    return (0 if integrals else 1), payload, lines


def _cmd_syzygy_fi(args) -> Outcome:
    form = _load(args.form, cubic_form_from_dict)
    integrals = [i.to_dict() for i in syzygy_first_integral(form)]
    payload = {"integrals": integrals}
    lines = [f"{len(integrals)} monomial integral(s)"] + _exponent_lines(integrals)
    return (0 if integrals else 1), payload, lines


def _cmd_classify_hyperplane(args) -> Outcome:
    form = _load(args.form, cubic_form_from_dict)
    verdict = classify_hyperplane(form, _hyperplane_arg(args.a0, args.a, form.dim))
    predicted = verdict.predicted
    payload = {
        "invariant": verdict.invariant,
        "case": verdict.case,
        "k0": None if predicted is None else str(predicted.k0),
        "k": None if predicted is None else [str(v) for v in predicted.k],
    }
    if not payload["invariant"]:
        return 1, payload, ["not invariant with a structured cofactor"]
    line = (
        f"invariant ({payload['case']}), cofactor k0 = {payload['k0']}, "
        f"k = {_tuple_text(payload['k'])}"
    )
    return 0, payload, [line]


def _cmd_construct_linear_fi(args) -> Outcome:
    hp = _hyperplane_arg(args.a0, args.a)
    field, form = construct_linear_fi_field(
        hp, _load(args.seed, lambda data: seed_from_dict(data, hp.dim))
    )
    payload = {
        **field_to_dict(field),
        "atilde": [[str(p) for p in row] for row in form.atilde],
        "first_integral": str(hp.defining_poly()),
        "verified": True,
    }
    lines = [f"field: {payload['components']}",
             f"conserves: {payload['first_integral']}"]
    return 0, payload, lines


def _cmd_construct_complete(args) -> Outcome:
    if args.n < 1:  # before --atilde, which is parsed in n + 1 variables
        raise InputError("need n >= 1")
    atilde = _parse_poly_arg(args.atilde, args.n + 1, "--atilde")
    field, cert = construct_completely_integrable(args.n, args.m, atilde)
    payload = {
        **field_to_dict(field),
        "integrals": [i.to_dict() for i in cert.integrals],
        "sample_point": [str(c) for c in cert.sample_point.coords],
        "jacobian_rank": cert.jacobian_rank,
    }
    lines = [
        f"field: {payload['components']}",
        f"{len(payload['integrals'])} independent integral(s), "
        f"jacobian rank {payload['jacobian_rank']} at "
        f"{_tuple_text(payload['sample_point'])}",
    ]
    return 0, payload, lines


def _cmd_construct_cubic(args) -> Outcome:
    form = _load(args.form, cubic_form_from_dict)
    payload = field_to_dict(assemble_cubic(form))
    return 0, payload, [f"field: {payload['components']}"]


def _cmd_hamiltonian(args) -> Outcome:
    if args.constraint_space and args.field is not None:
        raise InputError("give --field or --constraint-space, not both")
    if args.n is not None and not args.constraint_space:
        raise InputError("--n needs --constraint-space")
    if args.constraint_space:
        if args.n is None or args.n < 1:
            raise InputError("--constraint-space needs --n >= 1")
        dimension, basis = hamiltonian_constraint_space(args.n)
        payload = {
            "n": args.n,
            "dimension": dimension,
            "basis": [[str(v) for v in vec] for vec in basis],
        }
        lines = [f"constraint space dimension: {payload['dimension']}"]
        return (0 if dimension == 0 else 1), payload, lines
    if args.field is None:
        raise InputError("need --field FILE or --constraint-space --n N")
    vf = _load(args.field, field_from_dict)
    report = is_hamiltonian(vf)
    payload = {
        "dim": vf.dim,
        "is_hamiltonian": report.is_hamiltonian,
        "defects": [
            {"pair": list(pair),
             "poly": _poly_text(poly, f"defect of the pair {pair}")}
            for pair, poly in report.defects
        ],
    }
    if payload["is_hamiltonian"]:
        return 0, payload, ["Hamiltonian"]
    return 1, payload, [f"not Hamiltonian ({len(payload['defects'])} defect pairs)"]


def _cmd_integrate(args) -> Outcome:
    vf = _load(args.field, field_from_dict)
    x0 = _float_list(args.x0, "--x0")
    if len(x0) != vf.dim:
        raise InputError(f"--x0 has {len(x0)} coordinates, field on R^{vf.dim}")
    if not 0 < args.h < float("inf") or args.steps < 1:
        raise InputError("need a finite --h > 0 and --steps >= 1")
    # Each watch's sweep is built before the stepping loop, so a watch
    # coefficient past the double range is refused before any step runs.
    watches = [
        (text, drift_sweep(_parse_poly_arg(text, vf.dim, "--watch"),
                           f"watched value {_one_line(text)}"))
        for text in (args.watch or [])
    ]
    traj = integrate_rk4(vf, x0, args.h, args.steps)
    watch_payload = [
        {"poly": text, "max_abs_drift": drift(traj)} for text, drift in watches
    ]
    if args.dump:
        _write_text(args.dump, trajectory_to_csv(traj))
    payload = {
        "t_final": traj.h * (len(traj.rows) - 1),
        "x_final": list(traj.rows[-1]),
        "watch": watch_payload,
    }
    lines = [
        f"t = {payload['t_final']:.17g}",
        "x = " + _tuple_text(f"{v:.17g}" for v in payload["x_final"]),
    ] + [
        f"watch {_one_line(entry['poly'])}: max drift {entry['max_abs_drift']:.3e}"
        for entry in watch_payload
    ]
    return 0, payload, lines


def _cmd_certify(args) -> Outcome:
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
    lines = (
        payload["lines"]
        + [f"FAIL {failure}" for failure in payload["failures"]]
        + ["suite passed" if payload["passed"] else "suite FAILED"]
    )
    return (0 if report.passed else 1), payload, lines


# ----- parser wiring ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with a single '-' as a
    value unless it is one of the parser's own option strings.  Plain
    argparse takes such a token for an option unless it looks like a
    negative number, so ``--x0 -0.5,0.5,0.5``, ``--a -1,0,1`` and
    ``--watch -x1`` would fail with "expected one argument"; ``--watch -h``
    still does.  Subparsers are built with this class too."""

    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[1:2] not in ("", "-")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.
    ``parse_args`` returns a fresh namespace on each call, and argparse
    reads ``sys.stdout``, ``sys.stderr`` and the terminal width when it
    prints, not when it is built, so ``main`` can reuse the one tree."""
    parser = _Parser(
        prog="kolmosphere",
        description=(
            "Exact invariance tests, Darboux first integrals, and numeric "
            "cross-checks for coordinate-factoring polynomial fields with "
            "an invariant unit sphere."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(subparsers, name, func, help):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    p = command(sub, "check", _cmd_check, "membership and sphere invariance")
    p.add_argument("--field", required=True)

    p = command(sub, "cofactor", _cmd_cofactor, "cofactor of a hypersurface")
    p.add_argument("--field", required=True)
    p.add_argument("--surface", required=True)

    p = command(sub, "darboux", _cmd_darboux,
                "first integrals from the exponent matrix")
    p.add_argument("--form", required=True)
    p.add_argument("--g", required=True)

    p = command(sub, "syzygy-fi", _cmd_syzygy_fi, "monomial first integrals")
    p.add_argument("--form", required=True)

    p = command(sub, "classify-hyperplane", _cmd_classify_hyperplane,
                "hyperplane invariance")
    p.add_argument("--form", required=True)
    p.add_argument("--a0", required=True)
    p.add_argument("--a", required=True)

    construct = sub.add_parser("construct", help="build fields with integrals")
    csub = construct.add_subparsers(dest="construct_command", required=True)

    p = command(csub, "linear-fi", _cmd_construct_linear_fi,
                "conserve an affine function")
    p.add_argument("--a0", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--seed", required=True)

    p = command(csub, "complete", _cmd_construct_complete,
                "completely integrable family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--atilde", required=True)

    p = command(csub, "cubic", _cmd_construct_cubic,
                "assemble a constant-form field")
    p.add_argument("--form", required=True)

    p = command(sub, "hamiltonian", _cmd_hamiltonian, "Hamiltonian structure tests")
    p.add_argument("--field")
    p.add_argument("--constraint-space", action="store_true")
    p.add_argument("--n", type=int)

    p = command(sub, "integrate", _cmd_integrate, "fixed-step RK4 trajectory")
    p.add_argument("--field", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--watch", action="append")
    p.add_argument("--dump")

    p = command(sub, "certify", _cmd_certify, "randomized certification suites")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int)

    for p in commands:  # last, so that --help lists it after the inputs
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _refuse_dropped_values(args: argparse.Namespace) -> None:
    """The argparse of Python 3.11 reads ``--option=--`` as an empty list of
    values, not as the text "--"; refuse it rather than pass the list on to
    a reader that expects text or a number."""
    for name, value in vars(args).items():
        if value == [] or (isinstance(value, list) and [] in value):
            option = "--" + name.replace("_", "-")
            raise InputError(f"{option}: expected a value, got '--'")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            _refuse_dropped_values(args)
            code, payload, lines = args.func(args)
        except (InputError, ValueError, IndexError, ZeroDivisionError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except NonFiniteError as err:
            print(f"integration failed: {err}", file=sys.stderr)
            return 1
        if args.format == "json":
            out = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        else:
            out = "\n".join(lines)
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
