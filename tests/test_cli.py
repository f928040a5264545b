"""Command-line interface: exit codes, golden outputs, file formats."""

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import kolmosphere
from kolmosphere import (
    cli, darboux, field_from_dict, integrate_rk4, numeric_validate,
)
from kolmosphere.cli import main
from kolmosphere.polyring import Poly
from kolmosphere.suites import SUITES, run_suite

from conftest import capped_exponents

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

FIELD = str(FIXDIR / "demo3d_field.json")
FORM = str(FIXDIR / "demo3d_form.json")
SEED = str(FIXDIR / "rotation_seed.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


def test_check_json_golden(capsys):
    code, out, err = run(
        capsys, "check", "--field", FIELD, "--format", "json"
    )
    assert code == 0
    assert err == ""
    assert out == golden("check_demo3d.json")
    assert json.loads(out)["kolmogorov"] is True


def test_check_text_golden(capsys):
    code, out, _ = run(capsys, "check", "--field", FIELD)
    assert code == 0
    assert out == golden("check_demo3d.txt")


def test_python_dash_m_kolmosphere_runs_the_cli():
    src = Path(kolmosphere.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "kolmosphere", "check",
         "--field", "fixtures/demo3d_field.json"],
        capture_output=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / "check_demo3d.txt").read_bytes()


@pytest.mark.parametrize(
    "name, code, argv",
    [
        ("cofactor_sphere.txt", 0,
         ["cofactor", "--field", FIELD, "--surface", "x1^2 + x2^2 + x3^2 - 1"]),
        ("darboux_demo3d.txt", 0,
         ["darboux", "--form", FORM, "--g", "1 - x1^2 - x2^2 - x3^2"]),
        ("syzygy_demo3d.txt", 0, ["syzygy-fi", "--form", FORM]),
        ("classify_offset.txt", 1,
         ["classify-hyperplane", "--form", FORM, "--a0", "1", "--a", "1,0,1"]),
        ("classify_origin.txt", 0,
         ["classify-hyperplane", "--form", FORM, "--a0", "0", "--a", "1,0,-1"]),
        ("construct_complete.txt", 0,
         ["construct", "complete", "--n", "2", "--m", "4", "--atilde", "x1"]),
        ("constraint_n2.txt", 0,
         ["hamiltonian", "--constraint-space", "--n", "2"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_text_golden(capsys, name, code, argv):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert err == ""
    assert out == golden(name)


def test_check_exit_one_for_non_members(capsys, tmp_path):
    bad = tmp_path / "rot.json"
    bad.write_text(json.dumps({"dim": 2, "components": ["x2", "-x1"]}))
    code, out, _ = run(capsys, "check", "--field", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out)["kolmogorov"] is False


def test_cofactor_golden(capsys):
    code, out, _ = run(
        capsys,
        "cofactor",
        "--field", FIELD,
        "--surface", "x1^2 + x2^2 + x3^2 - 1",
        "--format", "json",
    )
    assert code == 0
    assert out == golden("cofactor_sphere.json")


def test_cofactor_exit_one_when_not_invariant(capsys):
    code, out, _ = run(
        capsys, "cofactor", "--field", FIELD, "--surface", "x1 + x2",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["invariant"] is False


def test_darboux_golden(capsys):
    code, out, _ = run(
        capsys,
        "darboux",
        "--form", FORM,
        "--g", "1 - x1^2 - x2^2 - x3^2",
        "--format", "json",
    )
    assert code == 0
    assert out == golden("darboux_demo3d.json")
    payload = json.loads(out)
    assert payload["invariant"] is True
    assert len(payload["integrals"]) == 2


def test_syzygy_golden(capsys):
    code, out, _ = run(
        capsys, "syzygy-fi", "--form", FORM, "--format", "json"
    )
    assert code == 0
    assert out == golden("syzygy_demo3d.json")


def test_classify_hyperplane_golden_negative(capsys):
    code, out, _ = run(
        capsys,
        "classify-hyperplane",
        "--form", FORM,
        "--a0", "1",
        "--a", "1,0,1",
        "--format", "json",
    )
    assert code == 1
    assert out == golden("classify_offset.json")


def test_classify_hyperplane_positive(capsys):
    code, out, _ = run(
        capsys,
        "classify-hyperplane",
        "--form", FORM,
        "--a0", "0",
        "--a", "1,0,-1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] is True
    assert payload["case"] == "through_origin"


def test_construct_complete_golden(capsys):
    code, out, _ = run(
        capsys,
        "construct", "complete",
        "--n", "2", "--m", "4", "--atilde", "x1",
        "--format", "json",
    )
    assert code == 0
    assert out == golden("construct_complete.json")


def test_construct_linear_fi_conserves_the_plane(capsys):
    code, out, _ = run(
        capsys,
        "construct", "linear-fi",
        "--a0", "5", "--a", "1,2,3", "--seed", SEED,
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["first_integral"] == "x1 + 2*x2 + 3*x3 + 5"


def test_construct_linear_fi_assembles_its_field_once(capsys, monkeypatch):
    from kolmosphere import field_forms

    calls = []
    real = field_forms._assemble
    monkeypatch.setattr(
        field_forms, "_assemble", lambda *args: calls.append(1) or real(*args)
    )
    code, out, _ = run(
        capsys, "construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
        "--seed", SEED,
    )
    assert code == 0 and out.startswith("field: ")
    assert len(calls) == 1


def test_construct_cubic_round_trip(capsys):
    from kolmosphere import parse

    code, out, _ = run(
        capsys, "construct", "cubic", "--form", FORM, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    with open(FIELD) as fh:
        source = json.load(fh)["components"]
    assert [parse(c, 3) for c in payload["components"]] == [
        parse(c, 3) for c in source
    ]


def test_a_json_float_in_a_form_reads_as_its_decimal_text(capsys, tmp_path):
    form = tmp_path / "form.json"
    outputs = []
    for alpha in ([0.1, 0], ["1/10", "0"]):
        form.write_text(json.dumps(
            {"dim": 2, "alpha": alpha, "atilde": [[0, 1], [-1, 0]]}
        ))
        outputs.append(run(capsys, "construct", "cubic", "--form", str(form)))
    assert outputs[0] == outputs[1]
    code, out, _ = outputs[0]
    assert code == 0
    assert "1/10*x1" in out


def test_hamiltonian_field_verdicts(capsys, tmp_path):
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"dim": 2, "components": ["x2", "-x1"]}))
    code, out, _ = run(
        capsys, "hamiltonian", "--field", str(rot), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["is_hamiltonian"] is True

    rad = tmp_path / "rad.json"
    rad.write_text(json.dumps({"dim": 2, "components": ["x1", "2*x2"]}))
    code, out, _ = run(
        capsys, "hamiltonian", "--field", str(rad), "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["is_hamiltonian"] is False


def test_hamiltonian_constraint_space_golden(capsys):
    code, out, _ = run(
        capsys, "hamiltonian", "--constraint-space", "--n", "2",
        "--format", "json",
    )
    assert code == 0
    assert out == golden("constraint_n2.json")


def test_hamiltonian_constraint_space_reports_the_planar_family(capsys):
    code, out, _ = run(
        capsys, "hamiltonian", "--constraint-space", "--n", "1",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["basis"] == [["1", "-1", "-2"]]


def test_integrate_dump_writes_csv(capsys, tmp_path):
    dump = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "integrate",
        "--field", FIELD,
        "--x0", "0.5,0.5,0.5",
        "--h", "0.001",
        "--steps", "100",
        "--watch", "x1^2 + x2^2 + x3^2 - 1",
        "--dump", str(dump),
        "--format", "json",
    )
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 102
    payload = json.loads(out)
    assert payload["t_final"] == pytest.approx(0.1)
    assert len(payload["x_final"]) == 3
    assert payload["watch"][0]["poly"] == "x1^2 + x2^2 + x3^2 - 1"


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
def test_integrate_golden(capsys, tmp_path, fmt, ext):
    dump = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        "integrate",
        "--field", FIELD,
        "--x0", "0.5,0.4,0.3",
        "--h", "0.001",
        "--steps", "100",
        "--watch", "x1^2 + x2^2 + x3^2 - 1",
        "--watch", "x1*x2*x3",
        "--dump", str(dump),
        "--format", fmt,
    )
    assert code == 0
    assert err == ""
    assert out == golden(f"integrate_demo3d.{ext}")
    assert dump.read_text() == golden("integrate_demo3d.csv")


def test_certify_roundtrip_suite(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--suite", "roundtrip", "--seed", "3",
        "--instances", "20", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suite"] == "roundtrip"


def test_certify_determinant_suite(capsys):
    code, out, _ = run(
        capsys, "certify", "--suite", "cor44", "--instances", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    # Zero instances run nothing and say so, as in the other suites.
    empty = run_suite("cor44", instances=0)
    assert (empty.instances, empty.lines) == (0, [])


def test_every_ring_result_hands_trusted_a_canonical_dict(
    monkeypatch, capsys, tmp_path
):
    """``Poly._trusted`` stores the dict it is given, unchecked, so every
    producer must hand it exponent tuples of length ``dim`` and canonical
    coefficients: nonzero, and an ``int`` exactly when integral.  A spy
    checks each dict through every suite and every README command."""
    trusted = Poly._trusted
    calls = []
    faults = []

    def spy(cls, dim, terms):
        calls.append(len(terms))
        faults.extend(
            (dim, e, c) for e, c in terms.items()
            if len(e) != dim or not c or type(c) not in (int, Fraction)
            or (type(c) is Fraction and c.denominator == 1)
        )
        return trusted(dim, terms)

    planar = tmp_path / "planar.json"
    # X = (dH/dx2, -dH/dx1) for H = 1/3*x1*x2*(x1^2 + x2^2 - 1), whose
    # check differentiates 1/3*x1^3 and 1/3*x2^3 to integral coefficients.
    planar.write_text(json.dumps({"dim": 2, "components": [
        "1/3*x1^3 + x1*x2^2 - 1/3*x1", "-x1^2*x2 - 1/3*x2^3 + 1/3*x2",
    ]}))
    monkeypatch.setattr(Poly, "_trusted", classmethod(spy))
    for name in sorted(SUITES):
        run_suite(name, seed=0, instances=3)
    commands = [
        ["check", "--field", FIELD],
        ["cofactor", "--field", FIELD, "--surface", "x1^2 + x2^2 + x3^2 - 1"],
        ["darboux", "--form", FORM, "--g", "1 - x1^2 - x2^2 - x3^2"],
        ["syzygy-fi", "--form", FORM],
        ["classify-hyperplane", "--form", FORM, "--a0", "0", "--a", "1,0,-1"],
        ["construct", "linear-fi", "--a0", "5", "--a", "1,2,3", "--seed", SEED],
        ["construct", "complete", "--n", "2", "--m", "4", "--atilde", "x1"],
        ["construct", "cubic", "--form", FORM],
        ["hamiltonian", "--field", str(planar)],
        ["hamiltonian", "--constraint-space", "--n", "2"],
        ["integrate", "--field", FIELD, "--x0", "0.5,0.5,0.5", "--h", "0.001",
         "--steps", "100", "--watch", "x1^2 + x2^2 + x3^2 - 1",
         "--dump", str(tmp_path / "traj.csv")],
        ["certify", "--suite", "roundtrip", "--seed", "7", "--instances", "20"],
    ]
    codes = [run(capsys, *argv)[0] for argv in commands]
    assert codes == [0] * len(commands)
    assert len(calls) > 1000
    assert faults == []


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_run_suite_refuses_a_negative_instance_count(suite):
    with pytest.raises(ValueError, match="instances >= 0"):
        run_suite(suite, instances=-3)


def test_certify_constraint_suite_reports_the_planar_family(capsys):
    code, out, _ = run(capsys, "certify", "--suite", "thm13", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert "n=1" in payload["failures"][0]


def test_certify_constraint_suite_honours_instances(capsys):
    code, out, _ = run(
        capsys, "certify", "--suite", "thm13", "--instances", "2",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["instances"] == 2
    assert payload["lines"] == [
        "n=1: constraint space dimension 1",
        "n=2: constraint space dimension 0",
    ]
    assert payload["failures"] == ["n=1: dimension 1, basis (1, -1, -2)"]


def test_exit_code_two_for_unreadable_files(capsys):
    code, out, err = run(capsys, "check", "--field", "/definitely/not/here.json")
    assert code == 2
    assert "error:" in err


def test_exit_code_two_for_parse_errors(capsys):
    code, _, err = run(
        capsys, "cofactor", "--field", FIELD, "--surface", "x1 + "
    )
    assert code == 2
    assert "position" in err


def test_construct_complete_rejects_wrong_degree(capsys):
    code, _, err = run(
        capsys,
        "construct", "complete",
        "--n", "2", "--m", "5", "--atilde", "x1",
    )
    assert code == 2
    assert "degree" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrate", "--field", FIELD, "--x0", "0.5,0.5,0.5",
          "--h", "0.001", "--steps", "0"],
         "need a finite --h > 0 and --steps >= 1"),
        (["integrate", "--field", FIELD, "--x0", "0.5,0.5,0.5",
          "--h", "nan", "--steps", "10"],
         "need a finite --h > 0 and --steps >= 1"),
        (["hamiltonian", "--constraint-space", "--n", "0"],
         "--constraint-space needs --n >= 1"),
        (["syzygy-fi", "--form", "ZERO_DENOMINATOR_FORM"],
         "ZERO_DENOMINATOR_FORM: alpha entry 1 has a zero denominator"),
        (["syzygy-fi", "--form", "ZERO_DENOMINATOR_ATILDE_FORM"],
         "ATILDE_FORM: atilde entry (2, 1) has a zero denominator"),
        (["syzygy-fi", "--form", "INFINITE_FORM"],
         "INFINITE_FORM: alpha entry 2 is not finite"),
        (["certify", "--suite", "roundtrip", "--instances", "-5"],
         "need --instances >= 1"),
        (["cofactor", "--field", FIELD,
          "--surface", "(" * 3000 + "x1" + ")" * 3000],
         "expected at most 100 nested parentheses"),
        (["darboux", "--form", "UNSTRUCTURED_FORM", "--g", "1 + x1 - x2"],
         "is not of the shape k0 + sum k_i x_i^2"),
        (["darboux", "--form", FORM, "--g", "x1"],
         "error: g = x1 is a single term, so its only integral with the "
         "coordinate hyperplanes is a constant\n"),
        (["darboux", "--form", FORM, "--g", "2*x1*x2", "--format", "json"],
         "error: g = 2*x1*x2 is a single term"),
        (["darboux", "--form", FORM, "--g", "x1^2"],
         "error: g = x1^2 is a single term"),
        (["integrate", "--field", FIELD, "--x0", "nan,0.5,0.5",
          "--h", "0.001", "--steps", "10"],
         "x0 must be finite, got (nan, 0.5, 0.5)"),
        (["integrate", "--field", FIELD, "--x0", "0.5,inf,0.5",
          "--h", "0.001", "--steps", "10"],
         "x0 must be finite, got (0.5, inf, 0.5)"),
        (["construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
          "--seed", "NUMBER_SEED"],
         "entry (1, 1) is 0, expected polynomial text"),
        (["construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
          "--seed", "NOT_SKEW_SEED"],
         "seed matrix entries (1,2) and (2,1) are not opposite"),
        (["construct", "complete", "--n", "-3", "--m", "4", "--atilde", "x1"],
         "need n >= 1"),
        (["construct", "cubic", "--form", "STRING_ALPHA_FORM"],
         "STRING_ALPHA_FORM: alpha must be an array"),
        (["construct", "cubic", "--form", "STRING_ROW_FORM"],
         "STRING_ROW_FORM: atilde row 1 must be an array"),
        (["syzygy-fi", "--form", "BOOLEAN_ALPHA_FORM"],
         "BOOLEAN_ALPHA_FORM: alpha entry 2 is a boolean, expected a rational"),
        (["syzygy-fi", "--form", "NULL_ALPHA_FORM"],
         "NULL_ALPHA_FORM: alpha entry 1 is null, expected a rational"),
        (["syzygy-fi", "--form", "ARRAY_ALPHA_FORM"],
         "ARRAY_ALPHA_FORM: alpha entry 1 is [1], expected a rational"),
        (["syzygy-fi", "--form", "NAN_TEXT_FORM"],
         'NAN_TEXT_FORM: atilde entry (1, 2) is "nan", expected a rational'),
        (["syzygy-fi", "--form", "FLOAT_DIM_FORM"],
         "FLOAT_DIM_FORM: dim must be a positive integer"),
        (["check", "--field", "FLOAT_DIM_FIELD"],
         "FLOAT_DIM_FIELD: dim must be a positive integer"),
        (["check", "--field", "BOOLEAN_DIM_FIELD"],
         "BOOLEAN_DIM_FIELD: dim must be a positive integer"),
        (["check", "--field", "STRING_COMPONENTS_FIELD"],
         "STRING_COMPONENTS_FIELD: components must be an array"),
        (["check", "--field", "NUMBER_COMPONENT_FIELD"],
         "NUMBER_COMPONENT_FIELD: component 1 must be polynomial text"),
        (["check", "--field", "ARRAY_FIELD"],
         "ARRAY_FIELD: expected a JSON object"),
        (["syzygy-fi", "--form", "NO_DIM_FORM"],
         "NO_DIM_FORM: missing key 'dim'"),
        (["construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
          "--seed", "STRING_ROWS_SEED"],
         "STRING_ROWS_SEED: entries row 1 must be an array"),
        (["construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
          "--seed", "STRING_ENTRIES_SEED"],
         "STRING_ENTRIES_SEED: entries must be an array"),
        (["check", "--field", "OUT_OF_RANGE_FIELD"],
         "OUT_OF_RANGE_FIELD: at position 0: variable x5 outside 1..3"),
        (["hamiltonian", "--constraint-space", "--n", "1", "--field", FIELD],
         "give --field or --constraint-space, not both"),
        (["hamiltonian", "--field", FIELD, "--n", "3"],
         "--n needs --constraint-space"),
        (["hamiltonian", "--field", FIELD],
         "error: Hamiltonian structure needs an even number of coordinates, "
         "field on R^3"),
        (["syzygy-fi", "--form", "ARABIC_DIGIT_FORM"],
         'ARABIC_DIGIT_FORM: alpha entry 1 is "\\u0661", expected a rational'),
        (["classify-hyperplane", "--form", FORM, "--a0", "1",
          "--a", "\u0661,0,1"],
         'error: --a entry 1 is "\\u0661", expected a rational'),
        (["classify-hyperplane", "--form", FORM, "--a0", "\u0661",
          "--a", "1,0,1"],
         'error: --a0 is "\\u0661", expected a rational'),
        # Python 3.11's argparse reads an option's value "--" as no value.
        (["cofactor", "--field", FIELD, "--surface=--"],
         "error: --surface: expected a value, got '--'"),
        (["integrate", "--field", FIELD, "--x0", "1,1,1", "--h", "0.1",
          "--steps", "3", "--watch", "x1", "--watch=--"],
         "error: --watch: expected a value, got '--'"),
        (["check", "--field=--"], "error: --field: expected a value, got '--'"),
        (["construct", "complete", "--n=--", "--m", "4", "--atilde", "x1"],
         "error: --n: expected a value, got '--'"),
    ],
    ids=["steps-0", "h-nan", "constraint-n-0", "form-1-over-0",
         "form-atilde-1-over-0", "form-infinity",
         "negative-instances", "3000-nested-parentheses",
         "unstructured-cofactor", "g-x1", "g-2x1x2-json", "g-x1-squared",
         "x0-nan", "x0-inf", "seed-of-numbers",
         "seed-not-skew", "negative-n", "form-alpha-string",
         "form-atilde-row-string", "form-alpha-boolean", "form-alpha-null",
         "form-alpha-array", "form-atilde-nan-text", "form-dim-float",
         "field-dim-float", "field-dim-boolean", "field-components-string",
         "field-component-number", "field-top-level-array", "form-no-dim",
         "seed-rows-strings", "seed-entries-string",
         "field-variable-out-of-range", "hamiltonian-field-and-space",
         "hamiltonian-field-and-n", "hamiltonian-odd-dimension",
         "form-arabic-digit", "a-arabic-digit", "a0-arabic-digit",
         "surface-dashes", "watch-dashes", "field-dashes", "n-dashes"],
)
def test_bad_input_exits_two_without_a_verdict(capsys, tmp_path, argv, message):
    inputs = {
        "ZERO_DENOMINATOR_FORM": {
            "dim": 2, "alpha": ["1/0", "1"],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        "ZERO_DENOMINATOR_ATILDE_FORM": {
            "dim": 2, "alpha": ["1", "1"],
            "atilde": [["0", "1"], ["-1/0", "0"]],
        },
        "INFINITE_FORM": {
            "dim": 2, "alpha": ["1", float("inf")],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        # g = 1 + x1 - x2 is invariant with cofactor -x1^2 + x2^2 + x1 + x2,
        # which is not of the shape k0 + sum k_i x_i^2.
        "UNSTRUCTURED_FORM": {
            "dim": 3, "alpha": ["1", "-1", "0"],
            "atilde": [["0", "2", "1"], ["-2", "0", "-1"], ["-1", "1", "0"]],
        },
        "NUMBER_SEED": {"entries": [[0, 1], [-1, 0]]},
        # Read character by character, this was alpha = (1, 2, 3).
        "STRING_ALPHA_FORM": {
            "dim": 3, "alpha": "123", "atilde": ["000", "000", "000"],
        },
        "STRING_ROW_FORM": {
            "dim": 2, "alpha": ["1", "1"], "atilde": ["01", ["-1", "0"]],
        },
        "BOOLEAN_ALPHA_FORM": {
            "dim": 2, "alpha": ["1", True],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        "NULL_ALPHA_FORM": {
            "dim": 2, "alpha": [None, "2"],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        "ARRAY_ALPHA_FORM": {
            "dim": 2, "alpha": [[1], "2"],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        "NAN_TEXT_FORM": {
            "dim": 2, "alpha": ["1", "2"],
            "atilde": [["0", "nan"], ["-1", "0"]],
        },
        "FLOAT_DIM_FORM": {
            "dim": 2.0, "alpha": ["1", "1"],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
        "FLOAT_DIM_FIELD": {"dim": 3.9, "components": ["x1", "x2", "x3"]},
        "BOOLEAN_DIM_FIELD": {"dim": True, "components": ["x1"]},
        "STRING_COMPONENTS_FIELD": {"dim": 1, "components": "1"},
        "NUMBER_COMPONENT_FIELD": {"dim": 1, "components": [1]},
        "NOT_SKEW_SEED": {"entries": [["0", "1"], ["1", "0"]]},
        "ARRAY_FIELD": [1, 2],
        "NO_DIM_FORM": {"alpha": ["1"], "atilde": [["0"]]},
        # Read character by character, these were the matrix [[0, 1], [1, 0]].
        "STRING_ROWS_SEED": {"entries": ["01", "10"]},
        "STRING_ENTRIES_SEED": {"entries": "ab"},
        "OUT_OF_RANGE_FIELD": {"dim": 3, "components": ["x5", "x2", "x3"]},
        # Fraction reads the Arabic-Indic one as 1: alpha = (1, 1).
        "ARABIC_DIGIT_FORM": {
            "dim": 2, "alpha": ["\u0661", "1"],
            "atilde": [["0", "1"], ["-1", "0"]],
        },
    }
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100000, "is nested too deeply"),
        (b"\xff\xfe{}", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        (b"not json", "is not valid JSON: Expecting value: line 1 column 1 "
         "(char 0)"),
    ],
    ids=["deep-nesting", "not-utf-8", "not-json"],
)
def test_unreadable_json_file_exits_two_naming_it(capsys, tmp_path, content, message):
    path = tmp_path / "field.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", "--field", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path} {message}\n"


NOT_INVARIANT = "surface x1 - x2 + 1 is not invariant for the assembled field"
INTEGRATE = ["integrate", "--field", FIELD, "--h", "0.1", "--steps", "3"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["darboux", "--form", FORM, "--g", "x1 - x2 + 1"], 1,
         f"no integrals: {NOT_INVARIANT}\n", ""),
        (["darboux", "--form", FORM, "--g", "x1 - x2 + 1", "--format", "json"],
         1, json.dumps({"error": NOT_INVARIANT, "integrals": [],
                        "invariant": False}, indent=2) + "\n", ""),
        (INTEGRATE + ["--x0", "1,2"], 2, "",
         "error: --x0 has 2 coordinates, field on R^3\n"),
        (INTEGRATE + ["--x0", "1,a,2"], 2, "",
         "error: --x0: could not convert string to float: 'a'\n"),
        (INTEGRATE + ["--x0", "0.5,0.5,0.5", "--dump", "{tmp}/missing/t.csv"],
         2, "", "error: cannot write {tmp}/missing/t.csv: [Errno 2] No such "
         "file or directory: '{tmp}/missing/t.csv'\n"),
        (["classify-hyperplane", "--form", FORM, "--a0", "1", "--a", "1,0"],
         2, "", "error: --a has 2 entries, form lives on R^3\n"),
        (["classify-hyperplane", "--form", FORM, "--a0", "1", "--a", "0,0,0"],
         2, "", "error: hyperplane spec: some linear coefficient a_i must be "
         "nonzero\n"),
        (["hamiltonian"], 2, "",
         "error: need --field FILE or --constraint-space --n N\n"),
    ],
    ids=["g-not-invariant", "g-not-invariant-json", "x0-too-short",
         "x0-not-a-number", "dump-missing-directory", "a-too-short",
         "a-all-zero", "hamiltonian-bare"],
)
def test_each_refusal_reports_its_message_and_exit_code(
    capsys, tmp_path, argv, code, out, err
):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(capsys, *argv) == (code, out, err.replace("{tmp}", str(tmp_path)))


def test_internal_error_exits_three_without_a_verdict(capsys, monkeypatch):
    def broken(form, g):
        raise RuntimeError("internal error: x")

    monkeypatch.setattr("kolmosphere.cli.find_darboux", broken)
    code, out, err = run(
        capsys, "darboux", "--form", FORM, "--g", "1 - x1^2 - x2^2 - x3^2",
        "--format", "json",
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: internal error: x\n"


def test_a_failed_self_check_exits_three_on_one_line(capsys, monkeypatch):
    real = darboux.coordinate_quotients
    monkeypatch.setattr(
        darboux, "coordinate_quotients",
        lambda vf: tuple(q + i for i, q in enumerate(real(vf))),
    )
    code, out, err = run(
        capsys, "darboux", "--form", FORM, "--g", "1 - x1^2 - x2^2 - x3^2",
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal error: SelfCheckError: DarbouxIntegral(")
    assert err.endswith(" fails the cofactor-sum check\n")
    assert err.count("\n") == 1


def test_the_hyperplane_suite_reports_failed_self_checks_only(
    capsys, monkeypatch
):
    """A failed self-check of the classifier is a FAIL line of the suite;
    any other exception is no verdict, so ``certify`` exits 3."""
    from kolmosphere import SelfCheckError, suites

    def disagree(form, hp):
        raise SelfCheckError("x")

    monkeypatch.setattr(suites, "classify_hyperplane", disagree)
    report = run_suite("thm41", instances=2)
    assert report.failures == [
        "instance 0: cross-check blew up: x",
        "instance 1: cross-check blew up: x",
    ]

    def crash(form, hp):
        raise RuntimeError("y")

    monkeypatch.setattr(suites, "classify_hyperplane", crash)
    code, out, err = run(capsys, "certify", "--suite", "thm41")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: y\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_non_finite_watch_fails_the_integration(capsys, fmt):
    code, out, err = run(
        capsys, "integrate", "--field", FIELD, "--x0", "2,0,0",
        "--h", "0.001", "--steps", "1", "--watch", "x1^2000", "--format", fmt,
    )
    assert code == 1
    assert out == ""
    assert err == (
        "integration failed: watched value x1^2000 became non-finite at step 0\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_watch_label_that_breaks_a_line_fails_on_one_line(
    capsys, tmp_path, fmt
):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 1, "components": ["0"]}))
    code, out, err = run(
        capsys, "integrate", "--field", str(field), "--x0", "1e200",
        "--h", "0.1", "--steps", "3", "--watch", "x1^2\n+ 1", "--format", fmt,
    )
    assert (code, out) == (1, "")
    assert err == (
        "integration failed: watched value x1^2\\n+ 1 became non-finite "
        "at step 0\n"
    )


def test_a_watch_label_that_breaks_a_line_reports_on_one_line(
    capsys, tmp_path
):
    """Line breaks, tabs and other characters that do not print are
    escaped in the text report; the JSON report keeps the text as given."""
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 1, "components": ["0"]}))
    argv = ["integrate", "--field", str(field), "--x0", "1", "--h", "0.1",
            "--steps", "3", "--watch", "x1^2\n+\t1\u2028", "--watch", "x1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[2:] == [
        "watch x1^2\\n+\\t1\\u2028: max drift 0.000e+00",
        "watch x1: max drift 0.000e+00",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert [w["poly"] for w in json.loads(out)["watch"]] == [
        "x1^2\n+\t1\u2028", "x1"
    ]


def test_a_watch_and_a_component_of_5000_terms_integrate(capsys, tmp_path):
    """Long generated sums go on in running assignments, so they compile;
    they used to stop with a RecursionError (exit 3)."""
    terms = [f"x1^{i}" for i in range(1, 5001)]
    code, out, err = run(
        capsys, "integrate", "--field", FIELD, "--x0", "0.5,0.4,0.3",
        "--h", "1e-3", "--steps", "10", "--watch", " + ".join(terms),
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["watch"][0]["max_abs_drift"] > 0.0
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 1, "components": ["-" + " - ".join(terms)]}))
    code, out, err = run(
        capsys, "integrate", "--field", str(field), "--x0", "0.5",
        "--h", "1e-3", "--steps", "3",
    )
    assert (code, err) == (0, "")


def test_cli_imports_no_private_name_from_a_sibling_module():
    """File formats and numeric checks live in the library; the CLI only
    uses their public names."""
    tree = ast.parse((ROOT / "src" / "kolmosphere" / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_an_overlong_json_integer_exits_two_naming_the_file(capsys, tmp_path):
    form = tmp_path / "form.json"
    form.write_text(
        '{"dim": 2, "alpha": [' + "1" * 5000 + ', 0], '
        '"atilde": [[0, 1], [-1, 0]]}'
    )
    code, out, err = run(capsys, "construct", "cubic", "--form", str(form))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {form}: Exceeds the limit (4300 digits)")
    assert "Traceback" not in err
    # Python's advice to call sys.set_int_max_str_digits() is no use to
    # someone running the command.
    assert "set_int_max_str_digits" not in err
    assert err == (
        f"error: {form}: Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 5000 digits\n"
    )


BIG = str(10**400)
NINES = "9" * 3000


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "component, argv, message",
    [
        ("10^400*x1", ["--h", "0.1", "--steps", "3"],
         f"the coefficient {BIG} of {BIG}*x1 is past the double range"),
        ("0", ["--h", "0.1", "--steps", "3", "--watch", "10^400*x1"],
         f"the coefficient {BIG} of {BIG}*x1 is past the double range"),
        ("0", ["--h", "1e308", "--steps", "3"],
         "need a finite final time h * steps, got 1e+308 * 3"),
        ("0", ["--h", "0.1", "--steps", BIG],
         f"need a finite final time h * steps, got 0.1 * {BIG}"),
        # Past the interpreter's digit limit: named by its monomial, with
        # no advice to call sys.set_int_max_str_digits().
        ("10^5000*x1", ["--h", "0.1", "--steps", "3"],
         "the coefficient of x1, too long to print, is past the double range"),
        ("0", ["--h", "0.1", "--steps", "3", "--watch", "10^5000*x1"],
         "the coefficient of x1, too long to print, is past the double range"),
        # x1 stays 1, so x1^e is 1; only the exponent has no double.
        ("0", ["--h", "0.1", "--steps", "3", "--watch", f"x1^{NINES[:400]}"],
         f"the exponent of x1 in x1^{NINES[:400]} is past the double range"),
    ],
    ids=[
        "field-coefficient", "watch-coefficient", "final-time", "step-count",
        "field-coefficient-too-long", "watch-coefficient-too-long",
        "watch-exponent",
    ],
)
def test_integrate_refuses_numbers_past_the_double_range(
    capsys, recwarn, tmp_path, fmt, component, argv, message
):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 1, "components": [component]}))
    code, out, err = run(
        capsys, "integrate", "--field", str(field), "--x0", "1", *argv,
        "--format", fmt,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_integrate_refuses_a_step_count_past_the_budget(capsys, monkeypatch, fmt):
    """The budget is made small: a count past the real one would fill
    memory with kept rows before this check existed."""
    monkeypatch.setattr(numeric_validate, "MAX_STEPS", 5)
    argv = ["integrate", "--field", FIELD, "--x0", "0.5,0.5,0.5", "--h", "0.1"]
    assert run(capsys, *argv, "--steps", "5", "--format", fmt)[0] == 0
    code, out, err = run(capsys, *argv, "--steps", "6", "--format", fmt)
    assert (code, out, err) == (2, "", "error: need steps <= 5, got 6\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("watch", ["10^400*x1", "10^5000*x1"])
def test_a_watch_past_the_double_range_is_refused_before_integrating(
    capsys, monkeypatch, tmp_path, fmt, watch
):
    def no_integration(*args):
        raise AssertionError("integrate_rk4 ran before the watch was checked")

    monkeypatch.setattr(cli, "integrate_rk4", no_integration)
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 1, "components": ["0"]}))
    code, out, err = run(
        capsys, "integrate", "--field", str(field), "--x0", "1", "--h", "0.1",
        "--steps", "3", "--watch", "x1", "--watch", watch, "--format", fmt,
    )
    coefficient = (
        f"the coefficient {BIG} of {BIG}*x1" if watch == "10^400*x1"
        else "the coefficient of x1, too long to print,"
    )
    assert (code, out, err) == (
        2, "", f"error: {coefficient} is past the double range\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, components, message",
    [
        (["cofactor", "--surface", "x1"], ["10^5000*x1"],
         "the cofactor cannot be printed: its coefficient of 1"),
        (["check"], ["10^5000*x1 - 10^5000*x1^3"],
         "the sphere cofactor cannot be printed: its coefficient of x1^2"),
        (["hamiltonian"], ["10^5000*x1^2", "0"],
         "the defect of the pair (1, 2) cannot be printed: its coefficient "
         "of x1"),
        # An exponent of about 6000 digits: named by its variable.
        (["check"], [f"x1^2*(x1^{NINES})^{NINES} - x1^4*(x1^{NINES})^{NINES}"],
         "the sphere cofactor cannot be printed: its exponent of x1"),
    ],
    ids=["cofactor", "check", "hamiltonian", "check-exponent"],
)
def test_a_result_too_long_to_print_exits_two_naming_it(
    capsys, tmp_path, fmt, command, components, message
):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(
        {"dim": len(components), "components": components}
    ))
    code, out, err = run(
        capsys, command[0], "--field", str(field), *command[1:],
        "--format", fmt,
    )
    assert (code, out, err) == (
        2, "",
        f"error: {message} exceeds the limit (4300 digits) for integer "
        "string conversion\n",
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, form, message",
    [
        (["darboux", "--g", "10^5000*(1 - x1^2 - x2^2 - x3^2)"], None,
         "the polynomial cannot be printed: its coefficient of x1^2"),
        (["syzygy-fi"], {"dim": 2, "alpha": ["1e5000", "1"],
                         "atilde": [["0", "0"], ["0", "0"]]},
         "exponent 2 cannot be printed: it"),
        (["construct", "cubic"], {
            "dim": 3, "alpha": ["2e5000", "0", "2e5000"],
            "atilde": [["0", "3e5000", "0"], ["-3e5000", "0", "-3e5000"],
                       ["0", "3e5000", "0"]],
        }, "the polynomial cannot be printed: its coefficient of x1^3"),
    ],
    ids=["darboux", "syzygy-fi", "construct-cubic"],
)
def test_an_integral_or_field_too_long_to_print_exits_two_naming_it(
    capsys, tmp_path, fmt, argv, form, message
):
    """Every printed polynomial and exponent names what cannot be printed,
    without Python's advice to raise the digit limit."""
    path = FORM
    if form is not None:
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form))
    code, out, err = run(capsys, *argv, "--form", str(path), "--format", fmt)
    assert (code, out, err) == (
        2, "",
        f"error: {message} exceeds the limit (4300 digits) for integer "
        "string conversion\n",
    )


INTEGRATE = ["integrate", "--field", FIELD, "--x0", "0.5,0.5,0.5",
             "--h", "0.1", "--steps", "3"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, component, message",
    [
        (["cofactor", "--field", FIELD, "--surface", "1" + "0" * 5000 + "*x1"],
         None, "--surface: at position 0: expected at most 4300 digits, "
         "found 5001 digits"),
        (INTEGRATE + ["--watch", "x1^" + "9" * 5000], None,
         "--watch: at position 3: expected at most 4300 digits, "
         "found 5000 digits"),
        (["cofactor", "--field", FIELD, "--surface", "x2 - x" + "1" * 5000],
         None, "--surface: at position 5: expected at most 4300 digits, "
         "found 5000 digits"),
        (["check"], "x1 + " + "1" * 5000, "FIELD: at position 5: expected "
         "at most 4300 digits, found 5000 digits"),
    ],
    ids=["integer", "exponent", "variable-index", "field-file-integer"],
)
def test_a_literal_past_the_digit_limit_exits_two_at_its_position(
    capsys, tmp_path, fmt, argv, component, message
):
    """A parse error with a position, not Python's advice to call
    sys.set_int_max_str_digits()."""
    if component is not None:
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"dim": 1, "components": [component]}))
        argv = argv + ["--field", str(field)]
        message = message.replace("FIELD", str(field))
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Every command path, for the help of each subcommand.
COMMANDS = [
    [], ["check"], ["cofactor"], ["darboux"], ["syzygy-fi"],
    ["classify-hyperplane"], ["construct"], ["construct", "linear-fi"],
    ["construct", "complete"], ["construct", "cubic"], ["hamiltonian"],
    ["integrate"], ["certify"],
]


def _exit_output(capsys, parse, argv):
    """Exit code, stdout and stderr of an argparse exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code,) + tuple(capsys.readouterr())


def test_the_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    """``main`` reuses one argparse tree per process: a call sees nothing
    of the calls before it, and help and usage bytes are those of a fresh
    tree, at the terminal width of the moment they are printed."""
    argv = INTEGRATE + ["--format", "json"]
    code, out, _ = run(capsys, *argv, "--watch", "x1", "--watch", "x2")
    assert code == 0
    assert [w["poly"] for w in json.loads(out)["watch"]] == ["x1", "x2"]
    assert _exit_output(capsys, main, ["integrate", "--watch", "x3"])[0] == 2
    code, out, _ = run(capsys, *argv, "--watch", "x3")
    assert code == 0
    assert [w["poly"] for w in json.loads(out)["watch"]] == ["x3"]

    assert cli.build_parser() is cli.build_parser()

    def fresh(argv):
        return cli.build_parser.__wrapped__().parse_args(argv)

    for width in ("200", "40"):
        monkeypatch.setenv("COLUMNS", width)
        for command in COMMANDS:
            for tail in (["--help"], ["--no-such-flag"]):
                assert _exit_output(capsys, main, command + tail) == (
                    _exit_output(capsys, fresh, command + tail)
                )
    monkeypatch.setenv("COLUMNS", "200")
    wide = _exit_output(capsys, main, ["integrate", "--help"])[1]
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _exit_output(capsys, main, ["integrate", "--help"])[1]
    assert narrow != wide
    assert max(map(len, wide.splitlines())) > 40


@contextlib.contextmanager
def _captured():
    """stdout and stderr in memory; unlike the capture buffers, StringIO
    writes any str, as the process's stderr does with backslashreplace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


@pytest.fixture(scope="module")
def fuzz_field(tmp_path_factory):
    """A JSON field file that each drawn example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "field.json"


POLY_CHARS = list(" x0123456789+-*/^()") + [
    "\u00a0", "\u2003", "\u0661", "\u00b2", "$", "\n", "\ud800",
]
# Operands joined by operators, so that drawn text often parses and
# reaches a verdict; x4 lies outside the fixture's dimension.
OPERANDS = ["x1", "x2", "x3", "x4", "1", "2/3", "(x1 - x2)", "(x3 + 1)^2"]
OPERATORS = [" + ", " - ", "*", "^2*", "\u00a0-\u00a0"]


@given(st.one_of(
    st.text(alphabet=st.sampled_from(POLY_CHARS), max_size=60),
    st.lists(
        st.tuples(st.sampled_from(OPERANDS), st.sampled_from(OPERATORS)),
        max_size=6,
    ).map(lambda pairs: "".join(a + op for a, op in pairs) + "x1"),
    st.text(max_size=20),
).map(capped_exponents))
@example("(" * 3000 + "x1" + ")" * 3000)
@example("--")
@example("x\u0661")
@example("x1^\u00b2")
@example("10^5000*x1")
@example("1" + "0" * 5000 + "*x1")
@settings(max_examples=150, deadline=None)
def test_polynomial_text_never_crashes_the_cli(fuzz_field, text):
    """Drawn text never powers a sum past an exponent of 6.  It is also
    every component of a JSON field, the path that ``field_from_dict``
    reads."""
    fuzz_field.write_text(
        json.dumps({"dim": 3, "components": [text] * 3}), encoding="utf-8"
    )
    for argv in (
        ["cofactor", "--field", FIELD, f"--surface={text}"],
        INTEGRATE + [f"--watch={text}"],
        ["check", "--field", str(fuzz_field)],
    ):
        with _captured() as (out, err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1
        for stream in (out.getvalue(), err.getvalue()):
            assert "Traceback" not in stream
            assert "set_int_max_str_digits" not in stream


# Valid documents of each kind of input file, and the commands that read
# that kind; FILE stands for the path of the drawn document.
STRUCTURE_DOCS = {
    "form": [json.loads(Path(FORM).read_text())],
    "field": [json.loads(Path(FIELD).read_text()),
              {"dim": 2, "components": ["x2", "-x1"]}],
    "seed": [json.loads(Path(SEED).read_text())],
}
STRUCTURE_COMMANDS = {
    "form": [
        ["darboux", "--form", "FILE", "--g", "x1^2 + x2^2 + x3^2 - 1"],
        ["syzygy-fi", "--form", "FILE"],
        ["construct", "cubic", "--form", "FILE"],
        ["classify-hyperplane", "--form", "FILE", "--a0", "0", "--a", "1,-1,0"],
    ],
    "field": [
        ["check", "--field", "FILE"],
        ["hamiltonian", "--field", "FILE"],
        ["cofactor", "--field", "FILE", "--surface", "x2"],
    ],
    "seed": [
        ["construct", "linear-fi", "--a0", "5", "--a", "1,2,3", "--seed", "FILE"],
    ],
}
# Values of every JSON type, some of them well-formed where they land.
STRUCTURE_JUNK = [
    0, 1, -1, 2, 2.5, True, None, "", "x1", "1/2", "nan", "[]",
    [], [1], ["0"], [["0"]], ["0", 1], {}, {"dim": 1},
]


def _json_paths(doc, path=()):
    """The path of every value in a JSON document below its root."""
    children = (
        doc.items() if isinstance(doc, dict)
        else enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in children:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutate_structure(rng, doc):
    """``doc`` with one value replaced by one of another type, deleted (a
    missing key or a ragged row), grown by a junk entry, or wrapped in a
    list."""
    path = rng.choice(list(_json_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    junk = json.loads(json.dumps(rng.choice(STRUCTURE_JUNK)))
    action = rng.randrange(4)
    if action == 0:
        parent[key] = junk
    elif action == 1:
        del parent[key]
    elif action == 2 and isinstance(parent[key], list):
        parent[key].append(junk)
    else:
        parent[key] = [parent[key]]


def test_malformed_input_files_never_crash_the_cli(tmp_path):
    """Seeded draws of form, field and seed files with one to three
    structural faults each: every command that reads the file exits with a
    verdict or a usage error, never with an internal error."""
    rng = random.Random(34)
    path = tmp_path / "input.json"
    for draw in range(300):
        kind = rng.choice(sorted(STRUCTURE_DOCS))
        doc = json.loads(json.dumps(rng.choice(STRUCTURE_DOCS[kind])))
        for _ in range(rng.randint(1, 3)):
            if isinstance(doc, (dict, list)) and doc:
                _mutate_structure(rng, doc)
        path.write_text(json.dumps(doc))
        for command in STRUCTURE_COMMANDS[kind]:
            argv = [str(path) if a == "FILE" else a for a in command]
            with _captured() as (out, err):
                code = main(argv)
            assert code in (0, 1, 2), (draw, doc, argv, err.getvalue())
            assert "internal error" not in err.getvalue(), (draw, doc, argv)
            assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("h", [0.1, 1 / 3, 1e-3])
def test_printed_times_are_the_bits_of_the_trajectory_times(capsys, tmp_path, h):
    dump = tmp_path / "traj.csv"
    steps = 37
    code, out, _ = run(
        capsys, "integrate", "--field", FIELD, "--x0", "0.5,0.4,0.3",
        "--h", repr(h), "--steps", str(steps), "--dump", str(dump),
        "--format", "json",
    )
    assert code == 0
    times = integrate_rk4(
        field_from_dict(json.loads(Path(FIELD).read_text())),
        (0.5, 0.4, 0.3), h, steps,
    ).times
    assert json.loads(out)["t_final"].hex() == times[-1].hex()
    cells = [line.split(",")[0] for line in dump.read_text().splitlines()[1:]]
    assert [float(c).hex() for c in cells] == [t.hex() for t in times]


NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from kolmosphere import cli, field_from_dict, integrate_rk4

FIELD, FORM, DUMP = sys.argv[1:]
commands = [
    ["check", "--field", FIELD],
    ["cofactor", "--field", FIELD, "--surface", "x1^2 + x2^2 + x3^2 - 1"],
    ["darboux", "--form", FORM, "--g", "1 - x1^2 - x2^2 - x3^2"],
    ["certify", "--suite", "thm13"],
    ["integrate", "--field", FIELD, "--x0", "0.5,0.4,0.3", "--h", "0.001",
     "--steps", "100", "--watch", "x1^2 + x2^2 + x3^2 - 1",
     "--dump", DUMP, "--format", "json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
before = "numpy" in sys.modules
with open(FIELD) as handle:
    traj = integrate_rk4(field_from_dict(json.load(handle)), (0.5, 0.4, 0.3), 0.001, 3)
shape = traj.states.shape
print(json.dumps({"codes": codes, "numpy_before": before,
                  "numpy_after": "numpy" in sys.modules, "shape": shape}))
"""


def test_no_command_loads_numpy_until_a_trajectory_array_is_read(tmp_path):
    """Start-up and every command run on the rows alone; numpy is imported
    the first time a ``Trajectory``'s ``states`` or ``times`` is read."""
    src = Path(kolmosphere.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, FIELD, FORM,
         str(tmp_path / "traj.csv")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    # thm13 exits 1: at n = 1 the constraint space is not {0} (criterion 3).
    assert json.loads(result.stdout) == {
        "codes": [0, 0, 0, 1, 0], "numpy_before": False,
        "numpy_after": True, "shape": [4, 3],
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("head, option, value, tail", [
    (["integrate", "--field", FIELD], "--x0", "-0.5,0.5,0.5",
     ["--h", "0.1", "--steps", "3"]),
    (["classify-hyperplane", "--form", FORM, "--a0", "0"], "--a", "-1,0,1", []),
    (INTEGRATE, "--watch", "-x1", []),
    (["cofactor", "--field", FIELD], "--surface", "-x1^2-x2^2-x3^2+1", []),
])
def test_a_value_with_a_leading_minus_reads_as_its_equals_spelling(
    capsys, fmt, head, option, value, tail
):
    """A comma list or a polynomial that starts with '-' is the option's
    value, as in the --option=value spelling, byte for byte."""
    spaced = run(capsys, *head, option, value, *tail, "--format", fmt)
    joined = run(capsys, *head, f"{option}={value}", *tail, "--format", fmt)
    assert spaced == joined
    assert spaced[0] in (0, 1) and spaced[2] == ""


@pytest.mark.parametrize("argv, option", [
    (["integrate", "--field", FIELD, "--x0", "--h", "0.1", "--steps", "3"], "--x0"),
    (INTEGRATE + ["--watch", "-h"], "--watch"),
    (["cofactor", "--field", FIELD, "--surface", "--field", FIELD], "--surface"),
])
def test_a_value_that_is_an_option_string_is_still_an_argparse_error(
    capsys, argv, option
):
    code, out, err = _exit_output(capsys, main, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected one argument\n")
