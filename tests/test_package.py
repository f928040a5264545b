"""The package namespace: what ``from kolmosphere import *`` binds."""

import ast
import importlib
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import kolmosphere

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
README = ROOT / "README.md"

# Traced names that are ``Poly`` itself or one of its operators, with the
# method that stands for each.
POLY_MEMBERS = {
    "Poly": "__init__", "add": "__add__", "mul": "__mul__", "str": "__str__",
}

# Public functions that no module of the package, README.md or
# bench/workloads.py reaches; only the tests call them.  Each stays for the
# reason given.  A function that drops out of use elsewhere fails
# ``test_every_public_function_is_reached_or_listed_with_its_reason`` until
# it is listed here or deleted.
UNREACHED = {
    "decompose_syzygy": (
        "the power-syzygy decomposition that acceptance criterion 6 checks"
    ),
}

# Exception classes that the package exports, each with the reason it
# stays rather than being a plain ``ValueError`` with its message.  A reason
# that starts "caught" names code that catches the class by name.  A class
# exported without a reason fails
# ``test_every_exported_error_class_is_listed_with_its_reason``.
ERROR_CLASSES = {
    "SelfCheckError": "caught by suites, which reports a failed self-check",
    "NotInvariantError": (
        "caught by cli and darboux; DARBOUX_DIGEST records its name"
    ),
    "NotSkewError": "caught by recover_cubic_form, which then answers None",
    "UnprintableError": "caught by cli, which names the part it cannot print",
    "NonFiniteError": "caught by cli, which fails the integration",
    "DomainViolationError": "caught by bench/workloads.py",
    "ParseError": "carries the position of the fault",
    "HypothesisFailedError": (
        "carries the omitted coordinate; DARBOUX_DIGEST records its name"
    ),
    "DimensionMismatchError": "several functions raise it for one fault",
    "VariableIndexError": "several functions raise it for one fault",
}

SUBMODULES = {
    "darboux", "exactla", "field_forms", "hamiltonian", "invariance",
    "numeric_validate", "polyring", "suites",
}


def test_star_import_binds_the_api_and_no_submodule():
    namespace: dict = {}
    exec("from kolmosphere import *", namespace)
    assert not SUBMODULES & set(namespace)
    assert not any(
        isinstance(getattr(kolmosphere, name), ModuleType)
        for name in kolmosphere.__all__
    )
    assert {"find_darboux", "run_suite", "drift_sweep"} <= set(namespace)
    # The submodules stay reachable as attributes of the package.
    assert kolmosphere.suites.run_suite is kolmosphere.run_suite
    assert all(
        isinstance(getattr(kolmosphere, name), ModuleType) for name in SUBMODULES
    )


def test_every_traced_name_is_a_public_function_of_its_layer():
    """The benchmark's per-layer ``<layer>.<name>.calls`` metrics count the
    calls of a function wrapped by name; a renamed or deleted function
    would leave its metric with nothing to count."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    traced = [
        metric["name"].split(".")[:-1]
        for metric in metrics
        if metric["name"].endswith(".calls")
    ]
    assert traced
    for layer, name in traced:
        module = importlib.import_module(f"kolmosphere.{layer}")
        if layer == "polyring" and name in POLY_MEMBERS:
            method = getattr(module.Poly, POLY_MEMBERS[name])
            assert inspect.isfunction(method), f"{layer}.{name}"
            continue
        fn = getattr(module, name, None)
        assert not name.startswith("_"), f"{layer}.{name}"
        assert inspect.isfunction(fn), f"{layer}.{name}"
        assert fn.__module__ == module.__name__, f"{layer}.{name}"


def test_numeric_validate_imports_only_the_ring_at_run_time():
    """The float layer names the field and integral types only in
    annotations, so of the package it imports ``polyring`` alone when it
    runs; the imports under ``if TYPE_CHECKING:`` never run."""
    tree = ast.parse(
        (ROOT / "src" / "kolmosphere" / "numeric_validate.py").read_text()
    )
    type_checking = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for stmt in node.body for inner in ast.walk(stmt)
    }
    relative = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        and id(node) not in type_checking
    }
    assert relative == {"polyring"}


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read somewhere in it; ``__init__``
    imports to re-export, and ``from __future__`` binds nothing."""
    unused = []
    for path in sorted((ROOT / "src" / "kolmosphere").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {
                    (alias.asname or alias.name).split(".")[0]
                    for alias in node.names
                }
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_the_readme_quick_start_runs_and_prints_what_it_states(capsys):
    """The ``Library quick start`` block, run as it stands: its basis is the
    exponent vectors the ``# ->`` comment names, and it prints the drift
    its ``print`` line's comment gives."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = re.search(r"# -> exponent vectors (.*) over", block).group(1)
    vectors = [
        tuple(Fraction(x) for x in group.split(", "))
        for group in re.findall(r"\(([^)]*)\)", stated)
    ]
    printed = re.search(r"^print\(.*\)  # (.*)$", block, re.M).group(1)
    assert vectors == [(1, 0, -1, 0), (0, 1, 0, Fraction(-3, 4))]
    assert printed == "0.0"

    namespace: dict = {}
    exec(block, namespace)
    assert [i.exponents for i in namespace["integrals"]] == vectors
    assert capsys.readouterr().out == f"{printed}\n"


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_a_lie_derivative_is_divided_in_one_place():
    """``invariance.cofactor`` is the one home of X(f) / f, so tracing has one
    division span and a rechecker one function to keep away from.  The
    other ``divide_exact`` call is another quotient, P_i / x_i.  A cofactor is
    the quotient itself; its view k0 + sum k_i x_i^2 is read off only where
    it is used."""
    callers, lie_divisions, profiles = set(), [], set()
    for path in sorted((ROOT / "src" / "kolmosphere").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                if _called_name(node) == "pure_square_profile":
                    profiles.add(where)
                if _called_name(node) != "divide_exact":
                    continue
                callers.add(where)
                first = node.args[0] if node.args else None
                if (isinstance(first, ast.Call)
                        and _called_name(first) == "lie_derivative"):
                    lie_divisions.append(where)
    assert callers == {
        "invariance.cofactor",
        "field_forms.coordinate_quotients",
    }
    assert lie_divisions == ["invariance.cofactor"]
    assert profiles == {
        "darboux.build_matrix_B",
        "invariance.classify_hyperplane",
        "field_forms.recover_cubic_form",
        "cli._cmd_cofactor",
    }


def test_every_self_check_raises_one_type_from_one_function_per_fact():
    """A failed self-check raises ``SelfCheckError``, never a bare
    ``RuntimeError`` or an ``assert`` that ``python -O`` strips, and only
    ``cli.main`` writes the words "internal error".  The cofactor-sum
    identity is formed in ``verify_first_integral`` alone, reached through
    the one certifier, so ``darboux`` takes no Lie derivative of its own."""
    bare_raises, asserts, phrases, certifiers, lie_calls = [], [], [], set(), []
    names = set()
    for path in sorted((ROOT / "src" / "kolmosphere").glob("*.py")):
        tree = ast.parse(path.read_text())
        if "internal error" in (ast.get_docstring(tree) or ""):
            phrases.append(f"{path.stem}.<docstring>")
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                names.add(getattr(node, "name", getattr(node, "id", None)))
                if isinstance(node, ast.Raise):
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                        bare_raises.append(where)
                elif isinstance(node, ast.Assert):
                    asserts.append(where)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and "internal error" in node.value
                        and node is not getattr(tree.body[0], "value", None)):
                    phrases.append(where)
                elif isinstance(node, ast.Call):
                    if _called_name(node) == "verify_first_integral":
                        certifiers.add(where)
                    if (_called_name(node) == "lie_derivative"
                            and path.stem == "darboux"):
                        lie_calls.append(where)
    assert bare_raises == [] and asserts == []
    assert phrases == ["cli.<docstring>", "cli.main"]
    assert certifiers == {"darboux._certify"}
    assert lie_calls == []
    assert "_cofactor_sums_vanish" not in names
    assert issubclass(kolmosphere.SelfCheckError, RuntimeError)


def test_the_assembly_rule_is_written_in_one_place():
    """The factor 1 - |x|^2 of P_i = x_i((1 - |x|^2) ftilde_i + ...) is built
    only where the unit fields are: every assembly, constant or polynomial,
    and the Hamiltonian constraint columns take it from there.  The two
    public assemblies each make one call to ``_assemble``."""
    builders, assemblers = [], []
    for path in sorted((ROOT / "src" / "kolmosphere").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) == "_assemble":
                    assemblers.append(where)
                if (isinstance(node, ast.UnaryOp)
                        and isinstance(node.op, ast.USub)
                        and isinstance(node.operand, ast.Call)
                        and _called_name(node.operand) == "sphere_polynomial"):
                    builders.append(where)
    assert builders == ["field_forms._unit_fields"]
    assert assemblers == [
        "field_forms.construct_from_form", "field_forms.assemble_cubic"
    ]


def _referenced_names(path: Path, strings: bool = False) -> set:
    """The names and attributes that the code in ``path`` refers to, and
    with ``strings`` its string constants too, such as the function names
    that ``_call(module, "name", ...)`` passes, but not the keys of a
    subscript such as ``payload["max_abs_drift"]``."""
    tree = ast.parse(path.read_text())
    keys = {
        id(node.slice) for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
    }
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
                and isinstance(node.value, str) and id(node) not in keys):
            referenced.add(node.value)
    return referenced


def test_every_public_function_is_reached_or_listed_with_its_reason():
    """A public function is reached when code in a module of the package
    other than ``__init__`` refers to it (a docstring or comment does not
    count), when the code of bench/workloads.py refers to it by name or by
    a string that is not a subscript key, or when README.md names it."""
    referenced = _referenced_names(ROOT / "bench" / "workloads.py", True)
    for path in (ROOT / "src" / "kolmosphere").glob("*.py"):
        if path.name != "__init__.py":
            referenced |= _referenced_names(path)
    readme = README.read_text()
    unreached = {
        name for name in kolmosphere.__all__
        if inspect.isfunction(getattr(kolmosphere, name))
        and name not in referenced
        and not re.search(rf"\b{name}\b", readme)
    }
    assert unreached == set(UNREACHED)


def test_every_exported_error_class_is_listed_with_its_reason():
    exported = {
        name for name in kolmosphere.__all__
        if isinstance(getattr(kolmosphere, name), type)
        and issubclass(getattr(kolmosphere, name), BaseException)
    }
    assert exported == set(ERROR_CLASSES)
    caught = set()
    paths = [ROOT / "bench" / "workloads.py",
             *(ROOT / "src" / "kolmosphere").glob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {
                    getattr(n, "id", getattr(n, "attr", None))
                    for n in ast.walk(node.type)
                }
    assert {
        name for name, reason in ERROR_CLASSES.items()
        if reason.startswith("caught")
    } <= caught
