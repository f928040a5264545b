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
    assert {"find_darboux", "run_suite", "compile_polys"} <= set(namespace)
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
