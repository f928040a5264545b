"""The package namespace: what ``from kolmosphere import *`` binds."""

from types import ModuleType

import kolmosphere

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
