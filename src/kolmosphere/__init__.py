"""Exact tools for polynomial vector fields whose components factor through
their own coordinate and which keep the unit sphere invariant: invariance
tests, Darboux first integrals built from cofactor bookkeeping, Hamiltonian
structure tests, and floating-point cross-checks of the exact certificates.
"""

from types import ModuleType as _ModuleType

from .polyring import (
    NEG_INF,
    DimensionMismatchError,
    Monomial,
    ParseError,
    Poly,
    SelfCheckError,
    UnprintableError,
    VariableIndexError,
    divide_exact,
    parse,
)
from .exactla import (
    RationalMatrix,
    determinant,
    nullspace,
    rank,
)
from .field_forms import (
    CubicKolmogorovForm,
    HomogeneousReport,
    KolmogorovForm,
    NotSkewError,
    PolyVectorField,
    SphereKolmogorovReport,
    assemble_cubic,
    classify_homogeneous,
    construct_from_form,
    cubic_form_from_dict,
    cubic_form_to_dict,
    field_from_dict,
    field_to_dict,
    is_kolmogorov_on_sphere,
    lie_derivative,
    pure_square_profile,
    recover_cubic_form,
    seed_from_dict,
    sphere_polynomial,
)
from .invariance import (
    ConeReport,
    HyperplaneClassification,
    HyperplaneSpec,
    Hypersurface,
    NotInvariantError,
    StructuredView,
    classify_hyperplane,
    cofactor,
    cone_invariance,
    second_sphere_check,
)
from .darboux import (
    CompleteIntegrabilityCertificate,
    DarbouxIntegral,
    HypothesisFailedError,
    IntegrabilityCertificate,
    SamplePoint,
    build_matrix_B,
    complete_integrability_check,
    construct_completely_integrable,
    construct_linear_fi_field,
    decompose_syzygy,
    find_darboux,
    hypothesis_matrix,
    standard_sample_points,
    syzygy_first_integral,
    verify_first_integral,
)
from .hamiltonian import (
    HamiltonianReport,
    hamiltonian_constraint_space,
    is_hamiltonian,
)
from .numeric_validate import (
    DEFAULT_DOMAIN_FLOOR,
    DomainViolationError,
    NonFiniteError,
    Trajectory,
    conservation_report,
    drift_sweep,
    integrate_rk4,
    trajectory_to_csv,
)
from .suites import SUITES, SuiteReport, run_suite

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
