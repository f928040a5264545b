"""Invariant algebraic hypersurfaces of polynomial vector fields.

A hypersurface {f = 0} is invariant when the derivative of f along the
field is a polynomial multiple K * f; the quotient K is the cofactor.
For the fields assembled in :mod:`.field_forms` the cofactors of interest
all have the shape k0 + sum_i k_i x_i^2; ``field_forms.pure_square_profile``
reads that structured view off a cofactor where it is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .polyring import (
    DimensionMismatchError,
    Poly,
    Scalar,
    SelfCheckError,
    _canonical,
    divide_exact,
)
from .field_forms import (
    CubicKolmogorovForm,
    PolyVectorField,
    StructuredView,
    assemble_cubic,
    classify_homogeneous,
    lie_derivative,
    pure_power_poly,
    pure_square_profile,
    sum_of_squares,
)


class NotInvariantError(ValueError):
    """The requested hypersurface is not invariant for the field."""


class NotHomogeneousError(ValueError):
    """An operation requiring a homogeneous field received something else."""


class BadRadiusError(ValueError):
    """Radius parameter collides with 0 or the unit sphere."""


@dataclass(frozen=True)
class Hypersurface:
    """Zero set of a nonzero, nonconstant polynomial."""

    defining: Poly

    def __post_init__(self):
        if self.defining.is_zero() or self.defining.degree() == 0:
            raise ValueError("defining polynomial must be nonconstant")

    @property
    def dim(self) -> int:
        return self.defining.dim


def cofactor(vf: PolyVectorField, h: Hypersurface) -> Optional[Poly]:
    """Cofactor of an invariant hypersurface, None when not invariant."""
    if h.dim != vf.dim:
        raise DimensionMismatchError(
            f"hypersurface in {h.dim} variables, field on R^{vf.dim}"
        )
    return divide_exact(lie_derivative(vf, h.defining), h.defining)


@dataclass(frozen=True)
class HyperplaneSpec:
    """Affine hyperplane a0 + a1 x1 + ... + ad xd = 0."""

    a0: Scalar
    a: Tuple[Scalar, ...]

    def __post_init__(self):
        if all(x == 0 for x in self.a):
            raise ValueError("some linear coefficient a_i must be nonzero")

    @classmethod
    def from_values(cls, a0, a: Sequence) -> "HyperplaneSpec":
        return cls(_canonical(a0), tuple(_canonical(x) for x in a))

    @property
    def dim(self) -> int:
        return len(self.a)

    def defining_poly(self) -> Poly:
        """a0 + a1 x1 + ... + ad xd."""
        return pure_power_poly(self.a0, self.a, 1)


class PreconditionError(ValueError):
    """Input violates a documented precondition of the classification."""


@dataclass(frozen=True)
class HyperplaneClassification:
    """Verdict for invariance of a hyperplane under a constant-form field,
    always with a cofactor of the structured shape.

    ``case`` is "nonzero_offset" (a0 != 0, forcing a zero cofactor) or
    "through_origin" (a0 = 0), set only when invariant.  The raw division
    cofactor, when the hyperplane is invariant at all, rides along for
    audit."""

    invariant: bool
    case: Optional[str]
    predicted: Optional[StructuredView]
    division_cofactor: Optional[Poly]


def _shared_view(
    form: CubicKolmogorovForm, support: Sequence[int], offset: bool
) -> Optional[StructuredView]:
    """The coordinate view shared by the supported coordinates, which must
    be the zero view when ``offset``, else None.  Two views are equal
    exactly when their rows (alpha_i, atilde_i) are, so those are compared,
    up to the first differing entry.  Equal atilde rows of a skew matrix
    give atilde_ij = atilde_jj = 0 on support x support: the theorem's last
    condition needs no check of its own."""
    first = support[0]
    shared = (
        (0, (0,) * form.dim) if offset
        else (form.alpha[first], form.atilde[first])
    )
    if any((form.alpha[i], form.atilde[i]) != shared for i in support):
        return None
    return form.coordinate_view(first)


def classify_hyperplane(
    form: CubicKolmogorovForm, hp: HyperplaneSpec
) -> HyperplaneClassification:
    """Decide invariance of the hyperplane with a structured cofactor.

    The decision comes from coefficient conditions on (alpha, atilde) and is
    cross-validated against direct exact division on the assembled field;
    disagreement between the two routes raises ``SelfCheckError``, since
    the conditions are equivalent to invariance-with-structured-cofactor.
    """
    if form.dim != hp.dim:
        raise DimensionMismatchError(
            f"form on R^{form.dim}, hyperplane in R^{hp.dim}"
        )
    support = [i for i, x in enumerate(hp.a) if x != 0]
    if (1 if hp.a0 != 0 else 0) + len(support) < 2:
        raise PreconditionError(
            "need at least two nonzero coefficients among a0, a1, ..."
        )

    case = "nonzero_offset" if hp.a0 != 0 else "through_origin"
    predicted = _shared_view(form, support, hp.a0 != 0)

    vf = assemble_cubic(form)
    division = cofactor(vf, Hypersurface(hp.defining_poly()))
    division_view = None if division is None else pure_square_profile(division)

    if predicted != division_view:
        raise SelfCheckError(
            f"coefficient conditions predict the cofactor {predicted}, "
            f"direct division finds {division_view}"
        )

    invariant = predicted is not None
    return HyperplaneClassification(
        invariant=invariant,
        case=case if invariant else None,
        predicted=predicted,
        division_cofactor=division,
    )


@dataclass(frozen=True)
class GreatSphereReport:
    """Two necessary conditions for an invariant hyperplane through the
    origin of a homogeneous constant-form field, with both sides of the
    balance printed for audit.

    interaction_sum      = sum_{i,j} a_i atilde_ij
    coefficient_balance  = (sum_i a_i) * (sum of all coefficients of K,
                           read as K at the all-ones point)
    cofactor_at_a        = K(a_1, ..., a_d)
    """

    cofactor: Poly
    interaction_sum: Fraction
    coefficient_balance: Fraction
    cofactor_at_a: Fraction

    @property
    def condition_interaction(self) -> bool:
        return self.interaction_sum == self.coefficient_balance

    @property
    def condition_root(self) -> bool:
        return self.cofactor_at_a == 0

    @property
    def passes(self) -> bool:
        return self.condition_interaction and self.condition_root


def great_sphere_conditions(
    form: CubicKolmogorovForm, hp: HyperplaneSpec
) -> GreatSphereReport:
    if form.dim != hp.dim:
        raise DimensionMismatchError(
            f"form on R^{form.dim}, hyperplane in R^{hp.dim}"
        )
    if any(a != 0 for a in form.alpha):
        raise NotHomogeneousError(
            "conditions apply to homogeneous fields (alpha = 0)"
        )
    if hp.a0 != 0:
        raise ValueError("the hyperplane must pass through the origin (a0 = 0)")
    vf = assemble_cubic(form)
    cof = cofactor(vf, Hypersurface(hp.defining_poly()))
    if cof is None:
        raise NotInvariantError("the hyperplane is not invariant for this field")
    interaction_sum = sum(
        (hp.a[i] * form.atilde[i][j]
         for i in range(form.dim) for j in range(form.dim)),
        Fraction(0),
    )
    ones = (Fraction(1),) * form.dim
    coefficient_balance = sum(hp.a, Fraction(0)) * cof.evaluate(ones)
    cofactor_at_a = cof.evaluate(hp.a)
    return GreatSphereReport(
        cofactor=cof,
        interaction_sum=interaction_sum,
        coefficient_balance=coefficient_balance,
        cofactor_at_a=cofactor_at_a,
    )


@dataclass(frozen=True)
class ConeReport:
    invariant: bool
    cone: Poly
    cofactor: Optional[Poly]


def cone_invariance(
    vf: PolyVectorField, hp: HyperplaneSpec, d: Scalar
) -> ConeReport:
    """For a homogeneous field, invariance of the sphere slice
    {sum a_i x_i = d} on the unit sphere is equivalent to invariance of the
    cone (sum a_i x_i)^2 - d^2 sum x_i^2, which this tests by division."""
    if hp.a0 != 0:
        raise ValueError("slice specs use a0 = 0 with the offset in d")
    if hp.dim != vf.dim:
        raise DimensionMismatchError(
            f"field on R^{vf.dim}, slice in R^{hp.dim}"
        )
    if not classify_homogeneous(vf).passes:
        raise NotHomogeneousError(
            "cone equivalence only applies to homogeneous fields"
        )
    linear = hp.defining_poly()
    cone = linear * linear - _canonical(d) ** 2 * sum_of_squares(vf.dim)
    if cone.is_zero():
        raise ValueError("degenerate cone: the defining polynomial vanishes")
    cof = cofactor(vf, Hypersurface(cone))
    return ConeReport(invariant=cof is not None, cone=cone, cofactor=cof)


@dataclass(frozen=True)
class SecondSphereReport:
    """Invariance of a second sphere sum x_i^2 = r^2 (r not 0 or +-1).

    When invariant the field is forced homogeneous (alpha = 0) and the
    cofactor vanishes, so the second sphere is a genuine first integral."""

    invariant: bool
    radius: Scalar
    cofactor: Optional[Poly]
    alpha_zero: bool

    @property
    def first_integral(self) -> bool:
        return self.invariant and self.cofactor is not None and self.cofactor.is_zero()


def second_sphere_check(
    form: CubicKolmogorovForm, r: Scalar
) -> SecondSphereReport:
    r = _canonical(r)
    if r in (0, 1, -1):
        raise BadRadiusError("radius must differ from 0, 1, and -1")
    vf = assemble_cubic(form)
    cof = cofactor(vf, Hypersurface(sum_of_squares(form.dim) - r * r))
    alpha_zero = all(a == 0 for a in form.alpha)
    if cof is not None and not (alpha_zero and cof.is_zero()):
        raise SelfCheckError(
            "a second invariant sphere forces alpha = 0 and a zero cofactor"
        )
    return SecondSphereReport(
        invariant=cof is not None,
        radius=r,
        cofactor=cof,
        alpha_zero=alpha_zero,
    )
