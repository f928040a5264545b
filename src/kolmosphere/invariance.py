"""Invariant algebraic hypersurfaces of polynomial vector fields.

A hypersurface {f = 0} is invariant when the derivative of f along the
field is a polynomial multiple K * f; the quotient K is the cofactor.
For the fields assembled in :mod:`.field_forms` the cofactors of interest
all have the shape k0 + sum_i k_i x_i^2; ``field_forms.pure_square_profile``
reads that structured view off a cofactor where it is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``predicted`` is the view of that cofactor, None when the hyperplane is
    not invariant with one; the verdict is read off it.  ``case`` is
    "nonzero_offset" (a0 != 0, forcing a zero cofactor) or "through_origin"
    (a0 = 0), set only when invariant.  The raw division cofactor, when the
    hyperplane is invariant at all, rides along for audit."""

    case: Optional[str]
    predicted: Optional[StructuredView]
    division_cofactor: Optional[Poly]

    @property
    def invariant(self) -> bool:
        return self.predicted is not None


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

    predicted = _shared_view(form, support, hp.a0 != 0)

    vf = assemble_cubic(form)
    division = cofactor(vf, Hypersurface(hp.defining_poly()))
    division_view = None if division is None else pure_square_profile(division)

    if predicted != division_view:
        raise SelfCheckError(
            f"coefficient conditions predict the cofactor {predicted}, "
            f"direct division finds {division_view}"
        )

    case = None if predicted is None else (
        "nonzero_offset" if hp.a0 != 0 else "through_origin"
    )
    return HyperplaneClassification(case, predicted, division)


@dataclass(frozen=True)
class ConeReport:
    """The cone that was tested and its cofactor, None when not invariant."""

    cone: Poly
    cofactor: Optional[Poly]

    @property
    def invariant(self) -> bool:
        return self.cofactor is not None


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
    return ConeReport(cone, cofactor(vf, Hypersurface(cone)))


def second_sphere_check(form: CubicKolmogorovForm, r: Scalar) -> Optional[Poly]:
    """The cofactor of the second sphere sum x_i^2 = r^2 (r not 0 or +-1),
    None when that sphere is not invariant, as ``cofactor`` returns it.

    An invariant second sphere forces the field homogeneous (alpha = 0) and
    its cofactor zero, so the sphere is a first integral; a cofactor that
    breaks either raises ``SelfCheckError``."""
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
    return cof
