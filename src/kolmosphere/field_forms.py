"""Polynomial vector fields whose components factor through their own
coordinate, and the normal form that makes the unit sphere invariant.

A field (P_1, ..., P_d) on R^d is assembled here from data (ftilde, atilde)
via

    P_i = x_i * ( (1 - sum_k x_k^2) * ftilde_i  +  sum_j atilde_ij * x_j^2 )

with atilde skew-symmetric.  Every field of this shape leaves each
coordinate hyperplane and the unit sphere invariant; the sphere cofactor is
-2 * sum_i ftilde_i * x_i^2.  The cubic case has constant ftilde_i = alpha_i
and a constant skew matrix atilde.

The field is linear in its data: P_i = U_i ftilde_i + sum_j W_ij atilde_ij,
with the unit fields U_i = x_i(1 - |x|^2) and W_ij = x_i x_j^2.
``_unit_fields`` builds a row (U_i, W_i1..W_id) once, when data touch it;
``_assemble`` writes the sum in one place, for constant and polynomial data.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .polyring import (
    DimensionMismatchError,
    NEG_INF,
    Poly,
    Scalar,
    _canonical,
    divide_exact,
    parse,
)


T = TypeVar("T")

# Rows of unit fields that stay cached; a row on R^d holds d + 1 small Polys.
_UNIT_FIELD_ROWS = 512


class NotSkewError(ValueError):
    """An interaction matrix fails skew-symmetry."""


@dataclass(frozen=True)
class PolyVectorField:
    """A polynomial vector field: one component per coordinate."""

    dim: int
    components: Tuple[Poly, ...]

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dimension {self.dim}"
            )
        for p in self.components:
            if p.dim != self.dim:
                raise DimensionMismatchError(
                    f"component in {p.dim} variables inside a field on R^{self.dim}"
                )

    def degree(self):
        return max((p.degree() for p in self.components), default=NEG_INF)


def check_skew(matrix: Sequence[Sequence], zero, label: str) -> None:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NotSkewError(f"{label} must be square")
    for i in range(n):
        if matrix[i][i] != zero:
            raise NotSkewError(f"{label} has a nonzero diagonal entry at {i + 1}")
        for j in range(i + 1, n):
            if matrix[i][j] != -matrix[j][i]:
                raise NotSkewError(
                    f"{label} entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                    "are not opposite"
                )


def skew_matrix(
    dim: int, entry: Callable[[int, int], T], zero: T
) -> Tuple[Tuple[T, ...], ...]:
    """The skew matrix with ``zero`` on the diagonal and entry(i, j) above
    it, called once for each 0-based i < j in row-major order."""
    rows = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            rows[i][j] = entry(i, j)
            rows[j][i] = -rows[i][j]
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class KolmogorovForm:
    """Assembly data (ftilde, atilde) with polynomial entries."""

    dim: int
    ftilde: Tuple[Poly, ...]
    atilde: Tuple[Tuple[Poly, ...], ...]

    def __post_init__(self):
        if len(self.ftilde) != self.dim:
            raise DimensionMismatchError(
                f"{len(self.ftilde)} ftilde entries for dimension {self.dim}"
            )
        if any(p.dim != self.dim for p in self.ftilde):
            raise DimensionMismatchError("ftilde entry in the wrong ring")
        if len(self.atilde) != self.dim:
            raise DimensionMismatchError("atilde must be dim x dim")
        if any(p.dim != self.dim for row in self.atilde for p in row):
            raise DimensionMismatchError("atilde entry in the wrong ring")
        check_skew(self.atilde, Poly.zero(self.dim), "atilde")


def pure_power_poly(c0: Scalar, c: Sequence[Scalar], power: int) -> Poly:
    """c0 + sum_i c_i x_i^power in len(c) variables, for a positive
    ``power``: c0 first, then x1^power..xd^power, zeros dropped."""
    d = len(c)
    terms = {(0,) * d: c0}
    for i, ci in enumerate(c):
        terms[(0,) * i + (power,) + (0,) * (d - 1 - i)] = ci
    return Poly(d, terms)


@dataclass(frozen=True)
class StructuredView:
    """Cofactor decomposition K = k0 + sum_i k_i x_i^2."""

    k0: Fraction
    k: Tuple[Fraction, ...]

    def poly(self) -> Poly:
        """K in len(k) variables."""
        return pure_power_poly(self.k0, self.k, 2)


@dataclass(frozen=True)
class CubicKolmogorovForm:
    """Constant assembly data: the degree-three case."""

    dim: int
    alpha: Tuple[Scalar, ...]
    atilde: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.alpha) != self.dim:
            raise DimensionMismatchError(
                f"{len(self.alpha)} alpha entries for dimension {self.dim}"
            )
        if len(self.atilde) != self.dim:
            raise DimensionMismatchError("atilde must be dim x dim")
        check_skew(self.atilde, Fraction(0), "atilde")

    @classmethod
    def from_values(cls, alpha: Sequence, atilde: Sequence[Sequence]) -> "CubicKolmogorovForm":
        a = tuple(_canonical(x) for x in alpha)
        m = tuple(tuple(_canonical(x) for x in row) for row in atilde)
        return cls(len(a), a, m)

    def coordinate_view(self, i: int) -> StructuredView:
        """The cofactor alpha_i + sum_j (atilde_ij - alpha_i) x_j^2 of the
        hyperplane x_i = 0 (0-based i) in the assembled field."""
        a = self.alpha[i]
        return StructuredView(a, tuple(x - a for x in self.atilde[i]))


def sum_of_squares(dim: int) -> Poly:
    """x1^2 + ... + xd^2."""
    return pure_power_poly(0, (1,) * dim, 2)


def sphere_polynomial(dim: int) -> Poly:
    """x1^2 + ... + xd^2 - 1."""
    return pure_power_poly(-1, (1,) * dim, 2)


def lie_derivative(vf: PolyVectorField, f: Poly) -> Poly:
    """Derivative of f along the field: sum_i P_i * df/dx_i."""
    if f.dim != vf.dim:
        raise DimensionMismatchError(
            f"function in {f.dim} variables, field on R^{vf.dim}"
        )
    return Poly.sum(
        vf.dim,
        (p * f.differentiate(i) for i, p in enumerate(vf.components, start=1)),
    )


@functools.lru_cache(maxsize=_UNIT_FIELD_ROWS)
def _unit_fields(d: int, i: int) -> Tuple[Poly, tuple]:
    """(U_i, (W_i1, ..., W_id)) on R^d (0-based i): U_i = x_i(1 - |x|^2) is
    the field of a unit ftilde_i, W_ij = x_i * x_j^2 that of a unit
    atilde_ij."""
    x = Poly.var(d, i + 1)
    return (
        x * -sphere_polynomial(d),
        tuple(x * Poly.var(d, j) ** 2 for j in range(1, d + 1)),
    )


def _assemble(d: int, ftilde: Sequence, atilde: Sequence[Sequence]) -> PolyVectorField:
    """P_i = U_i * ftilde_i + sum_j W_ij * atilde_ij, for rational or
    polynomial entries alike; a zero atilde_ij adds nothing and is skipped,
    and a zero row of data gives P_i = 0 with no unit fields built."""
    components = []
    for i, (f, row) in enumerate(zip(ftilde, atilde)):
        if not (f or any(row)):
            components.append(Poly.zero(d))
            continue
        u, ws = _unit_fields(d, i)
        components.append(
            Poly.sum(d, [u * f] + [w * a for w, a in zip(ws, row) if a])
        )
    return PolyVectorField(d, tuple(components))


def construct_from_form(form: KolmogorovForm) -> PolyVectorField:
    """The field P_i = U_i ftilde_i + sum_j W_ij atilde_ij of polynomial
    data, U and W the unit fields: x_i times the cofactor
    (1 - |x|^2) ftilde_i + sum_j atilde_ij x_j^2 of the hyperplane x_i = 0."""
    return _assemble(form.dim, form.ftilde, form.atilde)


def assemble_cubic(form: CubicKolmogorovForm) -> PolyVectorField:
    """The same assembly of constant data, ftilde_i = alpha_i: P_i is x_i
    times the polynomial of the i-th coordinate view."""
    return _assemble(form.dim, form.alpha, form.atilde)


@dataclass(frozen=True)
class SphereKolmogorovReport:
    """Outcome of the membership test, with the cofactor as witness."""

    kolmogorov: bool
    sphere_cofactor: Optional[Poly]

    @property
    def sphere_invariant(self) -> bool:
        return self.sphere_cofactor is not None

    @property
    def passes(self) -> bool:
        return self.kolmogorov and self.sphere_invariant


def coordinate_quotients(vf: PolyVectorField) -> Optional[Tuple[Poly, ...]]:
    """The quotients P_i / x_i, or None as soon as one component does not
    factor through its coordinate."""
    quotients = []
    for i, p in enumerate(vf.components, start=1):
        q = divide_exact(p, Poly.var(vf.dim, i))
        if q is None:
            return None
        quotients.append(q)
    return tuple(quotients)


def is_kolmogorov_on_sphere(vf: PolyVectorField) -> SphereKolmogorovReport:
    """Does every component factor through its coordinate, and is the unit
    sphere invariant?  The witness is the sphere's ``invariance.cofactor``,
    imported at call time because ``invariance`` imports this module."""
    from .invariance import Hypersurface, cofactor
    return SphereKolmogorovReport(
        sphere_cofactor=cofactor(vf, Hypersurface(sphere_polynomial(vf.dim))),
        kolmogorov=coordinate_quotients(vf) is not None,
    )


def pure_square_profile(q: Poly) -> Optional[StructuredView]:
    """The view q = k0 + sum_j k_j x_j^2, None if q has any other monomial;
    the zero polynomial gives all zeros."""
    k0 = Fraction(0)
    k = [Fraction(0)] * q.dim
    for exps, coeff in q:
        nonzero = [(pos, e) for pos, e in enumerate(exps) if e != 0]
        if not nonzero:
            k0 = coeff
        elif len(nonzero) == 1 and nonzero[0][1] == 2:
            k[nonzero[0][0]] = coeff
        else:
            return None
    return StructuredView(k0, tuple(k))


def recover_cubic_form(vf: PolyVectorField) -> Optional[CubicKolmogorovForm]:
    """Constant assembly data reproducing the field exactly, if any: the
    inverse of ``assemble_cubic``.  Each P_i / x_i = (alpha_i U_i +
    sum_j atilde_ij W_ij) / x_i must be a view (k0, k), read as alpha_i = k0
    and atilde_ij = k_j + k0, and the atilde read must be skew (so
    k_i = -k0 on the diagonal); the data then round-trip by construction."""
    quotients = coordinate_quotients(vf)
    if quotients is None:
        return None
    profiles = [pure_square_profile(q) for q in quotients]
    if any(profile is None for profile in profiles):
        return None
    alpha = [profile.k0 for profile in profiles]
    atilde = [[c + profile.k0 for c in profile.k] for profile in profiles]
    try:
        return CubicKolmogorovForm.from_values(alpha, atilde)
    except NotSkewError:
        return None


@dataclass(frozen=True)
class HomogeneousReport:
    """Joint test: one shared degree, coordinate factorization, and
    tangency sum_i P_i x_i = 0.  All three hold exactly when the field
    assembles from atilde alone (ftilde = 0) with homogeneous entries."""

    homogeneous: bool
    degree: object  # int, or NEG_INF for the zero field
    kolmogorov: bool
    tangent: bool

    @property
    def passes(self) -> bool:
        return self.homogeneous and self.kolmogorov and self.tangent


def classify_homogeneous(vf: PolyVectorField) -> HomogeneousReport:
    nonzero = [p for p in vf.components if p]
    degrees = {p.degree() for p in nonzero}
    homogeneous = len(degrees) <= 1 and all(p.is_homogeneous() for p in nonzero)
    degree = max(degrees, default=NEG_INF)
    kolmogorov = coordinate_quotients(vf) is not None
    tangent = Poly.sum(
        vf.dim,
        (p * Poly.var(vf.dim, i) for i, p in enumerate(vf.components, start=1)),
    )
    return HomogeneousReport(
        homogeneous=homogeneous,
        degree=degree,
        kolmogorov=kolmogorov,
        tangent=tangent.is_zero(),
    )


# ----- JSON formats ----------------------------------------------------------
#
# Vector field:  {"dim": d, "components": ["<poly text>", ...]}
# Constant form: {"dim": d, "alpha": ["p/q", ...], "atilde": [["p/q", ...], ...]}
# Skew seed:     {"entries": [["<poly text>", ...], ...]}
#
# Rationals travel as strings so exactness survives serialization.  The
# readers take the decoded JSON object.  A missing key raises KeyError; any
# other fault raises a ValueError, or the parser's IndexError for a variable
# outside x1..xd, with a message that says what is wrong.


def field_to_dict(vf: PolyVectorField) -> dict:
    return {"dim": vf.dim, "components": [str(p) for p in vf.components]}


def _json_dim(data: dict) -> int:
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    return dim


def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array")
    return value


def field_from_dict(data: dict) -> PolyVectorField:
    dim = _json_dim(data)
    texts = _json_array(data["components"], "components")
    for i, text in enumerate(texts, start=1):
        if not isinstance(text, str):
            raise ValueError(f"component {i} must be polynomial text")
    return PolyVectorField(dim, tuple(parse(text, dim) for text in texts))


def cubic_form_to_dict(form: CubicKolmogorovForm) -> dict:
    return {
        "dim": form.dim,
        "alpha": [str(a) for a in form.alpha],
        "atilde": [[str(x) for x in row] for row in form.atilde],
    }


def read_rational(value, what: str) -> Fraction:
    """A rational from a JSON number or from text such as ``"-3"``,
    ``"1/2"`` or ``"0.5"``; a ``ValueError`` that names ``what`` otherwise.

    A finite float reads as its shortest decimal text, so 0.1 is 1/10.  Text
    must be ASCII: ``Fraction`` also reads other scripts' digits, so an
    Arabic-Indic one would otherwise pass for 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} is a boolean, expected a rational")
    if isinstance(value, float) and math.isfinite(value):
        value = repr(value)
    if isinstance(value, str) and not value.isascii():
        raise ValueError(f"{what} is {json.dumps(value)}, expected a rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"{what} is not finite") from None
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} is {json.dumps(value)}, expected a rational"
        ) from None


def cubic_form_from_dict(data: dict) -> CubicKolmogorovForm:
    dim = _json_dim(data)
    alpha = [
        read_rational(s, f"alpha entry {i}")
        for i, s in enumerate(_json_array(data["alpha"], "alpha"), start=1)
    ]
    atilde = [
        [read_rational(s, f"atilde entry ({i}, {j})")
         for j, s in enumerate(_json_array(row, f"atilde row {i}"), start=1)]
        for i, row in enumerate(_json_array(data["atilde"], "atilde"), start=1)
    ]
    form = CubicKolmogorovForm.from_values(alpha, atilde)
    if form.dim != dim:
        raise DimensionMismatchError(
            f"declared dim {dim} but {form.dim} alpha entries"
        )
    return form


def seed_from_dict(data: dict, dim: int) -> List[List[Poly]]:
    """The seed matrix of ``construct_linear_fi_field``, its entries parsed
    in ``dim`` variables; its shape and skew-symmetry are checked there."""
    entries = _json_array(data["entries"], "entries")
    rows = [
        _json_array(row, f"entries row {i}")
        for i, row in enumerate(entries, start=1)
    ]
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            if not isinstance(entry, str):
                raise ValueError(
                    f"entry ({i}, {j}) is {json.dumps(entry)}, "
                    "expected polynomial text"
                )
    return [[parse(text, dim) for text in row] for row in rows]
