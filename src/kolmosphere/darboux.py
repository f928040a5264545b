"""Darboux first integrals H = g^(b_{d+1}) * prod_i x_i^(b_i) for fields
assembled from constant data (alpha, atilde) on R^d, d = n+1.

The exponent vectors come from the left nullspace of a (d+1) x (d+1)
rational matrix B built from the assembly data and the cofactor of one
extra invariant surface g: row i is ``form.coordinate_view(i)``, the view
(k0, k) of the cofactor of x_i = 0, and the last row is g's view.  A
product of powers of the invariant surfaces is a first integral exactly
when its exponent vector kills B from the left, which the code certifies
afterwards through the bit-exact identity sum_i b_i K_i = 0 on cofactors.
The rank test of complete integrability (rank B <= 2) reads the rank off
that certified basis, since B is square: rank B = d + 1 - (basis size).

A failed self-check raises ``SelfCheckError``.  ``_certify`` is the one
certifier of first integrals, through ``verify_first_integral``, the one
place that forms sum_i b_i K_i; a conserved surface f is the integral f^1,
whose K = 0 is X(f) = 0.  ``_check_rank`` is the one independence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactla import RationalMatrix, determinant, nullspace, rank
from .polyring import (
    DimensionMismatchError,
    Poly,
    Scalar,
    SelfCheckError,
    UnprintableError,
    _canonical,
)
from .field_forms import (
    CubicKolmogorovForm,
    KolmogorovForm,
    PolyVectorField,
    assemble_cubic,
    check_skew,
    construct_from_form,
    coordinate_quotients,
    pure_square_profile,
    skew_matrix,
    sphere_polynomial,
)
from .invariance import (
    Hypersurface,
    HyperplaneSpec,
    NotInvariantError,
    cofactor,
)


class UnstructuredCofactorError(ValueError):
    """The extra surface's cofactor is not of the form k0 + sum k_i x_i^2."""


class NotASyzygyError(ValueError):
    """The polynomials do not satisfy sum_i q_i x_i^k = 0."""


class DegreeMismatchError(ValueError):
    """Interaction polynomial degree incompatible with the target degree."""


class ZeroSeedError(ValueError):
    """The seed skew matrix is identically zero."""


class HypothesisFailedError(ValueError):
    """The independence hypothesis fails for the family that omits
    coordinate ``index``: g or dg/dx_index vanishes at a sample point, or
    the evaluation matrix is singular."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True)
class DarbouxIntegral:
    """Exponent vector over an ordered tuple of invariant surfaces."""

    exponents: Tuple[Fraction, ...]
    surfaces: Tuple[Hypersurface, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.surfaces):
            raise ValueError("one exponent per surface")
        if all(e == 0 for e in self.exponents):
            raise ValueError("exponents must not all vanish")

    def to_dict(self) -> dict:
        exponents = []
        for k, e in enumerate(self.exponents, start=1):
            try:
                exponents.append(str(e))
            except ValueError:
                raise UnprintableError(f"exponent {k}", "it") from None
        return {
            "exponents": exponents,
            "surfaces": [str(s.defining) for s in self.surfaces],
        }


@dataclass(frozen=True)
class SamplePoint:
    """A rational point with every coordinate nonzero.  ``of`` stores
    integral coordinates as ints, so ``Poly.evaluate`` uses them as they
    are instead of converting them at every evaluation."""

    coords: Tuple[Scalar, ...]

    def __post_init__(self):
        if any(c == 0 for c in self.coords):
            raise ValueError("sample points need all coordinates nonzero")

    @classmethod
    def of(cls, values: Sequence) -> "SamplePoint":
        # A tuple from a list: ``tuple`` of a generator takes a 10-slot
        # tuple and shrinks it, so CPython's free list of each short tuple
        # length only fills until a full collection.  Matrix rows built that
        # way held about 3.5 MB more at peak over the cor44 determinants.
        return cls(tuple([_canonical(v) for v in values]))


def build_matrix_B(form: CubicKolmogorovForm, extra: Poly) -> RationalMatrix:
    """Rows 1..d: the coordinate views (k0, k_1, ..., k_d) of the form; last
    row: the view of the extra surface's cofactor, which must have one."""
    view = pure_square_profile(extra)
    if view is None:
        raise UnstructuredCofactorError(
            f"cofactor {extra} is not of the shape k0 + sum k_i x_i^2"
        )
    d = form.dim
    if extra.dim != d:
        raise DimensionMismatchError(
            f"cofactor over {extra.dim} variables, form on R^{d}"
        )
    views = [form.coordinate_view(i) for i in range(d)] + [view]
    return RationalMatrix.from_rows([[v.k0, *v.k] for v in views])


def verify_first_integral(
    vf: PolyVectorField,
    integral: DarbouxIntegral,
    cofactors: Sequence[Poly] = (),
) -> bool:
    """Bit-exact certificate: the exponent-weighted cofactor sum vanishes.
    ``cofactors`` are those of the first surfaces, when the caller has
    them; the cofactor of each other surface comes from exact division."""
    known = list(cofactors)
    for surface in integral.surfaces[len(known):]:
        cof = cofactor(vf, surface)
        if cof is None:
            raise NotInvariantError(
                f"surface {surface.defining} is not invariant for the field"
            )
        known.append(cof)
    return Poly.sum(
        vf.dim, (b * k for b, k in zip(integral.exponents, known))
    ).is_zero()


def _certify(
    vf: PolyVectorField,
    integrals: Sequence[DarbouxIntegral],
    cofactors: Sequence[Poly] = (),
) -> List[DarbouxIntegral]:
    """The integrals, each certified by ``verify_first_integral`` with the
    ``cofactors`` of its first surfaces; an integral that fails, or a
    surface that is not invariant, is a failed self-check."""
    for integral in integrals:
        try:
            certified = verify_first_integral(vf, integral, cofactors)
        except NotInvariantError as err:
            raise SelfCheckError(str(err)) from err
        if not certified:
            raise SelfCheckError(f"{integral} fails the cofactor-sum check")
    return list(integrals)


def _certified_integrals(
    vf: PolyVectorField,
    vectors: Sequence[Tuple[Fraction, ...]],
    extra: Sequence[Tuple[Hypersurface, Poly]] = (),
) -> List[DarbouxIntegral]:
    """One certified integral per exponent vector over the surfaces
    (x_1, ..., x_d) and then the ``extra`` surfaces, given with their
    cofactors.  The coordinate cofactors are the quotients P_i / x_i, taken
    only when there is a vector to certify."""
    if not vectors:
        return []
    surfaces = tuple(
        Hypersurface(Poly.var(vf.dim, i)) for i in range(1, vf.dim + 1)
    ) + tuple(s for s, _ in extra)
    return _certify(
        vf,
        [DarbouxIntegral(vec, surfaces) for vec in vectors],
        coordinate_quotients(vf) + tuple(k for _, k in extra),
    )


def _check_rank(rows: Sequence[Sequence], n: int, what: str) -> int:
    """The rank n of ``rows``, built to be independent; any other rank is a
    failed self-check."""
    found = rank(RationalMatrix.from_rows(rows))
    if found != n:
        raise SelfCheckError(f"{what} have rank {found}, expected {n}")
    return found


def find_darboux(
    form: CubicKolmogorovForm, g: Hypersurface
) -> List[DarbouxIntegral]:
    """All first integrals g^(b_{d+1}) prod x_i^(b_i), as a basis of
    exponent vectors over the surfaces (x_1, ..., x_d, g); empty when the
    matrix B has full rank.  A one-term g = c x^beta is refused: its
    cofactor sum_i beta_i K_i always gives (beta, -1), whose integral is 1/c."""
    if len(g.defining.terms) == 1:
        raise ValueError(
            f"g = {g.defining} is a single term, so its only integral with "
            "the coordinate hyperplanes is a constant"
        )
    vf = assemble_cubic(form)
    extra = cofactor(vf, g)
    if extra is None:
        raise NotInvariantError(
            f"surface {g.defining} is not invariant for the assembled field"
        )
    basis = nullspace(build_matrix_B(form, extra).transpose())
    return _certified_integrals(vf, basis, [(g, extra)])


def syzygy_first_integral(
    form: CubicKolmogorovForm,
) -> List[DarbouxIntegral]:
    """Monomial first integrals prod x_i^(y_i) from the right nullspace of
    the stacked (d+1) x d matrix [alpha; atilde]: such y satisfy both
    sum y_i alpha_i = 0 and atilde y = 0."""
    stacked = RationalMatrix.from_rows(
        [list(form.alpha)] + [list(row) for row in form.atilde]
    )
    return _certified_integrals(
        assemble_cubic(form), nullspace(stacked)
    )


def decompose_syzygy(
    q: Sequence[Poly], k: int
) -> Tuple[Tuple[Poly, ...], ...]:
    """Skew polynomial matrix atilde with q_i = sum_j atilde_ij x_j^k.

    One pass over the rows, from residuals r_i = q_i.  Each monomial c*m
    of r_i moves to the first later column j with m_j >= k: atilde_ij
    gains c*m/x_j^k, atilde_ji loses it and r_j gains c*(m/x_j^k)*x_i^k,
    which keeps sum_l r_l x_l^k = 0.  Once r_1..r_(i-1) are empty, that
    relation cancels each m*x_i^k against a term of a later r_j x_j^k, so
    the column exists; a monomial without one (at the last row, any
    nonzero residual) is a failed self-check.
    """
    d = len(q)
    if k < 1:
        raise ValueError("the exponent k must be a positive natural")
    if d == 0:
        return ()
    for p in q:
        if p.dim != d:
            raise DimensionMismatchError(
                f"syzygy of length {d} with an entry in {p.dim} variables"
            )
    powers = [Poly.var(d, j) ** k for j in range(1, d + 1)]
    if not Poly.sum(d, (p * xk for p, xk in zip(q, powers))).is_zero():
        raise NotASyzygyError("sum_i q_i x_i^k is not the zero polynomial")

    residuals = [dict(p.terms) for p in q]
    entries = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for exps, coeff in residuals[i].items():
            if not coeff:  # cancelled by an earlier move
                continue
            j = next((j for j in range(i + 1, d) if exps[j] >= k), None)
            if j is None:
                raise SelfCheckError(
                    f"no pairing column for monomial {exps} in row {i + 1}"
                )
            m = exps[:j] + (exps[j] - k,) + exps[j + 1:]
            entries[i][j][m] = coeff
            entries[j][i][m] = -coeff
            target = m[:i] + (m[i] + k,) + m[i + 1:]
            residuals[j][target] = residuals[j].get(target, 0) + coeff
    return tuple(tuple(Poly(d, e) for e in row) for row in entries)


def construct_linear_fi_field(
    hp: HyperplaneSpec, seed_skew: Sequence[Sequence[Poly]]
) -> Tuple[PolyVectorField, KolmogorovForm]:
    """A field with the affine function a0 + sum a_i x_i as a first integral,
    and the form it is assembled from.

    Pick the least k with a_k != 0.  Embed x_k * seed (an n x n skew
    polynomial matrix) into the rows and columns away from k, then close
    row k so that every column of atilde is killed by (a_1 x_1, ..., a_d x_d):
    atilde_kj = -(1/a_k) sum_{i != k} a_i x_i seed_ij, with no division.
    The result has ftilde = 0 and cofactor 0 for the plane, which
    ``_certify`` checks on the assembled field.
    """
    d = hp.dim
    n = d - 1
    if len(seed_skew) != n or any(len(row) != n for row in seed_skew):
        raise ValueError(f"seed must be {n} x {n} for a field on R^{d}")
    seed = [[p for p in row] for row in seed_skew]
    for row in seed:
        for p in row:
            if p.dim != d:
                raise DimensionMismatchError(
                    f"seed entry in {p.dim} variables, field on R^{d}"
                )
    check_skew(seed, Poly.zero(d), "seed matrix")
    if all(p.is_zero() for row in seed for p in row):
        raise ZeroSeedError("seed matrix must not vanish identically")

    k = next(i for i, a in enumerate(hp.a) if a != 0)  # 0-based
    x_k = Poly.var(d, k + 1)
    others = [i for i in range(d) if i != k]

    atilde = [[Poly.zero(d) for _ in range(d)] for _ in range(d)]
    for si, i in enumerate(others):
        for sj, j in enumerate(others):
            atilde[i][j] = x_k * seed[si][sj]

    for sj, j in enumerate(others):
        quotient = Poly.sum(d, (
            Fraction(hp.a[i]) / hp.a[k] * Poly.var(d, i + 1) * seed[si][sj]
            for si, i in enumerate(others)
        ))
        atilde[k][j] = -quotient
        atilde[j][k] = quotient

    form = KolmogorovForm(
        d,
        tuple(Poly.zero(d) for _ in range(d)),
        tuple(tuple(row) for row in atilde),
    )
    field = construct_from_form(form)
    plane = Hypersurface(hp.defining_poly())
    _certify(field, [DarbouxIntegral((Fraction(1),), (plane,))])
    return field, form


@dataclass(frozen=True)
class IntegrabilityCertificate:
    """n verified first integrals plus an exact independence witness."""

    integrals: Tuple[DarbouxIntegral, ...]
    sample_point: SamplePoint
    jacobian_rank: int


def construct_completely_integrable(
    n: int, m: int, atilde_poly: Poly
) -> Tuple[PolyVectorField, IntegrabilityCertificate]:
    """The degree-m field (A x1 x2^2, -A x1^2 x2, 0, ..., 0) on R^(n+1)
    with A = atilde_poly of degree m - 3, together with its n functionally
    independent first integrals: the unit sphere and the last n-1
    coordinates.  The field is the assembly of ftilde = 0 and
    atilde_12 = A."""
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 3:
        raise ValueError("need degree m >= 3")
    d = n + 1
    if atilde_poly.dim != d:
        raise DimensionMismatchError(
            f"interaction polynomial in {atilde_poly.dim} variables, need {d}"
        )
    if atilde_poly.is_zero() or atilde_poly.degree() != m - 3:
        raise DegreeMismatchError(
            f"interaction polynomial must be nonzero of degree {m - 3}"
        )
    zero = Poly.zero(d)
    field = construct_from_form(KolmogorovForm(d, (zero,) * d, skew_matrix(
        d, lambda i, j: atilde_poly if (i, j) == (0, 1) else zero, zero
    )))

    surfaces = [Hypersurface(sphere_polynomial(d))]
    surfaces += [Hypersurface(Poly.var(d, j)) for j in range(3, d + 1)]
    integrals = _certify(
        field, [DarbouxIntegral((Fraction(1),), (s,)) for s in surfaces]
    )
    point = SamplePoint.of([1] * d)
    # A zero partial is written as 0: evaluating all d^2 of them, each
    # converting the d coordinates again, would make the check O(d^3).
    jac_rank = _check_rank(
        [[q.evaluate(point.coords) if q else 0
          for q in map(s.defining.differentiate, range(1, d + 1))]
         for s in surfaces],
        n, "the gradients of the integrals",
    )
    return field, IntegrabilityCertificate(tuple(integrals), point, jac_rank)


def standard_sample_points(dim: int) -> Tuple[SamplePoint, ...]:
    """Point j is all ones with a 2 in coordinate j."""
    points = []
    for j in range(dim):
        coords = [1] * dim
        coords[j] = 2
        points.append(SamplePoint.of(coords))
    return tuple(points)


def _hypothesis_table(g: Poly, points: Sequence[SamplePoint]) -> List[list]:
    """One row per point: (x_1 dg/dx_1, ..., x_d dg/dx_d, -g) there, read
    off one pass over g's terms: a term c x^e worth v at the point adds
    e_l v to entry l and -v to the last entry."""
    d = g.dim
    terms = [
        (c, [(l, e) for l, e in enumerate(exps) if e])
        for exps, c in g.terms.items()
    ]
    table = []
    for pt in points:
        row = [0] * (d + 1)
        for value, support in terms:
            for l, e in support:
                value *= pt.coords[l] ** e
            for l, e in support:
                row[l] += e * value
            row[d] -= value
        table.append(row)
    return table


def _omit_column(table: Sequence[list], omit: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [row[:omit - 1] + row[omit:] for row in table]
    )


def hypothesis_matrix(
    g: Poly, omit: int, points: Sequence[SamplePoint]
) -> RationalMatrix:
    """Rows: the vector (x_1 dg/dx_1, ..., omitting coordinate ``omit``,
    ..., x_d dg/dx_d, -g) evaluated at each point."""
    d = g.dim
    if not 1 <= omit <= d:
        raise ValueError(f"omitted coordinate {omit} outside 1..{d}")
    if len(points) != d:
        raise ValueError(f"need {d} sample points, got {len(points)}")
    for pt in points:
        if len(pt.coords) != d:
            raise DimensionMismatchError(
                f"sample point ({', '.join(map(str, pt.coords))}) has "
                f"{len(pt.coords)} coordinates, expected {d}"
            )
    return _omit_column(_hypothesis_table(g, points), omit)


@dataclass(frozen=True)
class CompleteIntegrabilityCertificate:
    """Outcome of the rank test: completely integrable exactly when the
    exponent matrix B has rank at most two, in which case n verified and
    linearly independent exponent vectors are emitted."""

    rank_b: int
    integrals: Tuple[DarbouxIntegral, ...]
    hypothesis_determinants: Tuple[Fraction, ...]

    @property
    def completely_integrable(self) -> bool:
        return self.rank_b <= 2

    def to_dict(self) -> dict:
        return {
            "rank_B": self.rank_b,
            "integrals": [integral.to_dict() for integral in self.integrals],
            "hypothesis": {
                "checked": True,
                "determinants": [
                    str(v) for v in self.hypothesis_determinants
                ],
            },
        }


def complete_integrability_check(
    form: CubicKolmogorovForm, g: Hypersurface
) -> CompleteIntegrabilityCertificate:
    """Decide complete integrability from rank(B) <= 2, after checking the
    independence hypothesis at the standard sample points.  The rank comes
    from the certified basis of ``find_darboux``, and the first n of its
    vectors are emitted when the test passes.

    For each omitted coordinate i the hypothesis needs g and dg/dx_i
    nonzero at each point and an invertible evaluation matrix.  All of it
    is read off one table of (x_1 dg/dx_1, ..., x_d dg/dx_d, -g) at the
    points: sample coordinates are nonzero, so dg/dx_i vanishes at a point
    exactly when its x_i dg/dx_i entry does, and the matrix for i is the
    table without column i.
    """
    d = form.dim
    n = d - 1
    if g.dim != d:
        raise DimensionMismatchError(
            f"surface in {g.dim} variables, form on R^{d}"
        )
    points = standard_sample_points(d)
    table = _hypothesis_table(g.defining, points)

    determinants = []
    for i in range(1, d + 1):
        for pt, row in zip(points, table):
            for name, col in (("g", d), (f"dg/dx{i}", i - 1)):
                if row[col] == 0:
                    poly = g.defining if col == d else g.defining.differentiate(i)
                    point = ", ".join(str(c) for c in pt.coords)
                    raise HypothesisFailedError(
                        i,
                        f"{name} = {poly} vanishes at the sample point "
                        f"({point}) for omitted coordinate {i}",
                    )
        matrix = _omit_column(table, i)
        det = determinant(matrix)
        if det == 0:
            raise HypothesisFailedError(
                i,
                f"hypothesis matrix for omitted coordinate {i} has rank "
                f"{rank(matrix)}, need {d}",
            )
        determinants.append(det)

    basis = find_darboux(form, g)
    rank_b = d + 1 - len(basis)  # B is square of order d + 1

    integrals = basis[:n] if rank_b <= 2 else []
    if integrals:
        _check_rank(
            [i.exponents for i in integrals], n, "the emitted exponent vectors"
        )
    return CompleteIntegrabilityCertificate(
        rank_b=rank_b,
        integrals=tuple(integrals),
        hypothesis_determinants=tuple(determinants),
    )
