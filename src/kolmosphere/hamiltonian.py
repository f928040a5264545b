"""Hamiltonian structure tests for polynomial fields on even-dimensional
space, with coordinates paired as (x1, x2), (x3, x4), ...

A field (P_1, ..., P_{2n}) is Hamiltonian when P_{2i-1} = -dH/dx_{2i} and
P_{2i} = dH/dx_{2i-1} for one polynomial H.  Equivalently the rearranged
field G = (P_2, -P_1, P_4, -P_3, ...) must be a gradient, and over a
polynomial ring that reduces to symmetry of the Jacobian of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .exactla import RationalMatrix, nullspace
from .polyring import Poly
from .field_forms import (
    CubicKolmogorovForm,
    PolyVectorField,
    assemble_cubic,
    skew_matrix,
)


class OddDimensionError(ValueError):
    """Hamiltonian structure needs an even number of coordinates."""


@dataclass(frozen=True)
class HamiltonianReport:
    is_hamiltonian: bool
    defects: Tuple[Tuple[Tuple[int, int], Poly], ...]


def _jacobian_defects(
    vf: PolyVectorField,
) -> List[Tuple[Tuple[int, int], Poly]]:
    """dG_j/dx_k - dG_k/dx_j for every pair j < k (1-based) of the
    rearranged field G, zero or not."""
    g = []
    for i in range(0, vf.dim, 2):
        g.append(vf.components[i + 1])
        g.append(-vf.components[i])
    return [
        ((j + 1, k + 1), g[j].differentiate(k + 1) - g[k].differentiate(j + 1))
        for j in range(vf.dim)
        for k in range(j + 1, vf.dim)
    ]


def is_hamiltonian(vf: PolyVectorField) -> HamiltonianReport:
    """Check dG_j/dx_k = dG_k/dx_j for all j < k on the rearranged field;
    every violated pair is reported with its defect polynomial."""
    if vf.dim % 2 != 0:
        raise OddDimensionError(
            "Hamiltonian structure needs an even number of coordinates, "
            f"field on R^{vf.dim}"
        )
    defects = [
        (pair, defect)
        for pair, defect in _jacobian_defects(vf)
        if not defect.is_zero()
    ]
    return HamiltonianReport(
        is_hamiltonian=not defects, defects=tuple(defects)
    )


def _parameter_form(n: int, values: List[Fraction]) -> CubicKolmogorovForm:
    """Unpack (alpha_1..alpha_2n, atilde entries above the diagonal) into
    constant assembly data."""
    d = 2 * n
    above = iter(values[d:])
    atilde = skew_matrix(d, lambda i, j: next(above), Fraction(0))
    return CubicKolmogorovForm.from_values(values[:d], atilde)


def parameter_count(n: int) -> int:
    d = 2 * n
    return d + d * (d - 1) // 2


def hamiltonian_constraint_space(
    n: int,
) -> Tuple[int, List[Tuple[Fraction, ...]]]:
    """Exact solution space of "the assembled field is Hamiltonian" over
    the parameters (alpha, atilde) of constant-form fields on R^(2n).

    The Jacobian-symmetry defects are linear in the parameters, so stacking
    their coefficients (one matrix column per parameter, one row per
    (pair, monomial) slot) turns the question into a nullspace computation.
    Returns (dimension, basis) in the parameter order alpha_1..alpha_2n,
    then atilde_ij for i < j in row-major order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    params = parameter_count(n)

    # Column p holds every defect coefficient of the unit parameter field.
    columns: List[Dict[Tuple[int, Tuple[int, ...]], Fraction]] = []
    for p in range(params):
        values = [Fraction(0)] * params
        values[p] = Fraction(1)
        vf = assemble_cubic(_parameter_form(n, values))
        column: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
        for slot, (_, defect) in enumerate(_jacobian_defects(vf)):
            for exps, coeff in defect:
                column[(slot, exps)] = coeff
        columns.append(column)

    row_keys = sorted({key for col in columns for key in col})
    matrix = RationalMatrix.from_rows(
        [
            [col.get(key, Fraction(0)) for col in columns]
            for key in row_keys
        ]
    )
    basis = nullspace(matrix, side="right")
    return len(basis), basis
