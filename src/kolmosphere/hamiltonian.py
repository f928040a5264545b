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
from .polyring import Poly, Scalar
from .field_forms import PolyVectorField, sphere_polynomial


class OddDimensionError(ValueError):
    """Hamiltonian structure needs an even number of coordinates."""


@dataclass(frozen=True)
class HamiltonianReport:
    is_hamiltonian: bool
    defects: Tuple[Tuple[Tuple[int, int], Poly], ...]


def _rearranged(components) -> List[Poly]:
    """G = (P_2, -P_1, P_4, -P_3, ...)."""
    g = []
    for i in range(0, len(components), 2):
        g.append(components[i + 1])
        g.append(-components[i])
    return g


def _defect(g: List[Poly], j: int, k: int) -> Poly:
    """dG_j/dx_k - dG_k/dx_j for 0-based j < k."""
    return g[j].differentiate(k + 1) - g[k].differentiate(j + 1)


def is_hamiltonian(vf: PolyVectorField) -> HamiltonianReport:
    """Check dG_j/dx_k = dG_k/dx_j for all j < k on the rearranged field;
    every violated pair is reported with its defect polynomial."""
    if vf.dim % 2 != 0:
        raise OddDimensionError(
            "Hamiltonian structure needs an even number of coordinates, "
            f"field on R^{vf.dim}"
        )
    g = _rearranged(vf.components)
    defects = []
    for j in range(vf.dim):
        for k in range(j + 1, vf.dim):
            defect = _defect(g, j, k)
            if not defect.is_zero():
                defects.append(((j + 1, k + 1), defect))
    return HamiltonianReport(
        is_hamiltonian=not defects, defects=tuple(defects)
    )


def _constraint_columns(n: int) -> List[Dict[tuple, Scalar]]:
    """Per parameter, {(pair slot, monomial): coefficient} of the Jacobian
    defects of its unit value.  alpha_i puts x_i(1 - |x|^2) into P_i and
    atilde_ij puts x_i x_j^2 into P_i and -x_j x_i^2 into P_j, so only the
    pairs that touch those components of G can have a defect."""
    d = 2 * n
    xs = [Poly.var(d, i) for i in range(1, d + 1)]
    one_minus_r2 = -sphere_polynomial(d)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    touched = [{i: xs[i] * one_minus_r2} for i in range(d)] + [
        {i: xs[i] * xs[j] ** 2, j: -xs[j] * xs[i] ** 2} for i, j in pairs
    ]
    columns = []
    for parts in touched:
        g = _rearranged([parts.get(i, Poly.zero(d)) for i in range(d)])
        # P_i sits in G_(i xor 1), 0-based; only those components are
        # nonzero, and each is differentiated once per other variable.
        partials = {
            i ^ 1: {v: g[i ^ 1].differentiate(v + 1)
                    for v in range(d) if v != i ^ 1}
            for i in parts
        }
        column = {}
        for slot, (j, k) in enumerate(pairs):
            if j in partials:
                defect = partials[j][k]
                if k in partials:
                    defect = defect - partials[k][j]
            elif k in partials:
                defect = -partials[k][j]
            else:
                continue
            for exps, coeff in defect:
                column[slot, exps] = coeff
        columns.append(column)
    return columns


def hamiltonian_constraint_space(
    n: int,
) -> Tuple[int, List[Tuple[Fraction, ...]]]:
    """Exact solution space of "the assembled field is Hamiltonian" over
    the parameters (alpha, atilde) of constant-form fields on R^(2n).

    The Jacobian-symmetry defects are linear in the parameters, so stacking
    their coefficients (one matrix column per parameter, one row per
    (pair, monomial) slot) turns the question into a nullspace computation.
    Each column comes from the one or two components its parameter touches;
    ``exactla`` eliminates the sparse matrix by sparsest-row pivots.
    Returns (dimension, basis) in the parameter order alpha_1..alpha_2n,
    then atilde_ij for i < j in row-major order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    columns = _constraint_columns(n)
    row_keys = sorted({key for col in columns for key in col})
    matrix = RationalMatrix(len(row_keys), len(columns), tuple(
        tuple(col.get(key, 0) for col in columns) for key in row_keys
    ))
    basis = nullspace(matrix, side="right")
    return len(basis), basis
