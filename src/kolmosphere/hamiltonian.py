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
from .field_forms import PolyVectorField, _unit_fields


@dataclass(frozen=True)
class HamiltonianReport:
    """The Jacobian defects, each 1-based pair with its nonzero defect
    polynomial; the field is Hamiltonian exactly when there are none."""

    defects: Tuple[Tuple[Tuple[int, int], Poly], ...]

    @property
    def is_hamiltonian(self) -> bool:
        return not self.defects


def _defects(components) -> Dict[Tuple[int, int], Poly]:
    """The nonzero defects dG_j/dx_k - dG_k/dx_j of the rearranged field
    G = (P_2, -P_1, P_4, -P_3, ...), keyed by 0-based (j, k) with j < k in
    row-major order.  Only nonzero components are negated, and each is
    differentiated only by the other variables it contains.  A partial by
    any other variable is zero: it is left out of the difference, which
    keeps the terms in the order of the full difference, and a pair with
    no nonzero partial is not visited.  A U_i row contains every variable,
    a W_ij row only two."""
    d = len(components)
    g = []
    for i in range(0, d, 2):
        p, q = components[i], components[i + 1]
        g += [q, -p if p else p]
    partials = [
        {v: q.differentiate(v + 1)
         for v, powers in enumerate(zip(*q.terms)) if v != j and any(powers)}
        for j, q in enumerate(g)
    ]
    defects = {}
    for j, k in sorted({(min(i, v), max(i, v))
                        for i, part in enumerate(partials) for v in part}):
        # dG_j/dx_k and dG_k/dx_j, None where zero; one of them is not.
        d_jk = partials[j].get(k)
        d_kj = partials[k].get(j)
        if d_kj is None:
            defect = d_jk
        elif d_jk is None:
            defect = -d_kj
        else:
            defect = d_jk - d_kj
        if defect:
            defects[j, k] = defect
    return defects


def is_hamiltonian(vf: PolyVectorField) -> HamiltonianReport:
    """Check dG_j/dx_k = dG_k/dx_j for all j < k on the rearranged field;
    every violated pair is reported with its defect polynomial."""
    if vf.dim % 2 != 0:
        raise ValueError(
            "Hamiltonian structure needs an even number of coordinates, "
            f"field on R^{vf.dim}"
        )
    defects = tuple(
        ((j + 1, k + 1), defect)
        for (j, k), defect in _defects(vf.components).items()
    )
    return HamiltonianReport(defects)


def _constraint_columns(n: int) -> List[Dict[tuple, Scalar]]:
    """Per parameter, {(pair slot, monomial): coefficient} of the Jacobian
    defects of its unit value, the slots numbering the pairs j < k in
    row-major order.  The unit fields of ``field_forms._unit_fields`` give
    that value: alpha_i puts U_i = x_i(1 - |x|^2) into P_i, and atilde_ij
    (i < j) puts W_ij = x_i x_j^2 into P_i and -W_ji into P_j."""
    d = 2 * n
    units, squares = zip(*(_unit_fields(d, i) for i in range(d)))
    zero = Poly.zero(d)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    slots = {pair: slot for slot, pair in enumerate(pairs)}
    touched = [{i: units[i]} for i in range(d)] + [
        {i: squares[i][j], j: -squares[j][i]} for i, j in pairs
    ]
    columns = []
    for parts in touched:
        components = [parts.get(i, zero) for i in range(d)]
        columns.append({
            (slots[pair], exps): coeff
            for pair, defect in _defects(components).items()
            for exps, coeff in defect
        })
    return columns


def hamiltonian_constraint_space(n: int) -> Tuple[int, List[Tuple[Fraction, ...]]]:
    """Exact solution space of "the assembled field is Hamiltonian" over
    the parameters (alpha, atilde) of constant-form fields on R^(2n).

    The Jacobian-symmetry defects are linear in the parameters, so stacking
    their coefficients (one matrix column per parameter, one row per
    (pair, monomial) slot) turns the question into a nullspace computation.
    Each column comes from the one or two components its parameter touches,
    and transposing the columns gives the sparse rows that ``exactla``
    stores and eliminates by sparsest-row pivots, so no zero is written.
    Returns (dimension, basis) in the parameter order alpha_1..alpha_2n,
    then atilde_ij for i < j in row-major order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    columns = _constraint_columns(n)
    rows: Dict[tuple, Dict[int, Scalar]] = {}
    for p, column in enumerate(columns):
        for key, coeff in column.items():
            rows.setdefault(key, {})[p] = coeff
    matrix = RationalMatrix(len(rows), len(columns), tuple(
        rows[key] for key in sorted(rows)
    ))
    basis = nullspace(matrix)
    return len(basis), basis
