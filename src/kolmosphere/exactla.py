"""Exact linear algebra over the rationals for small dense matrices.

One elimination serves everything: fraction-free (Bareiss) echelon form of
a denominator-cleared integer copy, which keeps intermediate entries
polynomially bounded.  Rank counts its pivots, the determinant is its last
pivot, and nullspaces come from back substitution on it: one basis vector
per free column, with a 1 there and 0 at the other free columns, scaled so
its first nonzero entry is 1 and ordered by free column.  Such a vector is
unique, so the basis is the one a reduced row echelon form would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple

Vector = Tuple[Fraction, ...]


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be natural numbers")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(
                    f"expected {self.cols} columns, got {len(row)}"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return cls(nrows, ncols, data)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        ))


def _integer_copy(m: RationalMatrix) -> Tuple[List[List[int]], List[int]]:
    """Integer matrix equal to m with each row scaled up; returns scalers."""
    rows = []
    scalers = []
    for row in m.entries:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        rows.append([int(x * scale) for x in row])
        scalers.append(scale)
    return rows, scalers


def _bareiss_echelon(mat: List[List[int]], rows: int, cols: int):
    """In-place fraction-free elimination; returns (pivot columns, sign)."""
    sign = 1
    prev = 1
    pivot_cols = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        pivot = next(
            (r for r in range(pr, rows) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        if pivot != pr:
            mat[pr], mat[pivot] = mat[pivot], mat[pr]
            sign = -sign
        for r in range(pr + 1, rows):
            for c in range(col + 1, cols):
                num = mat[pr][col] * mat[r][c] - mat[r][col] * mat[pr][c]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free step left a remainder"
                mat[r][c] = q
            mat[r][col] = 0
        prev = mat[pr][col]
        pivot_cols.append(col)
        pr += 1
    return pivot_cols, sign


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    mat, _ = _integer_copy(m)
    pivot_cols, _ = _bareiss_echelon(mat, m.rows, m.cols)
    return len(pivot_cols)


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    if m.rows == 0:
        return Fraction(1)
    mat, scalers = _integer_copy(m)
    pivot_cols, sign = _bareiss_echelon(mat, m.rows, m.cols)
    if len(pivot_cols) < m.rows:
        return Fraction(0)
    # After full elimination the last pivot is the determinant of the
    # integer matrix; undo the per-row scaling.
    det_scaled = Fraction(sign * mat[m.rows - 1][m.cols - 1])
    for s in scalers:
        det_scaled /= s
    return det_scaled


def _normalize(v: List[Fraction]) -> Vector:
    first = next((x for x in v if x != 0), None)
    if first is None:
        raise ValueError("cannot normalize the zero vector")
    return tuple(x / first for x in v)


def nullspace(m: RationalMatrix, side: str = "right") -> List[Vector]:
    """Basis of the requested nullspace, possibly empty.

    Right: all v with M v = 0.  Left: all v with v M = 0.  Each basis
    vector is scaled so its first nonzero entry is 1; vectors are ordered
    by the free column of the echelon form that produced them.
    """
    if side == "left":
        return nullspace(m.transpose(), "right")
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mat, _ = _integer_copy(m)
    pivot_cols, _ = _bareiss_echelon(mat, m.rows, m.cols)
    pivots_set = set(pivot_cols)
    basis: List[Vector] = []
    for free in range(m.cols):
        if free in pivots_set:
            continue
        # Back substitution, bottom row first; the entries left of a row's
        # pivot are zero, so only the entries solved so far contribute.
        solved = {free: Fraction(1)}
        for r in range(len(pivot_cols) - 1, -1, -1):
            row = mat[r]
            total = sum(row[c] * x for c, x in solved.items())
            if total:
                solved[pivot_cols[r]] = -total / row[pivot_cols[r]]
        basis.append(
            _normalize([solved.get(c, Fraction(0)) for c in range(m.cols)])
        )
    return basis
