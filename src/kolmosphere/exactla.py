"""Exact linear algebra over the rationals.

Entries are stored as ``polyring._canonical`` stores a coefficient: an
``int`` when integral, else a ``Fraction``.  One elimination serves
everything: fraction-free (Bareiss) echelon form of the rows, stored
sparsely as {column: value}.  An all-``int`` row enters unscaled; only a
row that holds a ``Fraction`` is scaled to integers by the lcm of its
denominators.  Columns keep their order; each pivot is the candidate row
with the fewest nonzeros, the first on ties.  Rank counts the pivots and the
determinant is the last one.  Nullspaces come from back substitution: one
basis vector per free column, with a 1 there and 0 at the other free
columns, scaled so its first nonzero entry is 1.  Such a vector is unique
and the free columns do not depend on the row order, so the basis is the
reduced-echelon one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple

from .polyring import Scalar, SelfCheckError, _canonical

Vector = Tuple[Fraction, ...]


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: Tuple[Tuple[Scalar, ...], ...]

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
        # Tuples from lists, not generators: ``tuple`` of a generator takes
        # a 10-slot tuple and shrinks it, so CPython's free list of each
        # short row length only fills until a full garbage collection.
        # Over a few hundred rounds of the hypothesis determinants for
        # n = 1..20 that held about 3.5 MB more at peak.
        data = tuple([tuple([_canonical(x) for x in row]) for row in rows])
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return cls(nrows, ncols, data)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        ))


def _bareiss_echelon(m: RationalMatrix):
    """Returns (pivots, sign, scale): the (pivot column, echelon row) pairs
    from the top, the sign of the row permutation, and the product of the
    lcms that scaled m's rows holding a ``Fraction`` to integers."""
    active = []
    scale = 1
    for entries in m.entries:
        nonzero = [(c, x) for c, x in enumerate(entries) if x]
        if all(type(x) is int for _, x in nonzero):
            active.append(dict(nonzero))
            continue
        s = lcm(*(x.denominator for _, x in nonzero))
        active.append({c: x.numerator * (s // x.denominator) for c, x in nonzero})
        scale *= s
    sign = 1
    prev = 1
    pivots = []
    for col in range(m.cols):
        best = None
        for pos, row in enumerate(active):
            if col in row and (best is None or len(row) < len(active[best])):
                best = pos
        if best is None:
            continue
        if best % 2:  # moving the pivot row up past best rows
            sign = -sign
        prow = active.pop(best)
        a = prow[col]
        for r, row in enumerate(active):
            b = row.pop(col, 0)
            if not b and a == prev:
                continue  # a / prev = 1 leaves the row as it is
            for c, v in row.items():
                row[c] = a * v
            if b:
                for c, v in prow.items():
                    row[c] = row.get(c, 0) - b * v
                del row[col]
            if prev != 1:
                for c, v in row.items():
                    q, rem = divmod(v, prev)
                    if rem:
                        raise SelfCheckError("Bareiss step left a remainder")
                    row[c] = q
            if b:
                active[r] = {c: v for c, v in row.items() if v}
        prev = a
        pivots.append((col, prow))
    return pivots, sign, scale


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    return len(_bareiss_echelon(m)[0])


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    if m.rows == 0:
        return Fraction(1)
    pivots, sign, scale = _bareiss_echelon(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    # After full elimination the last pivot is the determinant of the
    # integer matrix; undo the per-row scaling.
    col, row = pivots[-1]
    return Fraction(sign * row[col], scale)


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
    pivots = _bareiss_echelon(m)[0]
    pivot_cols = {col for col, _ in pivots}
    basis: List[Vector] = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        # Back substitution, bottom row first; the entries left of a row's
        # pivot are zero, so only the entries solved so far contribute.
        solved = {free: Fraction(1)}
        for col, row in reversed(pivots):
            total = sum(v * solved[c] for c, v in row.items() if c in solved)
            if total:
                solved[col] = -total / row[col]
        vector = [solved.get(c, Fraction(0)) for c in range(m.cols)]
        first = next(x for x in vector if x)
        basis.append(tuple(x / first for x in vector))
    return basis
