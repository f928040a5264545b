"""Exact linear algebra over the rationals.

A ``RationalMatrix`` stores its sparse rows: one {column: value} dict per
row, every value nonzero, each as ``polyring._canonical`` stores a
coefficient: an ``int`` when integral, else a ``Fraction``.  ``from_rows``
reads dense rows into that form.  One elimination serves everything:
fraction-free (Bareiss) echelon form of copies of the stored rows.  An
all-``int`` row enters unscaled; only a row that holds a ``Fraction`` is
scaled to integers by the lcm of its denominators.  Columns keep their
order; each pivot is the candidate row with the fewest nonzeros, the first
on ties.  Rank counts the pivots and the determinant is the last one.

A Bareiss step brings every row to the new pivot value a: times a, minus
b times the pivot row, over the previous pivot value.  A row without the
pivot column only gets a / prev, so each row instead carries the pivot
value it is current for and is scaled by prev / base only when it is read:
when it becomes the pivot row or holds the pivot column.  The skipped
ratios telescope to prev / base, so the row read is the one the eager step
would have made, and every division is still checked exact.  Scaling by a
nonzero ratio keeps a row's support, and the pivot choice reads only
supports, so the pivot order, the sign and every echelon row are those of
the eager elimination.  On the Hamiltonian constraint matrices, whose
pivots are powers of two and whose pivot rows hold one or two entries,
most rows sit out most steps.

``nullspace`` gives the right nullspace; the left one is that of the
transpose.  Its basis comes from back substitution: one vector per free
column, with a 1 there and 0 at the other free columns, scaled so its first
nonzero entry is 1.  Such a vector is unique and the free columns do not
depend on the row order, so the basis is the reduced-echelon one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Tuple

from .polyring import Scalar, SelfCheckError, _canonical

Vector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: Tuple[Dict[int, Scalar], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be natural numbers")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if row and (min(row) < 0 or max(row) >= self.cols):
                raise ValueError(f"a column lies outside 0..{self.cols - 1}")
            if 0 in row.values():  # Bareiss would divide by it as a pivot
                raise ValueError("a sparse row stores a zero")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        """The matrix of dense rows of one length: each entry as
        ``_canonical`` stores it, zeros left out."""
        dense = [[_canonical(x) for x in row] for row in rows]
        ncols = len(dense[0]) if dense else 0
        for row in dense:
            if len(row) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(row)}")
        return cls(len(dense), ncols, tuple(
            [{c: x for c, x in enumerate(row) if x} for row in dense]
        ))

    def transpose(self) -> "RationalMatrix":
        columns: List[Dict[int, Scalar]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for c, x in row.items():
                columns[c][i] = x
        return RationalMatrix(self.cols, self.rows, tuple(columns))


def _exact_quotient(v: int, d: int) -> int:
    """v / d, which every Bareiss division must leave without remainder."""
    q, rem = divmod(v, d)
    if rem:
        raise SelfCheckError("Bareiss step left a remainder")
    return q


def _bareiss_echelon(m: RationalMatrix):
    """Returns (pivots, sign, scale): the (pivot column, echelon row) pairs
    from the top, the sign of the row permutation, and the product of the
    lcms that scaled m's rows holding a ``Fraction`` to integers."""
    active = []
    scale = 1
    for row in m.entries:
        if all(type(x) is int for x in row.values()):
            active.append(dict(row))  # the echelon rows must not alias m's
            continue
        s = lcm(*(x.denominator for x in row.values()))
        active.append({c: x.numerator * (s // x.denominator) for c, x in row.items()})
        scale *= s
    bases = [1] * len(active)  # the pivot value each row is current for
    sign = 1
    prev = 1
    pivots = []
    for col in range(m.cols):
        holders = [pos for pos, row in enumerate(active) if col in row]
        if not holders:
            continue
        best = min(holders, key=lambda pos: len(active[pos]))
        if best % 2:  # moving the pivot row up past best rows
            sign = -sign
        for pos in holders:
            if bases[pos] != prev:
                base = bases[pos]
                active[pos] = {
                    c: _exact_quotient(v * prev, base)
                    for c, v in active[pos].items()
                }
                bases[pos] = prev
        prow = active[best]
        a = prow[col]
        for pos in holders:
            if pos == best:
                continue
            row = active[pos]
            b = row[col]
            new = {}
            for c, v in row.items():
                if c in prow:
                    v = a * v - b * prow[c]
                    if not v:
                        continue
                else:
                    v *= a
                new[c] = _exact_quotient(v, prev)
            for c, p in prow.items():
                if c not in row:
                    new[c] = _exact_quotient(-b * p, prev)
            active[pos] = new
            bases[pos] = a
        del active[best], bases[best]
        prev = a
        pivots.append((col, prow))
    return pivots, sign, scale


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    return len(_bareiss_echelon(m)[0])


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}")
    if m.rows == 0:
        return Fraction(1)
    pivots, sign, scale = _bareiss_echelon(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    # After full elimination the last pivot is the determinant of the
    # integer matrix; undo the per-row scaling.
    col, row = pivots[-1]
    return Fraction(sign * row[col], scale)


def nullspace(m: RationalMatrix) -> List[Vector]:
    """Basis of all v with M v = 0, possibly empty.  Each basis vector is
    scaled so its first nonzero entry is 1; vectors are ordered by the free
    column of the echelon form that produced them.
    """
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
