"""Matrices over polynomials or truncated series; determinants and minors.

Determinants use a division-free expansion: truncated series rings have
zero divisors, so fraction-free elimination is unsound there.  The
expansion memoizes on column subsets, which is fine at desk scale
(matrices here stay small).
"""

from __future__ import annotations

from itertools import combinations

from .poly import MultiPoly
from .series import TruncSeries


class PolyMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(r) for r in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(entries[0])
        variables = None
        for r in entries:
            if len(r) != cols:
                raise ValueError("ragged matrix")
            for e in r:
                if not isinstance(e, MultiPoly):
                    raise TypeError("PolyMatrix entries must be MultiPoly")
                if variables is None:
                    variables = e.variables
                elif e.variables != variables:
                    raise ValueError("entries must share one variable list")
        self.rows = len(entries)
        self.cols = cols
        self.entries = tuple(tuple(r) for r in entries)

    @property
    def variables(self):
        return self.entries[0][0].variables

    @property
    def field(self):
        return self.entries[0][0].field

    def entry(self, i, j):
        return self.entries[i][j]

    def submatrix(self, row_idx, col_idx):
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def pullback(self, jet):
        """Entrywise substitution of a jet: the series matrix gamma*(A)."""
        return SeriesMatrix([[e.substitute_series(jet.coords) for e in row] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and other.entries == self.entries

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


class SeriesMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(r) for r in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(entries[0])
        level = None
        field = None
        for r in entries:
            if len(r) != cols:
                raise ValueError("ragged matrix")
            for e in r:
                if not isinstance(e, TruncSeries):
                    raise TypeError("SeriesMatrix entries must be TruncSeries")
                if level is None:
                    level, field = e.level, e.field
                elif e.level != level or e.field != field:
                    raise ValueError("entries must share one level and field")
        self.rows = len(entries)
        self.cols = cols
        self.entries = tuple(tuple(r) for r in entries)

    @property
    def level(self):
        return self.entries[0][0].level

    @property
    def field(self):
        return self.entries[0][0].field

    @classmethod
    def identity(cls, field, level, n):
        return cls(
            [[TruncSeries.one(field, level) if i == j else TruncSeries.zero(field, level) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal_powers(cls, field, level, rows, lam):
        """The rows x len(lam) matrix diag(t^lam_1, ..., t^lam_r)."""
        return cls(
            [[TruncSeries.t_power(field, level, k) if i == j else TruncSeries.zero(field, level) for j, k in enumerate(lam)]
             for i in range(rows)]
        )

    def entry(self, i, j):
        return self.entries[i][j]

    def submatrix(self, row_idx, col_idx):
        return SeriesMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        zero = TruncSeries.zero(self.field, self.level)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(out)

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and other.entries == self.entries

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"SeriesMatrix[{body}]"


def _det_memo(entries, zero):
    """Division-free determinant: first-row Laplace expansion built bottom-up
    over column subsets, O(k * 2^k) ring operations for a k x k matrix.  The
    minors on the columns ``cols`` use the last len(cols) rows."""
    k = len(entries)
    if k == 0:
        return zero
    minor = {(c,): entries[k - 1][c] for c in range(k)}
    for size in range(2, k + 1):
        row = entries[k - size]
        larger = {}
        for cols in combinations(range(k), size):
            acc = None
            for pos, c in enumerate(cols):
                term = row[c] * minor[cols[:pos] + cols[pos + 1 :]]
                if pos % 2 == 1:
                    term = -term
                acc = term if acc is None else acc + term
            larger[cols] = acc
        minor = larger
    return minor[tuple(range(k))]


def det_division_free(matrix):
    """Determinant of a square PolyMatrix or SeriesMatrix without ring division."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of a non-square {matrix.rows}x{matrix.cols} matrix")
    if isinstance(matrix, PolyMatrix):
        zero = MultiPoly.zero(matrix.field, matrix.variables)
    else:
        zero = TruncSeries.zero(matrix.field, matrix.level)
    return _det_memo(matrix.entries, zero)


def minors(matrix, ell):
    """All ell x ell minor determinants, in lexicographic subset order.

    Row subsets vary slowest; within a row subset, column subsets are
    lexicographic.
    """
    if ell < 1 or ell > min(matrix.rows, matrix.cols):
        raise ValueError(f"minor size {ell} out of range for {matrix.rows}x{matrix.cols}")
    out = []
    for ri in combinations(range(matrix.rows), ell):
        for ci in combinations(range(matrix.cols), ell):
            out.append(det_division_free(matrix.submatrix(ri, ci)))
    return out
