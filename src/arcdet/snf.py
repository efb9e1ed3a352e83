"""Smith normal form over the truncated series ring F[t]/(t^(N+1)).

Pivoting picks the entry of smallest t-order (ties broken row-major), the
standard local-PID reduction: the pivot is a unit times t^lam, every other
entry of the working block is divisible by t^lam, and one elimination pass
clears the pivot row and column exactly.  All updates are exact modulo
t^(N+1), so the computed profile is the profile of any true matrix
agreeing with the input to this level, provided |lambda| <= N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, TruncationInsufficient, ValidationError
from .matrices import SeriesMatrix, det_division_free
from .series import TruncSeries


@dataclass(frozen=True)
class LambdaProfile:
    """Nondecreasing elementary-divisor orders (lambda_1 <= ... <= lambda_r).

    ``truncation_flag`` marks a profile whose tail could not be determined
    at the working level; ``parts`` then holds only the determined prefix.
    """

    parts: tuple
    truncation_flag: bool = False

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 0 for p in parts):
            raise ValueError("profile parts must be nonnegative")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"profile {parts} is not nondecreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        flag = ", truncated" if self.truncation_flag else ""
        return f"LambdaProfile({self.parts}{flag})"


@dataclass(frozen=True)
class SnfResult:
    p_transform: SeriesMatrix
    q_transform: SeriesMatrix
    lam: LambdaProfile
    valid_to_level: int


def _lift_unit_part(series: TruncSeries, lam: int) -> TruncSeries:
    """The cofactor u with series = t^lam * u mod t^(N+1), padded back to level N.

    Every entry handled here has order >= lam (the pivot is minimal); a
    nonzero dropped prefix would mean the pivot search is broken.
    """
    f = series.field
    if any(not f.is_zero(c) for c in series.coeffs[:lam]):
        raise InternalInvariantError("entry has smaller order than the pivot")
    coeffs = list(series.coeffs[lam:]) + [f.zero] * lam
    return TruncSeries(f, series.level, coeffs)


def smith_normal_form(matrix: SeriesMatrix) -> SnfResult:
    """Diagonalize P * M * Q = diag(t^lam_1, ..., t^lam_r) mod t^(N+1).

    Raises TruncationInsufficient when the profile is not determined at
    this level (some pivot vanishes to level N, or |lambda| would
    exceed N, so the minor-order cross-check would be undefined).
    """
    s, r = matrix.rows, matrix.cols
    if s < r:
        raise ValidationError(f"Smith normal form needs at least as many rows as columns, got {s}x{r}")
    level = matrix.level
    field = matrix.field

    work = [list(row) for row in matrix.entries]
    p_rows = [list(row) for row in SeriesMatrix.identity(field, level, s).entries]
    q_cols = [list(row) for row in SeriesMatrix.identity(field, level, r).entries]

    lam = []
    for k in range(r):
        pivot_pos = None
        pivot_ord = None
        for i in range(k, s):
            for j in range(k, r):
                o = work[i][j].ord()
                if o is not None and (pivot_ord is None or o < pivot_ord):
                    pivot_ord = o
                    pivot_pos = (i, j)
        if pivot_pos is None:
            raise TruncationInsufficient(
                f"profile undetermined: the working block vanishes mod t^{level + 1} at step {k + 1}"
            )
        pi, pj = pivot_pos
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            p_rows[k], p_rows[pi] = p_rows[pi], p_rows[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            for row in q_cols:
                row[k], row[pj] = row[pj], row[k]

        # Normalize the pivot to exactly t^lam by dividing the row by its unit part.
        unit = _lift_unit_part(work[k][k], pivot_ord)
        unit_inv = unit.inverse()
        work[k] = [e * unit_inv for e in work[k]]
        p_rows[k] = [e * unit_inv for e in p_rows[k]]
        work[k][k] = TruncSeries.t_power(field, level, pivot_ord)

        # One pass clears the column and row: every entry has order >= pivot_ord.
        for i in range(k + 1, s):
            e = work[i][k]
            if e.ord() is None:
                continue
            g = _lift_unit_part(e, pivot_ord)
            work[i] = [a - g * b for a, b in zip(work[i], work[k])]
            p_rows[i] = [a - g * b for a, b in zip(p_rows[i], p_rows[k])]
        for j in range(k + 1, r):
            e = work[k][j]
            if e.ord() is None:
                continue
            g = _lift_unit_part(e, pivot_ord)
            for i in range(s):
                work[i][j] = work[i][j] - g * work[i][k]
            for i in range(r):
                q_cols[i][j] = q_cols[i][j] - g * q_cols[i][k]

        lam.append(pivot_ord)

    if sum(lam) > level:
        raise TruncationInsufficient(
            f"|lambda| = {sum(lam)} exceeds level {level}; minor orders are not all determined"
        )

    profile = LambdaProfile(tuple(lam))
    result = SnfResult(
        p_transform=SeriesMatrix(p_rows),
        q_transform=SeriesMatrix(q_cols),
        lam=profile,
        valid_to_level=level,
    )
    _validate(result)
    return result


def _validate(result: SnfResult):
    """The transforms are products of units, swaps and elementary operations,
    so one that is not invertible is a bug, not a truncation."""
    if det_division_free(result.p_transform).ord() != 0:
        raise InternalInvariantError("row transform is not invertible mod t^(N+1)")
    if det_division_free(result.q_transform).ord() != 0:
        raise InternalInvariantError("column transform is not invertible mod t^(N+1)")


def reconstruct(result: SnfResult, matrix: SeriesMatrix) -> SeriesMatrix:
    """P * M * Q, for checking the diagonalization."""
    return result.p_transform.matmul(matrix).matmul(result.q_transform)
