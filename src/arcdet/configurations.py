"""Configuration hypersurfaces: Patterson matrices, matroids, 1-genericity.

A configuration is the row space of a full-rank rational r x n matrix D.
Its Patterson matrix D diag(x) D^T is symmetric with linear entries; the
determinant expands over column r-subsets with coefficients det(D|_I)^2,
supported exactly on the bases of the column matroid.  (The expansion is
cross-checked against direct symbolic expansion on every call.)

Exact linear algebra is one fraction-free integer elimination, ``_echelon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from .determinantal import DeterminantalPair, corollary_check
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .fields import QQ
from .jets import DEFAULT_BUDGET
from .lct import LCT_DEFAULT_PRIMES
from .matrices import PolyMatrix, det_division_free
from .poly import MultiPoly

SUBSET_BUDGET = 20


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of a rational matrix.

    Each row is first scaled to integers by the lcm of its denominators.
    Returns ``(echelon, pivots, det)``: the nonzero echelon rows as lists of
    ints, their pivot columns, and for a square matrix its determinant
    (0 when singular; None when the matrix is not square).
    """
    mat, scale = [], 1
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    width = len(mat[0]) if mat else 0
    pivots, sign, prev = [], 1, 1
    for col in range(width):
        k = len(pivots)
        if k == len(mat):
            break
        pivot = next((i for i in range(k, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        top = mat[k]
        p = top[col]
        for i in range(k + 1, len(mat)):
            row = mat[i]
            f = row[col]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
    det = None
    if len(mat) == width:
        det = Fraction(sign * prev, scale) if len(pivots) == width else Fraction(0)
    return mat[: len(pivots)], pivots, det


def _null_vector(echelon, pivots, width):
    """The kernel vector of an echelon system whose first free column is 1 and
    other free columns 0, pivots back-solved; None when every column pivots."""
    free = [c for c in range(width) if c not in pivots]
    if not free:
        return None
    x = [Fraction(0)] * width
    x[free[0]] = Fraction(1)
    for row, col in reversed(list(zip(echelon, pivots))):
        x[col] = Fraction(-sum(row[j] * x[j] for j in range(col + 1, width)), row[col])
    return x


@dataclass(frozen=True)
class ConfigurationMatrix:
    """Row-space presentation of a configuration: full-rank r x n over Q."""

    d: tuple  # tuple of tuples of Fractions

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.d)
        if not rows or not rows[0]:
            raise ValidationError("configuration matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValidationError("ragged configuration matrix")
        if len(_echelon(rows)[1]) != len(rows):
            raise ValidationError("configuration matrix must have full row rank")
        object.__setattr__(self, "d", rows)

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def from_graph(cls, vertices: int, edges):
        """Reduced incidence matrix of a graph: one row per vertex except the
        last, column +1 at the lower endpoint and -1 at the higher."""
        if vertices < 2:
            raise ValidationError("graph needs at least two vertices")
        rows = [[Fraction(0)] * len(edges) for _ in range(vertices - 1)]
        for e_idx, (a, b) in enumerate(edges):
            if not (1 <= a <= vertices and 1 <= b <= vertices) or a == b:
                raise ValidationError(f"bad edge ({a}, {b})")
            lo, hi = min(a, b), max(a, b)
            if lo <= vertices - 1:
                rows[lo - 1][e_idx] = Fraction(1)
            if hi <= vertices - 1:
                rows[hi - 1][e_idx] = Fraction(-1)
        return cls.from_rows(rows)

    @property
    def r(self):
        return len(self.d)

    @property
    def n(self):
        return len(self.d[0])

    def columns(self, idx):
        """The selected columns of D, each as a list of r entries."""
        return [[row[e] for row in self.d] for e in idx]

    def column_rank(self, idx):
        return len(_echelon(self.columns(idx))[1])


@dataclass(frozen=True)
class Matroid:
    """Column matroid of a configuration; ranks are read off its columns."""

    ground_size: int
    rank: int
    bases: frozenset  # of tuples
    cfg: ConfigurationMatrix

    def rank_of(self, subset):
        return self.cfg.column_rank(sorted(subset))

    def payload(self):
        return {
            "ground_size": self.ground_size,
            "rank": self.rank,
            "bases": sorted(list(b) for b in self.bases),
        }


@dataclass(frozen=True)
class SupportExpansion:
    coefficients: tuple  # ((I tuple, Fraction), ...) sorted, all nonzero

    def as_dict(self):
        return dict(self.coefficients)

    def payload(self):
        return {"coefficients": [[list(i), str(c)] for i, c in self.coefficients]}


def patterson_matrix(cfg: ConfigurationMatrix) -> PolyMatrix:
    """The symmetric r x r matrix D diag(x_1..x_n) D^T with linear entries."""
    names = tuple(f"x{e + 1}" for e in range(cfg.n))
    entries = []
    for i in range(cfg.r):
        row = []
        for j in range(cfg.r):
            terms = {}
            for e in range(cfg.n):
                c = cfg.d[i][e] * cfg.d[j][e]
                if c != 0:
                    exps = tuple(1 if k == e else 0 for k in range(cfg.n))
                    terms[exps] = c
            row.append(MultiPoly(QQ, names, terms))
        entries.append(row)
    return PolyMatrix(entries)


def cauchy_binet_expansion(cfg: ConfigurationMatrix) -> SupportExpansion:
    """Coefficients det(D|_I)^2 over r-subsets I, verified against the direct
    symbolic expansion of det(Patterson).  A mismatch is an internal error."""
    coeffs = []
    for idx in combinations(range(cfg.n), cfg.r):
        d = _echelon(cfg.columns(idx))[2]
        if d != 0:
            coeffs.append((idx, d * d))
    expansion = SupportExpansion(tuple(coeffs))

    direct = det_division_free(patterson_matrix(cfg))
    rebuilt = {}
    for idx, c in coeffs:
        exps = tuple(1 if k in idx else 0 for k in range(cfg.n))
        rebuilt[exps] = c
    if rebuilt != direct.terms:
        raise InternalInvariantError(
            "support expansion disagrees with the direct determinant expansion"
        )
    return expansion


def matroid_from_columns(cfg: ConfigurationMatrix) -> Matroid:
    bases = []
    for idx in combinations(range(cfg.n), cfg.r):
        if _echelon(cfg.columns(idx))[2] != 0:
            bases.append(idx)
    if not bases:
        raise InternalInvariantError("a full-rank matrix has at least one column basis")
    return Matroid(ground_size=cfg.n, rank=cfg.r, bases=frozenset(bases), cfg=cfg)


def _splits(n):
    """Every split S | E-S of range(n) into two nonempty parts, once each
    (S never holds the last element), as a pair of sorted lists."""
    if n > SUBSET_BUDGET:
        raise BudgetExceeded(f"split scan limited to {SUBSET_BUDGET} elements")
    for mask in range(1, 2 ** (n - 1)):
        yield (
            [e for e in range(n) if (mask >> e) & 1],
            [e for e in range(n) if not ((mask >> e) & 1)],
        )


def is_connected(m: Matroid) -> bool:
    """No proper nonempty S with rank(S) + rank(complement) = rank(E).

    Single-element matroids are connected by the direct-sum convention
    (they have no split).  Scans all 2^(n-1) - 1 complementary splits.
    """
    return not any(m.rank_of(s) + m.rank_of(comp) == m.rank for s, comp in _splits(m.ground_size))


def is_square_free(p: MultiPoly) -> bool:
    """True iff every variable exponent in every term is at most 1."""
    return p.max_exponent() <= 1


@dataclass(frozen=True)
class GenericityVerdict:
    one_generic: bool
    confirmed: bool
    witness: dict | None

    def payload(self):
        out = {"one_generic": self.one_generic, "confirmed": self.confirmed}
        if self.witness:
            out["witness"] = self.witness
        return out


def hadamard_split(cfg: ConfigurationMatrix):
    """Hadamard criterion: the Patterson matrix is 1-generic iff the row
    space contains no two vectors with disjoint supports.

    Such a pair exists iff some split S | E-S has rank(D|_(E-S)) < r and
    rank(D|_S) < r (a vector supported in S exists iff the complementary
    column rank drops).  Returns the first such split (S, E-S), or None
    when the Patterson matrix is 1-generic.  Exact over Q.
    """
    for s, comp in _splits(cfg.n):
        if cfg.column_rank(comp) < cfg.r and cfg.column_rank(s) < cfg.r:
            return s, comp
    return None


def hadamard_one_generic(cfg: ConfigurationMatrix) -> GenericityVerdict:
    """The verdict of ``hadamard_split``, with explicit witness vectors
    supported in the two sides of its split."""
    split = hadamard_split(cfg)
    if split is None:
        return GenericityVerdict(one_generic=True, confirmed=True, witness=None)
    s, comp = split
    v = _vector_supported_in(cfg, s)
    w = _vector_supported_in(cfg, comp)
    return GenericityVerdict(
        one_generic=False,
        confirmed=True,
        witness={
            "split": [s, comp],
            "v": [str(x) for x in v],
            "w": [str(x) for x in w],
        },
    )


def _vector_supported_in(cfg, support):
    """A nonzero row-space vector vanishing outside the given column set."""
    outside = [e for e in range(cfg.n) if e not in set(support)]
    # c . D|_outside = 0: c lies in the kernel of the outside columns
    echelon, pivots, _ = _echelon(cfg.columns(outside))
    c = _null_vector(echelon, pivots, cfg.r)
    if c is None:
        raise InternalInvariantError("rank predicate promised a kernel vector")
    return [sum(c[i] * cfg.d[i][e] for i in range(cfg.r)) for e in range(cfg.n)]


def linear_one_generic(A: PolyMatrix, primes=(2, 3, 5)) -> GenericityVerdict:
    """Search for vectors v, w with v^T A w identically zero (A linear homogeneous).

    With a_ij = sum_k C[k][i][j] x_k, a witness is a pair with
    v^T C_k w = 0 for every k.  Each prime's nonzero residue tuples are
    tested all at once on the integer tensor (C times the lcm of its
    denominators) reduced mod q; the first candidate, v outer and w inner,
    that also vanishes over Q is returned.  Without one, the verdict is
    exact for r <= 2 by the rank-one certificate ``_rank_one_witness``;
    otherwise it is evidence only (confirmed=False).
    """
    r = A.rows
    if A.rows != A.cols:
        raise ValidationError("1-genericity search expects a square matrix")
    for row in A.entries:
        for e in row:
            if not e.is_zero() and not e.is_homogeneous(1):
                raise ValidationError("entries must be homogeneous linear")
    n = len(A.variables)
    C = [[[Fraction(0)] * r for _ in range(r)] for _ in range(n)]
    for i in range(r):
        for j in range(r):
            for exps, c in A.entry(i, j).terms.items():
                C[exps.index(1)][i][j] = Fraction(c)
    den = lcm(*(c.denominator for plane in C for row in plane for c in row))
    Z = [[[c.numerator * (den // c.denominator) for c in row] for row in plane] for plane in C]

    for q in primes:
        tuples = np.array(list(product(range(q), repeat=r))[1:], dtype=np.int64)
        Z_q = np.array([[[c % q for c in row] for row in plane] for plane in Z], dtype=np.int64).reshape(n, r, r)
        # values[a, b, k] = tuples[a]^T Z_k tuples[b] mod q
        values = np.einsum("ai,kij,bj->abk", tuples, Z_q, tuples) % q
        for a, b in np.argwhere(~values.any(axis=2)):
            v, w = tuples[a].tolist(), tuples[b].tolist()
            if all(sum(v[i] * plane[i][j] * w[j] for i in range(r) for j in range(r)) == 0 for plane in Z):
                return GenericityVerdict(
                    one_generic=False,
                    confirmed=True,
                    witness={"v": [str(x) for x in v], "w": [str(x) for x in w]},
                )

    if r > 2:
        return GenericityVerdict(one_generic=True, confirmed=False, witness=None)
    witness = _rank_one_witness(Z, r)
    return GenericityVerdict(one_generic=witness is None, confirmed=True, witness=witness)


def _rank_one_witness(Z, r):
    """Exact test for r <= 2: is some v w^T (v, w nonzero) orthogonal to every C_k?

    Since v^T C_k w = <C_k, v w^T>, a witness is a rank-one matrix in the
    orthogonal complement K of span{C_k}.  For r = 1 that needs every C_k to
    be 0.  For r = 2, with d = dim span{C_k}: if d <= 2, K is a plane or
    more and meets the quadric det = 0 over C; if d = 3, K is spanned by one
    B, rational, and B = v w^T is a witness iff det B = 0; if d = 4, K = 0.
    Returns the witness (exact v, w where rational) or None.
    """
    if r == 1:
        return {"v": ["1"], "w": ["1"]} if all(plane[0][0] == 0 for plane in Z) else None
    echelon, pivots, _ = _echelon([[c for row in plane for c in row] for plane in Z])
    d = len(pivots)
    if d <= 2:
        return {"span_dim": d, "note": "every plane of 2x2 matrices meets det = 0 over C"}
    if d == 4:
        return None
    b11, b12, b21, b22 = _null_vector(echelon, pivots, 4)
    if b11 * b22 != b12 * b21:
        return None
    # B = v w^T: w is a nonzero row of B and v_i = B[i][j] / w_j at a nonzero w_j
    B = ((b11, b12), (b21, b22))
    w = next(row for row in B if any(row))
    j = 0 if w[0] else 1
    return {"v": [str(row[j] / w[j]) for row in B], "w": [str(x) for x in w]}


def cross_oracle_payload(cfg: ConfigurationMatrix) -> dict:
    """Both 1-genericity oracles on one configuration: Hadamard's on the
    columns of D and the bilinear search on its Patterson matrix, and
    whether their verdicts agree."""
    had = hadamard_one_generic(cfg)
    lin = linear_one_generic(patterson_matrix(cfg))
    return {"hadamard": had.payload(), "linear": lin.payload(), "agree": had.one_generic == lin.one_generic}


def incidence_jacobian(A: PolyMatrix):
    """The Jacobian block [A | B(y)] of the incidence forms, B(y)_ik = sum_j
    (da_ij/dx_k) y_j, with respect to (y then x) ordering."""
    r = A.rows
    if A.rows != A.cols:
        raise ValidationError("expected a square matrix")
    nonzero = any(not e.is_zero() for row in A.entries for e in row)
    if not nonzero:
        raise ValidationError("zero matrix has no incidence forms")
    for row in A.entries:
        for e in row:
            if not e.is_zero() and not e.is_homogeneous(1):
                raise ValidationError("entries must be homogeneous linear")
    x_names = A.variables
    y_names = tuple(f"y{j + 1}" for j in range(r))
    joint = x_names + y_names
    a_block = [[A.entry(i, j).extend_variables(joint) for j in range(r)] for i in range(r)]
    b_block = []
    for i in range(r):
        row = []
        for k, xk in enumerate(x_names):
            acc = MultiPoly.zero(A.field, joint)
            for j in range(r):
                d = A.entry(i, j).partial(xk)
                if d.is_zero():
                    continue
                acc = acc + d.extend_variables(joint) * MultiPoly.variable(A.field, joint, y_names[j])
            row.append(acc)
        b_block.append(row)
    return PolyMatrix([a_block[i] + b_block[i] for i in range(r)])


@dataclass(frozen=True)
class ConfigurationReport:
    determinant: str
    square_free: bool
    connected: bool
    one_generic: GenericityVerdict
    corollary: object
    expansion_note: str
    verdict: str

    def payload(self):
        return {
            "determinant": self.determinant,
            "square_free": self.square_free,
            "connected": self.connected,
            "one_generic": self.one_generic.payload(),
            "corollary": self.corollary.payload(),
            "expansion_note": self.expansion_note,
            "verdict": self.verdict,
        }


def configuration_lct_campaign(
    cfg: ConfigurationMatrix,
    M: int,
    primes=LCT_DEFAULT_PRIMES,
    budget=DEFAULT_BUDGET,
) -> ConfigurationReport:
    """Full pipeline: Patterson matrix, square-freeness, support expansion,
    connectivity, 1-genericity, and the two-threshold consistency check."""
    A = patterson_matrix(cfg)
    det = det_division_free(A)
    if not is_square_free(det):
        raise InternalInvariantError("a Patterson determinant is square-free by construction")
    cauchy_binet_expansion(cfg)  # raises on mismatch
    matroid = matroid_from_columns(cfg)
    connected = is_connected(matroid)
    generic = hadamard_one_generic(cfg)
    corollary = corollary_check(DeterminantalPair.from_matrix(A), M, primes=primes, budget=budget)
    note = (
        "support coefficients are det(D|_I)^2 (Cauchy-Binet for D diag(x) D^T); "
        "the support statement is unaffected by the square"
    )
    return ConfigurationReport(
        determinant=str(det),
        square_free=True,
        connected=connected,
        one_generic=generic,
        corollary=corollary,
        expansion_note=note,
        verdict=corollary.verdict,
    )
