"""Configuration hypersurfaces: Patterson matrices, matroids, 1-genericity.

A configuration is the row space of a full-rank rational r x n matrix D.
Its Patterson matrix D diag(x) D^T is symmetric with linear entries; the
determinant expands over column r-subsets with coefficients det(D|_I)^2,
supported exactly on the bases of the column matroid.  (The expansion is
cross-checked against direct symbolic expansion on every call.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .determinantal import VERDICT_FAIL, VERDICT_PASS, corollary_check
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .fields import GF, QQ
from .jets import DEFAULT_BUDGET
from .lct import LCT_DEFAULT_PRIMES
from .matrices import PolyMatrix, det_division_free
from .poly import MultiPoly

SUBSET_BUDGET = 20


def _rank_rational(rows):
    """Row rank of a matrix of Fractions, by fraction-free style elimination."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(n_rows):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _det_rational(rows):
    mat = [list(r) for r in rows]
    k = len(mat)
    det = Fraction(1)
    for col in range(k):
        pivot = None
        for i in range(col, k):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for i in range(col + 1, k):
            if mat[i][col] != 0:
                f = mat[i][col] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


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
        if _rank_rational(rows) != len(rows):
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
        return [[self.d[i][j] for j in idx] for i in range(self.r)]

    def column_rank(self, idx):
        cols = self.columns(idx)
        # transpose so rows of the ranked matrix are the selected columns
        return _rank_rational([list(row) for row in zip(*cols)]) if idx else 0


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
        d = _det_rational(list(zip(*cfg.columns(idx))))
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
        if _det_rational(list(zip(*cfg.columns(idx)))) != 0:
            bases.append(idx)
    if not bases:
        raise InternalInvariantError("a full-rank matrix has at least one column basis")
    return Matroid(ground_size=cfg.n, rank=cfg.r, bases=frozenset(bases), cfg=cfg)


def is_connected(m: Matroid) -> bool:
    """No proper nonempty S with rank(S) + rank(complement) = rank(E).

    Single-element matroids are connected by the direct-sum convention.
    Scans all 2^(n-1) complementary splits.
    """
    n = m.ground_size
    if n == 1:
        return True
    if n > SUBSET_BUDGET:
        raise BudgetExceeded(f"connectivity scan limited to {SUBSET_BUDGET} elements")
    ground = list(range(n))
    for mask in range(1, 2 ** (n - 1)):
        s = [e for e in ground if (mask >> e) & 1]
        comp = [e for e in ground if not ((mask >> e) & 1)]
        if m.rank_of(s) + m.rank_of(comp) == m.rank:
            return False
    return True


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


def hadamard_one_generic(cfg: ConfigurationMatrix) -> GenericityVerdict:
    """Hadamard criterion: the Patterson matrix is 1-generic iff the row
    space contains no two vectors with disjoint supports.

    Such a pair exists iff some split S | E-S has rank(D|_(E-S)) < r and
    rank(D|_S) < r (a vector supported in S exists iff the complementary
    column rank drops).  Exact over Q; returns explicit witness vectors.
    """
    n, r = cfg.n, cfg.r
    if n > SUBSET_BUDGET:
        raise BudgetExceeded(f"subset scan limited to {SUBSET_BUDGET} columns")
    for mask in range(1, 2 ** (n - 1)):
        s = [e for e in range(n) if (mask >> e) & 1]
        comp = [e for e in range(n) if not ((mask >> e) & 1)]
        if cfg.column_rank(comp) < r and cfg.column_rank(s) < r:
            v = _vector_supported_in(cfg, s)
            w = _vector_supported_in(cfg, comp)
            return GenericityVerdict(
                one_generic=False,
                confirmed=True,
                witness={
                    "split": [list(s), list(comp)],
                    "v": [str(x) for x in v],
                    "w": [str(x) for x in w],
                },
            )
    return GenericityVerdict(one_generic=True, confirmed=True, witness=None)


def _vector_supported_in(cfg, support):
    """A nonzero row-space vector vanishing outside the given column set."""
    outside = [e for e in range(cfg.n) if e not in set(support)]
    # solve c . D|_outside = 0 for a nonzero coefficient vector c
    rows = [[cfg.d[i][e] for e in outside] for i in range(cfg.r)]
    c = _kernel_vector(rows)
    if c is None:
        raise InternalInvariantError("rank predicate promised a kernel vector")
    return [sum(c[i] * cfg.d[i][e] for i in range(cfg.r)) for e in range(cfg.n)]


def _kernel_vector(rows):
    """A nonzero solution of c . rows = 0 (c indexes the rows), or None."""
    r = len(rows)
    cols = len(rows[0]) if rows and rows[0] else 0
    # row-reduce the transpose: kernel of the map c -> c . rows
    mat = [[rows[i][j] for i in range(r)] for j in range(cols)]  # cols x r
    pivots = []
    rank = 0
    for col in range(r):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(r) if c not in pivots]
    if not free:
        return None
    c = [Fraction(0)] * r
    c[free[0]] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        c[col] = -mat[row_idx][free[0]]
    return c


def linear_one_generic(A: PolyMatrix, primes=(2, 3, 5)) -> GenericityVerdict:
    """Search for vectors v, w with v^T A w identically zero (A linear homogeneous).

    Finite-field witnesses are lifted and re-checked over Q.  A positive
    verdict ("no witness found") is exact for r <= 2 via a binary-form gcd
    certificate; otherwise it is evidence only (confirmed=False).
    """
    r = A.rows
    if A.rows != A.cols:
        raise ValidationError("1-genericity search expects a square matrix")
    for row in A.entries:
        for e in row:
            if not e.is_zero() and not e.is_homogeneous(1):
                raise ValidationError("entries must be homogeneous linear")
    n = len(A.variables)
    # coefficient tensor: C[k][i][j] with a_ij = sum_k C[k][i][j] x_k
    C = [[[Fraction(0)] * r for _ in range(r)] for _ in range(n)]
    for i in range(r):
        for j in range(r):
            for exps, c in A.entry(i, j).terms.items():
                k = exps.index(1)
                C[k][i][j] = Fraction(c)

    def bilinear_all_zero(v, w):
        return all(
            sum(v[i] * C[k][i][j] * w[j] for i in range(r) for j in range(r)) == 0
            for k in range(n)
        )

    for q in primes:
        gf = GF(q)
        C_q = [[[int(gf.of(c)) for c in row] for row in plane] for plane in C]  # the tensor mod q
        tuples = _nonzero_tuples(r, q)
        for v in tuples:
            for w in tuples:
                zero_mod_q = all(
                    sum(v[i] * C_q[k][i][j] * w[j] for i in range(r) for j in range(r)) % q == 0
                    for k in range(n)
                )
                if zero_mod_q:
                    v_lift = [Fraction(x) for x in v]
                    w_lift = [Fraction(x) for x in w]
                    if bilinear_all_zero(v_lift, w_lift):
                        return GenericityVerdict(
                            one_generic=False,
                            confirmed=True,
                            witness={"v": [str(x) for x in v_lift], "w": [str(x) for x in w_lift]},
                        )

    if r <= 2:
        witness = _rank_drop_certificate_r2(C, n) if r == 2 else _rank_drop_certificate_r1(C, n)
        if witness is None:
            return GenericityVerdict(one_generic=True, confirmed=True, witness=None)
        return GenericityVerdict(one_generic=False, confirmed=True, witness=witness)
    return GenericityVerdict(one_generic=True, confirmed=False, witness=None)


def _nonzero_tuples(r, q):
    out = []

    def rec(prefix):
        if len(prefix) == r:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for v in range(q):
            rec(prefix + [v])

    rec([])
    return out


def _rank_drop_certificate_r1(C, n):
    # r = 1: v^T A w = v1 w1 a_11; a witness exists iff a_11 = 0
    if all(C[k][0][0] == 0 for k in range(n)):
        return {"v": ["1"], "w": ["1"]}
    return None


def _rank_drop_certificate_r2(C, n):
    """Exact emptiness test of {(v, w) in P^1 x P^1 : v^T A w = 0} for r = 2.

    For fixed v the w-solutions exist iff the n x 2 matrix M(v) with rows
    v^T C_k has rank < 2; its 2x2 minors are binary quadratics in v, and a
    common projective root exists iff their gcd is nonconstant.  Univariate
    gcd over Q decides this exactly.
    """
    # rows of M(v): (v1*C[k][0][0] + v2*C[k][1][0], v1*C[k][0][1] + v2*C[k][1][1])
    # minor over rows k < l: quadratic in (v1, v2); coefficients of v1^2, v1 v2, v2^2
    quads = []
    for k in range(n):
        for l in range(k + 1, n):
            a1, b1 = C[k][0][0], C[k][0][1]
            c1, d1 = C[k][1][0], C[k][1][1]
            a2, b2 = C[l][0][0], C[l][0][1]
            c2, d2 = C[l][1][0], C[l][1][1]
            # det of [[v1 a1 + v2 c1, v1 b1 + v2 d1], [v1 a2 + v2 c2, v1 b2 + v2 d2]]
            q2 = a1 * b2 - b1 * a2
            q1 = a1 * d2 - b1 * c2 + c1 * b2 - d1 * a2
            q0 = c1 * d2 - d1 * c2
            if q2 != 0 or q1 != 0 or q0 != 0:
                quads.append((q2, q1, q0))
    if not quads:
        # every minor vanishes identically: rank M(v) < 2 for all v
        return {"v": ["symbolic"], "w": ["symbolic"], "note": "all minors vanish identically"}
    g = quads[0]
    for nxt in quads[1:]:
        g = _binary_form_gcd(g, nxt)
        if g is None:
            return None  # gcd constant: no common root anywhere
    # g is a nonconstant common factor: a complex witness v exists
    root = _rational_root_of_binary_form(g)
    return {
        "v": root if root else ["nonrational common root"],
        "w": ["determined by v"],
        "note": f"common factor of rank-drop quadratics: {g}",
    }


def _binary_form_gcd(f, g):
    """gcd of binary forms given by coefficient tuples (highest power of v1 first).

    Dehomogenizes at v2 = 1 and tracks v2-powers; returns a coefficient
    tuple, or None when the gcd is constant (coprime forms)."""

    def strip(poly):
        poly = list(poly)
        while poly and poly[0] == 0:
            poly.pop(0)
        return poly

    def v2_multiplicity(poly):
        m = 0
        p = list(poly)
        while p and p[-1] == 0:
            p.pop()
            m += 1
        return m, p

    m_f, pf = v2_multiplicity(strip(f))
    m_g, pg = v2_multiplicity(strip(g))
    common_v2 = min(m_f, m_g)

    def poly_gcd(a, b):
        a, b = list(a), list(b)
        while b and any(c != 0 for c in b):
            a, b = b, _poly_mod(a, b)
        return a

    gcd_affine = poly_gcd(pf, pg) if pf and pg else (pf or pg)
    gcd_affine = strip(gcd_affine)
    if (not gcd_affine or len(gcd_affine) == 1) and common_v2 == 0:
        return None
    result = list(gcd_affine if gcd_affine else [Fraction(1)])
    result += [Fraction(0)] * common_v2
    return tuple(result)


def _poly_mod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[0] == 0:
        b.pop(0)
    if not b:
        raise ZeroDivisionError
    while len(a) >= len(b) and any(c != 0 for c in a):
        if a[0] == 0:
            a.pop(0)
            continue
        f = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return a


def _rational_root_of_binary_form(g):
    """Try small rational projective roots of a binary form; None if not found."""
    coeffs = list(g)
    deg = len(coeffs) - 1
    if all(c == 0 for c in coeffs[:-1]):
        return ["1", "0"]

    def value(v1, v2):
        return sum(c * v1 ** (deg - i) * v2**i for i, c in enumerate(coeffs))

    for num in range(-6, 7):
        for den in range(1, 7):
            if value(Fraction(num), Fraction(den)) == 0:
                return [str(Fraction(num)), str(Fraction(den))]
    if value(Fraction(1), Fraction(0)) == 0:
        return ["1", "0"]
    return None


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
    sq_free = is_square_free(det)
    if not sq_free:
        raise InternalInvariantError("a Patterson determinant is square-free by construction")
    cauchy_binet_expansion(cfg)  # raises on mismatch
    matroid = matroid_from_columns(cfg)
    connected = is_connected(matroid)
    generic = hadamard_one_generic(cfg)
    corollary = corollary_check(A, M, primes=primes, budget=budget)
    note = (
        "support coefficients are det(D|_I)^2 (Cauchy-Binet for D diag(x) D^T); "
        "the support statement is unaffected by the square"
    )
    verdict = corollary.verdict
    if verdict == VERDICT_PASS and not sq_free:
        verdict = VERDICT_FAIL
    return ConfigurationReport(
        determinant=str(det),
        square_free=sq_free,
        connected=connected,
        one_generic=generic,
        corollary=corollary,
        expansion_note=note,
        verdict=verdict,
    )
