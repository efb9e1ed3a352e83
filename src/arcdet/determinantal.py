"""Determinantal pairs: minor towers, lambda strata, fiber checks, threshold transforms.

The lambda profile of a jet against a matrix A is read off the pulled-back
series matrix A(gamma) two ways that must agree: by its minor orders, whose
partial sums sigma_l = lambda_1+...+lambda_l are the least orders of its
l x l minors (``minor_order_profile``), and by its Smith normal form, whose
diagonal is t^lambda.  ``minor_order_parts`` is the one sigma -> lambda rule,
read by that reader and by the stratum tables.  The stratification
Cont^m(Z_A) = disjoint union of C_A(lambda) over |lambda| = m underlies
every check in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, count, islice

import numpy as np

from .consensus import STATUS_EXACT_EMPTY, CountReport, extract_codim
from .contact import MODE_AT_LEAST, ContactQuery, proj_count_contact
from .counting import contact_order_table, per_prime
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .jets import DEFAULT_BUDGET, IdealGens, JetPoint, jet_space_size
from .lct import LCT_DEFAULT_PRIMES, LctEstimate, lct_estimate
from .matrices import PolyMatrix, SeriesMatrix, minors
from .poly import MultiPoly
from .snf import LambdaProfile

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_AMBIGUOUS = "AMBIGUOUS"


def verdict(holds, certain):
    """The status of every check and task: PASS when the check holds, FAIL
    when it fails and what refutes it is certain (exact counts, or a
    certified report or estimate), and AMBIGUOUS otherwise.  So a rounding
    vote or an undecided report may pass a check but never fail it."""
    if holds:
        return VERDICT_PASS
    return VERDICT_FAIL if certain else VERDICT_AMBIGUOUS


# --------------------------------------------------------------------------
# pairs and towers
# --------------------------------------------------------------------------


def minor_ideal_tower(A: PolyMatrix):
    """A tuple of IdealGens for the l-minor ideals, l = 1..cols; zero minors
    and repeated minors are dropped (the first occurrence is kept).

    A level whose minors all vanish identically is kept as the explicit
    zero ideal (a single zero polynomial).
    """
    levels = (tuple(dict.fromkeys(g for g in minors(A, ell) if not g.is_zero())) for ell in range(1, A.cols + 1))
    return tuple(IdealGens(gens or (MultiPoly.zero(A.field, A.variables),)) for gens in levels)


@dataclass(frozen=True)
class DeterminantalPair:
    """A matrix together with its minor-ideal tower and incidence forms."""

    matrix: PolyMatrix
    tower: tuple  # the matrix's ``minor_ideal_tower``
    w_gens: IdealGens
    y_names: tuple
    y_coords: tuple  # the coordinate polynomials of ``y_names``, over the joint variables
    generic: bool  # the matrix's ``_is_generic_coordinate_matrix``

    @classmethod
    def from_matrix(cls, A: PolyMatrix):
        """A's ``minor_ideal_tower``, built once here (its top is Z), and W = A(x)·y
        by position: w_i = sum_j a_ij(x)·y_j has the term (e + unit_j, c) for
        each term (e, c) of a_ij, over ``A.variables + y_names``, the incidence
        coordinates y1, y2, ... skipping the matrix's own names.  The
        y-coordinate polynomials and the generic-coordinate flag, which every
        cone check reads, are built here once too."""
        r = A.cols
        if A.rows < r:
            raise ValidationError(f"a determinantal pair needs at least as many rows as columns, got {A.rows}x{r}")
        tower = minor_ideal_tower(A)
        if tower[-1].is_zero_ideal():
            raise ValidationError(
                "the maximal-minor ideal vanishes identically; the degeneracy locus must be proper"
            )
        y_names = tuple(islice((f"y{k}" for k in count(1) if f"y{k}" not in A.variables), r))
        units = [tuple(int(k == j) for k in range(r)) for j in range(r)]
        joint = A.variables + y_names
        w = [MultiPoly(A.field, joint, {e + units[j]: c for j, a in enumerate(row) for e, c in a.terms.items()})
             for row in A.entries]
        y_coords = tuple(MultiPoly.variable(A.field, joint, y) for y in y_names)
        return cls(
            matrix=A, tower=tower, w_gens=IdealGens(tuple(w)), y_names=y_names, y_coords=y_coords,
            generic=_is_generic_coordinate_matrix(A),
        )

    @property
    def z_gens(self) -> IdealGens:
        """Z: the top of the tower, the distinct nonzero maximal minors."""
        return self.tower[-1]

    @property
    def r(self):
        return self.matrix.cols

    @property
    def s(self):
        return self.matrix.rows

    def chart_gens(self, i: int) -> IdealGens:
        """Incidence forms on the affine chart y_i = 1 (0-based i), zero forms
        dropped: each exponent tuple drops position n + i, and terms that meet
        are summed (none do in W, where every term has y-degree 1)."""
        k = len(self.matrix.variables) + i
        field, joint = self.matrix.field, self.w_gens.variables
        gens = []
        for g in self.w_gens:
            terms = {}
            for e, c in g.terms.items():
                e = e[:k] + e[k + 1 :]
                terms[e] = field.add(terms[e], c) if e in terms else c
            chart = MultiPoly(field, joint[:k] + joint[k + 1 :], terms)
            if not chart.is_zero():
                gens.append(chart)
        return IdealGens(tuple(gens))


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------


def minor_order_parts(sigmas):
    """The profiles of rows of minor orders: lambda_l = sigma_l - sigma_(l-1),
    with sigma_0 = 0.  The theory makes every profile nondecreasing, so a
    decrease is an ``InternalInvariantError`` that names its sigma row."""
    sigmas = np.asarray(sigmas, dtype=np.int64)
    parts = np.diff(sigmas, axis=1, prepend=0)
    decreasing = (parts[:, :-1] > parts[:, 1:]).any(axis=1)
    if decreasing.any():
        sigma = tuple(sigmas[decreasing][0].tolist())
        raise InternalInvariantError(f"decreasing profile from minor orders: {sigma}")
    return parts


def minor_order_profile(M: SeriesMatrix) -> LambdaProfile:
    """The profile of a series matrix read off its minor orders: sigma_l is
    the least order of its l x l minors.  Parts stop at the first sigma that
    vanishes to the level, and the truncation flag is then set."""
    if M.rows < M.cols:
        raise ValidationError(f"a profile needs at least as many rows as columns, got {M.rows}x{M.cols}")
    sigmas = []
    for ell in range(1, M.cols + 1):
        orders = [o for o in (g.ord() for g in minors(M, ell)) if o is not None]
        if not orders:
            break
        sigmas.append(min(orders))
    parts = minor_order_parts([sigmas])[0]
    return LambdaProfile(tuple(parts.tolist()), truncation_flag=len(sigmas) < M.cols)


def lambda_profile(A: PolyMatrix, jet: JetPoint) -> LambdaProfile:
    """Profile of a jet: the ``minor_order_profile`` of the pulled-back
    series matrix A(gamma), whose minors are the pullbacks of A's."""
    if len(A.variables) != jet.dim:
        raise ValidationError("jet does not match the matrix variables")
    return minor_order_profile(A.pullback(jet))


def profiles_of_size(r, m, max_part):
    """Nondecreasing r-tuples with sum m and largest part <= max_part."""
    return [lam for lam in combinations_with_replacement(range(max_part + 1), r) if sum(lam) == m]


# --------------------------------------------------------------------------
# strata
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumReport:
    m: int
    level: int
    prime: int
    per_lambda: tuple  # ((lambda tuple, count), ...) over |lambda| = m, lambda_r <= level
    cont_m_count: int
    residual: int
    partition_ok: bool

    def payload(self):
        return {
            "m": self.m,
            "level": self.level,
            "prime": self.prime,
            "strata": [[list(lam), c] for lam, c in self.per_lambda],
            "cont_m": self.cont_m_count,
            "residual": self.residual,
            "partition_ok": self.partition_ok,
        }


def stratum_counts(
    pair: DeterminantalPair,
    m: int,
    level: int,
    q: int,
    budget=DEFAULT_BUDGET,
) -> StratumReport:
    """Classify every jet with contact order m along Z_A by its profile.

    The total |Cont^m| is counted again from the maximal-minor ideal alone;
    both read one block walk, and past direct's budget one plan may count both.
    """
    if m > level:
        raise ValidationError("m must be at most the level")
    n = len(pair.matrix.variables)
    # keyed by the sigma vectors: within its budget, direct walks each block of
    # variables once and tallies it by its state.  Where one minor spans both
    # blocks, as the determinant of a 2x2 matrix does, it combines every pair
    # of states through the ring, which evaluates that minor; where two or
    # more do, it combines by prefixes as the additive split does.
    tower = [ideal.nonzero() for ideal in pair.tower]
    keys, counts = contact_order_table(tower, n, level, q, budget=budget, prefer="direct")
    hit = keys[:, -1] == m
    sigmas, cnts = keys[hit], counts[hit]
    strata_total = int(cnts.sum())
    # an undetermined prefix: cannot happen for m <= level
    undetermined = (sigmas > level).any(axis=1)
    residual = int(cnts[undetermined].sum())
    sigmas, cnts = sigmas[~undetermined], cnts[~undetermined]
    parts = minor_order_parts(sigmas)
    # the rows are distinct, and so are their profiles
    per_lambda = dict(zip(map(tuple, parts.tolist()), cnts.tolist()))

    # the total from the maximal-minor ideal alone, by whatever exact strategy
    # is cheapest.  For a determinant of two blocks that is the additive split:
    # it walks each block of its own list the way the pass above does, and
    # combines the blocks by prefix matrix products, so with one spanning
    # minor above the identity compares the pairs-of-states combine with the
    # prefix-matrix combine.
    z_keys, z_counts = contact_order_table([pair.z_gens.nonzero()], n, level, q, budget=budget)
    cont_m = int(z_counts[z_keys[:, 0] == m].sum())

    expected = profiles_of_size(pair.r, m, level)
    listed = []
    for lam in sorted(set(expected) | set(per_lambda)):
        listed.append((lam, per_lambda.get(lam, 0)))
    partition_ok = (
        residual == 0
        and cont_m == sum(c for _, c in listed)
        and all(sum(lam) == m for lam, c in listed if c)
        and strata_total == cont_m
    )
    return StratumReport(
        m=m,
        level=level,
        prime=q,
        per_lambda=tuple(listed),
        cont_m_count=cont_m,
        residual=residual,
        partition_ok=partition_ok,
    )


# --------------------------------------------------------------------------
# fiber formula
# --------------------------------------------------------------------------


def fiber_codim_formula(lam: LambdaProfile, m: int):
    """Codimension of the projective fiber over a profile-lambda base jet.

    None means the fiber contact locus is empty (happens exactly when
    lambda_r < m); otherwise the sum of (m - lambda_j) over parts below m.
    """
    if lam.truncation_flag:
        raise ValidationError("fiber formula needs a fully determined profile")
    parts = lam.parts
    if not parts:
        raise ValidationError("empty profile")
    if parts[-1] < m:
        return None
    return sum(m - p for p in parts if p < m)


@dataclass(frozen=True)
class FiberCheck:
    lam: tuple
    m: int
    level: int
    formula_codim: int | None
    report: CountReport
    verdict: str

    def payload(self):
        return {
            "lambda": list(self.lam),
            "m": self.m,
            "level": self.level,
            "formula": self.formula_codim if self.formula_codim is not None else "EMPTY",
            "report": self.report.payload(),
            "verdict": self.verdict,
        }


def fiber_count_check(
    lam: LambdaProfile, m: int, level: int, primes=LCT_DEFAULT_PRIMES, budget=DEFAULT_BUDGET
) -> FiberCheck:
    """Count the projective fiber over diag(t^lambda) and compare with the formula.

    The ``verdict``: the check holds when the fiber is empty where the
    formula says so and has the formula's codimension otherwise; an exact
    emptiness that differs from the formula's, or a certified report, makes
    a miss FAIL, and a miss on a vote or an undecided report is AMBIGUOUS."""
    if m > level:
        raise ValidationError("m must be at most the level")
    if lam.parts and lam.parts[-1] > level:
        raise ValidationError("profile exceeds the level")
    formula = fiber_codim_formula(lam, m)
    query = ContactQuery(MODE_AT_LEAST, m, level, primes=tuple(primes))
    report = proj_count_contact(lam.parts, query, budget=budget)
    empty = report.status == STATUS_EXACT_EMPTY
    holds = empty if formula is None else report.consensus_codim == formula
    status = verdict(holds, report.certified or empty != (formula is None))
    return FiberCheck(lam=lam.parts, m=m, level=level, formula_codim=formula, report=report, verdict=status)


# --------------------------------------------------------------------------
# threshold transforms
# --------------------------------------------------------------------------


def threshold_bound_forward(c, r: int) -> Fraction:
    """Lower bound for the incidence threshold given lct(X, Z_A) >= c."""
    c = Fraction(c)
    if c <= 0 or r < 1:
        raise ValidationError("need c > 0 and r >= 1")
    return min(r * c, r - 1 + c)


def threshold_bound_backward(c_prime, r: int) -> Fraction:
    """Lower bound for the base threshold given lct(Y, W_A) >= r - 1 + c'."""
    c_prime = Fraction(c_prime)
    if c_prime <= 0 or r < 1:
        raise ValidationError("need c' > 0 and r >= 1")
    return min(c_prime, Fraction(c_prime - 1, r) + 1)


# --------------------------------------------------------------------------
# corollary campaign
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    lct_z: LctEstimate
    lct_w_charts: tuple  # per-chart LctEstimate
    lct_w: Fraction | None
    r: int
    tolerance: Fraction
    z_is_one: bool
    w_is_r: bool
    biconditional_ok: bool
    forward_bound_ok: bool
    backward_bound_ok: bool
    prop24_ok: bool
    verdict: str

    def payload(self):
        return {
            "r": self.r,
            "lct_z": self.lct_z.payload(),
            "lct_w": None if self.lct_w is None else str(self.lct_w),
            "lct_w_decimal": None if self.lct_w is None else float(self.lct_w),
            "charts": [c.payload() for c in self.lct_w_charts],
            "tolerance": str(self.tolerance),
            "z_is_one": self.z_is_one,
            "w_is_r": self.w_is_r,
            "biconditional_ok": self.biconditional_ok,
            "forward_bound_ok": self.forward_bound_ok,
            "backward_bound_ok": self.backward_bound_ok,
            "prop24_ok": self.prop24_ok,
            "verdict": self.verdict,
        }


def lct_z_estimate(pair: DeterminantalPair, M: int, primes=LCT_DEFAULT_PRIMES, budget=DEFAULT_BUDGET):
    """lct(X, Z_A), with Cont^m bucketed by the orders of the lower minor ideals."""
    lower = [ideal.nonzero() for ideal in pair.tower[:-1]]
    return lct_estimate(pair.z_gens, M, primes=primes, budget=budget, strata=lower)


def lct_w_estimate(pair: DeterminantalPair, M: int, primes=LCT_DEFAULT_PRIMES, budget=DEFAULT_BUDGET):
    """lct(Y, W_A) chart by chart: (per-chart LctEstimates, their minimum).

    The charts y_i = 1 cover the projective factor and the threshold
    localizes; the minimum is None unless every chart has an estimate.
    """
    charts = tuple(
        lct_estimate(pair.chart_gens(i), M, primes=primes, budget=budget, strata=[])
        for i in range(pair.r)
    )
    vals = [c.estimate for c in charts if c.estimate is not None]
    return charts, (min(vals) if len(vals) == len(charts) else None)


def corollary_check(lct_z: LctEstimate, lct_w, r: int) -> CorollaryReport:
    """Test the biconditional lct(X, Z_A) = 1 <=> lct(Y, W_A) = r, and the
    threshold bounds, on two estimates of a square pair with r columns.

    ``lct_z`` is the Z estimate and ``lct_w`` the (charts, minimum) pair of
    ``lct_w_estimate``, both up to one level M, read from ``lct_z``.  The
    checks allow the rounding guard 1/(2M) since estimates are minima of
    fractions with denominator at most M.  The ``verdict`` is certain, and
    can hold, only when every estimate is certified: then a failed check or
    an internal error of any estimate, Z or a W chart, is a FAIL, and
    otherwise AMBIGUOUS.
    """
    charts, lct_w = lct_w
    M = len(lct_z.per_m)
    reached = sorted({len(c.per_m) for c in charts})
    if M < 1 or reached != [M]:
        raise ValidationError(f"corollary check needs both sides up to one level: Z reaches {M}, W {reached}")
    tol = Fraction(1, 2 * M)
    prop24_ok = all(c.estimate is None or c.estimate <= r + tol for c in charts)

    z = lct_z.estimate
    known = z is not None and lct_w is not None
    z_is_one = known and abs(z - 1) <= tol
    w_is_r = known and abs(lct_w - r) <= tol
    biconditional_ok = known and z_is_one == w_is_r
    # a bound whose premise c > 0 or c' > 0 fails holds vacuously
    forward_ok = known and (z - tol <= 0 or lct_w >= threshold_bound_forward(z - tol, r) - tol)
    backward_ok = known and (lct_w <= r - 1 or z >= threshold_bound_backward(lct_w - (r - 1), r) - tol)

    certain = lct_z.certified_upper_bound and all(c.certified_upper_bound for c in charts)
    errors = lct_z.internal_errors or any(c.internal_errors for c in charts)
    holds = certain and biconditional_ok and forward_ok and backward_ok and prop24_ok and not errors
    return CorollaryReport(
        lct_z=lct_z, lct_w_charts=charts, lct_w=lct_w, r=r, tolerance=tol,
        z_is_one=z_is_one, w_is_r=w_is_r, biconditional_ok=biconditional_ok,
        forward_bound_ok=forward_ok, backward_bound_ok=backward_ok, prop24_ok=prop24_ok,
        verdict=verdict(holds, certain),
    )


# --------------------------------------------------------------------------
# affine cone comparison
# --------------------------------------------------------------------------


def _is_generic_coordinate_matrix(A: PolyMatrix) -> bool:
    """Entries are distinct single variables with unit coefficient, covering all."""
    entries = [e for row in A.entries for e in row]
    return len(entries) == len(A.variables) and set(entries) == set(MultiPoly.coordinates(A.field, A.variables))


@dataclass(frozen=True)
class ConeCheck:
    m: int
    p: int
    level: int
    lhs_report: CountReport
    rhs_report: CountReport
    count_identity_ok: bool | None  # None when a side was not enumerated
    codim_identity_ok: bool | None
    method: str
    verdict: str

    def payload(self):
        return {
            "m": self.m,
            "p": self.p,
            "level": self.level,
            "lhs": self.lhs_report.payload(),
            "rhs": self.rhs_report.payload(),
            "count_identity_ok": self.count_identity_ok,
            "codim_identity_ok": self.codim_identity_ok,
            "method": self.method,
            "verdict": self.verdict,
        }


def _cone_side_counts_direct(pair, level, q, m_exact, p_exact, budget):
    """Count jets of X x A^r with exact incidence order and exact zero-section order."""
    ideals = [pair.y_coords, pair.w_gens.nonzero()]
    keys, counts = contact_order_table(ideals, len(pair.w_gens.variables), level, q, budget=budget)
    return int(counts[(keys == (p_exact, m_exact)).all(axis=1)].sum())


def _cone_side_counts_generic(n, r, s, level, q, m_exact, p_exact):
    """Closed-form count for a generic-coordinate matrix.

    For fixed homogeneous coordinates u with min order exactly p, each
    incidence row is a surjective linear map onto the ideal (t^p), so the
    x-solution count per target vector is an exact power of q; summing over
    target vectors of exact order m gives the product below.
    """
    if p_exact > level or m_exact > level:
        return 0
    u_count = q ** (r * (level + 1 - p_exact)) - q ** (r * (level - p_exact))
    w_count = q ** (s * (level + 1 - m_exact)) - q ** (s * (level - m_exact))
    x_per = q ** (s * (r * (level + 1) - (level + 1 - p_exact)))
    return u_count * w_count * x_per


def cone_comparison_check(
    pair: DeterminantalPair,
    m: int,
    p: int,
    level: int,
    primes=LCT_DEFAULT_PRIMES,
    budget=DEFAULT_BUDGET,
) -> ConeCheck:
    """Affine-cone comparison: jets of the cone with zero-section contact p
    against the punctured model shifted by p.

    Verifies the exact counting identity LHS = q^(n p) * RHS, two cells of one
    joint contact-order table at levels N and N-p (in a run's table scope both
    read the one held table: one enumeration, not two algorithms), and the
    codimension relation codim(LHS) = p*r + codim(RHS).  A side the engine cannot count
    exactly within the budget falls back to the closed form available for
    generic-coordinate matrices, chosen per prime; ``per_prime`` orders the
    primes and refuses a prime given twice.  The ``verdict`` holds when the identity
    does and both sides are empty or meet the relation.  A failed identity
    is certain, and so is a relation refuted by two certified reports or by
    one empty side; a miss on a vote or an undecided report is AMBIGUOUS
    (``codim_identity_ok`` None).
    """
    if not (0 <= p <= m <= level):
        raise ValidationError("need 0 <= p <= m <= level")
    n = len(pair.matrix.variables)
    r, s = pair.r, pair.s

    def side(depth, m_exact, p_exact, q):
        """(count, method): the engine's exact count, else the generic closed form."""
        try:
            return _cone_side_counts_direct(pair, depth, q, m_exact, p_exact, budget), "direct"
        except BudgetExceeded:
            if not pair.generic:
                raise
        return _cone_side_counts_generic(n, r, s, depth, q, m_exact, p_exact), "closed-form"

    sides = per_prime(primes, lambda q: (side(level, m, p, q), side(level - p, m - p, 0, q)))
    lhs = {q: left for q, (left, _) in zip(primes, sides)}
    rhs = {q: right for q, (_, right) in zip(primes, sides)}
    methods = {(lhs[q][1], rhs[q][1]) for q in primes}
    # a prime whose two sides both come from the closed form checks nothing
    identity_checked = ("closed-form", "closed-form") not in methods
    identity_ok = all(lhs[q][0] == q ** (n * p) * rhs[q][0] for q in primes)
    lhs_counts = [(q, lhs[q][0], jet_space_size(n + r, level, q)) for q in primes]
    rhs_counts = [(q, rhs[q][0], jet_space_size(n + r, level - p, q)) for q in primes]

    lhs_rep = extract_codim(lhs_counts, (n + r) * (level + 1))
    rhs_rep = extract_codim(rhs_counts, (n + r) * (level - p + 1))

    lhs_empty, rhs_empty = lhs_rep.status == STATUS_EXACT_EMPTY, rhs_rep.status == STATUS_EXACT_EMPTY
    codims = (lhs_rep.consensus_codim, rhs_rep.consensus_codim)
    related = (lhs_empty and rhs_empty) or (None not in codims and codims[0] == p * r + codims[1])
    certain = (lhs_rep.certified and rhs_rep.certified) or lhs_empty != rhs_empty
    codim_ok = related if related or certain else None

    return ConeCheck(
        m=m,
        p=p,
        level=level,
        lhs_report=lhs_rep,
        rhs_report=rhs_rep,
        count_identity_ok=identity_ok if identity_checked else None,
        codim_identity_ok=codim_ok,
        method=";".join(sorted(f"{a}/{b}" for a, b in methods)),
        verdict=verdict(identity_ok and related, not identity_ok or certain),
    )
