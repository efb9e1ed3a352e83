"""Determinantal pairs: minor towers, lambda strata, fiber checks, threshold transforms.

The lambda profile of a jet against a matrix A is read off two ways that
must agree: partial sums lambda_1+...+lambda_l equal the minimal pullback
order of the l-minor ideal, and the profile is also the diagonal of the
Smith normal form of the pulled-back series matrix.  The stratification
Cont^m(Z_A) = disjoint union of C_A(lambda) over |lambda| = m underlies
every check in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .consensus import (
    STATUS_AMBIGUOUS,
    STATUS_EXACT_EMPTY,
    CountReport,
    extract_codim,
)
from .contact import MODE_AT_LEAST, ContactQuery, proj_count_contact
from .counting import contact_order_table
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size
from .lct import LCT_DEFAULT_PRIMES, LctEstimate, lct_estimate
from .matrices import PolyMatrix, minors
from .poly import MultiPoly
from .snf import LambdaProfile
from .jets import JetPoint, ord_along_ideal

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_AMBIGUOUS = "AMBIGUOUS"


# --------------------------------------------------------------------------
# pairs and towers
# --------------------------------------------------------------------------


def minor_ideal_tower(A: PolyMatrix):
    """A tuple of IdealGens for the l-minor ideals, l = 1..cols; zero minors
    and repeated minors are dropped (the first occurrence is kept).

    A level whose minors all vanish identically is kept as the explicit
    zero ideal (a single zero polynomial).
    """
    tower = []
    for ell in range(1, A.cols + 1):
        gens = list(dict.fromkeys(g for g in minors(A, ell) if not g.is_zero()))
        if not gens:
            gens = [MultiPoly.zero(A.field, A.variables)]
        tower.append(IdealGens(tuple(gens)))
    return tuple(tower)


@dataclass(frozen=True)
class DeterminantalPair:
    """A matrix together with its degeneracy ideal and incidence forms."""

    matrix: PolyMatrix
    z_gens: IdealGens
    w_gens: IdealGens
    y_names: tuple

    @classmethod
    def from_matrix(cls, A: PolyMatrix):
        r = A.cols
        if A.rows < r:
            raise ValidationError(f"a determinantal pair needs at least as many rows as columns, got {A.rows}x{r}")
        z = [g for g in minors(A, r) if not g.is_zero()]
        if not z:
            raise ValidationError(
                "the maximal-minor ideal vanishes identically; the degeneracy locus must be proper"
            )
        y_names = tuple(f"y{j + 1}" for j in range(r))
        joint = tuple(A.variables) + y_names
        w = []
        for i in range(A.rows):
            acc = MultiPoly.zero(A.field, joint)
            for j in range(r):
                a_ij = A.entry(i, j).extend_variables(joint)
                y_j = MultiPoly.variable(A.field, joint, y_names[j])
                acc = acc + a_ij * y_j
            w.append(acc)
        if all(g.is_zero() for g in w):
            raise ValidationError("incidence forms vanish identically")
        return cls(matrix=A, z_gens=IdealGens(tuple(z)), w_gens=IdealGens(tuple(w)), y_names=y_names)

    @cached_property
    def tower(self):
        """The matrix's ``minor_ideal_tower``, built on first read."""
        return minor_ideal_tower(self.matrix)

    @property
    def r(self):
        return self.matrix.cols

    @property
    def s(self):
        return self.matrix.rows

    def chart_gens(self, i: int) -> IdealGens:
        """Incidence forms on the affine chart y_i = 1 (0-based i)."""
        joint = self.w_gens.variables
        chart_vars = tuple(v for v in joint if v != self.y_names[i])
        images = []
        for v in joint:
            if v == self.y_names[i]:
                images.append(MultiPoly.constant(self.matrix.field, chart_vars, 1))
            else:
                images.append(MultiPoly.variable(self.matrix.field, chart_vars, v))
        gens = [g.substitute_polys(images, chart_vars) for g in self.w_gens]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            raise ValidationError("chart ideal is zero")
        return IdealGens(tuple(gens))


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------


def lambda_profile(A: PolyMatrix, jet: JetPoint) -> LambdaProfile:
    """Profile of a jet: partial sums are the minor-ideal contact orders.

    Parts beyond the first undetermined partial sum are omitted and the
    truncation flag is set.
    """
    if len(A.variables) != jet.dim:
        raise ValidationError("jet does not match the matrix variables")
    tower = minor_ideal_tower(A)
    gf_tower = [t.map_coeffs(jet.field) if t.field != jet.field else t for t in tower]
    parts = []
    prev = 0
    for ell, ideal in enumerate(gf_tower, start=1):
        if ideal.is_zero_ideal():
            return LambdaProfile(tuple(parts), truncation_flag=True)
        sigma = ord_along_ideal(ideal, jet)
        if sigma is None:
            return LambdaProfile(tuple(parts), truncation_flag=True)
        lam = sigma - prev
        if parts and lam < parts[-1]:
            raise InternalInvariantError(
                f"minor orders produced a decreasing profile at l={ell}: {parts + [lam]}"
            )
        parts.append(lam)
        prev = sigma
    return LambdaProfile(tuple(parts))


def profiles_of_size(r, m, max_part):
    """Nondecreasing r-tuples with sum m and largest part <= max_part."""
    out = []

    def rec(prefix, remaining, last):
        k = len(prefix)
        if k == r:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(last, min(max_part, remaining) + 1):
            # the remaining parts are >= v, so they need at least (r-k-1)*v
            if remaining - v > (r - k - 1) * max_part:
                continue
            rec(prefix + [v], remaining - v, v)

    rec([], m, 0)
    return out


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

    The total |Cont^m| is counted independently from the maximal-minor
    ideal alone, so the partition identity compares two computations.
    """
    if m > level:
        raise ValidationError("m must be at most the level")
    n = len(pair.matrix.variables)
    # keyed by the sigma vectors; full enumeration keeps this pass independent
    # of the cheapest-strategy total below.  It counts every jet as a pair of
    # block states, whose spanning minors it evaluates through the ring.
    tower = [ideal.nonzero() for ideal in pair.tower]
    keys, counts = contact_order_table(tower, n, level, q, budget=budget, prefer="direct")
    hit = keys[:, -1] == m
    sigmas, cnts = keys[hit], counts[hit]
    strata_total = int(cnts.sum())
    # an undetermined prefix: cannot happen for m <= level
    undetermined = (sigmas > level).any(axis=1)
    residual = int(cnts[undetermined].sum())
    sigmas, cnts = sigmas[~undetermined], cnts[~undetermined]
    parts = np.diff(sigmas, axis=1, prepend=0)
    decreasing = (parts[:, :-1] > parts[:, 1:]).any(axis=1)
    if decreasing.any():
        sigma = tuple(sigmas[decreasing][0].tolist())
        raise InternalInvariantError(f"decreasing profile from minor orders: {sigma}")
    # the rows are distinct, and so are their profiles
    per_lambda = dict(zip(map(tuple, parts.tolist()), cnts.tolist()))

    # independent total from the maximal-minor ideal alone, by whatever exact
    # strategy is cheapest.  For a determinant of two blocks that is the
    # additive split, which combines its blocks by prefix matrix products, a
    # different algorithm from the pairs of block states of the pass above.
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

    A codimension that only a rounding vote decided passes when it agrees
    with the formula and is AMBIGUOUS when it does not: a vote is evidence,
    not a certificate."""
    if m > level:
        raise ValidationError("m must be at most the level")
    if lam.parts and lam.parts[-1] > level:
        raise ValidationError("profile exceeds the level")
    query = ContactQuery(MODE_AT_LEAST, m, level, primes=tuple(primes))
    report = proj_count_contact(lam.parts, query, budget=budget)
    formula = fiber_codim_formula(lam, m)
    if formula is None:
        verdict = VERDICT_PASS if report.status == STATUS_EXACT_EMPTY else VERDICT_FAIL
    elif report.status == STATUS_EXACT_EMPTY:
        verdict = VERDICT_FAIL
    elif report.consensus_codim == formula:
        verdict = VERDICT_PASS
    elif report.certified:
        verdict = VERDICT_FAIL
    else:
        verdict = VERDICT_AMBIGUOUS  # undecided, or a vote, which is no certificate
    return FiberCheck(
        lam=lam.parts, m=m, level=level, formula_codim=formula, report=report, verdict=verdict
    )


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


def corollary_check(
    pair: DeterminantalPair,
    M: int,
    primes=LCT_DEFAULT_PRIMES,
    budget=DEFAULT_BUDGET,
) -> CorollaryReport:
    """Estimate both thresholds of a square pair and test the biconditional.

    The verdicts allow the rounding guard 1/(2M) since estimates are minima
    of fractions with denominator at most M.  A failed check is a FAIL only
    when every estimate is certified, and AMBIGUOUS otherwise; an internal
    error of the Z estimate is always a FAIL.
    """
    r = pair.r
    if pair.s != r:
        raise ValidationError(f"corollary check needs a square matrix, got {pair.s}x{r}")
    tol = Fraction(1, 2 * M)

    lct_z = lct_z_estimate(pair, M, primes=primes, budget=budget)
    charts, lct_w = lct_w_estimate(pair, M, primes=primes, budget=budget)
    prop24_ok = all(c.estimate is None or c.estimate <= r + tol for c in charts)

    z = lct_z.estimate
    if z is None or lct_w is None:
        return CorollaryReport(
            lct_z=lct_z, lct_w_charts=charts, lct_w=lct_w, r=r, tolerance=tol,
            z_is_one=False, w_is_r=False, biconditional_ok=False,
            forward_bound_ok=False, backward_bound_ok=False, prop24_ok=prop24_ok,
            verdict=VERDICT_AMBIGUOUS,
        )

    z_is_one = abs(z - 1) <= tol
    w_is_r = abs(lct_w - r) <= tol
    biconditional_ok = z_is_one == w_is_r

    c = z - tol
    forward_ok = True
    if c > 0:
        forward_ok = lct_w >= threshold_bound_forward(c, r) - tol
    c_prime = lct_w - (r - 1)
    backward_ok = True
    if c_prime > 0:
        backward_ok = z >= threshold_bound_backward(c_prime, r) - tol

    # only certified estimates can refute the theorem; an internal error always fails
    decided = lct_z.certified_upper_bound and all(c.certified_upper_bound for c in charts)
    ok = biconditional_ok and forward_ok and backward_ok and prop24_ok
    if lct_z.internal_errors:
        verdict = VERDICT_FAIL
    elif decided:
        verdict = VERDICT_PASS if ok else VERDICT_FAIL
    else:
        verdict = VERDICT_AMBIGUOUS
    return CorollaryReport(
        lct_z=lct_z, lct_w_charts=charts, lct_w=lct_w, r=r, tolerance=tol,
        z_is_one=z_is_one, w_is_r=w_is_r, biconditional_ok=biconditional_ok,
        forward_bound_ok=forward_ok, backward_bound_ok=backward_ok, prop24_ok=prop24_ok,
        verdict=verdict,
    )


# --------------------------------------------------------------------------
# rational-singularity necessary conditions (finite level only)
# --------------------------------------------------------------------------

RATIONAL_SING_DISCLAIMER = (
    "finite-level necessary condition only: no violation found up to the "
    "stated level certifies consistency, not rational singularities"
)


@dataclass(frozen=True)
class RationalSingularityProbe:
    max_m: int
    per_m: tuple  # ((m, CountReport, strict_ok or None), ...)
    violations: tuple
    disclaimer: str

    def payload(self):
        return {
            "max_m": self.max_m,
            "per_m": [
                {"m": m, "report": rep.payload(), "strict_ok": ok} for m, rep, ok in self.per_m
            ],
            "violations": list(self.violations),
            "disclaimer": self.disclaimer,
        }


def rational_singularity_probe(
    A: PolyMatrix,
    M: int,
    primes=LCT_DEFAULT_PRIMES,
    budget=DEFAULT_BUDGET,
) -> RationalSingularityProbe:
    """Strict-inequality probe for a square pair's hypersurface Z_A.

    A hypersurface with rational singularities satisfies a strict bound:
    every cylinder of jets based inside the singular locus and with contact
    order m along Z_A has codimension strictly above m.  Only the cylinders
    Cont^m intersected with the singular-base condition are examined, up to
    level M, which is a necessary condition, never a decision procedure.
    """
    if A.rows != A.cols:
        raise ValidationError("probe expects a square matrix")
    pair = DeterminantalPair.from_matrix(A)
    n = len(A.variables)
    f = pair.z_gens.nonzero()[0]
    # the singular locus is V(f, grad f); the f-vanishing at the base point
    # is already forced by contact order m >= 1, so only the partials remain
    sing_gens = [f.partial(v) for v in A.variables]
    sing_gens = [g for g in sing_gens if not g.is_zero()]
    if not sing_gens:
        raise ValidationError("determinant has identically vanishing gradient")

    per_m = []
    violations = []
    for m in range(1, M + 1):
        level = m
        counts = []
        for q in primes:
            keys, cnts = contact_order_table([pair.z_gens.nonzero(), sing_gens], n, level, q, budget=budget)
            # s >= 1: the base point lies inside the singular locus
            hits = int(cnts[(keys[:, 0] == m) & (keys[:, 1] >= 1)].sum())
            counts.append((q, hits, jet_space_size(n, level, q)))
        rep = extract_codim(counts, n * (level + 1))
        if rep.status == STATUS_EXACT_EMPTY:
            strict_ok = True
        elif rep.consensus_codim is not None:
            strict_ok = rep.consensus_codim > m
        else:
            strict_ok = None
        if strict_ok is False:
            violations.append(m)
        per_m.append((m, rep, strict_ok))
    return RationalSingularityProbe(
        max_m=M, per_m=tuple(per_m), violations=tuple(violations),
        disclaimer=RATIONAL_SING_DISCLAIMER,
    )


# --------------------------------------------------------------------------
# affine cone comparison
# --------------------------------------------------------------------------


def _is_generic_coordinate_matrix(A: PolyMatrix) -> bool:
    """Entries are distinct single variables with unit coefficient, covering all."""
    seen = set()
    for row in A.entries:
        for e in row:
            if len(e.terms) != 1:
                return False
            (exps, c), = e.terms.items()
            if sum(exps) != 1 or c != 1:
                return False
            v = exps.index(1)
            if v in seen:
                return False
            seen.add(v)
    return len(seen) == len(A.variables)


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
    joint = pair.w_gens.variables
    y_polys = [MultiPoly.variable(pair.matrix.field, joint, y) for y in pair.y_names]
    keys, counts = contact_order_table([y_polys, pair.w_gens.nonzero()], len(joint), level, q, budget=budget)
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

    Verifies the exact counting identity LHS = q^(n p) * RHS (the two sides
    are enumerated independently at levels N and N-p) and the codimension
    relation codim(LHS) = p*r + codim(RHS).  A side the engine cannot count
    exactly within the budget falls back to the closed form available for
    generic-coordinate matrices.  A codimension relation that fails only on
    a rounding vote is undecided, so the verdict is AMBIGUOUS, not FAIL.
    """
    if not (0 <= p <= m <= level):
        raise ValidationError("need 0 <= p <= m <= level")
    n = len(pair.matrix.variables)
    r, s = pair.r, pair.s
    generic = _is_generic_coordinate_matrix(pair.matrix)

    lhs_counts, rhs_counts = [], []
    methods = set()
    identity_checked = True
    identity_ok = True
    for q in primes:
        try:
            lhs = _cone_side_counts_direct(pair, level, q, m, p, budget)
            method_l = "direct"
        except BudgetExceeded:
            if not generic:
                raise
            lhs = _cone_side_counts_generic(n, r, s, level, q, m, p)
            method_l = "closed-form"
        try:
            rhs = _cone_side_counts_direct(pair, level - p, q, m - p, 0, budget)
            method_r = "direct"
        except BudgetExceeded:
            if not generic:
                raise
            rhs = _cone_side_counts_generic(n, r, s, level - p, q, m - p, 0)
            method_r = "closed-form"
        methods.add((method_l, method_r))
        if method_l == "closed-form" and method_r == "closed-form":
            identity_checked = False  # both sides from the same closed form
        if lhs != q ** (n * p) * rhs:
            identity_ok = False
        lhs_counts.append((q, lhs, jet_space_size(n + r, level, q)))
        rhs_counts.append((q, rhs, jet_space_size(n + r, level - p, q)))

    lhs_rep = extract_codim(lhs_counts, (n + r) * (level + 1))
    rhs_rep = extract_codim(rhs_counts, (n + r) * (level - p + 1))

    if lhs_rep.status == STATUS_EXACT_EMPTY and rhs_rep.status == STATUS_EXACT_EMPTY:
        codim_ok = True
    elif lhs_rep.consensus_codim is not None and rhs_rep.consensus_codim is not None:
        codim_ok = lhs_rep.consensus_codim == p * r + rhs_rep.consensus_codim
        if not codim_ok and not (lhs_rep.certified and rhs_rep.certified):
            codim_ok = None  # a vote against the relation is no certificate
    elif lhs_rep.status == STATUS_AMBIGUOUS or rhs_rep.status == STATUS_AMBIGUOUS:
        codim_ok = None
    else:
        codim_ok = False

    if not identity_ok:
        verdict = VERDICT_FAIL
    elif codim_ok is None:
        verdict = VERDICT_AMBIGUOUS
    elif codim_ok:
        verdict = VERDICT_PASS
    else:
        verdict = VERDICT_FAIL

    return ConeCheck(
        m=m,
        p=p,
        level=level,
        lhs_report=lhs_rep,
        rhs_report=rhs_rep,
        count_identity_ok=identity_ok if identity_checked else None,
        codim_identity_ok=codim_ok,
        method=";".join(sorted(f"{a}/{b}" for a, b in methods)),
        verdict=verdict,
    )
