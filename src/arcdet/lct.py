"""Jet-theoretic log canonical threshold estimation.

The threshold of a pair is the infimum over m of codim(Cont^m)/m, and the
estimator computes those codimensions from finite-field counts.  The
contact order at m is determined by coefficients up to t^m, so a level-M
table serves every level m <= M: ``_level_report`` takes the rows whose
work-ideal order is exactly m and reads their stratum orders at level m
through ``counting.level_counts``, the one rule that reads a deeper table.
``lct_estimate`` therefore counts one level-M table per prime, in the order
``counting.per_prime`` sets, inside a campaign's table cache or outside it.
``threshold_fold`` turns the per-m reports into the estimate; it is the one
place an ``LctEstimate`` is made, so any source of per-m codimensions
reaches a threshold through it.

For each m the Cont^m count is stratified: jets are bucketed by their
contact orders along a list of stratifying ideals -- by default the
coordinates, and for determinantal ideals the lower minor ideals, whose
orders are the partial sums of the profile (the lambda stratification).
A bucket is often a single cell of the shape ``consensus.cyclotomic_fit``
fits, which lets the fit certify its codimension instead of rounding, but
not always: each lambda stratum of diag(x1, x2, x3) at m = 2 counts
3(q-1)^3 q^4 jets, a union of three cells that no single shape fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .consensus import (
    STATUS_AMBIGUOUS,
    STATUS_CONSENSUS,
    CountReport,
    extract_codim,
    extract_codim_bucketed,
)
from .counting import contact_order_table, level_counts, per_prime
from .errors import ValidationError
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size
from .poly import MultiPoly

LCT_DEFAULT_PRIMES = (2, 3)


@dataclass(frozen=True)
class LctEstimate:
    per_m: tuple  # ((m, CountReport, Fraction-or-None), ...)
    estimate: Fraction | None  # None means +infinity (every contact locus empty)
    witness_m: int | None
    certified_upper_bound: bool
    ambient_dim: int
    generator_count: int
    estimate_lower_bound: Fraction | None = None
    internal_errors: tuple = ()

    def payload(self):
        out = {
            "per_m": [
                {
                    "m": m,
                    "report": rep.payload(),
                    "ratio": None if ratio is None else str(ratio),
                    "ratio_decimal": None if ratio is None else float(ratio),
                }
                for m, rep, ratio in self.per_m
            ],
            "estimate": None if self.estimate is None else str(self.estimate),
            "estimate_decimal": None if self.estimate is None else float(self.estimate),
            "witness_m": self.witness_m,
            "certified_upper_bound": self.certified_upper_bound,
            "ambient_dim": self.ambient_dim,
            "generator_count": self.generator_count,
        }
        if self.estimate_lower_bound is not None:
            out["estimate_lower_bound"] = str(self.estimate_lower_bound)
        if self.internal_errors:
            out["internal_errors"] = list(self.internal_errors)
        return out


def _level_report(tables, deep, m, n) -> CountReport:
    """The stratified report of Cont^m read from the level-``deep``
    contact-order tables of [*strata, work ideal], deep >= m, given as
    [(q, (keys, counts)), ...]: the rows whose work-ideal order is exactly
    m, bucketed by their stratum orders at level m as ``level_counts`` reads
    them.
    """
    totals = []
    bucket_counts = {}
    for q, (keys, counts) in tables:
        hit = keys[:, -1] == m
        buckets = level_counts(keys[hit, :-1], counts[hit], deep, m, n, q)
        for key, cnt in buckets.items():
            bucket_counts.setdefault(key, {})[q] = cnt
        totals.append((q, sum(buckets.values()), jet_space_size(n, m, q)))

    ambient = n * (m + 1)
    # Buckets first: a bucket is usually a single cell, whose count is a
    # basis element of the fit.  Totals of unions collide with wrong basis
    # elements more often, so the flat fit is only a fallback.
    merged = extract_codim_bucketed(bucket_counts, ambient, totals)
    if merged.status != STATUS_AMBIGUOUS:
        return merged
    flat = extract_codim(totals, ambient)
    return flat if flat.status == STATUS_CONSENSUS else merged


def lct_estimate(
    gens: IdealGens,
    M: int,
    primes=LCT_DEFAULT_PRIMES,
    budget=DEFAULT_BUDGET,
    strata=None,
) -> LctEstimate:
    """min over 1 <= m <= M of codim(Cont^m)/m: the stratified count of each
    Cont^m, every level read from one level-M table per prime and folded by
    ``threshold_fold``; ``per_prime`` orders the primes.

    Jets are bucketed by their contact orders along ``strata``, a list of
    ideals (generator lists); None means the coordinates, one ideal each,
    and [] puts every jet in one bucket.
    """
    if M < 1:
        raise ValidationError("M must be at least 1")
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise ValidationError("threshold estimation needs at least two distinct primes")
    work = list(gens.nonzero())
    if not work:
        raise ValidationError("zero ideal has no contact loci")
    if strata is None:
        strata = [[x] for x in MultiPoly.coordinates(gens.field, gens.variables)]
    n = len(gens.variables)
    tables = list(zip(primes, per_prime(primes, lambda q: contact_order_table([*strata, work], n, M, q, budget))))
    return threshold_fold([_level_report(tables, M, m, n) for m in range(1, M + 1)], n, len(work))


def threshold_fold(reports, ambient_dim: int, generator_count: int) -> LctEstimate:
    """The threshold min_m codim(Cont^m)/m from the reports of m = 1, 2, ...

    The estimate is the least ratio of a decided report (exact fit or
    consensus), and its witness the deepest m that attains it.  It is a
    certified upper bound only when every report is certified: an ambiguous
    report or a rounding vote lowers the flag.  When every report is decided
    the estimate is also the lower bound of the minimum over these levels;
    an ambiguous report withdraws that bound (None), since its interval may
    exclude the true codimension.
    Sanity guards: the estimate may exceed neither the number of generators
    (a subscheme cut by d equations has threshold at most d) nor the ambient
    dimension; violations are flagged as internal errors.
    """
    per_m = []
    estimate = None
    witness = None
    for m, rep in enumerate(reports, start=1):
        ratio = None
        if rep.status == STATUS_CONSENSUS:
            ratio = Fraction(rep.consensus_codim, m)
            if estimate is None or ratio <= estimate:
                estimate = ratio
                witness = m  # ties move the witness to the deepest level
        per_m.append((m, rep, ratio))

    errors = []
    if estimate is not None:
        if estimate > generator_count:
            errors.append(
                f"estimate {estimate} exceeds the generator count "
                f"{generator_count}; a d-equation subscheme has threshold <= d"
            )
        if estimate > ambient_dim:
            errors.append(f"estimate {estimate} exceeds the ambient dimension {ambient_dim}")

    decided = all(rep.status != STATUS_AMBIGUOUS for _, rep, _ in per_m)
    return LctEstimate(
        per_m=tuple(per_m),
        estimate=estimate,
        witness_m=witness,
        certified_upper_bound=estimate is not None and all(rep.certified for _, rep, _ in per_m),
        ambient_dim=ambient_dim,
        generator_count=generator_count,
        estimate_lower_bound=estimate if decided else None,
        internal_errors=tuple(errors),
    )
