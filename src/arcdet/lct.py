"""Jet-theoretic log canonical threshold estimation.

The threshold of a pair is the infimum over m of codim(Cont^m)/m, and the
estimator computes those codimensions from finite-field counts at level
N = m (the contact order is determined by coefficients up to t^m, so any
higher level just multiplies counts by exact powers of q).  It counts the
deepest level M first: where a campaign run shares its contact-order tables,
the level-M table of each prime then serves every level m < M by
truncation, so one table is counted per prime.

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
    STATUS_EXACT_EMPTY,
    CountReport,
    extract_codim,
    extract_codim_bucketed,
)
from .counting import contact_order_table
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


def contact_codim_stratified(
    gens: IdealGens,
    m: int,
    primes,
    budget=DEFAULT_BUDGET,
    strata=None,
) -> CountReport:
    """Codimension of Cont^m(ideal) at level m, with exact stratified extraction.

    Jets are bucketed by their contact orders along ``strata``, a list of
    ideals (generator lists); None means the coordinates, one ideal each,
    and [] puts every jet in one bucket.
    """
    n = len(gens.variables)
    level = m
    work = list(gens.nonzero())
    if not work:
        raise ValidationError("zero ideal has no contact loci")

    if strata is None:
        strata = [[x] for x in MultiPoly.coordinates(gens.field, gens.variables)]

    totals = []
    bucket_counts = {}
    for q in primes:
        keys, counts = contact_order_table([*strata, work], n, level, q, budget=budget)
        hit = keys[:, -1] == m
        # the rows are distinct, so each bucket occurs at most once per prime
        for bucket_key, cnt in zip(map(tuple, keys[hit, :-1].tolist()), counts[hit].tolist()):
            bucket_counts.setdefault(bucket_key, {})[q] = cnt
        totals.append((q, int(counts[hit].sum()), jet_space_size(n, level, q)))

    ambient = n * (level + 1)
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
    """min over 1 <= m <= M of codim(Cont^m)/m, with certification flags.

    The estimate uses decided cells (exact fit or consensus); ambiguous
    cells lower the certification flag and feed only the reported lower
    bound, and a cell that a rounding vote decided lowers the flag too.
    Sanity guards: the estimate may exceed neither the number of generators
    (a subscheme cut by d equations has threshold at most d) nor the ambient
    dimension; violations are flagged as internal errors.
    ``strata`` buckets each Cont^m as in ``contact_codim_stratified``.
    """
    if M < 1:
        raise ValidationError("M must be at least 1")
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise ValidationError("threshold estimation needs at least two distinct primes")
    n = len(gens.variables)
    per_m = []
    estimate = None
    witness = None
    lower = None
    certified = True
    errors = []
    # the deepest level first, so that its tables serve the shallower ones
    reports = {m: contact_codim_stratified(gens, m, primes, budget=budget, strata=strata) for m in range(M, 0, -1)}
    for m in range(1, M + 1):
        rep = reports[m]
        ratio = None
        if rep.status == STATUS_EXACT_EMPTY:
            pass
        elif rep.consensus_codim is not None:
            ratio = Fraction(rep.consensus_codim, m)
            if estimate is None or ratio <= estimate:
                estimate = ratio
                witness = m  # ties move the witness to the deepest level
            lower = ratio if lower is None else min(lower, ratio)
        else:
            certified = False
            if rep.codim_interval is not None:
                lo = Fraction(rep.codim_interval[0], m)
                lower = lo if lower is None else min(lower, lo)
        if not rep.certified:
            certified = False
        per_m.append((m, rep, ratio))

    if estimate is not None:
        if estimate > len(list(gens.nonzero())):
            errors.append(
                f"estimate {estimate} exceeds the generator count "
                f"{len(list(gens.nonzero()))}; a d-equation subscheme has threshold <= d"
            )
        if estimate > n:
            errors.append(f"estimate {estimate} exceeds the ambient dimension {n}")

    return LctEstimate(
        per_m=tuple(per_m),
        estimate=estimate,
        witness_m=witness,
        certified_upper_bound=certified and estimate is not None,
        ambient_dim=n,
        generator_count=len(list(gens.nonzero())),
        estimate_lower_bound=lower,
        internal_errors=tuple(errors),
    )
