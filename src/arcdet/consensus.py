"""Turning finite-field point counts into codimension estimates.

``extract_codim`` is the one extraction path.  It starts with an exact
pass.  The cells that appear in this problem family (monomial strata,
GL-orbit strata of matrix jets, chart cells of incidence loci, projective
fiber cells) have counts of the very rigid shape

    q^a * (q-1)^b * (q+1)^e * (q^2+q+1)^f

whose exponents are enumerated from the divisors of the count at the
largest prime and checked exactly at every other prime (one count per
prime, at least two primes); when that succeeds the dimension
a+b+e+2f is exact and no rounding is involved.  When it fails the
dimension is read off per prime as round(log_q count) with a 0.45 guard
band, and a consensus requires at least two primes to agree inside their
bands.  Ambiguity is surfaced as a status, never rounded away.
Log-rounding alone is provably unreliable here: at q=2 the factor (q-1)
is invisible, and exact-contact cells come in families whose component
count inflates the leading coefficient, so the guard band is essential,
not decorative.  ``extract_codim_bucketed`` is a reduction over it: it runs
``extract_codim`` on each cell of an exact partition and takes the largest
cell dimension, so the fit, its ambient-dimension guard and the vote exist
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

GUARD_BAND = 0.45

STATUS_EXACT_EMPTY = "EXACT_EMPTY"
STATUS_CONSENSUS = "CONSENSUS"
STATUS_AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class CountReport:
    """Point counts per prime and the codimension they support."""

    counts: tuple  # ((q, raw, total), ...)
    ambient_dim: int
    status: str
    dims: dict = field(default_factory=dict)  # per-prime rounded dim votes
    consensus_codim: int | None = None
    codim_interval: tuple | None = None
    method: str = ""
    detail: str = ""

    @property
    def certified(self):
        """Whether the report is exact: empty, the full space, or a
        codimension that no rounding vote decided.  A vote is evidence, not
        a certificate, so a check may pass on it but never fail on it."""
        return self.status != STATUS_AMBIGUOUS and self.method not in ("rounding", "buckets:rounding")

    def payload(self):
        out = {
            "counts": [[q, raw, total] for q, raw, total in self.counts],
            "ambient_dim": self.ambient_dim,
            "status": self.status,
            "method": self.method,
        }
        if self.dims:
            out["dims"] = {str(q): d for q, d in sorted(self.dims.items())}
        if self.consensus_codim is not None:
            out["codim"] = self.consensus_codim
        if self.codim_interval is not None:
            out["codim_interval"] = list(self.codim_interval)
        if self.detail:
            out["detail"] = self.detail
        return out


def _v_adic(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _cofactors(n, p):
    """(k, n / p^k) for every power p^k that divides n, from k = 0 up."""
    k = 0
    while True:
        yield k, n
        if n % p:
            return
        n //= p
        k += 1


def cyclotomic_fit(counts):
    """Fit count(q) = q^a (q-1)^b (q+1)^e (q^2+q+1)^f across >= 2 primes.

    Returns (dim, description) or None.  a is the q-adic valuation, the same
    at every prime.  The rest at the largest prime T lists every candidate:
    f runs over the powers of T^2+T+1 that divide it, e over the powers of
    T+1 that divide what is left, and b is the (T-1)-adic valuation of the
    remainder, which must leave the unit 1 (T-1 >= 2, since T is the larger
    of two distinct primes).  Every other prime must reproduce its count
    exactly, so a successful fit is a certificate, not a guess; a prime
    with two different counts fits nothing.  The candidates that pass must
    agree on the dimension, and the description names the least (b, e).
    """
    counts = sorted(set((q, c) for q, c in counts))
    primes = {q for q, _ in counts}
    if len(primes) < 2 or len(primes) < len(counts) or any(c <= 0 for _, c in counts):
        return None
    a = None
    for q, c in counts:
        va, _ = _v_adic(c, q)
        if a is None:
            a = va
        elif va != a:
            return None
    rests = {q: c // q**a for q, c in counts}
    top = max(rests)
    others = [q for q in rests if q != top]
    matches = sorted(
        (b, e, f)
        for f, rest in _cofactors(rests[top], top * top + top + 1)
        for e, left in _cofactors(rest, top + 1)
        for b, unit in [_v_adic(left, top - 1)]
        if unit == 1 and all((q - 1) ** b * (q + 1) ** e * (q * q + q + 1) ** f == rests[q] for q in others)
    )
    dims = {a + b + e + 2 * f for b, e, f in matches}
    if len(dims) != 1:
        return None
    b, e, f = matches[0]
    return dims.pop(), f"q^{a}(q-1)^{b}(q+1)^{e}(q^2+q+1)^{f}"


def _round_log_dim(count, q):
    lg = math.log(count, q)
    d = math.floor(lg + 0.5)
    return d, abs(lg - d)


def _rounding_vote(counts):
    """Guarded log-rounding vote over [(q, count), ...] with some count nonzero.

    Returns (dims, lo, hi, agreed): the rounded dimension per nonempty
    prime, the range of the votes, and whether at least two primes vote
    one dimension with every vote inside the guard band.
    """
    dims = {}
    in_band = True
    for q, c in counts:
        if c == 0:
            continue  # empty at this prime, nonempty elsewhere: no vote
        d, dev = _round_log_dim(c, q)
        dims[q] = d
        in_band = in_band and dev < GUARD_BAND
    lo, hi = min(dims.values()), max(dims.values())
    return dims, lo, hi, lo == hi and in_band and len(dims) >= 2


def extract_codim(counts, ambient_dim):
    """Codimension of a counted locus inside an ambient_dim-dimensional space.

    ``counts`` is a list of (q, raw_count, total).  Pipeline: exact-empty,
    full-space, exact cyclotomic fit, guarded rounding consensus.  A single
    nonempty prime cannot form a consensus and is reported as AMBIGUOUS
    with its vote as the interval.
    """
    counts = tuple((q, raw, total) for q, raw, total in counts)
    if all(raw == 0 for _, raw, _ in counts):
        return CountReport(counts, ambient_dim, STATUS_EXACT_EMPTY, method="empty")
    if all(raw == total for _, raw, total in counts):
        return CountReport(
            counts, ambient_dim, STATUS_CONSENSUS, dims={q: ambient_dim for q, _, _ in counts},
            consensus_codim=0, method="full",
        )
    if all(raw > 0 for _, raw, _ in counts):
        fit = cyclotomic_fit([(q, raw) for q, raw, _ in counts])
        if fit is not None and fit[0] <= ambient_dim:
            dim, shape = fit
            return CountReport(
                counts, ambient_dim, STATUS_CONSENSUS, dims={q: dim for q, _, _ in counts},
                consensus_codim=ambient_dim - dim, method="fit", detail=shape,
            )
    dims, lo, hi, agreed = _rounding_vote([(q, raw) for q, raw, _ in counts])
    if agreed:
        return CountReport(
            counts, ambient_dim, STATUS_CONSENSUS, dims=dims,
            consensus_codim=ambient_dim - lo, method="rounding",
        )
    return CountReport(
        counts, ambient_dim, STATUS_AMBIGUOUS, dims=dims,
        codim_interval=(ambient_dim - hi, ambient_dim - lo), method="rounding",
    )


def extract_codim_bucketed(bucket_counts, ambient_dim, totals):
    """Codimension of a locus from an exact partition into buckets.

    ``bucket_counts``: dict mapping bucket key -> dict prime -> count;
    ``totals``: per-prime (q, raw, total) of the whole locus.  Every bucket
    goes through ``extract_codim`` at the primes of ``totals`` (a prime a
    bucket does not name counts 0), and the locus dimension is the largest
    bucket dimension.  It is decided only when a decided bucket carries it
    and no undecided bucket's interval reaches above it; otherwise the
    interval runs from the largest low end to the largest high end.  The
    method is "buckets:rounding" when a rounding vote decided some bucket,
    since a vote is no certificate, and "buckets" otherwise.
    """
    totals = tuple(totals)
    decided, intervals = [], []
    method = "buckets"
    for per in bucket_counts.values():
        rep = extract_codim([(q, per.get(q, 0), total) for q, _, total in totals], ambient_dim)
        if rep.status == STATUS_CONSENSUS:
            decided.append(rep.consensus_codim)
            if rep.method == "rounding":
                method = "buckets:rounding"
        elif rep.status == STATUS_AMBIGUOUS:
            intervals.append(rep.codim_interval)
    nonempty = len(decided) + len(intervals)
    if not nonempty:
        return CountReport(totals, ambient_dim, STATUS_EXACT_EMPTY, method="empty")
    # A consensus needs a decided bucket on top: undecided buckets may sit
    # strictly below it, but they can never carry the maximum themselves.
    if decided and all(low >= min(decided) for low, _ in intervals):
        return CountReport(
            totals, ambient_dim, STATUS_CONSENSUS, consensus_codim=min(decided),
            method=method, detail=f"{nonempty} nonempty buckets",
        )
    lows, highs = zip(*intervals)
    return CountReport(
        totals, ambient_dim, STATUS_AMBIGUOUS, codim_interval=(min((*decided, *lows)), min((*decided, *highs))),
        method=method, detail=f"{nonempty} nonempty buckets, some undecided",
    )
