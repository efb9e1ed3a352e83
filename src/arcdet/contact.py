"""Contact-locus counting: affine jets, constraints, and projective jets.

Projective jets of P^(r-1) are handled through the homogeneous model: the
tuples u in (F_q[t]/t^(N+1))^r with at least one unit coordinate, modulo
the unit group of the truncated ring, which has q^N (q-1) elements.  Order
conditions on the incidence forms are unit-scaling invariant, so cone
counts divide exactly by the unit-group size; a failed division means the
condition was not scaling invariant and is reported as an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .consensus import (
    STATUS_SAMPLED,
    CountReport,
    extract_codim,
    wilson_interval,
)
from .counting import (
    batch_conv,
    batch_ord,
    iter_digit_batches,
    ord_vector_distribution,
    sample_ord_hits,
)
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .fields import GF
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size

DEFAULT_PRIMES = (2, 3, 5)

MODE_EXACT = "exact"
MODE_AT_LEAST = "at_least"


# Constraint registry: named predicates on the vector of clamped coordinate
# orders, used to intersect a contact condition with coordinate strata.
CONSTRAINT_REGISTRY = {
    # some coordinate is a unit series
    "unit_coordinate": lambda coord_ords, level: min(coord_ords) == 0,
    # every coordinate vanishes at t=0
    "origin_based": lambda coord_ords, level: min(coord_ords) >= 1,
}


@dataclass(frozen=True)
class ContactQuery:
    mode: str
    m: int
    level: int
    primes: tuple = DEFAULT_PRIMES
    constraint: str | None = None

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_AT_LEAST):
            raise ValidationError(f"unknown contact mode {self.mode!r}")
        if self.m < 0 or self.level < 0:
            raise ValidationError("m and level must be nonnegative")
        if self.m > self.level:
            raise ValidationError(
                f"contact order {self.m} is not determined at level {self.level}"
            )
        primes = tuple(self.primes)
        if not primes:
            raise ValidationError("need at least one prime")
        object.__setattr__(self, "primes", primes)
        if self.constraint is not None and self.constraint not in CONSTRAINT_REGISTRY:
            raise ValidationError(f"unknown constraint {self.constraint!r}")


def _exact_contact_count(gens: IdealGens, n, level, q, mode, m, constraint, budget):
    """Exact count plus the number of sentinel jets (pullbacks vanishing to level)."""
    polys = list(gens.nonzero())
    if not polys:
        raise ValidationError("cannot count contact along the zero ideal")
    track = list(range(n)) if constraint else []
    coord_polys = []
    if track:
        from .poly import MultiPoly

        names = gens.variables
        coord_polys = [MultiPoly.variable(gens.field, names, names[i]) for i in track]
    table = ord_vector_distribution(coord_polys + polys, n, level, q, budget=budget)
    pred = CONSTRAINT_REGISTRY[constraint] if constraint else None
    k = len(coord_polys)
    hits = 0
    sentinel = 0
    for key, cnt in table.items():
        coord_part, gen_part = key[:k], key[k:]
        if pred is not None and not pred(coord_part, level):
            continue
        o = min(gen_part)
        if o == level + 1:
            sentinel += cnt
        if mode == MODE_EXACT:
            if o == m:
                hits += cnt
        else:
            if o >= m:
                hits += cnt
    return hits, sentinel


def count_contact(
    gens: IdealGens,
    query: ContactQuery,
    budget=DEFAULT_BUDGET,
    seed=0,
    samples=200_000,
) -> CountReport:
    """Count jets meeting the order condition, per configured prime.

    Sentinel jets (pullbacks vanishing to the level) satisfy every
    "at least m" condition with m <= level, and never an exact one.
    Primes whose space exceeds the budget are sampled; any sampled prime
    downgrades the whole report to SAMPLED.
    """
    n = len(gens.variables)
    counts = []
    sentinels = []
    sampled = []
    for q in query.primes:
        total = jet_space_size(n, query.level, q)
        try:
            raw, bot = _exact_contact_count(
                gens, n, query.level, q, query.mode, query.m, query.constraint, budget
            )
            counts.append((q, raw, total))
            sentinels.append((q, bot))
        except BudgetExceeded:
            if query.constraint:
                raise  # constrained counts are only defined exactly
            rng = np.random.default_rng((seed, q))
            hits, ns = sample_ord_hits(
                list(gens.nonzero()), n, query.level, q, query.mode, query.m, samples, rng
            )
            sampled.append((q, hits, ns, total))

    if sampled:
        detail = "; ".join(
            f"q={q}: {hits}/{ns} hits, wilson {wilson_interval(hits, ns)}" for q, hits, ns, _ in sampled
        )
        all_counts = tuple(counts) + tuple((q, hits, total) for q, hits, ns, total in sampled)
        return CountReport(
            counts=all_counts,
            ambient_dim=n * (query.level + 1),
            status=STATUS_SAMPLED,
            method="sampled",
            detail=detail,
        )

    report = extract_codim(counts, n * (query.level + 1))
    return replace(report, sentinel_counts=tuple(sentinels))


# --------------------------------------------------------------------------
# projective jets
# --------------------------------------------------------------------------


def _proj_cone_hits(forms_per_u, r, level, q, mode, m):
    """Count homogeneous-coordinate tuples with a unit coordinate meeting the
    order condition.  ``forms_per_u`` maps a (B, r, N+1) batch of u-tuples to
    a list of (B, N+1) form pullbacks."""
    width = r * (level + 1)
    hits = 0
    for digits in iter_digit_batches(width, q):
        u = digits.reshape(digits.shape[0], r, level + 1)
        unit_mask = (u[:, :, 0] != 0).any(axis=1)
        best = None
        for series in forms_per_u(u):
            o = batch_ord(series, level)
            best = o if best is None else np.minimum(best, o)
        if mode == MODE_EXACT:
            cond = best == m
        else:
            cond = best >= m
        hits += int((cond & unit_mask).sum())
    return hits


def proj_count_contact(
    gens,
    r: int,
    query: ContactQuery,
    fixed_base=None,
    budget=DEFAULT_BUDGET,
) -> CountReport:
    """Count projective jets of P^(r-1) meeting an order condition.

    With ``fixed_base`` (an s x r SeriesMatrix, the base jet already pulled
    back), the forms are sum_j w_ij u_j.  Without it, ``gens`` must be
    polynomials in r variables u_1..u_r.  Raw cone counts are divided by
    the unit group size q^N (q-1); the quotient must be exact.
    """
    level = query.level
    counts = []
    for q in query.primes:
        total_cone = jet_space_size(r, level, q)
        if total_cone > budget:
            raise BudgetExceeded(f"projective cone has {total_cone} points, over budget {budget}")

        if fixed_base is not None:
            if fixed_base.cols != r:
                raise ValidationError("base matrix width disagrees with r")
            if fixed_base.level != level:
                raise ValidationError("base matrix level disagrees with the query level")
            gfq = GF(q)
            w = [
                [np.array([int(gfq.of(c)) for c in fixed_base.entry(i, j).coeffs], dtype=np.int64) for j in range(r)]
                for i in range(fixed_base.rows)
            ]

            def forms(u, w=w):
                out = []
                for row in w:
                    acc = np.zeros((u.shape[0], level + 1), dtype=np.int64)
                    for j, wij in enumerate(row):
                        if not wij.any():
                            continue
                        fixed = np.broadcast_to(wij, (u.shape[0], level + 1))
                        acc += batch_conv(fixed, u[:, j, :], q)
                    np.mod(acc, q, out=acc)
                    out.append(acc)
                return out

        else:
            if any(len(g.variables) != r for g in gens):
                raise ValidationError("chart/cone generators must use exactly r variables")
            gfq = GF(q)
            mapped = [g if g.field == gfq else g.map_coeffs(gfq) for g in gens]

            def forms(u, mapped=mapped):
                from .counting import eval_poly_batch

                return [eval_poly_batch(g, u, q) for g in mapped]

        cone = _proj_cone_hits(forms, r, level, q, query.mode, query.m)
        unit_group = q**level * (q - 1)
        if cone % unit_group != 0:
            raise InternalInvariantError(
                f"cone count {cone} not divisible by the unit group size {unit_group}: "
                "the order condition is not scaling invariant"
            )
        proj_total = (q ** (r * (level + 1)) - q ** (r * level)) // unit_group
        counts.append((q, cone // unit_group, proj_total))

    return extract_codim(counts, (r - 1) * (level + 1))
