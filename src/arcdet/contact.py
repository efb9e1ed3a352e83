"""Contact-locus counting: affine jets, constraints, and projective jets.

Every exact count here is a reduction of one ``contact_order_table`` keyed
by (least coordinate order, contact order) -- or by the contact order
alone when no coordinate constraint applies: keep the keys the constraint
admits and test the contact order against m.

Projective jets of P^(r-1) use the homogeneous model: the tuples u in
(F_q[t]/t^(N+1))^r with at least one unit coordinate (the
``unit_coordinate`` constraint on the coordinate table), modulo the unit
group of the truncated ring, which has q^N (q-1) elements.  Order
conditions on the forms are unit-scaling invariant, so cone counts divide
exactly by the unit-group size; a failed division means the condition was
not scaling invariant and is reported as an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import getitem

import numpy as np

from .consensus import (
    STATUS_SAMPLED,
    CountReport,
    extract_codim,
    wilson_interval,
)
from .counting import contact_order_table, sample_ord_hits
from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .fields import GF
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size
from .poly import MultiPoly

DEFAULT_PRIMES = (2, 3, 5)

MODE_EXACT = "exact"
MODE_AT_LEAST = "at_least"


# Constraint registry: named predicates on the least clamped coordinate
# order, used to intersect a contact condition with coordinate strata.
CONSTRAINT_REGISTRY = {
    # some coordinate is a unit series
    "unit_coordinate": lambda least: least == 0,
    # every coordinate vanishes at t=0
    "origin_based": lambda least: least >= 1,
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


def _contact_hits(table, constraint, level, mode, m):
    """Reduce a table keyed by ([least coordinate order,] contact order) to
    the number of jets meeting the order condition plus the number of
    sentinel jets (forms vanishing to level), over the keys the constraint
    admits; the coordinate entry is present exactly when a constraint is."""
    pred = CONSTRAINT_REGISTRY[constraint] if constraint else None
    hits = 0
    sentinel = 0
    for key, cnt in table.items():
        if pred is not None and not pred(key[0]):
            continue
        o = key[-1]
        if o == level + 1:
            sentinel += cnt
        if mode == MODE_EXACT:
            if o == m:
                hits += cnt
        else:
            if o >= m:
                hits += cnt
    return hits, sentinel


def _exact_contact_count(gens: IdealGens, n, level, q, mode, m, constraint, budget):
    """Exact count plus the number of sentinel jets (pullbacks vanishing to level)."""
    polys = list(gens.nonzero())
    if not polys:
        raise ValidationError("cannot count contact along the zero ideal")
    coords = [MultiPoly.coordinates(gens.field, gens.variables)] if constraint else []
    table = contact_order_table(coords + [polys], n, level, q, budget=budget)
    return _contact_hits(table, constraint, level, mode, m)


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


def _proj_cone_table(gens, r, level, q, lam, budget):
    """Cone table keyed by (least order of u_1..u_r, contact order of the forms)."""
    if lam is None:
        coords = MultiPoly.coordinates(gens[0].field, gens[0].variables)
        return contact_order_table([coords, gens], r, level, q, budget=budget)
    names = tuple(f"u{j}" for j in range(1, r + 1))
    coords = MultiPoly.coordinates(GF(q), names)
    table = contact_order_table([[u] for u in coords], r, level, q, budget=budget)
    # ord(t^lam_j u_j) = min(lam_j + ord u_j, N+1), exactly, in F_q[t]/(t^(N+1))
    shifted = [[min(l + e, level + 1) for e in range(level + 2)] for l in lam]
    out = {}
    for o, c in table.items():
        key = (min(o), min(map(getitem, shifted, o)))
        out[key] = out.get(key, 0) + c
    return out


def proj_count_contact(
    gens,
    r: int,
    query: ContactQuery,
    lam=None,
    budget=DEFAULT_BUDGET,
) -> CountReport:
    """Count projective jets of P^(r-1) meeting an order condition.

    The forms are either ``gens``, polynomials in r variables u_1..u_r, or,
    with ``lam`` (a profile of length r and ``gens`` None), the pullbacks
    t^lam_j u_j of the base jet diag(t^lam).  Each prime's cone count is
    the coordinate table of u_1..u_r and the forms, reduced under the
    ``unit_coordinate`` constraint; it is divided by the unit group size
    q^N (q-1), and the quotient must be exact.
    """
    if lam is None:
        if not gens or any(len(g.variables) != r for g in gens):
            raise ValidationError("chart/cone generators must use exactly r variables")
    elif gens is not None or len(lam) != r or r < 1:
        raise ValidationError("a profile lam needs r = len(lam) >= 1 and no generators")
    level = query.level
    counts = []
    for q in query.primes:
        table = _proj_cone_table(gens, r, level, q, lam, budget)
        cone, _ = _contact_hits(table, "unit_coordinate", level, query.mode, query.m)
        unit_group = q**level * (q - 1)
        if cone % unit_group != 0:
            raise InternalInvariantError(
                f"cone count {cone} not divisible by the unit group size {unit_group}: "
                "the order condition is not scaling invariant"
            )
        proj_total = (q ** (r * (level + 1)) - q ** (r * level)) // unit_group
        counts.append((q, cone // unit_group, proj_total))

    return extract_codim(counts, (r - 1) * (level + 1))
