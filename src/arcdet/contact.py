"""Contact-locus counting: affine jets, constraints, and projective jets.

Every exact count here is a reduction of one ``contact_order_table`` keyed
by (least coordinate order, contact order) -- or by the contact order
alone when no coordinate constraint applies: keep the keys the constraint
admits and test the contact order against m.

Projective jets of P^(r-1) are counted in the fiber over the base jet
diag(t^lam), r = len(lam), in the homogeneous model: the tuples u in
(F_q[t]/t^(N+1))^r with at least one unit coordinate, modulo the unit group
of the truncated ring, which has q^N (q-1) elements.  The forms are the
pullbacks t^lam_j u_j, of contact order min_j min(lam_j + ord u_j, N+1), so
the cone count sums the keys of one coordinate-order table whose least
coordinate order is 0 and whose contact order meets the condition.  Order
conditions on the forms are unit-scaling invariant, so cone counts divide
exactly by the unit-group size; a failed division means the condition was
not scaling invariant and is reported as an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .consensus import CountReport, extract_codim
from .counting import contact_order_table
from .errors import InternalInvariantError, ValidationError
from .fields import GF
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size
from .poly import MultiPoly

DEFAULT_PRIMES = (2, 3, 5)

MODE_EXACT = "exact"
MODE_AT_LEAST = "at_least"


# Constraint registry: named predicates on the least clamped coordinate
# order, elementwise over an array of them, used to intersect a contact
# condition with coordinate strata.
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
    keys, counts = table
    contact = keys[:, -1]
    hit = contact == m if mode == MODE_EXACT else contact >= m
    sentinel = contact == level + 1
    if constraint:
        admitted = CONSTRAINT_REGISTRY[constraint](keys[:, 0])
        hit &= admitted
        sentinel &= admitted
    return int(counts[hit].sum()), int(counts[sentinel].sum())


def count_contact(gens: IdealGens, query: ContactQuery, budget=DEFAULT_BUDGET) -> CountReport:
    """Count jets meeting the order condition, per configured prime, exactly.

    Each prime's count reduces one ``contact_order_table`` of the ideal,
    keyed first by the least coordinate order when a constraint applies.
    Sentinel jets (pullbacks vanishing to the level) satisfy every
    "at least m" condition with m <= level, and never an exact one.  A prime
    whose table no exact strategy fits within the budget raises
    ``BudgetExceeded``.
    """
    polys = list(gens.nonzero())
    if not polys:
        raise ValidationError("cannot count contact along the zero ideal")
    n = len(gens.variables)
    coords = [MultiPoly.coordinates(gens.field, gens.variables)] if query.constraint else []
    counts = []
    sentinels = []
    for q in query.primes:
        table = contact_order_table(coords + [polys], n, query.level, q, budget=budget)
        hits, bot = _contact_hits(table, query.constraint, query.level, query.mode, query.m)
        counts.append((q, hits, jet_space_size(n, query.level, q)))
        sentinels.append((q, bot))
    report = extract_codim(counts, n * (query.level + 1))
    return replace(report, sentinel_counts=tuple(sentinels))


# --------------------------------------------------------------------------
# projective jets
# --------------------------------------------------------------------------


def _proj_cone_table(lam, level, q, budget):
    """The cone over diag(t^lam) as a (keys, counts) table with one row per
    row of the coordinate table, keyed by (least order of u_1..u_r, contact
    order of the forms t^lam_j u_j); rows may repeat a key."""
    r = len(lam)
    coords = MultiPoly.coordinates(GF(q), tuple(f"u{j}" for j in range(1, r + 1)))
    orders, counts = contact_order_table([[u] for u in coords], r, level, q, budget=budget)
    # ord(t^lam_j u_j) = min(lam_j + ord u_j, N+1), exactly, in F_q[t]/(t^(N+1))
    contact = np.minimum(orders + np.array(lam), level + 1).min(1)
    return np.column_stack((orders.min(1), contact)), counts


def proj_count_contact(lam, query: ContactQuery, budget=DEFAULT_BUDGET) -> CountReport:
    """Count projective jets of P^(r-1), r = len(lam), in the fiber over the
    base jet diag(t^lam): those whose forms t^lam_j u_j meet the order
    condition.  Each prime's cone count, summed over the keys of
    ``_proj_cone_table`` with a unit coordinate, is divided by the unit group
    size q^N (q-1), and the quotient must be exact.
    """
    r, level, m = len(lam), query.level, query.m
    counts = []
    for q in query.primes:
        table = _proj_cone_table(lam, level, q, budget)
        cone = _contact_hits(table, "unit_coordinate", level, query.mode, m)[0]
        unit_group = q**level * (q - 1)
        if cone % unit_group != 0:
            raise InternalInvariantError(
                f"cone count {cone} not divisible by the unit group size {unit_group}: "
                "the order condition is not scaling invariant"
            )
        proj_total = (q ** (r * (level + 1)) - q ** (r * level)) // unit_group
        counts.append((q, cone // unit_group, proj_total))

    return extract_codim(counts, (r - 1) * (level + 1))
