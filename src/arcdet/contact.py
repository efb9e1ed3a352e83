"""Contact-locus counting: affine jets, constraints, and projective jets.

Every exact count here is one masked sum over one ``contact_order_table``.
An affine count keys its table by (least coordinate order, contact order),
or by the contact order alone when no coordinate constraint applies, and
keeps the keys the constraint admits whose contact order meets m.

Projective jets of P^(r-1) are counted in the fiber over the base jet
diag(t^lam), r = len(lam), in the homogeneous model: the tuples u in
(F_q[t]/t^(N+1))^r with at least one unit coordinate, modulo the unit group
of the truncated ring, which has q^N (q-1) elements.  The forms are the
pullbacks t^lam_j u_j, of contact order min_j min(lam_j + ord u_j, N+1), so
the cone count is one masked sum over the table of the coordinate orders
(ord u_1, ..., ord u_r): the rows with a unit coordinate whose contact order
meets the condition.  Order conditions on the forms are unit-scaling
invariant, so cone counts divide exactly by the unit-group size; a failed
division means the condition was not scaling invariant and is reported as
an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import CountReport, extract_codim
from .counting import contact_order_table, per_prime
from .errors import InternalInvariantError, ValidationError
from .fields import GF, is_prime
from .jets import DEFAULT_BUDGET, IdealGens, jet_space_size
from .poly import MultiPoly

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
    primes: tuple
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
        if not all(map(is_prime, primes)) or len(set(primes)) < len(primes):
            raise ValidationError(f"primes must be distinct primes below 2^31, got {primes!r}")
        object.__setattr__(self, "primes", primes)
        if self.constraint is not None and self.constraint not in CONSTRAINT_REGISTRY:
            raise ValidationError(f"unknown constraint {self.constraint!r}")


def _meets(contact, query):
    """Elementwise: the contact orders that meet the query's order condition."""
    return contact == query.m if query.mode == MODE_EXACT else contact >= query.m


def _contact_hits(table, query):
    """Reduce a table keyed by ([least coordinate order,] contact order) to the
    jets meeting the order condition over the keys the constraint admits;
    the coordinate entry is present exactly when a constraint is."""
    keys, counts = table
    hit = _meets(keys[:, -1], query)
    if query.constraint:
        hit &= CONSTRAINT_REGISTRY[query.constraint](keys[:, 0])
    return int(counts[hit].sum())


def count_contact(gens: IdealGens, query: ContactQuery, budget=DEFAULT_BUDGET) -> CountReport:
    """Count jets meeting the order condition, per configured prime, exactly.

    Each prime's count reduces one ``contact_order_table`` of the ideal,
    keyed first by the least coordinate order when a constraint applies.
    Sentinel jets (pullbacks vanishing to the level) satisfy every
    "at least m" condition with m <= level, and never an exact one.  A prime
    whose table no exact strategy fits within the budget raises
    ``BudgetExceeded``; ``per_prime`` orders the primes.
    """
    polys = list(gens.nonzero())
    if not polys:
        raise ValidationError("cannot count contact along the zero ideal")
    n = len(gens.variables)
    coords = [MultiPoly.coordinates(gens.field, gens.variables)] if query.constraint else []

    def count(q):
        table = contact_order_table(coords + [polys], n, query.level, q, budget=budget)
        return q, _contact_hits(table, query), jet_space_size(n, query.level, q)

    return extract_codim(per_prime(query.primes, count), n * (query.level + 1))


# --------------------------------------------------------------------------
# projective jets
# --------------------------------------------------------------------------


def _proj_cone_count(lam, query, q, budget):
    """The number of cone jets u over diag(t^lam) at one prime: the rows of
    the table of coordinate orders (ord u_1, ..., ord u_r) with a unit
    coordinate whose forms t^lam_j u_j meet the order condition, as one
    masked sum of exact counts."""
    r, level = len(lam), query.level
    coords = MultiPoly.coordinates(GF(q), tuple(f"u{j}" for j in range(1, r + 1)))
    orders, counts = contact_order_table([[u] for u in coords], r, level, q, budget=budget)
    # ord(t^lam_j u_j) = min(lam_j + ord u_j, N+1), exactly, in F_q[t]/(t^(N+1))
    contact = np.minimum(orders + np.array(lam), level + 1).min(1)
    cone = CONSTRAINT_REGISTRY["unit_coordinate"](orders.min(1)) & _meets(contact, query)
    return int(counts[cone].sum())


def proj_count_contact(lam, query: ContactQuery, budget=DEFAULT_BUDGET) -> CountReport:
    """Count projective jets of P^(r-1), r = len(lam), in the fiber over the
    base jet diag(t^lam): those whose forms t^lam_j u_j meet the order
    condition.  Each prime's cone count from ``_proj_cone_count``, in the
    order ``per_prime`` sets, is divided by the unit group size q^N (q-1),
    and the quotient must be exact.  A coordinate constraint is refused: the
    cone has its own, a unit coordinate.
    """
    if not lam:
        raise ValidationError("empty profile")
    if query.constraint is not None:
        raise ValidationError(f"a projective count takes no coordinate constraint, got {query.constraint!r}")
    r, level = len(lam), query.level

    def count(q):
        cone = _proj_cone_count(lam, query, q, budget)
        unit_group = q**level * (q - 1)
        if cone % unit_group != 0:
            raise InternalInvariantError(
                f"cone count {cone} not divisible by the unit group size {unit_group}: "
                "the order condition is not scaling invariant"
            )
        proj_total = (q ** (r * (level + 1)) - q ** (r * level)) // unit_group
        return q, cone // unit_group, proj_total

    return extract_codim(per_prime(query.primes, count), (r - 1) * (level + 1))
