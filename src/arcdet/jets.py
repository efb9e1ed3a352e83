"""Jets of affine space over prime fields and contact orders along ideals.

A jet at level N over F_q is an n-tuple of truncated series; the full jet
space has q^(n(N+1)) points.  Enumeration follows a fixed odometer over
coefficients so that runs are reproducible: jet number k has base-q digits
d_0, d_1, ... (least significant first), and coordinate i takes digits
i(N+1) .. i(N+1)+N as its t^0 .. t^N coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .fields import GF
from .poly import MultiPoly
from .series import TruncSeries

DEFAULT_BUDGET = 2**28


@dataclass(frozen=True)
class JetPoint:
    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("jet needs at least one coordinate")
        level = coords[0].level
        field = coords[0].field
        for c in coords:
            if not isinstance(c, TruncSeries):
                raise TypeError("jet coordinates must be TruncSeries")
            if c.level != level or c.field != field:
                raise ValueError("jet coordinates must share one level and field")
        object.__setattr__(self, "coords", coords)

    @property
    def level(self):
        return self.coords[0].level

    @property
    def field(self):
        return self.coords[0].field

    @property
    def dim(self):
        return len(self.coords)

    def __repr__(self):
        return "Jet(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class IdealGens:
    """A finite generating set for an ideal, over a common variable list."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        variables = gens[0].variables
        field = gens[0].field
        for g in gens:
            if not isinstance(g, MultiPoly):
                raise TypeError("generators must be MultiPoly")
            if g.variables != variables or g.field != field:
                raise ValueError("generators must share one variable list and field")
        object.__setattr__(self, "generators", gens)

    @property
    def variables(self):
        return self.generators[0].variables

    @property
    def field(self):
        return self.generators[0].field

    def nonzero(self):
        return [g for g in self.generators if not g.is_zero()]

    def is_zero_ideal(self):
        return all(g.is_zero() for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def jet_from_digits(digits, n, level, q):
    """Build the JetPoint for one odometer state (digits least-significant-first)."""
    field = GF(q)
    coords = []
    for i in range(n):
        coeffs = digits[i * (level + 1) : (i + 1) * (level + 1)]
        coords.append(TruncSeries(field, level, coeffs))
    return JetPoint(tuple(coords))


def jet_space_size(n, level, q):
    return q ** (n * (level + 1))


def enumerate_jets(n, level, q, budget=DEFAULT_BUDGET):
    """Yield every jet of A^n at the given level over F_q exactly once.

    Deterministic odometer order over coefficients.  Refuses to start when
    the space exceeds the budget.
    """
    total = jet_space_size(n, level, q)
    if total > budget:
        raise BudgetExceeded(
            f"jet space has {total} points, over the budget {budget}"
        )
    width = n * (level + 1)
    digits = [0] * width
    for _ in range(total):
        yield jet_from_digits(digits, n, level, q)
        for pos in range(width):
            digits[pos] += 1
            if digits[pos] < q:
                break
            digits[pos] = 0


def substitute_jet(p: MultiPoly, jet: JetPoint) -> TruncSeries:
    """Pullback p(gamma(t)) of a polynomial along a jet, truncated at the jet level."""
    return p.substitute_series(jet.coords)


def ord_along_ideal(gens: IdealGens, jet: JetPoint):
    """Contact order of a jet along the ideal: min over generators of the
    pullback order.  None (the truncation sentinel) iff every pullback
    vanishes identically at this level."""
    if len(gens.variables) != jet.dim:
        raise ValueError(
            f"ideal has {len(gens.variables)} variables but jet has {jet.dim} coordinates"
        )
    best = None
    for g in gens:
        o = substitute_jet(g, jet).ord()
        if o is not None and (best is None or o < best):
            best = o
            if best == 0:
                return 0
    return best
