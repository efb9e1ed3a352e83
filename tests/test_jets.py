"""Jet enumeration, pullbacks, and contact orders."""

import pytest

from arcdet import (
    GF,
    QQ,
    BudgetExceeded,
    IdealGens,
    JetPoint,
    TruncSeries,
    enumerate_jets,
    jet_space_size,
    ord_along_ideal,
    parse_poly,
    substitute_jet,
)


def jet(q, level, *coord_coeffs):
    f = GF(q)
    return JetPoint(tuple(TruncSeries.from_coeffs(f, level, c) for c in coord_coeffs))


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_jets(1, 0, 2))) == 2
        assert len(list(enumerate_jets(1, 1, 3))) == 9
        assert len(list(enumerate_jets(2, 1, 2))) == 16

    def test_no_duplicates(self):
        seen = {tuple(c.coeffs for c in j.coords) for j in enumerate_jets(2, 1, 3)}
        assert len(seen) == jet_space_size(2, 1, 3)

    def test_odometer_order(self):
        jets = list(enumerate_jets(1, 1, 2))
        assert [j.coords[0].coeffs for j in jets] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_jets(4, 3, 3, budget=100))


class TestSubstitution:
    def test_projection(self):
        p = parse_poly("x1", ["x1"]).map_coeffs(GF(5))
        s = substitute_jet(p, jet(5, 4, [0, 0, 1]))
        assert s.ord() == 2

    def test_symmetric_vanishing(self):
        p = parse_poly("x1*x4 - x2*x3", ["x1", "x2", "x3", "x4"]).map_coeffs(GF(5))
        t = [0, 1]
        s = substitute_jet(p, jet(5, 3, t, t, t, t))
        assert s.ord() is None

    def test_hand_expansion(self):
        # (t + t^2)^2 = t^2 + 2 t^3 + t^4, truncated at level 3
        p = parse_poly("x1^2", ["x1"])
        j = JetPoint((TruncSeries.from_coeffs(QQ, 3, [0, 1, 1]),))
        assert substitute_jet(p, j).coeffs == (0, 0, 1, 2)

    def test_ring_homomorphism(self):
        vs = ["x1", "x2"]
        a = parse_poly("x1 + x2^2", vs).map_coeffs(GF(3))
        b = parse_poly("x1*x2 - 1", vs).map_coeffs(GF(3))
        j = jet(3, 3, [1, 2, 0, 1], [0, 1, 1, 0])
        assert substitute_jet(a * b, j) == substitute_jet(a, j) * substitute_jet(b, j)
        assert substitute_jet(a + b, j) == substitute_jet(a, j) + substitute_jet(b, j)

    def test_variable_count_mismatch(self):
        p = parse_poly("x1 + x2", ["x1", "x2"]).map_coeffs(GF(3))
        with pytest.raises(ValueError):
            substitute_jet(p, jet(3, 2, [1, 0, 0]))


class TestOrdAlongIdeal:
    def test_min_of_orders(self):
        vs = ["x1", "x2"]
        gens = IdealGens(tuple(parse_poly(e, vs).map_coeffs(GF(5)) for e in ("x1", "x2")))
        assert ord_along_ideal(gens, jet(5, 4, [0, 0, 1], [0, 0, 0, 1])) == 2

    def test_determinant(self):
        vs = ["x1", "x2", "x3", "x4"]
        gens = IdealGens((parse_poly("x1*x4 - x2*x3", vs).map_coeffs(GF(5)),))
        j = jet(5, 3, [0, 1], [0], [0], [0, 1])
        assert ord_along_ideal(gens, j) == 2

    def test_sentinel(self):
        gens = IdealGens((parse_poly("x1", ["x1"]).map_coeffs(GF(5)),))
        assert ord_along_ideal(gens, jet(5, 2, [0, 0, 0])) is None
