"""Truncated power series arithmetic and the order function."""

import pytest
from hypothesis import given, settings, strategies as st

from arcdet import GF, QQ, TruncSeries


def S(coeffs, level=None, field=GF(5)):
    level = (len(coeffs) - 1) if level is None else level
    return TruncSeries.from_coeffs(field, level, coeffs)


class TestOrd:
    def test_plain(self):
        assert S([0, 0, 0, 1, 1], level=5).ord() == 3

    def test_unit(self):
        assert S([1, 1]).ord() == 0

    def test_sentinel(self):
        assert S([0, 0, 0], level=2).ord() is None


class TestArithmetic:
    def test_mul_truncates(self):
        t = S([0, 1], level=3)
        assert (t * t).coeffs == (0, 0, 1, 0)
        assert ((t * t) * (t * t)).coeffs == (0, 0, 0, 0)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            S([1], level=1) + S([1], level=2)

    def test_inverse(self):
        s = S([1, 2, 3], level=4)
        one = TruncSeries.one(GF(5), 4)
        assert s * s.inverse() == one

    def test_inverse_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            S([0, 1]).inverse()

    def test_rational_series(self):
        s = TruncSeries.from_coeffs(QQ, 2, [1, -1])
        inv = s.inverse()
        assert inv.coeffs == (1, 1, 1)


series_strategy = st.builds(
    lambda coeffs: TruncSeries.from_coeffs(GF(5), 4, coeffs),
    st.lists(st.integers(0, 4), min_size=5, max_size=5),
)


class TestProperties:
    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + (-a)).ord() is None

    @given(series_strategy, series_strategy)
    @settings(max_examples=100)
    def test_valuation_below_truncation(self, a, b):
        oa, ob = a.ord(), b.ord()
        if oa is None or ob is None:
            return
        if oa + ob <= 4:
            assert (a * b).ord() == oa + ob

    @given(series_strategy)
    def test_unit_inverse_roundtrip(self, a):
        if a.is_unit():
            assert (a * a.inverse()) == TruncSeries.one(GF(5), 4)
