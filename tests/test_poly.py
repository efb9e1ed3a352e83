"""Polynomial ring, parser, and printer."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from arcdet import GF, QQ, MultiPoly, ParseError, parse_poly, poly_to_string
from arcdet.fields import is_prime


class TestParser:
    def test_two_term(self):
        p = parse_poly("x1*x2 + 3*x3^2", ["x1", "x2", "x3"])
        assert len(p.terms) == 2
        assert p.terms[(1, 1, 0)] == 1
        assert p.terms[(0, 0, 2)] == 3

    def test_cancellation(self):
        assert parse_poly("x1 - x1", ["x1"]).is_zero()

    def test_distribution(self):
        p = parse_poly("x1^2*(x2 + 1)", ["x1", "x2"])
        assert p.terms == {(2, 1): 1, (2, 0): 1}

    def test_unary_minus_at_head(self):
        p = parse_poly("-x1 + 2", ["x1"])
        assert p.terms == {(1,): -1, (0,): 2}

    def test_nested_parens(self):
        p = parse_poly("(x1 + 1)*(x1 - 1)", ["x1"])
        assert p.terms == {(2,): 1, (0,): -1}

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x1 + x9", ["x1"])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x1 + * 3", ["x1"])
        assert err.value.position == 5

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_poly("(x1 + 1", ["x1"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x1 )", ["x1"])

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_poly("2 x1", ["x1"])

    def test_y_variables(self):
        p = parse_poly("y1*x1 + y2", ["x1", "y1", "y2"])
        assert len(p.terms) == 2


class TestPrinting:
    def test_roundtrip_simple(self):
        for text in ["x1*x2 + 3*x3^2", "-x1 + 2", "x1^3 - 2*x1*x3 + 7", "0"]:
            p = parse_poly(text, ["x1", "x2", "x3"])
            assert parse_poly(poly_to_string(p), ["x1", "x2", "x3"]) == p

    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 5),
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
            ),
            max_size=6,
        )
    )
    def test_roundtrip_random(self, raw):
        terms = {}
        for c, exps in raw:
            terms[exps] = terms.get(exps, 0) + c
        p = MultiPoly(QQ, ("x1", "x2"), terms)
        assert parse_poly(poly_to_string(p), ["x1", "x2"]) == p


small_polys = st.builds(
    lambda raw: MultiPoly(QQ, ("x1", "x2"), {e: c for c, e in raw}),
    st.lists(
        st.tuples(st.integers(-4, 4), st.tuples(st.integers(0, 2), st.integers(0, 2))),
        max_size=4,
    ),
)


class TestRingAxioms:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(small_polys)
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()


class TestPrimeFieldCoefficients:
    def test_map_coeffs(self):
        p = parse_poly("3*x1 + 5", ["x1"])
        q = p.map_coeffs(GF(5))
        assert q.terms == {(1,): 3}

    def test_fraction_reduction(self):
        p = MultiPoly(QQ, ("x1",), {(1,): Fraction(1, 2)})
        q = p.map_coeffs(GF(3))
        assert q.terms == {(1,): 2}  # 1/2 = 2 mod 3

    def test_huge_modulus_is_refused_before_trial_division(self):
        # the square of the prime 2^61 - 1 has no factor below 2^61, so
        # testing it for primality by trial division would not finish
        with pytest.raises(ValueError, match="exceeds the machine-word limit"):
            GF((2**61 - 1) ** 2)

    @pytest.mark.parametrize(
        "value,prime",
        [(2, True), (2**31 - 1, True), (1, False), (4, False), (True, False), (2.0, False), ((2**61 - 1) ** 2, False)],
    )
    def test_one_prime_predicate(self, value, prime):
        # fields, campaign and document checks and the command line all read it
        assert is_prime(value) is prime


class TestCalculus:
    def test_homogeneous(self):
        assert parse_poly("x1 + x2", ["x1", "x2"]).is_homogeneous(1)
        assert not parse_poly("x1 + 1", ["x1", "x2"]).is_homogeneous()
