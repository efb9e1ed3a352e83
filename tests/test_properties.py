"""Randomized cross-checks between independent computation routes."""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arcdet import GF, IdealGens, JetPoint, MultiPoly, PolyMatrix, TruncSeries, parse_poly
from arcdet.consensus import cyclotomic_fit
from arcdet.counting import (
    _additive_split_distribution,
    _direct_distribution,
    _monomial_distribution,
    _shift_split_distribution,
)
from arcdet.determinantal import lambda_profile, minor_ideal_tower
from arcdet.jets import enumerate_jets, ord_along_ideal, substitute_jet


# --- strategy agreement on randomized additive-split instances -------------

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _poly_from(terms, variables, q):
    p = MultiPoly(GF(q), variables)
    p.terms = {e: c % q for e, c in terms.items() if c % q}
    return p


@given(
    st.dictionaries(exponents, st.integers(1, 4), min_size=1, max_size=3),
    st.dictionaries(exponents, st.integers(1, 4), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_additive_split_agrees_on_random_pairs(terms_a, terms_b):
    """f(x1,x2) + g(x3,x4) splits into blocks; the convolved table must
    match direct enumeration."""
    q, level = 2, 2
    vs = ("x1", "x2", "x3", "x4")
    fa = {(e1, e2, 0, 0): c for (e1, e2), c in terms_a.items()}
    fb = {(0, 0, e1, e2): c for (e1, e2), c in terms_b.items()}
    f = _poly_from({**fa, **fb}, vs, q)
    if f.is_zero():
        return
    direct = _direct_distribution([f], 4, level, q, 1 << 20)
    split = _additive_split_distribution([f], 4, level, q, 10**9, 1 << 20)
    if split is not None:
        assert split == direct


@given(st.dictionaries(exponents, st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_shift_split_agrees_on_random_rest(terms):
    """x1 + rest(x2, x3) against direct enumeration."""
    q, level = 3, 2
    vs = ("x1", "x2", "x3")
    rest = {(0, e1, e2): c for (e1, e2), c in terms.items()}
    rest[(1, 0, 0)] = 1  # the shift variable
    g = _poly_from(rest, vs, q)
    direct = _direct_distribution([g], 3, level, q, 1 << 20)
    split = _shift_split_distribution([g], 3, level, q, 10**9, 1 << 20)
    assert split == direct


monomials = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), st.integers(0, 4))


@given(st.lists(monomials, min_size=1, max_size=4), st.sampled_from([(2, 2), (3, 1)]))
@settings(max_examples=40, deadline=None)
def test_monomial_agrees_on_random_lists(terms, field_level):
    """Lists of monomials c*x^a (c = 0 gives the zero polynomial) against
    direct enumeration."""
    q, level = field_level
    vs = ("x1", "x2", "x3")
    polys = [_poly_from({e: c}, vs, q) for e, c in terms]
    direct = _direct_distribution(polys, 3, level, q, 1 << 20)
    assert _monomial_distribution(polys, 3, level, q) == direct


terms3 = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(0, 2), max_size=3)


@given(st.lists(terms3, min_size=1, max_size=3), st.sampled_from([1 << 20, 16, 5, 1]))
@settings(max_examples=30, deadline=None)
def test_direct_agrees_with_jet_enumeration(polys_terms, cap):
    """Random lists over F_3 at level 1 (constants, zero polynomials and
    unused coordinates included) against the pure-Python jet enumeration, at
    batch caps from one block down to one jet per batch."""
    q, level, vs = 3, 1, ("x1", "x2", "x3")
    polys = [_poly_from(terms, vs, q) for terms in polys_terms]
    want = Counter()
    for jet in enumerate_jets(3, level, q):
        orders = (substitute_jet(p, jet).ord() for p in polys)
        want[tuple(level + 1 if o is None else o for o in orders)] += 1
    assert _direct_distribution(polys, 3, level, q, cap) == want


# --- exact fit recovers planted cell shapes ---------------------------------


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=120)
def test_fit_recovers_planted_exponents(a, b, e, f):
    counts = [(q, q**a * (q - 1) ** b * (q + 1) ** e * (q * q + q + 1) ** f) for q in (2, 3)]
    fitted = cyclotomic_fit(counts)
    assert fitted is not None
    assert fitted[0] == a + b + e + 2 * f


# --- profile containment and tall matrices ----------------------------------


def _random_jet(rng, n, level, q):
    f = GF(q)
    return JetPoint(
        tuple(TruncSeries(f, level, [rng.randrange(q) for _ in range(level + 1)]) for _ in range(n))
    )


def test_stratum_contained_in_contact_locus():
    """A jet with profile lambda has contact order exactly |lambda| along Z_A."""
    rng = random.Random("containment")
    vs = ("x1", "x2", "x3", "x4")
    A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
    z = IdealGens((parse_poly("x1*x4 - x2*x3", vs).map_coeffs(GF(3)),))
    done = 0
    while done < 60:
        jet = _random_jet(rng, 4, 4, 3)
        lam = lambda_profile(A, jet)
        if lam.truncation_flag:
            continue
        assert ord_along_ideal(z, jet) == lam.size
        done += 1


def test_tall_matrix_profiles():
    """s > r: profiles read off a 3 x 2 matrix of distinct variables."""
    rng = random.Random("tall")
    vs = tuple(f"x{i}" for i in range(1, 7))
    A = PolyMatrix([[parse_poly(f"x{2*i + j + 1}", vs) for j in range(2)] for i in range(3)])
    tower = minor_ideal_tower(A)
    assert [len(t.nonzero()) for t in tower] == [6, 3]
    done = 0
    while done < 30:
        jet = _random_jet(rng, 6, 3, 5)
        lam = lambda_profile(A, jet)
        if lam.truncation_flag:
            continue
        assert len(lam.parts) == 2
        gf_tower = [t.map_coeffs(GF(5)) for t in tower]
        assert ord_along_ideal(gf_tower[0], jet) == lam.parts[0]
        assert ord_along_ideal(gf_tower[1], jet) == lam.parts[0] + lam.parts[1]
        done += 1
