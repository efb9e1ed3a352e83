"""Randomized cross-checks between independent computation routes."""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arcdet import GF, IdealGens, JetPoint, MultiPoly, PolyMatrix, TruncSeries, parse_poly
from arcdet.consensus import _v_adic, cyclotomic_fit
from arcdet.counting import (
    _direct_distribution,
    _grading,
    _monomial_distribution,
    _plans,
    contact_order_table,
    table_cache,
)
from arcdet.determinantal import lambda_profile, minor_ideal_tower
from arcdet.jets import enumerate_jets, ord_along_ideal, substitute_jet
from table_dicts import as_dict


# --- strategy agreement on randomized additive-split instances -------------

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


def planned(name, polys, n, level, q, cap=1 << 20):
    """The table counted by the plan ``name`` of ``_plans``, which must apply."""
    plans = {plan[0]: plan for plan in _plans(polys, n, level, q)}
    return as_dict(plans[name][3](cap))


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
    direct = as_dict(_direct_distribution([f], 4, level, q, 1 << 20))
    # no term holds a variable of each pair: two or more term components, one polynomial
    assert planned("additive", [f], 4, level, q) == direct


@given(st.dictionaries(exponents, st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_shift_split_agrees_on_random_rest(terms):
    """x1 + rest(x2, x3) against direct enumeration."""
    q, level = 3, 2
    vs = ("x1", "x2", "x3")
    rest = {(0, e1, e2): c for (e1, e2), c in terms.items()}
    rest[(1, 0, 0)] = 1  # the shift variable
    g = _poly_from(rest, vs, q)
    direct = as_dict(_direct_distribution([g], 3, level, q, 1 << 20))
    assert planned("shift", [g], 3, level, q) == direct


monomials = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), st.integers(0, 4))


@given(st.lists(monomials, min_size=1, max_size=4), st.sampled_from([(2, 2), (3, 1)]))
@settings(max_examples=40, deadline=None)
def test_monomial_agrees_on_random_lists(terms, field_level):
    """Lists of monomials c*x^a (c = 0 gives the zero polynomial) against
    direct enumeration."""
    q, level = field_level
    vs = ("x1", "x2", "x3")
    polys = [_poly_from({e: c}, vs, q) for e, c in terms]
    direct = as_dict(_direct_distribution(polys, 3, level, q, 1 << 20))
    assert as_dict(_monomial_distribution(polys, 3, level, q)) == direct


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
    assert as_dict(_direct_distribution(polys, 3, level, q, cap)) == want


pair_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 1), max_size=2)


@given(st.lists(st.tuples(pair_terms, pair_terms), min_size=1, max_size=3), st.sampled_from([1 << 20, 16, 3]))
@settings(max_examples=30, deadline=None)
def test_block_states_agree_with_jet_enumeration(parts, cap):
    """Sums f(x1, x2) + g(x3, x4) over F_2 at level 1, so that no term joins
    the pairs: several polynomials span the blocks, some lie in one, some are
    constants or zero.  Direct enumeration, as pairs of block states, against
    the pure-Python jet enumeration and every other strategy that applies, at
    batch caps from one block down to three jets per batch."""
    q, level, vs = 2, 1, ("x1", "x2", "x3", "x4")
    polys = []
    for fa, fb in parts:
        terms = {(a, b, 0, 0): c for (a, b), c in fa.items()}
        terms.update({(0, 0, a, b): c for (a, b), c in fb.items()})
        polys.append(_poly_from(terms, vs, q))
    want = Counter()
    for jet in enumerate_jets(4, level, q):
        orders = (substitute_jet(p, jet).ord() for p in polys)
        want[tuple(level + 1 if o is None else o for o in orders)] += 1
    assert as_dict(_direct_distribution(polys, 4, level, q, cap)) == want
    for name, _, _, count in _plans(polys, 4, level, q)[1:]:
        assert as_dict(count(cap)) == want, name


def _graded_terms(partial):
    """Terms of one polynomial over x1, x2, x3, homogeneous of a degree 1-3 in
    every coordinate, or only in x1 and x2 (``partial``), with x3 free."""
    def terms(degree):
        heads = st.tuples(st.integers(0, degree), st.integers(0, 2))
        if partial:  # (a, degree - a) in x1, x2 and any power of x3
            exps = heads.map(lambda h: (h[0], degree - h[0], h[1]))
        else:
            exps = heads.filter(lambda h: h[0] + h[1] <= degree).map(lambda h: (h[0], h[1], degree - h[0] - h[1]))
        return st.dictionaries(exps, st.integers(0, 2), min_size=1, max_size=3)

    return st.integers(1, 3).flatmap(terms)


@given(
    st.booleans().flatmap(lambda partial: st.lists(_graded_terms(partial), min_size=1, max_size=3)),
    st.sampled_from([(2, 2), (3, 1)]),
    st.sampled_from([16, 5, 1]),
)
@settings(max_examples=40, deadline=None)
def test_graded_lists_agree_with_jet_enumeration(polys_terms, field_level, cap):
    """Lists graded in all three coordinates, or in x1 and x2 with x3
    ungraded, of degrees 1-3 (a coefficient 0 mod q may drop terms or leave
    the zero polynomial).  At these caps a block of the one term component
    walks one unit-normalised jet per orbit; the table must match the
    pure-Python jet enumeration and every other strategy that applies."""
    q, level = field_level
    vs = ("x1", "x2", "x3")
    polys = [_poly_from(terms, vs, q) for terms in polys_terms]
    assert _grading(polys, 3) is not None
    want = Counter()
    for jet in enumerate_jets(3, level, q):
        orders = (substitute_jet(p, jet).ord() for p in polys)
        want[tuple(level + 1 if o is None else o for o in orders)] += 1
    for name, _, _, count in _plans(polys, 3, level, q):
        assert as_dict(count(cap)) == want, name


# --- contact orders against the jets one by one ------------------------------


@given(
    st.lists(st.lists(st.dictionaries(exponents, st.integers(1, 2), min_size=1, max_size=3), min_size=1, max_size=3),
             min_size=1, max_size=3),
    st.integers(0, 2),
    st.integers(0, 8),
    st.sampled_from([(2, 2), (3, 1)]),
    st.sampled_from(["cheapest", "direct"]),
)
@settings(max_examples=40, deadline=None)
def test_contact_order_table_agrees_with_jet_enumeration(ideal_terms, constant, slot, field_level, prefer):
    """Lists of one to three ideals of one to three generators over x1, x2, one
    of them the constant ``constant`` (0 is the zero polynomial), against the
    pure-Python contact orders of every jet, outside a table scope and inside
    one, where the second call is served from the held table."""
    q, level = field_level
    vs = ("x1", "x2")
    ideals = [[_poly_from(terms, vs, q) for terms in gens] for gens in ideal_terms]
    gens = ideals[slot % len(ideals)]
    at = slot % len(gens) if len(gens) == 3 else len(gens)  # replace a generator, or add one
    gens[at : at + 1] = [_poly_from({(0, 0): constant}, vs, q)]
    want = Counter()
    for jet in enumerate_jets(2, level, q):
        orders = (ord_along_ideal(IdealGens(tuple(g)), jet) for g in ideals)
        want[tuple(level + 1 if o is None else o for o in orders)] += 1
    assert as_dict(contact_order_table(ideals, 2, level, q, prefer=prefer)) == want
    with table_cache() as scope:
        assert as_dict(contact_order_table(ideals, 2, level, q, prefer=prefer)) == want
        assert as_dict(contact_order_table(ideals, 2, level, q, prefer=prefer)) == want
    assert (scope.misses, scope.hits) == (1, 1)


# --- a held table truncates to the tables of lower levels -------------------


@given(
    st.lists(st.lists(st.dictionaries(exponents, st.just(1), min_size=1, max_size=3), min_size=1, max_size=2),
             min_size=1, max_size=3),
    st.sampled_from(["cheapest", "direct"]),
)
@settings(max_examples=30, deadline=None)
def test_truncated_tables_equal_counted_ones(ideal_terms, prefer):
    """The level-3 contact-order table held in a scope, truncated to each
    lower level, equals the table counted at that level."""
    q, vs = 2, ("x1", "x2")
    ideals = [[_poly_from(terms, vs, q) for terms in gens] for gens in ideal_terms]
    with table_cache() as scope:
        contact_order_table(ideals, 2, 3, q, prefer=prefer)
        truncated = [as_dict(contact_order_table(ideals, 2, level, q, prefer=prefer)) for level in (0, 1, 2)]
    assert (scope.misses, scope.hits) == (1, 3)
    assert truncated == [as_dict(contact_order_table(ideals, 2, level, q, prefer=prefer)) for level in (0, 1, 2)]


# --- exact fit recovers planted cell shapes ---------------------------------


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=120)
def test_fit_recovers_planted_exponents(a, b, e, f):
    counts = [(q, q**a * (q - 1) ** b * (q + 1) ** e * (q * q + q + 1) ** f) for q in (2, 3)]
    fitted = cyclotomic_fit(counts)
    assert fitted is not None
    assert fitted[0] == a + b + e + 2 * f


def _triple_search_fit(counts):
    """The oracle of ``cyclotomic_fit``: the same fit, with f searched for
    every (b, e) instead of pinned by one prime's rest."""
    counts = sorted(set((q, c) for q, c in counts))
    if len(counts) < 2 or any(c <= 0 for _, c in counts):
        return None
    if len({q for q, _ in counts}) < 2:
        return None
    a = None
    for q, c in counts:
        va, _ = _v_adic(c, q)
        if a is None:
            a = va
        elif va != a:
            return None
    rests = {q: c // q**a for q, c in counts}
    bound = max(r.bit_length() for r in rests.values()) + 1
    big = [q for q in rests if q > 2]
    matches = []
    for b in range(bound + 1):
        if any((q - 1) ** b > rests[q] for q in big):
            break
        for e in range(bound + 1):
            be = {q: (q - 1) ** b * (q + 1) ** e for q in rests}
            if any(be[q] > rests[q] for q in rests):
                break
            for f in range(bound + 1):
                val = {q: be[q] * (q * q + q + 1) ** f for q in rests}
                if any(val[q] > rests[q] for q in rests):
                    break
                if all(val[q] == rests[q] for q in rests):
                    matches.append((b, e, f))
    dims = {a + b + e + 2 * f for b, e, f in matches}
    if len(dims) != 1:
        return None
    b, e, f = matches[0]
    return dims.pop(), f"q^{a}(q-1)^{b}(q+1)^{e}(q^2+q+1)^{f}"


@given(
    st.sampled_from([1, 2, 3, 6]),
    st.integers(0, 6),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 2),
    st.lists(st.sampled_from([2, 3, 5, 7]), min_size=2, max_size=3, unique=True),
)
@settings(max_examples=200)
def test_fit_agrees_with_the_triple_search(k, a, b, e, f, primes):
    """Planted cells times a leading coefficient k, which can make both fits
    fail or fit a wrong shape: the same (dim, shape) or None from both."""
    counts = [(q, k * q**a * (q - 1) ** b * (q + 1) ** e * (q * q + q + 1) ** f) for q in primes]
    assert cyclotomic_fit(counts) == _triple_search_fit(counts)


@given(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10**6)), min_size=2, max_size=3))
@settings(max_examples=200)
def test_fit_agrees_with_the_triple_search_on_any_counts(counts):
    assert cyclotomic_fit(counts) == _triple_search_fit(counts)


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
