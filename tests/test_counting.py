"""The vectorized counting engine against the pure-Python oracle, the
exact equivalence of its four strategies, and the planner that picks one."""

import hashlib
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from itertools import product
from math import prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import arcdet.counting
import arcdet.harness
from arcdet import GF, BudgetExceeded, IdealGens, MultiPoly, PolyMatrix, enumerate_jets, parse_poly
from arcdet.counting import (
    RING_TABLE_CAP,
    _block_states,
    _blocks,
    _direct_distribution,
    _grading,
    _mesh_batches,
    _monomial_distribution,
    _order_batches,
    _pair_combine,
    _plans,
    _prefix_combine,
    _tally,
    SeriesRing,
    contact_order_table,
    eval_poly_codes,
    ord_value_counts,
    ord_vector_distribution,
    per_prime,
    ring_tables,
    series_ring,
    table_cache,
)
from arcdet.contact import MODE_EXACT, ContactQuery, count_contact
from arcdet.determinantal import DeterminantalPair, minor_ideal_tower
from arcdet.errors import InternalInvariantError, ValidationError
from arcdet.harness import Campaign, builtin_corpus, run_campaign
from arcdet.jets import ord_along_ideal, substitute_jet
from arcdet.series import TruncSeries
from table_dicts import as_dict


def brute_table(polys, n, level, q):
    """Pure-Python oracle for the order-vector distribution."""
    gf = GF(q)
    mapped = [p if p.field == gf else p.map_coeffs(gf) for p in polys]
    out = Counter()
    for jet in enumerate_jets(n, level, q):
        key = []
        for p in mapped:
            o = substitute_jet(p, jet).ord()
            key.append(level + 1 if o is None else o)
        out[tuple(key)] += 1
    return dict(out)


class TestAgainstOracle:
    @pytest.mark.parametrize("q", [2, 3])
    def test_single_poly(self, q):
        vs = ("x1", "x2")
        f = parse_poly("x1*x2 + x2^2", vs)
        assert as_dict(ord_vector_distribution([f], 2, 2, q)) == brute_table([f], 2, 2, q)

    def test_multi_poly_with_coords(self):
        vs = ("x1", "x2")
        polys = [
            MultiPoly.variable(GF(3), vs, "x1"),
            MultiPoly.variable(GF(3), vs, "x2"),
            parse_poly("x1*x2", vs).map_coeffs(GF(3)),
        ]
        assert as_dict(ord_vector_distribution(polys, 2, 2, 3)) == brute_table(polys, 2, 2, 3)

    def test_cubic(self):
        vs = ("x1",)
        f = parse_poly("x1^3 + 2*x1", vs)
        assert as_dict(ord_vector_distribution([f], 1, 4, 5)) == brute_table([f], 1, 4, 5)


def planned(name, polys, n, level, q):
    """The table counted by the plan ``name`` of ``_plans``, which must apply."""
    plans = {plan[0]: plan for plan in _plans(polys, n, level, q)}
    return as_dict(plans[name][3]())


def plan_names(polys, n, level, q):
    return [plan[0] for plan in _plans(polys, n, level, q)]


def brute_contact_table(ideals, n, level, q):
    """Pure-Python oracle: jets counted by their contact order along each ideal."""
    gf = GF(q)
    mapped = [IdealGens(tuple(g.map_coeffs(gf) for g in gens)) for gens in ideals]
    out = Counter()
    for jet in enumerate_jets(n, level, q):
        orders = (ord_along_ideal(ideal, jet) for ideal in mapped)
        out[tuple(level + 1 if o is None else o for o in orders)] += 1
    return dict(out)


class TestContactOrderTable:
    @pytest.mark.parametrize("prefer", ["cheapest", "direct"])
    def test_minor_tower(self, prefer):
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
        tower = [ideal.nonzero() for ideal in minor_ideal_tower(A)]
        assert as_dict(contact_order_table(tower, 4, 1, 2, prefer=prefer)) == brute_contact_table(tower, 4, 1, 2)

    @pytest.mark.parametrize("prefer", ["cheapest", "direct"])
    def test_coordinates_and_product(self, prefer):
        vs = ("x1", "x2")
        x1, x2 = MultiPoly.coordinates(GF(3), vs)
        ideals = [[x1], [x2], [x1, x2], [parse_poly("x1*x2", vs)]]
        assert as_dict(contact_order_table(ideals, 2, 1, 3, prefer=prefer)) == brute_contact_table(ideals, 2, 1, 3)

    def test_empty_ideal_is_refused(self):
        x1 = parse_poly("x1", ("x1",))
        with pytest.raises(ValidationError):
            contact_order_table([[x1], []], 1, 1, 2)

    @pytest.mark.parametrize(
        "strategy, prefer", [("_direct_distribution", "direct"), ("_monomial_distribution", "cheapest")]
    )
    def test_a_dropped_row_is_caught(self, monkeypatch, strategy, prefer):
        count = getattr(arcdet.counting, strategy)

        def drop_last(*args):
            keys, counts = count(*args)
            return keys[:-1], counts[:-1]

        monkeypatch.setattr(arcdet.counting, strategy, drop_last)
        x1x2 = parse_poly("x1*x2", ("x1", "x2"))
        with pytest.raises(InternalInvariantError, match="counted"):
            contact_order_table([[x1x2]], 2, 2, 3, prefer=prefer)

    def test_contact_rows_past_int64_are_compared_whole(self):
        # 41 ideals at level 1 take 3^41 > 2^63 contact keys: the monomial
        # strategy and the contact reduction compare rows, not codes
        x1 = parse_poly("x1", ("x1",))
        ideals = [[x1**e] for e in range(1, 40)] + [[x1**2, x1], [x1**3]]
        assert 3 ** len(ideals) > 2**63
        assert as_dict(contact_order_table(ideals, 1, 1, 3)) == brute_contact_table(ideals, 1, 1, 3)


class TestPerPrime:
    def test_counts_largest_first_and_reports_in_order(self):
        called = []

        def count(q):
            called.append(q)
            return q * q

        assert per_prime((3, 7, 2, 5), count) == [9, 49, 4, 25]
        assert called == [7, 5, 3, 2]

    def test_a_repeated_prime_is_refused_before_any_count(self):
        called = []
        with pytest.raises(ValidationError, match="each prime once"):
            per_prime((2, 3, 2), called.append)
        assert called == []


def record_run_scopes(monkeypatch):
    """The table-cache scopes that ``run_campaign`` opens, in order."""
    scopes = []

    @contextmanager
    def recording():
        with table_cache() as scope:
            scopes.append(scope)
            yield scope

    monkeypatch.setattr(arcdet.harness, "table_cache", recording)
    return scopes


class TestTableCache:
    def test_fiber_grid_counts_each_coordinate_table_once(self, monkeypatch):
        # 180 cells x 2 primes read 4 coordinate tables: r, q in {2, 3}
        scopes = record_run_scopes(monkeypatch)
        run_campaign(builtin_corpus()["fiber-formula-grid"])
        assert (scopes[0].misses, scopes[0].hits) == (4, 176)

    @pytest.mark.parametrize("seed", range(8))
    def test_strata_counts_each_table_once_in_any_task_order(self, monkeypatch, seed):
        # the tower's table (enumerated) and Z's (cheapest) at q = 2 and 3, each
        # counted once at level 3 since the deepest tasks run first; the report
        # still lists the tasks in their given order
        campaign = builtin_corpus()["stratification-generic-2x2"]
        tasks = list(campaign.tasks)
        random.Random(seed).shuffle(tasks)
        scopes = record_run_scopes(monkeypatch)
        report = run_campaign(Campaign.make(campaign.name, campaign.input_dict(), tasks))
        assert scopes[0].misses == 4
        assert [r.name for r in report.results] == [t.name for t in tasks]

    def test_cone_grid_shares_its_tables(self, monkeypatch):
        # 72 side lookups of 4 tables (n = 2 and 6 joint variables, q = 2 and 3),
        # each held at its deepest level: 3, or 1 where the budget refuses the
        # 3^18 and 3^24 jets of levels 2 and 3; the 10 refused lookups count
        # nothing and are neither hits nor misses
        scopes = record_run_scopes(monkeypatch)
        run_campaign(builtin_corpus()["cone-comparison-basic"])
        held = sorted((n, q, level) for (_, n, q, _, _), (level, _) in scopes[0].tables.items())
        assert held == [(2, 2, 3), (2, 3, 3), (6, 2, 3), (6, 3, 1)]
        assert (scopes[0].misses, scopes[0].hits) == (4, 58)

    @pytest.mark.parametrize("seed", range(8))
    def test_cone_counts_each_table_once_in_any_task_order(self, monkeypatch, seed):
        # a level-3 cell at q = 3 reads only its shifted side, at level 3 - p,
        # so among the level-3 cells the smaller p runs first and the n = 6,
        # q = 3 table is counted once, at level 1
        campaign = builtin_corpus()["cone-comparison-basic"]
        tasks = list(campaign.tasks)
        random.Random(seed).shuffle(tasks)
        scopes = record_run_scopes(monkeypatch)
        report = run_campaign(Campaign.make(campaign.name, campaign.input_dict(), tasks))
        assert (scopes[0].misses, scopes[0].hits) == (4, 58)
        assert [r.name for r in report.results] == [t.name for t in tasks]

    def test_the_deepest_table_serves_every_shallower_level(self):
        vs = ("x1", "x2")
        x1, x2, f = (parse_poly(e, vs) for e in ("x1", "x2", "x1*x2 + x1^3"))
        ideals = [[x1, x2], [f], [x2]]
        with table_cache() as scope:
            assert as_dict(contact_order_table(ideals, 2, 3, 2)) == brute_contact_table(ideals, 2, 3, 2)
            for level in (2, 1, 0):
                assert as_dict(contact_order_table(ideals, 2, level, 2)) == brute_contact_table(ideals, 2, level, 2)
        assert (scope.misses, scope.hits) == (1, 3)

    def test_a_deeper_table_replaces_the_held_one(self):
        # one component, no grading, no lone shift: only enumeration counts it,
        # and the budget of 2^8 jets admits levels up to 3 at n = 2, q = 2
        f = parse_poly("x1*x2 + x1^3", ("x1", "x2"))
        with table_cache() as scope:
            contact_order_table([[f]], 2, 1, 2, budget=2**8)
            contact_order_table([[f]], 2, 3, 2, budget=2**8)
            assert [level for level, _ in scope.tables.values()] == [3]
            with pytest.raises(BudgetExceeded):
                contact_order_table([[f]], 2, 4, 2, budget=2**8)
            ((level, table),) = scope.tables.values()
            assert level == 3 and as_dict(table) == brute_contact_table([[f]], 2, 3, 2)
            assert as_dict(contact_order_table([[f]], 2, 2, 2, budget=2**8)) == brute_contact_table([[f]], 2, 2, 2)
        assert (scope.misses, scope.hits) == (2, 1)  # the refused level 4 is no miss

    def test_a_held_count_that_is_not_whole_fibers_is_caught(self):
        x1 = parse_poly("x1", ("x1",))
        with table_cache() as scope:
            contact_order_table([[x1]], 1, 2, 3)
            ((key, (level, (keys, counts))),) = scope.tables.items()
            counts = counts.copy()
            counts[(keys == 0).all(axis=1)] += 1
            scope.tables[key] = (level, (keys, counts))
            with pytest.raises(InternalInvariantError, match="whole fibers"):
                contact_order_table([[x1]], 1, 1, 3)

    def test_nothing_is_reused_across_runs(self, monkeypatch):
        scopes = record_run_scopes(monkeypatch)
        campaign = builtin_corpus()["fiber-formula-grid"]
        first, second = run_campaign(campaign), run_campaign(campaign)
        assert first.canonical_json() == second.canonical_json()
        assert [(s.misses, s.hits) for s in scopes] == [(4, 176), (4, 176)]

    def test_outside_a_scope_nothing_is_stored(self):
        x1 = parse_poly("x1", ("x1",))
        with table_cache() as scope:
            pass
        contact_order_table([[x1]], 1, 2, 3)
        assert arcdet.counting._TABLE_CACHE.get() is None
        assert (scope.tables, scope.hits, scope.misses) == ({}, 0, 0)

    def test_prefer_direct_is_its_own_table(self, monkeypatch):
        calls = []
        direct = arcdet.counting._direct_distribution

        def counted(*args):
            calls.append(args)
            return direct(*args)

        monkeypatch.setattr(arcdet.counting, "_direct_distribution", counted)
        x1x2 = parse_poly("x1*x2", ("x1", "x2"))
        with table_cache() as scope:
            cheapest = as_dict(contact_order_table([[x1x2]], 2, 2, 3))  # the monomial strategy
            assert calls == []
            assert as_dict(contact_order_table([[x1x2]], 2, 2, 3, prefer="direct")) == cheapest
            assert len(calls) == 1
        assert (scope.misses, scope.hits) == (2, 0)

    def test_a_table_is_not_served_past_its_budget(self):
        # one component, not monomial, no lone shift: only enumeration counts it
        f = parse_poly("x1*x2 + x1^2", ("x1", "x2"))
        with table_cache() as scope:
            contact_order_table([[f]], 2, 1, 2, budget=10**6)
            with pytest.raises(BudgetExceeded):
                contact_order_table([[f]], 2, 1, 2, budget=10)
            assert len(scope.tables) == 1
            with pytest.raises(BudgetExceeded):
                contact_order_table([[f]], 2, 1, 2, budget=10)
        assert (scope.misses, scope.hits) == (1, 0)  # the two refusals are no misses

    def test_key_is_the_reduction_mod_q(self):
        vs = ("x1", "x2")
        x1, x2, f = (parse_poly(e, vs) for e in ("x1", "x2", "x1 + 3*x2"))
        with table_cache() as scope:
            # x1 + 3*x2 is x1 over GF(3): one entry
            assert as_dict(contact_order_table([[f]], 2, 1, 3)) == as_dict(contact_order_table([[x1]], 2, 1, 3))
            assert (len(scope.tables), scope.hits) == (1, 1)
            contact_order_table([[x2]], 2, 1, 3)
            assert len(scope.tables) == 2

    def test_returned_tables_are_read_only(self):
        # a counted table, the held one served again, a truncation of it, and
        # a table counted outside every scope
        x1 = parse_poly("x1", ("x1",))
        with table_cache():
            tables = [contact_order_table([[x1]], 1, 1, 2) for _ in range(2)]
            assert as_dict(tables[0]) == {(0,): 2, (1,): 1, (2,): 1}
            tables.append(contact_order_table([[x1]], 1, 0, 2))
            assert as_dict(tables[2]) == {(0,): 1, (1,): 1}
        tables.append(contact_order_table([[x1]], 1, 1, 2))
        for keys, counts in tables:
            assert not keys.flags.writeable and not counts.flags.writeable
            for array in (keys, counts):
                with pytest.raises(ValueError):
                    array[0] = 0


class TestStrategyEquivalence:
    def test_additive_split_matches_direct(self):
        vs = ("x1", "x2", "x3", "x4")
        det = parse_poly("x1*x4 - x2*x3", vs).map_coeffs(GF(3))
        coords = [MultiPoly.variable(GF(3), vs, v) for v in vs]
        polys = coords + [det]
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution(polys, 4, 2, 3))
        assert planned("additive", polys, 4, 2, 3) == d

    def test_additive_split_three_components(self):
        vs = ("x1", "x2", "x3")
        f = parse_poly("x1*x2 + x3", vs).map_coeffs(GF(2))
        polys = [MultiPoly.variable(GF(2), vs, "x3"), f]
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution(polys, 3, 2, 2))
        assert planned("additive", polys, 3, 2, 2) == d

    def test_additive_split_matches_values_with_their_negatives(self):
        # over F_3 the squares are not closed under negation: a sum of squares
        # cancels only where -(x2^2) matches x1^2, never where x2^2 does
        f = parse_poly("x1^2 + x2^2", ("x1", "x2")).map_coeffs(GF(3))
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution([f], 2, 2, 3))
        assert planned("additive", [f], 2, 2, 3) == d

    def test_shift_split_matches_direct(self):
        cv = ("x1", "x2", "x3", "x4", "y2")
        g1 = parse_poly("x1 + x2*y2", cv).map_coeffs(GF(3))
        g2 = parse_poly("x3 + x4*y2", cv).map_coeffs(GF(3))
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution([g1, g2], 5, 1, 3))
        assert planned("shift", [g1, g2], 5, 1, 3) == d

    def test_shift_split_partial(self):
        tv = ("x1", "x2", "x3", "y2")
        g1 = parse_poly("x1 + x2 - x2*y2", tv).map_coeffs(GF(2))
        g2 = parse_poly("-x2 + x2*y2 + x3*y2", tv).map_coeffs(GF(2))
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution([g1, g2], 4, 2, 2))
        assert planned("shift", [g1, g2], 4, 2, 2) == d

    def test_shift_split_refuses_repeated_variable(self):
        vs = ("x1", "x2")
        g1 = parse_poly("x1 + x2", vs).map_coeffs(GF(3))
        g2 = parse_poly("x1*x2", vs).map_coeffs(GF(3))  # x1 occurs twice overall
        assert "shift" not in plan_names([g1, g2], 2, 1, 3)

    @pytest.mark.parametrize("q, level", [(2, 2), (3, 1), (5, 1)])
    def test_monomial_matches_direct(self, q, level):
        vs = ("x1", "x2", "x3", "x4")
        # coefficients other than 1, powers, a constant, the zero polynomial,
        # variables repeated across the list and one variable (x4) in none
        exprs = ["x1", "2*x1^2*x2", "x2^3", "3", "x1*x3", "4*x3^2*x1"]
        polys = [parse_poly(e, vs).map_coeffs(GF(q)) for e in exprs] + [MultiPoly(GF(q), vs)]
        with patch.object(arcdet.counting, "BATCH_CAP", 1 << 20):
            d = as_dict(_direct_distribution(polys, 4, level, q))
        assert as_dict(_monomial_distribution(polys, 4, level, q)) == d

    def test_cheapest_prefers_split(self):
        vs = ("x1", "x2", "x3", "x4")
        det = parse_poly("x1*x4 - x2*x3", vs)
        # over budget for direct, split still exact
        t = as_dict(ord_vector_distribution([det], 4, 2, 3, budget=10**5, prefer="cheapest"))
        d = as_dict(ord_vector_distribution([det], 4, 2, 3, budget=10**9, prefer="direct"))
        assert t == d


class TestPlans:
    """One plan per strategy, one budget rule, and sum-checked enumerations."""

    def test_shift_split_with_no_kept_variable(self):
        # x1 is a shift variable and no variable is kept: the constant and the
        # zero polynomial still get their orders, 0 and the sentinel
        vs = ("x1",)
        polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in ("x1", "2", "0")]
        want = {(0, 0, 2): 6, (1, 0, 2): 2, (2, 0, 2): 1}
        assert as_dict(_direct_distribution(polys, 1, 1, 3)) == want
        assert planned("shift", polys, 1, 1, 3) == want
        assert as_dict(ord_vector_distribution(polys, 1, 1, 3)) == want

    def test_unit_generator_gives_contact_order_zero(self):
        vs = ("x1",)
        ideal = IdealGens((parse_poly("x1", vs), parse_poly("1", vs)))
        rep = count_contact(ideal, ContactQuery(MODE_EXACT, 0, 1, primes=(2, 3)))
        assert [list(c) for c in rep.counts] == [[2, 4, 4], [3, 9, 9]]

    def test_generic_cone_table_is_not_split(self, monkeypatch):
        # two incidence forms have terms in both blocks: the additive plan is
        # refused while planning, and only enumeration applies
        def refuse(*args):
            raise AssertionError("the additive split was reached")

        monkeypatch.setattr(arcdet.counting, "_additive_split_distribution", refuse)
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
        pair = DeterminantalPair.from_matrix(A)
        joint = pair.w_gens.variables
        ideals = [[MultiPoly.variable(GF(2), joint, y) for y in pair.y_names], [g.map_coeffs(GF(2)) for g in pair.w_gens.nonzero()]]
        assert plan_names([g for gens in ideals for g in gens], 6, 1, 2) == ["direct"]
        _, counts = contact_order_table(ideals, 6, 1, 2)
        assert sum(counts.tolist()) == 2**12

    def test_combine_bound_is_checked_before_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a side was enumerated while planning")

        monkeypatch.setattr(arcdet.counting, "_order_batches", refuse)
        vs = ("x1", "x2", "x3", "x4")
        polys = [MultiPoly.variable(GF(3), vs, v) for v in vs] + [parse_poly("x1*x4 - x2*x3", vs).map_coeffs(GF(3))]
        # each side has two coordinates: at most 4^2 keys, and 3^3 values of the split
        monkeypatch.setattr(arcdet.counting, "_MAX_COMBINE", 16 * 16 * 27)
        assert "additive" in plan_names(polys, 4, 2, 3)
        monkeypatch.setattr(arcdet.counting, "_MAX_COMBINE", 16 * 16 * 27 - 1)
        assert "additive" not in plan_names(polys, 4, 2, 3)

    def test_blocks_within_the_budget_are_counted_past_their_sum(self):
        # each block has 27 jets and both 54: only the additive plan fits 27
        f = parse_poly("x1^2 + x2^2", ("x1", "x2")).map_coeffs(GF(3))
        assert plan_names([f], 2, 2, 3) == ["direct", "additive"]
        want = as_dict(_direct_distribution([f], 2, 2, 3))
        assert as_dict(ord_vector_distribution([f], 2, 2, 3, budget=27)) == want
        with pytest.raises(BudgetExceeded, match="over the budget 26"):
            ord_vector_distribution([f], 2, 2, 3, budget=26)

    def test_cost_ties_go_to_the_earlier_plan(self, monkeypatch):
        # at q=2, N=0 the 2^2 jets of x1*x2 tie with its (N+2)^2 monomial cells
        def refuse(*args):
            raise AssertionError("the later plan of equal cost was taken")

        monkeypatch.setattr(arcdet.counting, "_monomial_distribution", refuse)
        f = parse_poly("x1*x2", ("x1", "x2")).map_coeffs(GF(2))
        assert [plan[:3] for plan in _plans([f], 2, 0, 2)] == [("direct", 4, 4), ("monomial", 4, 4)]
        assert as_dict(ord_vector_distribution([f], 2, 0, 2)) == {(0,): 1, (1,): 3}

    def test_a_lost_side_batch_is_caught(self, monkeypatch):
        walk = arcdet.counting._mesh_batches

        def drop_last(*args):
            yield from list(walk(*args))[:-1]

        monkeypatch.setattr(arcdet.counting, "_mesh_batches", drop_last)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 40)
        f = parse_poly("x1*x2 + x3*x4", ("x1", "x2", "x3", "x4")).map_coeffs(GF(3))
        with pytest.raises(InternalInvariantError, match="counted 72 of 81"):
            planned("additive", [f], 4, 1, 3)


def _block_parts(draw, q):
    """A polynomial's terms in one block: x1, x2 (block 0) or x3, x4 (block 1)."""
    exps = draw(st.lists(st.sampled_from([(a, b) for a in range(3) for b in range(3) if a or b]), min_size=1, max_size=2))
    return [(e, draw(st.integers(1, q - 1))) for e in exps]


@st.composite
def spanning_systems(draw):
    """(q, level, polys): two to four polynomials over x1..x4 whose terms
    each lie in {x1, x2} or {x3, x4}, two or three of them with terms in both,
    the others in one block; any of them may hold a constant term."""
    q, level = draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]))
    spanning = draw(st.integers(2, 3))
    blocks = [(0, 1)] * spanning + draw(st.lists(st.sampled_from([(0,), (1,)]), max_size=4 - spanning))
    polys = []
    for sides in blocks:
        terms = {}
        for side in sides:
            for (a, b), c in _block_parts(draw, q):
                terms[(a, b, 0, 0) if side == 0 else (0, 0, a, b)] = c
        if draw(st.booleans()):
            terms[(0, 0, 0, 0)] = draw(st.integers(1, q - 1))
        polys.append(MultiPoly(GF(q), ("x1", "x2", "x3", "x4"), terms))
    return q, level, polys


class TestPrefixCombine:
    """The prefix combine of block states at two or more spanning
    polynomials, which direct takes where it is the cheaper combine and the
    cell bound admits it, against direct's pairs of states and the jets one by
    one."""

    @given(spanning_systems())
    @settings(max_examples=10, deadline=None)
    def test_matches_pairs_and_jets(self, system):
        q, level, polys = system
        sides, spans = _blocks(polys, 4)
        assume(len(spans) >= 2)
        states = _block_states(polys, sides, spans, level, q)
        prefix = as_dict(_prefix_combine(polys, states, sides, spans, level, q))
        assert prefix == as_dict(_pair_combine(polys, states, sides, spans, level, q))
        assert prefix == as_dict(_direct_distribution(polys, 4, level, q))
        assert prefix == brute_contact_table([[p] for p in polys], 4, level, q)

    # sha256 of the sorted (order vector, jets) list of the generic 2x2 cone's
    # joint table (y1, y2; w1, w2), as direct's pairs of states counted it
    CONE_TABLES = {
        (2, 3): (395, "727981a1806d04907d709b0bbb35715580040d3cccd1555ef9d6f7c44927319e"),
        (3, 1): (58, "a43aae013ba65621c1636dc3c22d41dccea67935f0c940506999abb65aca38c2"),
    }

    @pytest.mark.parametrize("q, level", list(CONE_TABLES))
    def test_generic_cone_tables_are_pinned(self, q, level):
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
        pair = DeterminantalPair.from_matrix(A)
        polys = [g.map_coeffs(GF(q)) for g in (*pair.y_coords, *pair.w_gens.nonzero())]
        table = sorted(as_dict(_direct_distribution(polys, 6, level, q)).items())
        assert (len(table), hashlib.sha256(repr(table).encode()).hexdigest()) == self.CONE_TABLES[q, level]

    def test_many_spanning_polynomials_over_few_variables_are_paired(self, monkeypatch):
        # five polynomials span {x1, x2} and {x3, x4} and none lies in one
        # block: each side has one row of orders and 64 states, so 4096 pairs
        # against 4^5 prefix vectors whose tables hold 15^5 cells a side
        def refuse(*args):
            raise AssertionError("the prefix combine was reached")

        monkeypatch.setattr(arcdet.counting, "_prefix_combine", refuse)
        vs = ("x1", "x2", "x3", "x4")
        exprs = ("x1 + x3", "x2 + x4", "x1*x2 + x3*x4", "x1^2 + x3^2", "x2^2 + x4^2")
        polys = [parse_poly(e, vs).map_coeffs(GF(2)) for e in exprs]
        assert len(_blocks(polys, 4)[1]) == 5
        assert as_dict(_direct_distribution(polys, 4, 2, 2)) == brute_contact_table([[p] for p in polys], 4, 2, 2)

    def test_a_lost_state_is_caught(self):
        vs = ("x1", "x2", "x3", "x4")
        polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in ("x1*x2 + x3", "x1 + x4^2 + 1")]
        sides, spans = _blocks(polys, 4)
        (orders, values, counts), side_b = _block_states(polys, sides, spans, 1, 3)
        states = [(orders[:-1], values[:-1], counts[:-1]), side_b]
        with pytest.raises(InternalInvariantError, match="combine of block states counted"):
            _prefix_combine(polys, states, sides, spans, 1, 3)


class TestBlockStates:
    """Direct enumeration as pairs of block states, against the jets one by
    one and against every other strategy that applies.  At q=3, N=1 a
    coordinate code lies in [0, 9); cap 5 walks each block in batches of at
    most 5 jets and combines at most 5 pairs of states per batch."""

    CASES = {
        # blocks {x1, x2} and {x3}: two spanning polynomials, one holding a
        # constant term, a constant, the zero polynomial and a polynomial of the
        # second block with a constant term, which stays on that block
        "spans": (3, ["x1*x2 + x3", "x1 + 2*x3^2 + 1", "x2^2", "2", "0", "x3 + 1"]),
        # one component: one block, paired with the empty grid
        "one component": (3, ["x1*x2 + 2*x2*x3 + 1", "x3^2", "x1"]),
        # components {x1, x2}, {x3} and {x4}, the last two in the second block
        "three components": (4, ["x1*x2 + x3 + x4^2", "x1 + 2*x4", "x3 + 1", "x2"]),
    }

    @pytest.fixture(scope="class")
    def oracle(self):
        out = {}
        for name, (n, exprs) in self.CASES.items():
            vs = ("x1", "x2", "x3", "x4")[:n]
            polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in exprs]
            out[name] = n, polys, brute_table(polys, n, 1, 3)
        return out

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("cap", [1 << 20, 20, 5])
    def test_direct_matches_jets_and_strategies(self, monkeypatch, oracle, case, cap):
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", cap)
        n, polys, want = oracle[case]
        assert as_dict(_direct_distribution(polys, n, 1, 3)) == want
        for name in plan_names(polys, n, 1, 3):
            assert planned(name, polys, n, 1, 3) == want, name

    def test_no_batch_passes_the_cap(self, monkeypatch, oracle):
        # the "spans" blocks have 62 and 9 states: one state of the first block
        # paired with every state of the second would pass the cap 5
        tally = arcdet.counting._tally
        sizes = []

        def record(batches, radix, total):
            def checked():
                for weight, key in batches:
                    sizes.append(key.size)
                    yield weight, key

            return tally(checked(), radix, total)

        monkeypatch.setattr(arcdet.counting, "_tally", record)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 5)
        n, polys, want = oracle["spans"]
        assert as_dict(_direct_distribution(polys, n, 1, 3)) == want
        assert max(sizes) == 5

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_lost_batch_on_either_side_is_caught(self, monkeypatch, side):
        walk = arcdet.counting._mesh_batches
        calls = []

        def drop_last(*args):
            calls.append(args)
            batches = list(walk(*args))
            yield from batches[:-1] if len(calls) == side + 1 else batches

        monkeypatch.setattr(arcdet.counting, "_mesh_batches", drop_last)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 40)
        # each block has 81 jets, walked in batches of 36, 36 and 9
        f = parse_poly("x1*x2 + x3*x4", ("x1", "x2", "x3", "x4")).map_coeffs(GF(3))
        with pytest.raises(InternalInvariantError, match="counted 72 of 81"):
            _direct_distribution([f], 4, 1, 3)
        assert len(calls) == side + 1

    @pytest.mark.parametrize("copies, widths", [(2, [1, 1]), (20, [2, 0])])
    def test_side_codes_past_int64_count_as_one_side(self, monkeypatch, copies, widths):
        # every polynomial spans the blocks {x1} and {x2}: a block state holds
        # one value code in [0, 9) per polynomial, and 9^20 passes 2^63 while
        # the 3^20 keys of the table fit
        walk = arcdet.counting._mesh_batches
        walked = []

        def record(sets, *args):
            walked.append(len(sets))
            return walk(sets, *args)

        monkeypatch.setattr(arcdet.counting, "_mesh_batches", record)
        vs = ("x1", "x2")
        exprs = ["x1 + x2", "x1 + 2*x2", "x1^2 + x2", "2*x1 + x2^2 + 1"]
        polys = [parse_poly(exprs[i % 4], vs).map_coeffs(GF(3)) for i in range(copies)]
        assert as_dict(_direct_distribution(polys, 2, 1, 3)) == brute_table(polys, 2, 1, 3)
        assert walked == widths

    def test_direct_preference_past_its_budget_takes_the_split(self, monkeypatch):
        # the budget rule is unchanged: direct's largest enumeration is the
        # whole 3^16-jet grid, however few block states it walks
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly(v, vs) for v in row] for row in (("x1", "x2"), ("x3", "x4"))])
        tower = [g for ideal in minor_ideal_tower(A) for g in ideal.nonzero()]
        want = as_dict(ord_vector_distribution(tower, 4, 3, 3, budget=3**16, prefer="direct"))

        def refuse(*args):
            raise AssertionError("direct enumeration ran past its budget")

        monkeypatch.setattr(arcdet.counting, "_direct_distribution", refuse)
        assert as_dict(ord_vector_distribution(tower, 4, 3, 3, budget=3**16 - 1, prefer="direct")) == want
        assert sum(want.values()) == 3**16

    def test_a_sparse_tally_sums_every_batch(self, monkeypatch):
        # seven orders in base 3 have 3^7 codes for the 3^6 jets, so the codes
        # are summed batch by batch instead of in a dense array
        tally = arcdet.counting._tally
        calls = []

        def record(batches, radix, total):
            call = [radix, total, 0]
            calls.append(call)

            def counted():
                for batch in batches:
                    call[2] += 1
                    yield batch

            return tally(counted(), radix, total)

        monkeypatch.setattr(arcdet.counting, "_tally", record)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 5)
        vs = ("x1", "x2", "x3")
        exprs = [*self.CASES["spans"][1], "x1*x3 + x2"]
        polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in exprs]
        assert as_dict(_direct_distribution(polys, 3, 1, 3)) == brute_table(polys, 3, 1, 3)
        # the walk of the one block and the pairing of its states with the
        # empty block both tally the 3^6 jets sparsely, in several batches
        assert [(radix, total) for radix, total, batches in calls if batches > 1] == [(3**7, 3**6)] * 2

    def test_tally_is_sized_by_the_grid(self):
        # 11 orders in base 4 have 4^11 codes, a 32 MB dense tally, for 27 jets
        x1 = parse_poly("x1", ("x1",)).map_coeffs(GF(3))
        polys = [x1**e for e in range(1, 12)]
        tracemalloc.start()
        try:
            table = _direct_distribution(polys, 1, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert as_dict(table) == as_dict(_monomial_distribution(polys, 1, 2, 3))


def mesh_rows(monkeypatch):
    """Jets walked by ``_mesh_batches`` so far, one entry per call."""
    walk = arcdet.counting._mesh_batches
    rows = []

    def counted(*args):
        rows.append(0)
        for batch in walk(*args):
            rows[-1] += batch[0]
            yield batch

    monkeypatch.setattr(arcdet.counting, "_mesh_batches", counted)
    return rows


class TestUnitQuotient:
    """A block whose grid passes one batch, and whose polynomials are each
    homogeneous of a degree >= 1 in some coordinates, walks one unit-normalised
    jet per orbit and the table one level down.  Cap 5 forces that walk at
    every level above 0 (q=2: 2^6 and 2^9 jets; q=3: 3^6 jets)."""

    CASES = {
        # graded in all coordinates, degrees 1 and 2 (the triangle's Z list)
        "full": (3, ["x1 + x2", "2*x2", "x2 + x3", "x1*x2 + x1*x3 + x2*x3"], [0, 1, 2]),
        # a W chart: degree 1 in x1, x2, not graded in x3
        "partial": (3, ["x1*x3 + x2*x3 + x1"], [0, 1]),
        # degrees 2 and 1 in x1, x2, with an ungraded cube of x3
        "ungraded cube": (3, ["x1^2 + x1*x2*x3^3", "x2 + x1*x3 + x2*x3^2"], [0, 1]),
        # degrees 3 and 2, and the zero polynomial, graded in every degree
        "degree 3": (3, ["x1*x2*x3 + x1^3", "x1^2", "0"], [0, 1, 2]),
    }

    @pytest.fixture(scope="class")
    def oracle(self):
        out = {}
        for name, (n, exprs, _) in self.CASES.items():
            vs = ("x1", "x2", "x3")[:n]
            for q, level in ((2, 1), (2, 2), (3, 1)):
                polys = [parse_poly(e, vs).map_coeffs(GF(q)) for e in exprs]
                out[name, q, level] = n, polys, brute_table(polys, n, level, q)
        return out

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("q, level", [(2, 1), (2, 2), (3, 1)])
    def test_quotient_matches_jets_and_strategies(self, monkeypatch, oracle, case, q, level):
        n, polys, want = oracle[case, q, level]
        assert _grading(polys, n)[0] == self.CASES[case][2]
        walk = arcdet.counting._quotient_walk
        levels = []

        def spy(polys, n, level, *args):
            levels.append(level)
            return walk(polys, n, level, *args)

        monkeypatch.setattr(arcdet.counting, "_quotient_walk", spy)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 5)
        assert as_dict(_direct_distribution(polys, n, level, q)) == want
        assert levels == list(range(level, -1, -1))
        for name in plan_names(polys, n, level, q):
            assert planned(name, polys, n, level, q) == want, name

    @pytest.mark.parametrize("exprs", [
        ["x1*x2 + x2*x3 + 1"], ["x1*x2 + x2*x3^2 + x3", "x1"], ["x1*x2*x3 + x3"], ["x1*x3 + x2*x3", "x3^2 + x3"],
    ])
    def test_lists_outside_the_path_walk_the_whole_grid(self, monkeypatch, exprs):
        # one term component with a constant term, with a term of degree 0 in
        # each set of coordinates tried, or with a polynomial free of the only
        # set, x1 and x2, that grades the others
        vs = ("x1", "x2", "x3")
        polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in exprs]
        assert _grading(polys, 3) is None
        rows = mesh_rows(monkeypatch)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 5)
        assert as_dict(_direct_distribution(polys, 3, 1, 3)) == brute_table(polys, 3, 1, 3)
        assert rows[0] == 3**6

    def test_a_grid_within_one_batch_is_walked_whole(self, monkeypatch, oracle):
        n, polys, want = oracle["full", 3, 1]
        rows = mesh_rows(monkeypatch)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 3**6)
        assert as_dict(_direct_distribution(polys, n, 1, 3)) == want
        assert rows == [3**6, 1]  # the block, then the empty second block
        rows.clear()
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 3**6 - 1)
        assert as_dict(_direct_distribution(polys, n, 1, 3)) == want
        # 9^2 + 3*9 + 3*3 unit-normalised jets, then level 0 walked whole
        assert rows == [81, 27, 9, 27, 1]

    @pytest.mark.parametrize("dropped", [0, 1, 2])
    def test_a_dropped_mesh_is_caught(self, monkeypatch, oracle, dropped):
        walk = arcdet.counting._mesh_batches
        calls = []

        def drop(*args):
            calls.append(args)
            if len(calls) != dropped + 1:
                yield from walk(*args)

        monkeypatch.setattr(arcdet.counting, "_mesh_batches", drop)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 5)
        n, polys, _ = oracle["full", 3, 1]
        with pytest.raises(InternalInvariantError, match="counted"):
            _direct_distribution(polys, n, 1, 3)

    def test_configuration_triangle_walks_few_jets(self, monkeypatch):
        # its three q=3, N=3 tables have 3^12-jet grids of one term component
        count = arcdet.counting.ord_vector_distribution
        rows = mesh_rows(monkeypatch)
        walked = []

        def table(polys, n, level, q, **kwargs):
            start = len(rows)
            out = count(polys, n, level, q, **kwargs)
            if (q, level) == (3, 3):
                walked.append(sum(rows[start:]))
            return out

        monkeypatch.setattr(arcdet.counting, "ord_vector_distribution", table)
        report = run_campaign(builtin_corpus()["configuration-triangle"])
        assert not report.failed
        assert len(walked) == 3 and max(walked) <= 30_000, walked


def contact_reduction(table, spans):
    """Pure-Python reduction of an order-vector table to contact orders: the
    least entry of each (start, stop) span of a key."""
    out = Counter()
    for key, cnt in table.items():
        out[tuple(min(key[a:b]) for a, b in spans)] += cnt
    return dict(out)


class TestCountsPastInt64:
    """Tables of more than 2^63 jets are counted in Python ints, through the
    contact reduction as well."""

    def test_monomial_contact_orders(self):
        # the monomial lists of test_far_beyond_enumeration: 7^78 jets
        n, level, q = 6, 12, 7
        vs = tuple(f"x{i}" for i in range(1, n + 1))
        polys = [parse_poly(e, vs) for e in ("x1*x2^2*x3", "x4^3*x5*x6", "3*x1*x6")]
        want = as_dict(ord_vector_distribution(polys, n, level, q))
        assert sum(want.values()) == q ** (n * (level + 1)) > 2**63
        for ideals, spans in (
            ([[p] for p in polys], [(0, 1), (1, 2), (2, 3)]),
            ([polys[:2], polys[2:]], [(0, 2), (2, 3)]),
        ):
            table = contact_order_table(ideals, n, level, q)
            assert as_dict(table) == contact_reduction(want, spans)
            assert table[1].dtype == object and all(type(c) is int for c in table[1])

    def test_shift_split_contact_orders(self):
        # 101^10 jets of x1, y1..y4 at level 1, of which the all-unit row alone
        # passes 2^63; y1..y4 are shifts, so only the 101^2 jets of x1 are enumerated
        q, level, vs = 101, 1, ("x1", "y1", "y2", "y3", "y4")
        polys = [parse_poly(e, vs) for e in ("x1^2 + x1", "x1^3 + y1", "y2", "x1^2 + y3", "y4")]
        assert plan_names(polys, 5, level, q) == ["direct", "shift"]
        rest = as_dict(ord_vector_distribution([parse_poly("x1^2 + x1", ("x1",))], 1, level, q))
        weights = ord_value_counts(level, q)
        want = {
            key + tail: cnt * prod(weights[e] for e in tail)
            for key, cnt in rest.items()
            for tail in product(range(level + 2), repeat=4)
        }
        assert sum(want.values()) == q**10 and max(want.values()) > 2**63
        table = contact_order_table([[polys[0]], polys[1:3], polys[3:]], 5, level, q)
        assert as_dict(table) == contact_reduction(want, [(0, 1), (1, 3), (3, 5)])
        assert table[1].dtype == object and all(type(c) is int for c in table[1])


class TestMonomialStrategy:
    def test_far_beyond_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the monomial strategy enumerated a grid")

        monkeypatch.setattr(arcdet.counting, "_order_batches", refuse)
        n, level, q = 6, 12, 7
        vs = tuple(f"x{i}" for i in range(1, n + 1))
        polys = [parse_poly(e, vs) for e in ("x1*x2^2*x3", "x4^3*x5*x6", "3*x1*x6")]
        table = as_dict(ord_vector_distribution(polys, n, level, q))
        assert sum(table.values()) == q ** (n * (level + 1))
        # every key 0: all six coordinates are units
        assert table[(0, 0, 0)] == ((q - 1) * q**level) ** n
        assert all(type(c) is int for c in table.values())

    def test_lct_known_values_builds_small_rings_only(self, monkeypatch):
        requested = []
        build = arcdet.counting.ring_tables

        def record(q, level):
            requested.append(q ** (level + 1))
            return build(q, level)

        monkeypatch.setattr(arcdet.counting, "ring_tables", record)
        report = run_campaign(builtin_corpus()["lct-known-values"])
        assert not report.failed
        assert requested and max(requested) <= 3**6


def code_series(gf, level, code):
    """The TruncSeries of a series code: base-q digit i is the coefficient of t^i."""
    return TruncSeries(gf, level, [code // gf.q**i % gf.q for i in range(level + 1)])


class TestRingTables:
    @pytest.mark.parametrize("q, level", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (5, 1)])
    def test_tables_match_series(self, q, level):
        # both rings, every pair of codes: the tables and the computed ring that fills them
        gf = GF(q)
        size = q ** (level + 1)
        series = [code_series(gf, level, code) for code in range(size)]
        code_of = {s: code for code, s in enumerate(series)}
        codes = np.arange(size)
        for ring in (ring_tables(q, level), SeriesRing(q, level)):
            # the negation table of the additive split
            assert ring.scale(q - 1, codes).tolist() == [code_of[-s] for s in series]
            assert ring.order(codes).tolist() == [level + 1 if s.ord() is None else s.ord() for s in series]
            assert ring.plus(codes[:, None], codes).tolist() == [[code_of[a + b] for b in series] for a in series]
            assert ring.times(codes[:, None], codes).tolist() == [[code_of[a * b] for b in series] for a in series]
            for c in range(q):
                assert ring.scale(c, codes).tolist() == [code_of[s * c] for s in series]

    @pytest.mark.parametrize(
        "q, level, low",
        [
            (32749, 1, 0),  # 2(q-1)^2 just below 2^31: int32 digit products
            (40009, 1, 0),  # 2(q-1)^2 above 2^31 while codes fit int32: int64 digit products
            (2, 32, 2**31),  # codes past int32
        ],
    )
    def test_computed_ring_matches_series(self, q, level, low):
        gf = GF(q)
        size = q ** (level + 1)
        ring = series_ring(q, level)
        assert type(ring) is SeriesRing and np.iinfo(ring.dtype).max >= size - 1
        rng = np.random.default_rng(7)
        a, b = (rng.integers(low, size, 300, dtype=np.int64) for _ in range(2))
        a[:3], b[:3] = [0, low, size - 1], [size - 1, size - 1, 0]

        def series(codes):
            return [code_series(gf, level, int(x)) for x in codes]

        sa, sb = series(a), series(b)
        assert series(ring.plus(a, b)) == [x + y for x, y in zip(sa, sb)]
        assert series(ring.times(a, b)) == [x * y for x, y in zip(sa, sb)]
        assert ring.order(a).tolist() == [level + 1 if x.ord() is None else x.ord() for x in sa]

    def test_tables_are_read_only(self):
        ring = ring_tables(2, 1)
        for table in (ring.add, ring.mul, ring.ord):
            with pytest.raises(ValueError):
                table[0] = 0


def pullback_value_counts(poly, level, q):
    """Pure-Python oracle: how many jets of A^1 pull ``poly`` back to each series."""
    mapped = poly.map_coeffs(GF(q))
    return Counter(substitute_jet(mapped, jet) for jet in enumerate_jets(1, level, q))


def ord_counts(values, level):
    out = Counter()
    for s, cnt in values.items():
        out[(level + 1 if s.ord() is None else s.ord(),)] += cnt
    return out


class TestMeshKernel:
    """The open-mesh walk against enumerate_jets, at batch caps that give a
    single block, whole batches, a ragged last batch and blocks of one code.
    At q=3, N=1 a coordinate code lies in [0, 9)."""

    CAPS = [1 << 20, 81, 405, 20, 5]
    # One term component over x1, x2, x3: at caps 81 and 405 (w = 2) x3 is
    # high and x1*x3 and 2*x1^2*x3 read a low axis and the high one; at 405 the
    # last batch holds 4 of 9 high values, at 20 (w = 1) 1 of 81, at 5 (w = 0)
    # 4 of 729.
    # Coefficients 2, powers, a constant, constant terms and the zero
    # polynomial.  Over F_3, 2*x1^2*x3 + x1 + x3 + 2 changes its table if the
    # 2 multiplies both factors (2*2 = 1), unlike 2*x1^2*x2 + x3 (x3 -> 2*x3
    # absorbs it).
    STRADDLING = ["x1", "2*x1^2*x2 + x3", "x1*x3 + x2^2", "2*x1^2*x3 + x1 + x3 + 2", "x2^3 + x2 + 1", "2", "0"]
    # Components {x1, x2}, {x3} and {x4} (in no polynomial): at caps 81 and 405
    # x1 and x2 are low (w = 2), at 20 x1 alone (w = 1), so the keys of
    # 2*x3 + 1 and x1 read one axis of the batch's mesh.
    COMPONENTS = ["x1*x2 + 2*x2^2", "2*x3 + 1", "x1", "0"]
    # blocks {x1, x2} and {x3, x4} (x4 in no polynomial); the split polynomial
    # has a constant term and a coefficient 2 on each side
    ADDITIVE = ["x1", "2*x1^2*x2 + 2*x3^2 + 1", "x1*x2 + 2", "x3", "0"]

    @pytest.fixture(scope="class")
    def oracle(self):
        out = {}
        for name, n, exprs in (
            ("straddling", 3, self.STRADDLING),
            ("components", 4, self.COMPONENTS),
            ("additive", 4, self.ADDITIVE),
        ):
            vs = ("x1", "x2", "x3", "x4")[:n]
            polys = [parse_poly(e, vs).map_coeffs(GF(3)) for e in exprs]
            out[name] = n, polys, brute_table(polys, n, 1, 3)
        return out

    @pytest.mark.parametrize("case", ["straddling", "components"])
    @pytest.mark.parametrize("cap", CAPS)
    def test_direct(self, monkeypatch, oracle, case, cap):
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", cap)
        n, polys, want = oracle[case]
        assert as_dict(_direct_distribution(polys, n, 1, 3)) == want

    @pytest.mark.parametrize("cap", CAPS)
    def test_additive_split(self, monkeypatch, oracle, cap):
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", cap)
        n, polys, want = oracle["additive"]
        assert planned("additive", polys, n, 1, 3) == want

    @staticmethod
    def assert_mesh_shapes(sets, rows, lows, highs):
        """Low j spans axis j + 1 and the highs axis 0, each 1 on every other axis."""
        w = len(lows)
        for j, (s, low) in enumerate(zip(sets, lows)):
            assert low.shape == (1,) * (j + 1) + (len(s),) + (1,) * (w - j - 1)
            assert low.ravel().tolist() == list(s)
        h = rows // prod(map(len, sets[:w]))
        assert all(high.shape == (h,) + (1,) * w for high in highs)

    @pytest.mark.parametrize(
        "cap, w",
        [
            (40, 1),  # 81 highs, 4 per batch: the last batch holds 1
            (100, 2),  # 9 highs, one per batch
        ],
    )
    def test_mesh_covers_the_grid_once(self, monkeypatch, cap, w):
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", cap)
        sets = [range(9)] * 3
        seen = Counter()
        for rows, lows, highs in _mesh_batches(sets):
            assert len(lows) == w
            self.assert_mesh_shapes(sets, rows, lows, highs)
            codes = sum(d.astype(np.int64) * 9**pos for pos, d in enumerate(lows + highs))
            assert codes.size == rows
            seen.update(codes.ravel().tolist())
        assert seen == Counter(range(9**3))

    # the ids are those the cases had when _mesh_batches still took cuts
    @pytest.mark.parametrize(
        "cap, order",
        [
            pytest.param(100, (0, 1, 2), id="100-cuts0"),
            pytest.param(5, (0, 1, 2), id="5-cuts1"),  # tO and the code 1 low, 1 high per batch
            pytest.param(5, (2, 1, 0), id="5-cuts2"),  # the full range first: no low fits, 5 highs per batch
            pytest.param(1, (0, 1, 2), id="1-cuts3"),
        ],
    )
    def test_mesh_covers_a_product_of_code_sets_once(self, monkeypatch, cap, order):
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", cap)
        # tO, the code 1 and the full range at q=3, N=1
        sets = [[range(0, 9, 3), range(1, 9, 9), range(9)][i] for i in order]
        seen = Counter()
        for rows, lows, highs in _mesh_batches(sets):
            self.assert_mesh_shapes(sets, rows, lows, highs)
            codes = sum(d.astype(np.int64) * 9**pos for pos, d in enumerate(lows + highs))
            assert codes.size == rows <= max(cap, 9)
            seen.update(codes.ravel().tolist())
        assert seen == Counter(sum(c * 9**pos for pos, c in enumerate(t)) for t in product(*sets))

    def test_a_key_of_some_coordinates_stands_for_the_rest(self, monkeypatch):
        # at q=3, N=1 the key of x1 reads its own axis alone: 9 entries, each
        # for the 9 codes of x2
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 1 << 20)
        x1 = parse_poly("x1", ("x1", "x2")).map_coeffs(GF(3))
        ((weight, key),) = _order_batches([x1], [range(9)] * 2, 1, 3)
        assert (key.size, weight) == (9, 9)
        codes, counts = _tally(_order_batches([x1], [range(9)] * 2, 1, 3), 3, 81)
        assert dict(zip(codes.tolist(), counts.tolist())) == {0: 54, 1: 18, 2: 9}

    def test_a_mesh_past_numpys_axes_is_refused_unbuilt(self):
        # sets of one code add an axis but no jets: all of them are low
        limit = arcdet.counting._MAX_AXES
        assert len(next(_mesh_batches([range(1, 9, 9)] * (limit - 1)))[1]) == limit - 1
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="axes"):
                next(_mesh_batches([range(1, 9, 9)] * limit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_a_lost_batch_is_caught(self, monkeypatch):
        walk = arcdet.counting._mesh_batches

        def drop_last(*args):
            yield from list(walk(*args))[:-1]

        monkeypatch.setattr(arcdet.counting, "_mesh_batches", drop_last)
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 40)
        f = parse_poly("x1*x2", ("x1", "x2")).map_coeffs(GF(3))
        with pytest.raises(InternalInvariantError, match="counted"):
            _direct_distribution([f], 2, 1, 3)


class TestTableCap:
    """Every strategy on both sides of RING_TABLE_CAP, against enumerate_jets:
    q=2 at level 10 (Q = 2048, ring tables) and level 11 (Q = 4096, computed ring)."""

    @pytest.mark.parametrize("level", [10, 11])
    def test_direct(self, level):
        assert (2 ** (level + 1) <= RING_TABLE_CAP) == (level == 10)
        f = parse_poly("x1^3 + x1^2 + 1", ("x1",))
        want = ord_counts(pullback_value_counts(f, level, 2), level)
        assert as_dict(_direct_distribution([f.map_coeffs(GF(2))], 1, level, 2)) == want

    @pytest.mark.parametrize("level", [10, 11])
    def test_shift_split(self, level):
        vs = ("x1", "x2")
        f, x2 = (parse_poly(e, vs).map_coeffs(GF(2)) for e in ("x1^3 + x1", "x2"))
        f_ords = ord_counts(pullback_value_counts(parse_poly("x1^3 + x1", ("x1",)), level, 2), level)
        x_ords = ord_counts(pullback_value_counts(parse_poly("x1", ("x1",)), level, 2), level)
        want = {fk + xk: fc * xc for fk, fc in f_ords.items() for xk, xc in x_ords.items()}
        assert planned("shift", [f, x2], 2, level, 2) == want

    @pytest.mark.parametrize("level", [10, 11])
    def test_additive_split(self, level):
        # x1^2 and x2^4 + x2^2 are squares over F_2, so each side takes few values
        h = parse_poly("x1^2 + x2^4 + x2^2", ("x1", "x2")).map_coeffs(GF(2))
        va = pullback_value_counts(parse_poly("x1^2", ("x1",)), level, 2)
        vb = pullback_value_counts(parse_poly("x1^4 + x1^2", ("x1",)), level, 2)
        want = Counter()
        for a, ca in va.items():
            for b, cb in vb.items():
                want.update(ord_counts({a + b: ca * cb}, level))
        assert planned("additive", [h], 2, level, 2) == want

    def test_additive_combine_refuses_int64_overflow(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a side was enumerated")

        monkeypatch.setattr(arcdet.counting, "_order_batches", refuse)
        # each block has 2^32 jets, but 2^64 pairs of them overflow int64
        h = parse_poly("x1 + x2", ("x1", "x2")).map_coeffs(GF(2))
        assert "additive" not in plan_names([h], 2, 31, 2)

    def test_tables_replace_the_coefficient_kernels(self, monkeypatch):
        ring_tables(3, 2)  # filled by the computed ring, before its operations are refused

        def refuse(*args, **kwargs):
            raise AssertionError("computed ring operation called within the table cap")

        for name in ("plus", "times", "scale", "order"):
            monkeypatch.setattr(SeriesRing, name, refuse)
        vs = ("x1", "x2", "x3", "x4")
        det = parse_poly("x1*x4 - x2*x3", vs).map_coeffs(GF(3))
        polys = [MultiPoly.variable(GF(3), vs, v) for v in vs] + [det]
        direct = as_dict(_direct_distribution(polys, 4, 2, 3))
        assert planned("additive", polys, 4, 2, 3) == direct
        assert sum(direct.values()) == 3**12


class TestBatchOps:
    def test_ord_value_counts(self):
        d = ord_value_counts(2, 3)
        assert d == [2 * 9, 2 * 3, 2, 1]
        assert sum(d) == 27


class TestInt32Bounds:
    def test_term_sum_does_not_overflow(self):
        # nine terms of (q-1)^2 each pass 2^31 - 1 when summed before one reduction
        q = 16381
        vs = tuple(f"x{i}" for i in range(1, 10))
        f = parse_poly(" + ".join(f"{q - 1}*{v}" for v in vs), vs).map_coeffs(GF(q))
        ring = SeriesRing(q, 1)
        coords = [np.full((1, 1), q**2 - 1, dtype=ring.dtype)] * 9  # both digits q - 1
        expected = 9 * (q - 1) ** 2 % q
        assert eval_poly_codes(f, coords, ring).tolist() == [[expected + expected * q]]

    @pytest.mark.parametrize(
        "level, dtype", [(14, np.int16), (15, np.int32), (30, np.int32), (31, np.int64), (32, np.int64)]
    )
    def test_mesh_and_ring_share_the_code_dtype(self, monkeypatch, level, dtype):
        # q=2: codes in [0, 2^(N+1)) take the narrowest dtype that holds 2^(N+1) - 1
        monkeypatch.setattr(arcdet.counting, "BATCH_CAP", 4)
        ring = SeriesRing(2, level)
        _, _, (codes,) = next(_mesh_batches([range(ring.size)]))
        assert ring.dtype == codes.dtype == dtype
        top = np.array([ring.size - 1], dtype=ring.dtype)  # 1 + t + ... + t^N
        assert ring.plus(top, top).tolist() == [0] and ring.order(top).tolist() == [0]

    def test_codes_beyond_int64_are_refused(self):
        assert SeriesRing(2, 61).size == 2**62
        with pytest.raises(BudgetExceeded, match="overflow int64"):
            SeriesRing(2, 62)

    def test_guard_admits_large_prime_at_level_zero(self):
        # (N+1)(q-1)^2 < 2^31 holds at N=0 for primes above 2^15
        q = 40009
        f = parse_poly("x1^2 + x1", ("x1",))
        assert as_dict(ord_vector_distribution([f], 1, 0, q)) == {(0,): q - 2, (1,): 2}

    def test_guard_rejects_overflowing_products(self):
        # 3 (q-1)^2 >= 2^31: a level-2 product would overflow int32, and
        # x1^2 + x1 has no strategy but enumeration
        q = 32749
        f = parse_poly("x1^2 + x1", ("x1",))
        with pytest.raises(BudgetExceeded, match="overflow"):
            ord_vector_distribution([f], 1, 2, q, budget=q**3)

    def test_keys_beyond_int64_are_refused(self):
        # 40 orders in base N+2 = 4 need 80 bits: refused, not wrapped
        polys = [parse_poly(e, ("x1",)).map_coeffs(GF(2)) for e in ["x1", "x1^2 + x1"] * 20]
        with pytest.raises(BudgetExceeded, match="overflow int64"):
            _direct_distribution(polys, 1, 2, 2)

    def test_monomials_of_large_primes_are_counted(self):
        # no series product is taken, so the int32 bound does not apply
        q = 32749
        table = as_dict(ord_vector_distribution([parse_poly("x1", ("x1",))], 1, 2, q))
        assert table == {(e,): c for e, c in enumerate(ord_value_counts(2, q))}
        assert sum(table.values()) == q**3
