"""Threshold estimation on loci with known exact values."""

from fractions import Fraction
from itertools import product

import pytest

import arcdet.counting
import arcdet.lct
from arcdet import IdealGens, parse_poly
from arcdet.consensus import STATUS_AMBIGUOUS, STATUS_CONSENSUS, extract_codim
from arcdet.counting import contact_order_table, table_cache
from arcdet.determinantal import VERDICT_AMBIGUOUS, VERDICT_FAIL, corollary_check
from arcdet.errors import InternalInvariantError, ValidationError
from arcdet.lct import _level_report, lct_estimate, threshold_fold
from arcdet.poly import MultiPoly


class TestMonomials:
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_power_of_coordinate(self, a):
        gens = IdealGens((parse_poly("x1", ["x1"]) ** a,))
        est = lct_estimate(gens, 2 * a, primes=(2, 3))
        assert est.estimate == Fraction(1, a)
        assert est.certified_upper_bound
        assert est.witness_m == 2 * a  # ties move the witness deepest

    def test_product_of_coordinates(self):
        gens = IdealGens((parse_poly("x1*x2", ["x1", "x2"]),))
        est = lct_estimate(gens, 4, primes=(2, 3))
        assert est.estimate == 1
        assert est.certified_upper_bound

    def test_empty_levels_skipped(self):
        gens = IdealGens((parse_poly("x1^2", ["x1"]),))
        est = lct_estimate(gens, 4, primes=(2, 3))
        empty = [m for m, rep, _ in est.per_m if rep.status == "EXACT_EMPTY"]
        assert empty == [1, 3]


def howald_codims(exps, n, M):
    """codim Cont^m of the monomial ideal (x^a : a in exps) for m = 1..M, in
    closed form: contact loci of a monomial ideal are unions of cells of
    clamped coordinate orders e in {0..m+1}^n, the cell e has codimension
    sum(e) at level m and order min(min_a <a, e>, m+1).  None: Cont^m is empty."""
    out = {}
    for m in range(1, M + 1):
        hits = [
            sum(e)
            for e in product(range(m + 2), repeat=n)
            if min(min(sum(ai * ei for ai, ei in zip(a, e)), m + 1) for a in exps) == m
        ]
        out[m] = min(hits, default=None)
    return out


class TestHowald:
    """Howald, "Multiplier ideals of monomial ideals" (Trans. AMS 353, 2001):
    lct = 1/t for the least t with t*(1,...,1) in the Newton polyhedron.  The
    engine counts these ideals by coordinate orders alone, so levels and primes
    far beyond enumeration are reachable."""

    @pytest.mark.parametrize(
        "gens, variables, M, primes, lct",
        [
            # Newton polygon x/2 + y/3 >= 1: t = 6/5, reached at m = 6 by e = (3, 2)
            (["x1^2", "x2^3"], ["x1", "x2"], 6, (2, 3), Fraction(5, 6)),
            # (x1^a x2^b, x3^c): lct = 1/max(a, b) + 1/c
            (["x1^2*x2", "x3^3"], ["x1", "x2", "x3"], 12, (5, 7), Fraction(5, 6)),
            (["x1*x2^2", "x3^4"], ["x1", "x2", "x3"], 12, (3, 7), Fraction(3, 4)),
            (["x1*x2"], ["x1", "x2"], 8, (5, 7), Fraction(1)),
        ],
        ids=["x1^2,x2^3", "x1^2*x2,x3^3", "x1*x2^2,x3^4", "x1*x2"],
    )
    def test_codims_and_threshold(self, gens, variables, M, primes, lct):
        ideal = IdealGens(tuple(parse_poly(g, variables) for g in gens))
        est = lct_estimate(ideal, M, primes=primes)
        closed = howald_codims([next(iter(g.terms)) for g in ideal.generators], len(variables), M)
        for m, rep, _ in est.per_m:
            if closed[m] is None:
                assert rep.status == "EXACT_EMPTY"
            else:
                assert rep.consensus_codim == closed[m], m
        assert est.estimate == min(Fraction(c, m) for m, c in closed.items() if c is not None)
        assert est.estimate == lct
        assert est.certified_upper_bound


class TestGuards:
    def test_needs_two_primes(self):
        gens = IdealGens((parse_poly("x1", ["x1"]),))
        with pytest.raises(ValidationError):
            lct_estimate(gens, 2, primes=(3,))

    def test_each_prime_once(self):
        gens = IdealGens((parse_poly("x1*x2", ["x1", "x2"]),))
        with pytest.raises(ValidationError, match="each prime once"):
            lct_estimate(gens, 2, primes=(2, 2, 3))

    def test_m_at_least_one(self):
        gens = IdealGens((parse_poly("x1", ["x1"]),))
        with pytest.raises(ValidationError):
            lct_estimate(gens, 0)

    def test_zero_ideal_has_no_contact_loci(self):
        gens = IdealGens((parse_poly("0", ["x1"]),))
        with pytest.raises(ValidationError, match="zero ideal has no contact loci"):
            lct_estimate(gens, 2)

    def test_estimate_above_the_ambient_dimension_is_flagged(self):
        # a codim-2 report at m = 1 in a fold over A^1: the ratio 2 passes
        # the generator count 3 but no threshold on A^1 exceeds 1
        rep = extract_codim([(q, q**2, q**4) for q in (2, 3)], 4)
        est = threshold_fold([rep], 1, 3)
        assert (est.estimate, est.internal_errors) == (2, ("estimate 2 exceeds the ambient dimension 1",))

    def test_estimate_below_generator_count(self):
        gens = IdealGens((parse_poly("x1", ["x1", "x2"]), parse_poly("x2", ["x1", "x2"])))
        est = lct_estimate(gens, 3, primes=(2, 3))
        assert est.estimate == 2  # the origin in the plane
        assert not est.internal_errors

    def test_smooth_hypersurface_in_plane(self):
        gens = IdealGens((parse_poly("x1 + x2^2", ["x1", "x2"]),))
        est = lct_estimate(gens, 3, primes=(2, 3))
        assert est.estimate == 1

    SMOOTH = IdealGens((parse_poly("x1 + x3 + x1^3", ["x1", "x2", "x3"]),))

    @staticmethod
    def buckets_and_report(monkeypatch, gens, m):
        """The report of the coordinate buckets alone, and the report that
        ``_level_report`` reads from the level-m tables at (2, 3), of Cont^m."""
        bucketed = []
        extract = arcdet.lct.extract_codim_bucketed

        def recording(*args):
            bucketed.append(extract(*args))
            return bucketed[-1]

        monkeypatch.setattr(arcdet.lct, "extract_codim_bucketed", recording)
        n = len(gens.variables)
        strata = [[x] for x in MultiPoly.coordinates(gens.field, gens.variables)]
        tables = [(q, contact_order_table([*strata, list(gens.nonzero())], n, m, q)) for q in (2, 3)]
        rep = _level_report(tables, m, m, n)
        (merged,) = bucketed
        return merged, rep

    def test_flat_fit_decides_what_the_buckets_cannot(self, monkeypatch):
        # x1 + x3 + x1^3 is smooth, so codim Cont^1 = 1; over F_2 no jet with
        # three unit coordinates meets it, and the coordinate buckets, read
        # alone, give the interval (2, 2), which misses the codimension
        merged, rep = self.buckets_and_report(monkeypatch, self.SMOOTH, 1)
        assert (merged.status, merged.codim_interval) == (STATUS_AMBIGUOUS, (2, 2))
        assert (rep.status, rep.consensus_codim, rep.method) == (STATUS_CONSENSUS, 1, "fit")
        assert rep.counts == ((2, 16, 64), (3, 162, 729))  # q^4 (q - 1) jets

    def test_an_ambiguous_level_withdraws_the_lower_bound(self, monkeypatch):
        # the interval (2, 2) at m = 1 excludes the codimension 1, so its low
        # end is no lower bound; Cont^2 counts q^6 (q - 1) of q^9 jets
        merged, rep = self.buckets_and_report(monkeypatch, self.SMOOTH, 1)
        deeper = extract_codim([(q, q**6 * (q - 1), q**9) for q in (2, 3)], 9)
        assert (deeper.consensus_codim, deeper.method) == (2, "fit")
        est = threshold_fold([merged, deeper], 3, 1)
        assert (est.estimate, est.witness_m, est.certified_upper_bound) == (1, 2, False)
        assert est.estimate_lower_bound is None
        assert "estimate_lower_bound" not in est.payload()
        # every level decided: the estimate is its own lower bound
        est = threshold_fold([rep, deeper], 3, 1)
        assert (est.estimate, est.estimate_lower_bound, est.certified_upper_bound) == (1, 1, True)
        assert est.payload()["estimate_lower_bound"] == "1"


class TestRoundingVote:
    # C4's chart y2 = 1 at m = 2 over F_2 and F_3: both logs round to 13 of 18
    # inside the guard band, a codim-5 vote, where the true codimension is 6
    C4_CHART = extract_codim([(2, 8832, 2**18), (3, 1116342, 3**18)], 18)

    @staticmethod
    def fit(codim, ambient):
        return extract_codim([(q, q ** (ambient - codim), q**ambient) for q in (2, 3)], ambient)

    def chart(self, chart_m2):
        # a W chart of diag(x1, x2, x3), in x1, x2, x3 and two y's, cut by
        # three forms: codim 3 at m = 1 and ``chart_m2`` at m = 2
        return threshold_fold([self.fit(3, 10), chart_m2], 5, 3)

    def test_estimate_on_a_vote_is_not_certified(self):
        rep = self.C4_CHART
        assert (rep.status, rep.consensus_codim, rep.method, rep.dims) == (STATUS_CONSENSUS, 5, "rounding", {2: 13, 3: 13})
        est = self.chart(rep)
        assert (est.estimate, est.witness_m) == (Fraction(5, 2), 2)
        assert not est.certified_upper_bound

    @pytest.mark.parametrize("certified", [False, True])
    def test_only_certified_estimates_fail_the_corollary(self, certified):
        # Z = V(x1 x2 x3) gives codim m (lct 1), and each W chart lct 5/2
        # against r = 3; the same codim 5 by the exact fit is a certificate,
        # and its 5/2 fails
        lct_z = threshold_fold([self.fit(1, 6), self.fit(2, 9)], 3, 1)
        charts = (self.chart(self.fit(5, 15) if certified else self.C4_CHART),) * 3
        rep = corollary_check(lct_z, (charts, Fraction(5, 2)), 3)
        assert (rep.lct_z.estimate, rep.lct_w, rep.z_is_one, rep.biconditional_ok) == (1, Fraction(5, 2), True, False)
        assert rep.verdict == (VERDICT_FAIL if certified else VERDICT_AMBIGUOUS)


class TestTables:
    def test_one_table_per_prime_in_a_scope(self, monkeypatch):
        counted = []
        count = arcdet.counting._contact_order_table

        def recording(ideals, n, level, q, budget, prefer):
            counted.append((level, q))
            return count(ideals, n, level, q, budget, prefer)

        monkeypatch.setattr(arcdet.counting, "_contact_order_table", recording)
        gens = IdealGens((parse_poly("x1*x2 + x1^3", ["x1", "x2"]),))
        with table_cache():
            est = lct_estimate(gens, 3, primes=(2, 3))
        assert counted == [(3, 3), (3, 2)]  # the largest prime first
        counted.clear()
        # outside a scope, too, the level-3 tables serve every level
        assert lct_estimate(gens, 3, primes=(2, 3)) == est
        assert counted == [(3, 3), (3, 2)]

    def test_a_held_table_off_by_one_is_refused(self):
        gens = IdealGens((parse_poly("x1*x2 + x1^3", ["x1", "x2"]),))
        with table_cache() as scope:
            lct_estimate(gens, 3, primes=(2, 3))
            (key,) = [key for key in scope.tables if key[2] == 3]
            level, (keys, counts) = scope.tables[key]
            # a row of work-ideal order 1 or 2 stands for whole fibers of 3^4 or 3^2 lifts
            (row, *_) = [i for i, order in enumerate(keys[:, -1].tolist()) if 1 <= order < level]
            doctored = counts.copy()
            doctored[row] += 1
            scope.tables[key] = (level, (keys, doctored))
            with pytest.raises(InternalInvariantError, match="not whole fibers"):
                lct_estimate(gens, 3, primes=(2, 3))
