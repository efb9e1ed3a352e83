"""Minor towers, profiles, strata, fiber checks, transforms, campaigns."""

from fractions import Fraction

import pytest

import arcdet.counting
import arcdet.determinantal
from arcdet import (
    GF,
    QQ,
    JetPoint,
    MultiPoly,
    PolyMatrix,
    TruncSeries,
    parse_poly,
    smith_normal_form,
)
from arcdet.determinantal import (
    DeterminantalPair,
    _is_generic_coordinate_matrix,
    cone_comparison_check,
    corollary_check,
    fiber_codim_formula,
    fiber_count_check,
    lambda_profile,
    lct_w_estimate,
    lct_z_estimate,
    minor_ideal_tower,
    minor_order_parts,
    minor_order_profile,
    profiles_of_size,
    stratum_counts,
    threshold_bound_backward,
    threshold_bound_forward,
)
from arcdet.consensus import STATUS_CONSENSUS, extract_codim
from arcdet.errors import BudgetExceeded, InternalInvariantError, ValidationError
from arcdet.harness import builtin_corpus, run_campaign
from arcdet.matrices import SeriesMatrix
from arcdet.snf import LambdaProfile

VS = ("x1", "x2", "x3", "x4")


def generic_2x2():
    return PolyMatrix([[parse_poly("x1", VS), parse_poly("x2", VS)], [parse_poly("x3", VS), parse_poly("x4", VS)]])


def diag_x1_x1():
    vs = ("x1",)
    zero = MultiPoly.zero(QQ, vs)
    x1 = parse_poly("x1", vs)
    return PolyMatrix([[x1, zero], [zero, x1]])


def jet(q, level, *coord_coeffs):
    f = GF(q)
    return JetPoint(tuple(TruncSeries.from_coeffs(f, level, list(c)) for c in coord_coeffs))


class TestTower:
    def test_generic(self):
        tower = minor_ideal_tower(generic_2x2())
        assert [str(g) for g in tower[0]] == ["x1", "x2", "x3", "x4"]
        assert [str(g) for g in tower[1]] == ["x1*x4 - x2*x3"]

    def test_zero_minors_dropped(self):
        tower = minor_ideal_tower(diag_x1_x1())
        assert [str(g) for g in tower[0]] == ["x1"]  # the repeated x1 is dropped too
        assert [str(g) for g in tower[1]] == ["x1^2"]

    def test_tall(self):
        vs = tuple(f"x{i}" for i in range(1, 7))
        m = PolyMatrix([[parse_poly(f"x{2*i + j + 1}", vs) for j in range(2)] for i in range(3)])
        tower = minor_ideal_tower(m)
        assert len(tower[0]) == 6 and len(tower[1]) == 3


class TestPair:
    def test_incidence_forms(self):
        pair = DeterminantalPair.from_matrix(generic_2x2())
        assert [str(g) for g in pair.w_gens] == ["x1*y1 + x2*y2", "x3*y1 + x4*y2"]
        for g in pair.w_gens:
            ys = [g.variables.index(y) for y in ("y1", "y2")]
            assert all(e[i] <= 1 for e in g.terms for i in ys)

    def test_rejects_vanishing_determinant(self):
        vs = ("x1",)
        x1 = parse_poly("x1", vs)
        with pytest.raises(ValidationError):
            DeterminantalPair.from_matrix(PolyMatrix([[x1, x1], [x1, x1]]))

    def test_chart_substitution(self):
        pair = DeterminantalPair.from_matrix(diag_x1_x1())
        chart = pair.chart_gens(0)
        assert sorted(str(g) for g in chart) == ["x1", "x1*y2"]

    def test_y_named_matrix_keeps_its_incidence_coordinates_apart(self):
        # diag(x1, y1) is diag(x1, x2) with x2 renamed: W and its charts
        # match term by term, over coordinates that skip the matrix's y1
        def diag_pair(vs):
            zero = MultiPoly.zero(QQ, vs)
            return DeterminantalPair.from_matrix(PolyMatrix([[parse_poly(vs[0], vs), zero], [zero, parse_poly(vs[1], vs)]]))

        x_pair, y_pair = diag_pair(("x1", "x2")), diag_pair(("x1", "y1"))
        assert y_pair.y_names == ("y2", "y3") and y_pair.w_gens.variables == ("x1", "y1", "y2", "y3")
        assert [str(g) for g in y_pair.w_gens] == ["x1*y2", "y1*y3"]
        assert [g.terms for g in y_pair.w_gens] == [g.terms for g in x_pair.w_gens]
        for i in range(2):
            assert [g.terms for g in y_pair.chart_gens(i)] == [g.terms for g in x_pair.chart_gens(i)]
        assert lct_w_estimate(y_pair, 2)[1] == lct_w_estimate(x_pair, 2)[1] == 2

    @pytest.mark.parametrize("matrix", [generic_2x2, diag_x1_x1])
    def test_tower_is_the_minor_ideal_tower(self, matrix):
        pair = DeterminantalPair.from_matrix(matrix())
        assert pair.tower == minor_ideal_tower(matrix())
        assert pair.z_gens is pair.tower[-1]

    def test_repeated_maximal_minors_appear_once(self):
        # rows 0 and 1 agree, so the minors on rows {0, 2} and {1, 2} are equal
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly(e, vs) for e in row] for row in (("x1", "x2"), ("x1", "x2"), ("x3", "x4"))])
        assert [str(g) for g in DeterminantalPair.from_matrix(A).z_gens] == ["x1*x4 - x2*x3"]

    def test_stratification_builds_each_tower_once(self, monkeypatch):
        # validation builds each matrix input's pair, and with it the tower,
        # once per run, and every stratum count reads the pair's tower
        build = arcdet.determinantal.minor_ideal_tower
        calls = []

        def counted(A):
            calls.append(A)
            return build(A)

        monkeypatch.setattr(arcdet.determinantal, "minor_ideal_tower", counted)
        campaign = builtin_corpus()["stratification-generic-2x2"]
        report = run_campaign(campaign)
        assert not report.failed and len(campaign.tasks) > 1
        assert len(calls) == sum(1 for _, (kind, _) in campaign.inputs if kind == "matrix") == 1


class TestLambdaProfile:
    def test_diagonal_pullback(self):
        lam = lambda_profile(generic_2x2(), jet(5, 4, [1], [0], [0], [0, 0, 1]))
        assert lam.parts == (0, 2) and not lam.truncation_flag

    def test_hand_computed_minor(self):
        # entries order 1; det = t(t + t^3) - t*t = t^4
        lam = lambda_profile(generic_2x2(), jet(5, 4, [0, 1], [0, 1], [0, 1], [0, 1, 0, 1]))
        assert lam.parts == (1, 3)

    def test_truncation_flag(self):
        lam = lambda_profile(diag_x1_x1(), jet(5, 2, [0, 0, 0]))
        assert lam.truncation_flag and lam.parts == ()

    def test_parts_are_first_differences(self):
        assert minor_order_parts([[0, 2], [1, 3], [2, 4]]).tolist() == [[0, 2], [1, 2], [2, 2]]
        assert minor_order_parts([[]]).tolist() == [[]]

    def test_decreasing_minor_orders_are_an_internal_error(self):
        with pytest.raises(InternalInvariantError, match=r"decreasing profile from minor orders: \(1, 1\)"):
            minor_order_parts([[0, 2], [1, 1]])

    def test_a_wide_series_matrix_is_refused(self):
        # as smith_normal_form refuses it; the minors would raise a bare ValueError
        with pytest.raises(ValidationError, match="at least as many rows as columns, got 1x2"):
            minor_order_profile(SeriesMatrix([[TruncSeries.zero(GF(5), 2)] * 2]))

    def test_agrees_with_snf(self):
        import random

        rng = random.Random("profiles")
        A = generic_2x2()
        done = 0
        while done < 25:
            j = jet(5, 4, *[[rng.randrange(5) for _ in range(5)] for _ in range(4)])
            lam = lambda_profile(A, j)
            if lam.truncation_flag or lam.size > 4:
                continue
            res = smith_normal_form(A.pullback(j))
            assert res.lam.parts == lam.parts
            done += 1


class TestStrata:
    def test_m1_single_stratum(self):
        rep = stratum_counts(DeterminantalPair.from_matrix(generic_2x2()), 1, 1, 2)
        nonzero = [(lam, c) for lam, c in rep.per_lambda if c]
        assert [lam for lam, _ in nonzero] == [(0, 1)]
        assert rep.partition_ok

    def test_m2_two_strata(self):
        rep = stratum_counts(DeterminantalPair.from_matrix(generic_2x2()), 2, 2, 2)
        nonzero = dict((lam, c) for lam, c in rep.per_lambda if c)
        assert set(nonzero) == {(0, 2), (1, 1)}
        assert rep.partition_ok
        assert rep.cont_m_count == sum(nonzero.values())

    def test_m0_complement(self):
        rep = stratum_counts(DeterminantalPair.from_matrix(generic_2x2()), 0, 1, 2)
        nonzero = dict((lam, c) for lam, c in rep.per_lambda if c)
        assert set(nonzero) == {(0, 0)}
        assert rep.partition_ok

    def test_monomial_tower_is_classified_by_enumeration(self, monkeypatch):
        # diag(x1, x2): every minor is a monomial, so the cheapest total counts
        # from coordinate orders while the classification enumerates every jet
        calls = []
        for name in ("_direct_distribution", "_monomial_distribution"):
            strategy = getattr(arcdet.counting, name)

            def record(*args, _name=name, _strategy=strategy):
                calls.append(_name)
                return _strategy(*args)

            monkeypatch.setattr(arcdet.counting, name, record)
        vs = ("x1", "x2")
        zero = MultiPoly.zero(QQ, vs)
        A = PolyMatrix([[parse_poly("x1", vs), zero], [zero, parse_poly("x2", vs)]])
        rep = stratum_counts(DeterminantalPair.from_matrix(A), 2, 2, 3)
        assert calls == ["_direct_distribution", "_monomial_distribution"]
        assert rep.partition_ok

    def test_generic_tower_is_classified_by_enumeration(self, monkeypatch):
        # the partition identity compares two algorithms: the classification
        # enumerates every jet, the total splits det = x1*x4 - x2*x3 additively
        calls = []
        for name in ("_direct_distribution", "_additive_split_distribution", "_monomial_distribution"):
            strategy = getattr(arcdet.counting, name)

            def record(*args, _name=name, _strategy=strategy):
                calls.append(_name)
                return _strategy(*args)

            monkeypatch.setattr(arcdet.counting, name, record)
        rep = stratum_counts(DeterminantalPair.from_matrix(generic_2x2()), 2, 2, 3)
        assert calls == ["_direct_distribution", "_additive_split_distribution"]
        assert rep.partition_ok

    def test_profile_enumeration(self):
        assert profiles_of_size(2, 2, 3) == [(0, 2), (1, 1)]
        assert profiles_of_size(3, 3, 3) == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]


class TestFiberFormula:
    def test_values(self):
        assert fiber_codim_formula(LambdaProfile((0, 2)), 2) == 2
        assert fiber_codim_formula(LambdaProfile((1, 2)), 3) is None
        assert fiber_codim_formula(LambdaProfile((0, 0)), 0) == 0

    def test_truncated_rejected(self):
        with pytest.raises(ValidationError):
            fiber_codim_formula(LambdaProfile((0,), truncation_flag=True), 1)

    @pytest.mark.parametrize(
        "lam,match", [(LambdaProfile(()), "empty profile"), (LambdaProfile((0,), True), "fully determined")]
    )
    def test_check_refuses_before_counting(self, monkeypatch, lam, match):
        def refuse(*args, **kwargs):
            raise AssertionError("the check counted a profile the formula refuses")

        monkeypatch.setattr(arcdet.determinantal, "proj_count_contact", refuse)
        with pytest.raises(ValidationError, match=match):
            fiber_count_check(lam, 0, 1)

    @pytest.mark.parametrize("lam,m", [((0, 2), 1), ((0, 2), 3), ((1, 1), 1)])
    def test_counted_checks(self, lam, m):
        fc = fiber_count_check(LambdaProfile(lam), m, 3, primes=(2, 3))
        assert fc.verdict == "PASS"


class TestTransforms:
    def test_forward(self):
        assert threshold_bound_forward(1, 2) == 2
        assert threshold_bound_forward(Fraction(1, 2), 2) == 1
        assert threshold_bound_forward(2, 3) == 4

    def test_backward(self):
        assert threshold_bound_backward(1, 2) == 1
        assert threshold_bound_backward(Fraction(1, 2), 2) == Fraction(1, 2)
        assert threshold_bound_backward(3, 2) == 2

    def test_domain(self):
        with pytest.raises(ValidationError):
            threshold_bound_forward(0, 2)

    def test_fixed_point_consistency(self):
        # backward(forward(c, r) - (r-1), r) <= c on sampled rationals, equality at c = 1
        for r in (2, 3):
            for c in [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]:
                c_prime = threshold_bound_forward(c, r) - (r - 1)
                if c_prime > 0:
                    assert threshold_bound_backward(c_prime, r) <= c
            assert threshold_bound_backward(threshold_bound_forward(1, r) - (r - 1), r) == 1


def corollary(A, M):
    pair = DeterminantalPair.from_matrix(A)
    lct_z = lct_z_estimate(pair, M, primes=(2, 3))
    return corollary_check(lct_z, lct_w_estimate(pair, M, primes=(2, 3)), pair.r)


class TestCorollary:
    def test_generic(self):
        rep = corollary(generic_2x2(), 4)
        assert rep.lct_z.estimate == 1
        assert rep.lct_w == 2
        assert rep.verdict == "PASS"

    def test_diag(self):
        rep = corollary(diag_x1_x1(), 4)
        assert rep.lct_z.estimate == Fraction(1, 2)
        assert rep.lct_w == 1
        # Theorem bound attained with equality: min(2 * 1/2, 1 + 1/2) = 1
        assert threshold_bound_forward(rep.lct_z.estimate, 2) == rep.lct_w
        assert rep.verdict == "PASS"

    def test_mismatched_levels_rejected(self):
        # M is read from the Z estimate, and every W chart must reach it too
        pair = DeterminantalPair.from_matrix(diag_x1_x1())
        lct_z = lct_z_estimate(pair, 2, primes=(2, 3))
        with pytest.raises(ValidationError, match="Z reaches 2, W \\[3\\]"):
            corollary_check(lct_z, lct_w_estimate(pair, 3, primes=(2, 3)), pair.r)

    def test_estimates_respect_forward_bound(self):
        for A in (generic_2x2(), diag_x1_x1()):
            rep = corollary(A, 4)
            eps = rep.tolerance
            c = rep.lct_z.estimate - eps
            if c > 0:
                assert rep.lct_w >= threshold_bound_forward(c, rep.r) - eps


class TestCone:
    @pytest.mark.parametrize("vs,rows,generic", [
        (VS, [["x1", "x2"], ["x3", "x4"]], True),
        (VS, [["x1", "2*x2"], ["x3", "x4"]], False),  # a coefficient
        (VS[:3], [["x1", "x2"], ["x3", "x1"]], False),  # a repeated variable
        (VS[:1], [["x1", "0"], ["0", "x1"]], False),  # zero entries
        (VS + ("x5",), [["x1", "x2"], ["x3", "x4"]], False),  # x5 left out
    ], ids=["generic", "coefficient", "repeat", "zero", "missing"])
    def test_generic_coordinate_matrix(self, vs, rows, generic):
        A = PolyMatrix([[parse_poly(e, vs) for e in row] for row in rows])
        assert _is_generic_coordinate_matrix(A) is generic

    def test_single_entry_matrix(self):
        A = PolyMatrix([[parse_poly("x1", ("x1",))]])
        for m in (1, 2):
            for p in range(m + 1):
                check = cone_comparison_check(DeterminantalPair.from_matrix(A), m, p, m, primes=(2, 3))
                assert check.verdict == "PASS"
                if p == 1 and m == 2:
                    # codim(Cont^2 cap Cont^1(zero section)) = 1*1 + codim(Cont^1 punctured) = 2
                    assert check.lhs_report.consensus_codim == 2

    def test_budget_is_left_to_the_engine(self):
        # the joint space of diag(x1, x2) has 2^16 and 3^16 jets, over the
        # budget, but its incidence forms x1*y1, x2*y2 are monomials: the
        # engine counts them exactly instead of raising
        vs = ("x1", "x2")
        zero = MultiPoly.zero(QQ, vs)
        A = PolyMatrix([[parse_poly("x1", vs), zero], [zero, parse_poly("x2", vs)]])
        check = cone_comparison_check(DeterminantalPair.from_matrix(A), 2, 1, 3, primes=(2, 3), budget=1000)
        assert check == cone_comparison_check(DeterminantalPair.from_matrix(A), 2, 1, 3, primes=(2, 3))
        assert check.method == "direct/direct" and check.verdict == "PASS"

    def test_refused_at_the_largest_prime_before_any_table(self, monkeypatch):
        # the joint space has 2^8 jets at level 1, within the budget, and 3^8
        # over it; the matrix is not generic-coordinate, so no closed form
        counted = []
        count = arcdet.counting._contact_order_table

        def recording(ideals, n, level, q, budget, prefer):
            table = count(ideals, n, level, q, budget, prefer)
            counted.append((level, q))
            return table

        monkeypatch.setattr(arcdet.counting, "_contact_order_table", recording)
        vs = ("x1", "x2")
        x1, x2 = parse_poly("x1", vs), parse_poly("x2", vs)
        pair = DeterminantalPair.from_matrix(PolyMatrix([[x1, x2], [x2, x1]]))
        with pytest.raises(BudgetExceeded):
            cone_comparison_check(pair, 1, 0, 1, primes=(2, 3), budget=1000)
        assert counted == []

    def test_each_prime_once(self):
        pair = DeterminantalPair.from_matrix(generic_2x2())
        with pytest.raises(ValidationError, match="each prime once"):
            cone_comparison_check(pair, 1, 0, 1, primes=(2, 2))

    def test_generic_small(self):
        check = cone_comparison_check(DeterminantalPair.from_matrix(generic_2x2()), 1, 1, 1, primes=(2, 3))
        assert check.verdict == "PASS"
        assert check.count_identity_ok

    def test_degenerate_p_zero(self):
        A = PolyMatrix([[parse_poly("x1", ("x1",))]])
        check = cone_comparison_check(DeterminantalPair.from_matrix(A), 2, 0, 2, primes=(2, 3))
        assert check.verdict == "PASS"

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            cone_comparison_check(DeterminantalPair.from_matrix(generic_2x2()), 1, 2, 3)

    def test_closed_form_matches_direct(self):
        from arcdet.determinantal import (
            DeterminantalPair,
            _cone_side_counts_direct,
            _cone_side_counts_generic,
        )

        pair = DeterminantalPair.from_matrix(generic_2x2())
        cells = {2: [(1, 1, 0), (1, 1, 1), (2, 2, 1), (2, 2, 2), (2, 1, 1)], 3: [(1, 1, 0), (1, 1, 1)]}
        for q, triples in cells.items():
            for level, m, p in triples:
                direct = _cone_side_counts_direct(pair, level, q, m, p, 10**9)
                closed = _cone_side_counts_generic(4, 2, 2, level, q, m, p)
                assert direct == closed, (q, level, m, p)


class TestRoundingVoteVerdicts:
    """A codimension that only a rounding vote decided cannot fail a check;
    the same codimension from the exact fit does.  The reports are patched in
    the way ``test_lct.TestRoundingVote`` patches them."""

    # C4's chart y2 = 1 at m = 2 over F_2 and F_3: a codim-5 vote inside the
    # guard band, where the true codimension is 6
    VOTE = extract_codim([(2, 8832, 2**18), (3, 1116342, 3**18)], 18)

    @staticmethod
    def fit(codim, ambient=18):
        return extract_codim([(q, q ** (ambient - codim), q**ambient) for q in (2, 3)], ambient)

    def test_the_reports(self):
        assert (self.VOTE.status, self.VOTE.consensus_codim, self.VOTE.method) == (STATUS_CONSENSUS, 5, "rounding")
        assert (self.fit(5).consensus_codim, self.fit(5).method) == (5, "fit")

    @pytest.mark.parametrize("certified", [False, True])
    def test_fiber_check(self, monkeypatch, certified):
        # the fiber over diag(t^2, t^2) at m = 1 has formula codimension 0
        report = self.fit(5) if certified else self.VOTE
        monkeypatch.setattr(arcdet.determinantal, "proj_count_contact", lambda lam, query, budget: report)
        fc = fiber_count_check(LambdaProfile((2, 2)), 1, 2)
        assert (fc.formula_codim, fc.report) == (0, report)
        assert fc.verdict == ("FAIL" if certified else "AMBIGUOUS")

    def test_a_vote_that_agrees_passes(self, monkeypatch):
        monkeypatch.setattr(arcdet.determinantal, "proj_count_contact", lambda lam, query, budget: self.VOTE)
        assert fiber_count_check(LambdaProfile((0, 0, 0, 0, 0, 5)), 1, 5).verdict == "PASS"

    @pytest.mark.parametrize("certified", [False, True])
    def test_cone_check(self, monkeypatch, certified):
        # generic 2x2, m = p = 1 at level 1: the left side (ambient 12) reads
        # codim 5 and the right side (ambient 6) codim 2, where the relation
        # wants p*r + 2 = 4; the counts themselves are real and agree
        def fake(counts, ambient):
            if ambient == 12:
                return self.fit(5, 12) if certified else self.VOTE
            return self.fit(2, 6)

        monkeypatch.setattr(arcdet.determinantal, "extract_codim", fake)
        check = cone_comparison_check(DeterminantalPair.from_matrix(generic_2x2()), 1, 1, 1, primes=(2, 3))
        assert check.count_identity_ok
        assert check.codim_identity_ok is (False if certified else None)
        assert check.verdict == ("FAIL" if certified else "AMBIGUOUS")
