"""Campaign validation, execution, determinism, and budget behavior."""

import dataclasses
import hashlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import arcdet.counting
import arcdet.determinantal
import arcdet.harness
import arcdet.snf
from arcdet.configurations import ConfigurationMatrix, patterson_matrix
from arcdet.consensus import extract_codim
from arcdet.determinantal import VERDICT_FAIL, DeterminantalPair, minor_ideal_tower
from arcdet.errors import ValidationError
from arcdet.fields import GF
from arcdet.harness import _KINDS, _threshold_status, Campaign, Task, builtin_corpus, run_campaign
from arcdet.io import campaign_from_doc
from arcdet.jets import IdealGens
from arcdet.lct import threshold_fold
from arcdet.matrices import PolyMatrix
from arcdet.poly import parse_poly
from arcdet.series import TruncSeries


def tiny_matrix():
    return PolyMatrix([[parse_poly("x1", ("x1",))]])


class TestValidation:
    def test_empty_campaign_passes(self):
        rep = run_campaign(Campaign.make("empty", {}, []))
        assert not rep.failed and rep.results == ()

    def test_undeclared_input(self):
        c = Campaign.make("bad", {}, [Task.make("t", "corollary", matrix="nope", max_m=2)])
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        assert "undeclared input" in str(err.value)

    def test_all_errors_listed_before_execution(self):
        c = Campaign.make(
            "bad",
            {},
            [
                Task.make("t1", "corollary", matrix="nope", max_m=2),
                Task.make("t2", "made_up_kind"),
                Task.make("t2", "cone", matrix="nope", m=2, p=3, level=1),
            ],
        )
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        msg = str(err.value)
        assert "undeclared input" in msg
        assert "unknown task kind" in msg
        assert "duplicate task name" in msg
        assert "0 <= p <= m <= level" in msg

    def test_bad_profile(self):
        c = Campaign.make("bad", {}, [Task.make("t", "fiber_formula", lam=[2, 1], m=1, level=2)])
        with pytest.raises(ValidationError):
            run_campaign(c)

    def test_run_time_errors_are_validation_errors(self):
        # both tasks used to fail mid-run with a bare message naming no task
        c = Campaign.make(
            "bad",
            {"x1": ("ideal", IdealGens((parse_poly("x1", ("x1",)),)))},
            [
                Task.make("one-prime", "lct_z", ideal="x1", max_m=2, primes=[3]),
                Task.make("tall-profile", "fiber_formula", lam=[1, 3], m=1, level=2),
            ],
        )
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        msg = str(err.value)
        assert "campaign validation failed" in msg
        assert "one-prime: threshold estimation needs at least two distinct primes" in msg
        assert "tall-profile: profile exceeds the level" in msg

    def test_mistyped_integer_parameters(self):
        # a string m used to escape as a bare TypeError from the m <= level check
        c = Campaign.make(
            "bad",
            {"m": ("matrix", tiny_matrix())},
            [
                Task.make("a", "stratification", matrix="m", m="1", level=2, prime=2),
                Task.make("b", "fiber_formula", lam=[1, True], m=1, level=2.0, primes=[2, "3"]),
                Task.make("c", "cone", matrix="m", m=1, p=False, level=1),
                Task.make("d", "lct_w", matrix="m", max_m=None),
            ],
        )
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        msg = str(err.value)
        assert "a: m must be an integer, got '1'" in msg
        assert "b: level must be an integer, got 2.0" in msg
        assert "b: primes must be a list of integers, got [2, '3']" in msg
        assert "b: lam must be a list of integers, got [1, True]" in msg
        assert "c: p must be an integer, got False" in msg
        assert "d: max_m must be an integer, got None" in msg

    def test_every_invalid_task_is_rejected_before_any_task_runs(self, monkeypatch):
        # each invalid task used to escape mid-run (KeyError, a bare ValueError
        # or IndexError) or to run in the wrong mode; the valid one must not run
        ran = []
        monkeypatch.setattr(arcdet.harness, "stratum_counts", lambda *args, **kw: ran.append(args))
        c = Campaign.make(
            "bad",
            {
                "m": ("matrix", tiny_matrix()),
                "x1": ("ideal", IdealGens((parse_poly("x1", ("x1",)),))),
                "tri": ("configuration", ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])),
            },
            [
                Task.make("valid", "stratification", matrix="m", m=1, level=1, prime=2),
                Task.make("no-m", "stratification", matrix="m", level=2, prime=2),
                Task.make("both", "lct_z", ideal="x1", matrix="nope", max_m=2),
                Task.make("prime-4", "stratification", matrix="m", m=1, level=1, prime=4),
                Task.make("snf-prime-4", "snf_roundtrip", prime=4),
                Task.make("primes-2-4", "fiber_formula", lam=[1, 1], m=1, level=2, primes=[2, 4]),
                Task.make("primes-2-3-3", "lct_z", ideal="x1", max_m=2, primes=[2, 3, 3]),
                Task.make("grid-params", "one_generic", configuration="tri", r=3, n_max=1),
                Task.make("wrong-kind", "configuration", configuration="m", max_m=2),
                Task.make("expect-x", "lct_z", ideal="x1", max_m=2, expect="x"),
                Task.make("r-above-n", "cauchy_binet", r_max=5, n_max=2),
                Task.make("one-number-shape", "snf_roundtrip", shapes=[[2]]),
                Task.make("grid-r-above-n", "one_generic_grid", r=3, n_max=2),
                Task.make("no-input", "lct_z", max_m=2),
            ],
        )
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        assert str(err.value).splitlines() == [
            "campaign validation failed:",
            "  no-m: missing parameter 'm'",
            "  both: undeclared input 'nope'",
            "  both: takes one of 'ideal' and 'matrix', not both",
            "  prime-4: prime must be a prime below 2^31, got 4",
            "  snf-prime-4: prime must be a prime below 2^31, got 4",
            "  primes-2-4: primes must be a non-empty list of distinct primes below 2^31, got [2, 4]",
            "  primes-2-3-3: primes must be a non-empty list of distinct primes below 2^31, got [2, 3, 3]",
            "  grid-params: unknown parameters for one_generic: ['n_max', 'r']",
            "  wrong-kind: input 'm' is a matrix, expected configuration",
            "  expect-x: expect must be an integer or a rational string such as '1/2', got 'x'",
            "  r-above-n: need r_max <= n_max",
            "  one-number-shape: shapes must be a non-empty list of [rows, cols] with rows >= cols >= 1, got [[2]]",
            "  grid-r-above-n: need r <= n_max",
            "  no-input: missing input reference 'ideal'",
        ]
        assert ran == []

    def test_a_wide_matrix_is_refused_before_any_task_runs(self, monkeypatch):
        # the 1x3 matrix used to abort the run with a bare ValueError from the
        # minors, after the snf_roundtrip task had run
        ran = []
        monkeypatch.setitem(_KINDS, "snf_roundtrip", dataclasses.replace(
            _KINDS["snf_roundtrip"], run=lambda *args: ran.append(args) or ("PASS", {})
        ))
        vs = ("x1", "x2", "x3")
        wide = PolyMatrix([[parse_poly(v, vs) for v in vs]])
        c = Campaign.make("bad", {"wide": ("matrix", wide)}, [
            Task.make("snf", "snf_roundtrip", count=1),
            Task.make("strata-wide", "stratification", matrix="wide", m=1, level=1, prime=2),
        ])
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        assert str(err.value).splitlines() == [
            "campaign validation failed:",
            "  strata-wide: input 'wide': a determinantal pair needs at least as many rows as columns, got 1x3",
        ]
        assert ran == []

    def test_a_prime_dividing_a_denominator_is_refused(self):
        # the entry 1/2 gives the Patterson entry 1/4, which has no residue
        # mod 2; the run used to die with a bare ZeroDivisionError mid-count
        half = ConfigurationMatrix.from_rows([[1, "1/2", 0], [0, 1, -1]])
        inputs = {"half": ("configuration", half)}
        c = Campaign.make("bad", inputs, [
            Task.make("half-at-2-3", "configuration", configuration="half", max_m=1),
            Task.make("missing", "configuration", configuration="nope", max_m=1),
        ])
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        assert str(err.value).splitlines() == [
            "campaign validation failed:",
            "  half-at-2-3: the configuration has the entry 1/2, whose denominator the prime 2 divides",
            "  missing: undeclared input 'nope'",
        ]
        odd = Campaign.make("odd", inputs, [Task.make("t", "configuration", configuration="half", max_m=1, primes=[3, 5])])
        assert len(arcdet.harness._validate_campaign(odd)) == 1

    def test_a_prime_dividing_a_basis_determinant_is_refused(self):
        # U(2,4) with det(D|_{0,3}) = 2: mod 2 that basis is lost, so the counts
        # would belong to another matroid's configuration
        u24 = ConfigurationMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 2]])
        triangle = ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
        inputs = {"u24": ("configuration", u24), "triangle": ("configuration", triangle)}

        def task(name, primes):
            return Task.make(name, "configuration", configuration=name, max_m=1, primes=primes)

        with pytest.raises(ValidationError) as err:
            run_campaign(Campaign.make("bad", inputs, [task("u24", [2, 3]), task("triangle", [2, 3])]))
        assert str(err.value).splitlines() == [
            "campaign validation failed:",
            "  u24: the prime 2 divides det(D|_[0, 3]) = 2",
        ]
        report = run_campaign(Campaign.make("good", inputs, [task("u24", [3, 5]), task("triangle", [2, 3])]))
        assert [r.status for r in report.results] == ["PASS", "PASS"]

    def test_each_matrix_input_is_checked_once(self, monkeypatch):
        # a corollary on a 2x1 matrix used to fail mid-run naming no task
        built = []
        from_matrix = DeterminantalPair.from_matrix.__func__
        monkeypatch.setattr(DeterminantalPair, "from_matrix", classmethod(
            lambda cls, A: built.append(A) or from_matrix(cls, A)
        ))
        vs = ("x1", "x2")
        tall = PolyMatrix([[parse_poly("x1", vs)], [parse_poly("x2", vs)]])
        zero = PolyMatrix([[parse_poly("0", vs)]])
        c = Campaign.make("bad", {"tall": ("matrix", tall), "zero": ("matrix", zero)}, [
            Task.make("strata-tall", "stratification", matrix="tall", m=1, level=1, prime=2),
            Task.make("cone-tall", "cone", matrix="tall", m=1, p=0, level=1),
            Task.make("corollary-tall", "corollary", matrix="tall", max_m=2),
            Task.make("lct-zero", "lct_z", matrix="zero", max_m=2),
            Task.make("lct-w-zero", "lct_w", matrix="zero", max_m=2),
        ])
        with pytest.raises(ValidationError) as err:
            run_campaign(c)
        vanishes = "input 'zero': the maximal-minor ideal vanishes identically; the degeneracy locus must be proper"
        assert str(err.value).splitlines() == [
            "campaign validation failed:",
            "  corollary-tall: input 'tall' is 2x1, not square",
            f"  lct-zero: {vanishes}",
            f"  lct-w-zero: {vanishes}",
        ]
        assert built == [tall, zero]

    def test_one_task_runs_as_in_a_campaign(self):
        # the CLI runs one task as a campaign of one, named after its kind
        inputs = {"m": ("matrix", _generic())}
        strata = Task.make("stratification", "stratification", matrix="m", m=1, level=1, prime=2)
        cone = Task.make("cone", "cone", matrix="m", m=1, p=1, level=1, primes=[2, 3])
        (alone,) = run_campaign(Campaign.make("stratification", inputs, [strata])).results
        both = run_campaign(Campaign.make("both", inputs, [cone, strata])).results
        assert alone == both[1]
        bad = Task.make("stratification", "stratification", matrix="m", m=1, level=1, prime=4)
        with pytest.raises(ValidationError, match="stratification: prime must be a prime below 2"):
            run_campaign(Campaign.make("stratification", inputs, [bad]))

    def test_runners_get_defaults_and_resolved_inputs(self, monkeypatch):
        seen = []

        def record(p, budget, seed):
            seen.append((p, seed))
            return "PASS", {}

        monkeypatch.setitem(_KINDS, "lct_z", dataclasses.replace(_KINDS["lct_z"], run=record))
        gens = IdealGens((parse_poly("x1", ("x1",)),))
        c = Campaign.make("c", {"x1": ("ideal", gens)}, [Task.make("t", "lct_z", ideal="x1", max_m=2)])
        rep = run_campaign(c, seed=7)
        assert seen == [(
            {"ideal": gens, "matrix": None, "primes": (2, 3), "expect": None, "tolerance": 0,
             "require_consensus": False, "max_m": 2},
            "7:t",
        )]
        assert rep.results[0].params == {"ideal": "x1", "max_m": 2}


class TestExecution:
    def test_corpus_membership(self):
        corpus = builtin_corpus()
        for name in (
            "stratification-generic-2x2",
            "fiber-formula-grid",
            "configuration-triangle",
            "corollary-generic-2x2",
            "cone-comparison-basic",
        ):
            assert name in corpus

    def test_fiber_grid_profile_coverage(self):
        corpus = builtin_corpus()
        tasks = corpus["fiber-formula-grid"].tasks
        lams = {tuple(t.param_dict()["lam"]) for t in tasks}
        assert (0, 0) in lams and (3, 3) in lams and (0, 1, 3) in lams and (3, 3, 3) in lams

    def test_identity_failure_marks_run_failed(self):
        # a fiber task whose profile/m pair we tamper with cannot fail honestly,
        # so check the flag wiring on a FAIL status directly
        from arcdet.harness import Report, TaskResult

        r = Report(
            campaign="x", seed=0, budget=1,
            results=(TaskResult("a", "fiber_formula", VERDICT_FAIL, True, {}, {}),),
            failed=True, wall_time=0.0,
        )
        assert r.failed

    def test_lct_w_task(self):
        c = Campaign.make(
            "w-side",
            {"m": ("matrix", _generic())},
            [Task.make("w", "lct_w", matrix="m", max_m=2, expect="2", tolerance="1/4")],
        )
        rep = run_campaign(c)
        assert rep.results[0].status == "PASS"
        assert rep.results[0].payload["lct_w"] == "2"

    @pytest.mark.parametrize("certified", [False, True])
    def test_lct_w_task_misses_fail_only_when_certified(self, monkeypatch, certified):
        # every chart reads codim 3 at m = 1 and codim 5 at m = 2, so lct_w =
        # 5/2 against the expected 2; the C4 vote's codim 5 cannot fail the
        # task, the exact fit's can
        def fit(codim, ambient):
            return extract_codim([(q, q ** (ambient - codim), q**ambient) for q in (2, 3)], ambient)

        m2 = fit(5, 15) if certified else extract_codim([(2, 8832, 2**18), (3, 1116342, 3**18)], 18)
        chart = threshold_fold([fit(3, 10), m2], 5, 3)
        assert chart.estimate == Fraction(5, 2) and chart.certified_upper_bound == certified
        monkeypatch.setattr(arcdet.harness, "lct_w_estimate", lambda *args, **kwargs: ((chart, chart), chart.estimate))
        c = Campaign.make(
            "w-side", {"m": ("matrix", _generic())},
            [Task.make("w", "lct_w", matrix="m", max_m=2, expect="2", tolerance="1/4")],
        )
        (result,) = run_campaign(c).results
        assert (result.status, result.payload["lct_w"]) == ("FAIL" if certified else "AMBIGUOUS", "5/2")

    @pytest.mark.parametrize("certified", [False, True])
    def test_an_internal_error_fails_a_certified_estimate_only(self, monkeypatch, certified):
        # Z reads lct 1 and each W chart 2, as the theorem wants, but the Z
        # estimate breaks its generator-count guard (a count of 0 cannot hold
        # any estimate); an estimate on a vote cannot fail a task, a certified one can
        def fit(codim, ambient):
            return extract_codim([(q, q ** (ambient - codim), q**ambient) for q in (2, 3)], ambient)

        z_m1 = fit(1, 6) if certified else extract_codim([(2, 33, 64), (3, 245, 729)], 6)
        lct_z = threshold_fold([z_m1], 3, 0)
        assert (lct_z.estimate, lct_z.certified_upper_bound) == (1, certified) and lct_z.internal_errors
        chart = threshold_fold([fit(2, 5)], 5, 3)
        monkeypatch.setattr(arcdet.harness, "lct_estimate", lambda *args, **kwargs: lct_z)
        monkeypatch.setattr(arcdet.harness, "lct_z_estimate", lambda *args, **kwargs: lct_z)
        monkeypatch.setattr(arcdet.harness, "lct_w_estimate", lambda *args, **kwargs: ((chart, chart), chart.estimate))
        x1 = IdealGens((parse_poly("x1", ("x1",)),))
        c = Campaign.make("errors", {"x1": ("ideal", x1), "m": ("matrix", _generic())}, [
            Task.make("z", "lct_z", ideal="x1", max_m=1, expect="1"),
            Task.make("corollary", "corollary", matrix="m", max_m=1, expect_z="1", expect_w="2"),
        ])
        z, corollary = run_campaign(c).results
        assert [z.status, corollary.status] == ["FAIL" if certified else "AMBIGUOUS"] * 2
        message = "estimate 1 exceeds the generator count 0; a d-equation subscheme has threshold <= d"
        assert z.payload["internal_errors"] == corollary.payload["lct_z"]["internal_errors"] == [message]

    @pytest.mark.parametrize("certified", [False, True])
    def test_a_chart_internal_error_fails_a_certified_estimate_only(self, monkeypatch, certified):
        # Z reads lct 1 and each W chart 2, as the theorem wants, but each
        # chart breaks its generator-count guard (one generator cannot hold
        # an estimate 2); both tasks used to read PASS whatever the charts' errors
        def fit(codim, ambient):
            return extract_codim([(q, q ** (ambient - codim), q**ambient) for q in (2, 3)], ambient)

        w_m1 = fit(2, 10) if certified else extract_codim([(2, 260, 2**10), (3, 6600, 3**10)], 10)
        chart = threshold_fold([w_m1], 5, 1)
        assert (chart.estimate, chart.certified_upper_bound) == (2, certified) and chart.internal_errors
        lct_z = threshold_fold([fit(1, 8)], 4, 1)
        assert (lct_z.estimate, lct_z.certified_upper_bound, lct_z.internal_errors) == (1, True, ())
        monkeypatch.setattr(arcdet.harness, "lct_z_estimate", lambda *args, **kwargs: lct_z)
        monkeypatch.setattr(arcdet.harness, "lct_w_estimate", lambda *args, **kwargs: ((chart, chart), chart.estimate))
        c = Campaign.make("errors", {"m": ("matrix", _generic())}, [
            Task.make("w", "lct_w", matrix="m", max_m=1, expect="2"),
            Task.make("corollary", "corollary", matrix="m", max_m=1, expect_z="1", expect_w="2"),
        ])
        w, corollary = run_campaign(c).results
        assert [w.status, corollary.status] == ["FAIL" if certified else "AMBIGUOUS"] * 2
        message = "estimate 2 exceeds the generator count 1; a d-equation subscheme has threshold <= d"
        assert w.payload["charts"][0]["internal_errors"] == corollary.payload["charts"][0]["internal_errors"] == [message]

    def test_a_broken_smith_transform_fails_the_roundtrip(self, monkeypatch):
        # every transform is a product of units, swaps and elementary
        # operations; one that is not invertible is a bug, and used to be
        # counted as a skipped sample
        monkeypatch.setattr(arcdet.snf, "det_division_free", lambda M: TruncSeries.t_power(GF(5), 6, 1))
        c = Campaign.make("snf", {}, [Task.make("snf", "snf_roundtrip", count=3)])
        (result,) = run_campaign(c).results
        assert result.status == "FAIL"
        assert result.payload == {
            "count": 3, "skipped_undetermined": 0,
            "failures": [f"sample {i}: row transform is not invertible mod t^(N+1)" for i in range(3)],
        }

    def test_a_minor_order_mismatch_fails_the_roundtrip(self, monkeypatch):
        wrong = arcdet.snf.LambdaProfile((0, 9))
        monkeypatch.setattr(arcdet.harness, "minor_order_profile", lambda M: wrong)
        c = Campaign.make("snf", {}, [Task.make("snf", "snf_roundtrip", count=3)])
        (result,) = run_campaign(c).results
        failures = result.payload["failures"]
        assert result.status == "FAIL" and len(failures) == 3
        assert all(f.startswith(f"minor-order oracle mismatch at sample {i}: {wrong} against ")
                   for i, f in enumerate(failures))

    def test_a_decreasing_minor_order_profile_fails_the_roundtrip(self, monkeypatch):
        # sigma = (2, 3) would be the profile (2, 1); the reader's rule raises
        # it, and the roundtrip records it as that sample's failure
        monkeypatch.setattr(arcdet.determinantal, "minors", lambda M, ell: [TruncSeries.t_power(GF(5), 6, ell + 1)])
        c = Campaign.make("snf", {}, [Task.make("snf", "snf_roundtrip", count=3)])
        (result,) = run_campaign(c).results
        assert result.status == "FAIL"
        assert result.payload == {
            "count": 3, "skipped_undetermined": 0,
            "failures": [f"sample {i}: decreasing profile from minor orders: (2, 3)" for i in range(3)],
        }

    def test_the_generic_3x3_corollary_is_refused_before_any_count(self, monkeypatch):
        # the largest prime is counted first, and every plan grows with q, so
        # the q = 3 refusal at M = 2 comes before any q = 2 table is counted
        counted = []
        count = arcdet.counting._contact_order_table

        def record(*args):
            table = count(*args)
            counted.append(args[2:4])
            return table

        monkeypatch.setattr(arcdet.counting, "_contact_order_table", record)
        vs = tuple(f"x{i}" for i in range(1, 10))
        generic = PolyMatrix([[parse_poly(vs[3 * i + j], vs) for j in range(3)] for i in range(3)])
        c = Campaign.make("g3", {"g": ("matrix", generic)}, [Task.make("c", "corollary", matrix="g", max_m=2)])
        (result,) = run_campaign(c).results
        assert result.status == "SKIPPED_BUDGET"
        assert result.payload["reason"].startswith("jet space has 7625597484987 points")  # 3^27, at q = 3
        assert counted == []

    def test_budget_skip_and_monotonicity(self):
        c = Campaign.make(
            "strata-budget",
            {"m": ("matrix", _generic())},
            [Task.make("hungry", "stratification", matrix="m", m=1, level=1, prime=3)],
        )
        small = run_campaign(c, budget=10)
        assert small.results[0].status == "SKIPPED_BUDGET"
        big = run_campaign(c, budget=10**9)
        assert big.results[0].status == "PASS"

    def test_a_threshold_past_its_budget_is_refused_at_its_deepest_level(self):
        # the level max_m = 2 at the largest prime is counted first: its 3^6
        # jets at q = 3 are refused before any other table is counted
        f = IdealGens((parse_poly("x1*x2 + x1^3", ("x1", "x2")),))
        vs = ("x1",)
        x1, zero = parse_poly("x1", vs), parse_poly("0", vs)
        diag = PolyMatrix([[x1, zero], [zero, x1]])
        c = Campaign.make("lct-budget", {"f": ("ideal", f), "d": ("matrix", diag)}, [
            Task.make("z", "lct_z", ideal="f", max_m=2),
            Task.make("w", "lct_w", matrix="d", max_m=2),
        ])
        rep = run_campaign(c, budget=10)
        assert [r.status for r in rep.results] == ["SKIPPED_BUDGET"] * 2
        assert rep.results[0].payload["reason"].startswith("jet space has 729 points, over the budget 10")


def _generic():
    vs = ("x1", "x2", "x3", "x4")
    return PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])


class TestThresholdStatus:
    @pytest.mark.parametrize("value,certified,expect,tolerance,require,status", [
        (None, True, None, 0, False, "AMBIGUOUS"),  # no value
        (None, True, "1", 0, False, "AMBIGUOUS"),
        (1, True, None, 0, False, "PASS"),  # no expected value: certified or nothing
        (1, False, None, 0, False, "AMBIGUOUS"),
        (1, True, "1", 0, False, "PASS"),  # a hit
        (1, False, "1", 0, False, "PASS"),
        (1, False, "1", 0, True, "AMBIGUOUS"),
        (1, True, "1", 0, True, "PASS"),
        (Fraction(5, 4), False, "1", "1/4", False, "PASS"),  # inside the tolerance
        (Fraction(3, 2), True, "1", "1/4", False, "FAIL"),  # a miss fails a certified value only
        (Fraction(3, 2), False, "1", "1/4", False, "AMBIGUOUS"),
        (Fraction(3, 2), False, "1", "1/4", True, "AMBIGUOUS"),
    ])
    def test_one_rule(self, value, certified, expect, tolerance, require, status):
        assert _threshold_status(value, certified, expect, tolerance, require) == status


class TestDeterminism:
    def test_byte_identical_reports(self):
        corpus = builtin_corpus()
        a = run_campaign(corpus["corollary-diag-x1x1"], seed=3)
        b = run_campaign(corpus["corollary-diag-x1x1"], seed=3)
        assert a.canonical_json() == b.canonical_json()

    def test_triangle_tower_drops_the_repeated_generator(self):
        # the two off-diagonal -x2 entries of the Patterson matrix are one generator
        tower = minor_ideal_tower(patterson_matrix(ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])))
        assert [str(g) for g in tower[0]] == ["x1 + x2", "-x2", "x2 + x3"]
        rep = run_campaign(builtin_corpus()["configuration-triangle"], seed=0)
        digest = hashlib.sha256(rep.canonical_json().encode()).hexdigest()
        assert digest == "74046be81ecb30ea4f2fb2f92d50b867a18d72b3e3536ec6bd1c1983efe9dd0a"

    # the canonical report of every builtin campaign at seed 0 but the grid,
    # which takes seconds and whose result criterion 7 checks: a change to
    # the report bytes of any other campaign fails here
    @pytest.mark.parametrize("name, digest", [
        ("stratification-generic-2x2", "422f4a489281614b7e8efe55787cead07ebfafa3e99c0feeff8534bfe6e21532"),
        ("fiber-formula-grid", "8e24cdcb4ca3e9b4e727d469e87fe3c0c1284ee7fc90842660e06d9bc4294c0a"),
        ("lct-known-values", "0fc2f7ff5aa53e61a01d3e7af4a8d9c7c2247399d4eb9e84af017198bb2b41d0"),
        ("corollary-generic-2x2", "cfb950ecc5a0c68c2f2cdd0648f20c3c67569ff673dcad7535a83e673c13ec5c"),
        ("corollary-diag-x1x1", "bdc41bacd379b4c0bf04731f7ec81757faf7f12f552bffc57e5e46cc29dc7777"),
        ("cone-comparison-basic", "5dfbe62f8a46c62a86aadca1e7e37935543061b08ae1e36066bedb9b9238319e"),
        ("configuration-triangle", "74046be81ecb30ea4f2fb2f92d50b867a18d72b3e3536ec6bd1c1983efe9dd0a"),
        ("snf-roundtrip-random", "70ab04786b86b0e89f5880ade0755c385f57025c3b9eb9ec01007dbf5f73b29b"),
        ("cauchy-binet-random", "4f28ac016b49b1444934946813c89fc6f62a5ff079fe5ff4ac31dd368f3ecc7e"),
    ])
    def test_builtin_report_bytes(self, name, digest):
        rep = run_campaign(builtin_corpus()[name], seed=0)
        assert hashlib.sha256(rep.canonical_json().encode()).hexdigest() == digest

    def test_results_hold_json_values(self):
        # results hold payload and params as the tasks made them, so every
        # value of every builtin campaign must already be a JSON value
        def foreign(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    if not isinstance(key, str):
                        yield f"{path}: key {key!r}"
                    yield from foreign(item, f"{path}.{key}")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from foreign(item, f"{path}.{i}")
            elif value is not None and type(value) not in (str, int, float, bool):
                yield f"{path}: {type(value).__name__}"

        found = [
            problem
            for name, campaign in builtin_corpus().items()
            for r in run_campaign(campaign, seed=0).results
            for part in ("params", "payload")
            for problem in foreign(getattr(r, part), f"{name}.{r.name}.{part}")
        ]
        assert found == []

    def test_randomized_task_seeded(self):
        corpus = builtin_corpus()
        a = run_campaign(corpus["snf-roundtrip-random"], seed=5)
        b = run_campaign(corpus["snf-roundtrip-random"], seed=5)
        assert a.canonical_json() == b.canonical_json()


class TestCampaignDocuments:
    def test_roundtrip(self):
        doc = {
            "name": "custom",
            "inputs": {
                "m1": {"matrix": {"vars": ["x1"], "rows": [["x1"]]}},
                "i1": {"ideal": {"vars": ["x1"], "generators": ["x1^2"]}},
            },
            "tasks": [
                {"name": "lct", "kind": "lct_z", "ideal": "i1", "max_m": 2},
            ],
        }
        campaign = campaign_from_doc(doc)
        rep = run_campaign(campaign)
        assert rep.results[0].status in ("PASS", "AMBIGUOUS")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            campaign_from_doc({"tasks": [], "extra": 1})


class TestReadme:
    def test_task_table_matches_the_declarations(self):
        # README's "Campaign documents" table lists each kind's parameters;
        # a required parameter of _KINDS must sit in the required column and
        # a parameter listed as optional must have a default there
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Campaign documents", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                kind = cells[0].strip("`")
                rows[kind] = [set(re.findall(r"`(\w+)`", cell)) for cell in cells[1:]]
        assert set(rows) == set(_KINDS)
        for kind, (required, optional) in rows.items():
            declared = _KINDS[kind]
            assert required | optional == set(declared.required) | set(declared.optional), kind
            assert set(declared.required) <= required and optional <= set(declared.optional), kind
