"""Campaign validation, execution, determinism, and budget behavior."""

import pytest

from arcdet.errors import ValidationError
from arcdet.harness import Campaign, Task, builtin_corpus, run_campaign
from arcdet.io import campaign_from_doc
from arcdet.jets import IdealGens
from arcdet.matrices import PolyMatrix
from arcdet.poly import parse_poly


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
                Task.make("one-prime", "lct_z", ideal="x1", max_m=2, primes=[3, 3]),
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
        from arcdet.harness import STATUS_FAIL, Report, TaskResult

        r = Report(
            campaign="x", seed=0, budget=1,
            results=(TaskResult("a", "fiber_formula", STATUS_FAIL, True, {}, {}),),
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


def _generic():
    vs = ("x1", "x2", "x3", "x4")
    return PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])


class TestDeterminism:
    def test_byte_identical_reports(self):
        corpus = builtin_corpus()
        a = run_campaign(corpus["corollary-diag-x1x1"], seed=3)
        b = run_campaign(corpus["corollary-diag-x1x1"], seed=3)
        assert a.canonical_json() == b.canonical_json()

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
