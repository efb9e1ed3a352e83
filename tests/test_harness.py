"""Campaign validation, execution, determinism, and budget behavior."""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import arcdet.harness
from arcdet.configurations import ConfigurationMatrix, patterson_matrix
from arcdet.determinantal import DeterminantalPair, minor_ideal_tower
from arcdet.errors import ValidationError
from arcdet.harness import _KINDS, _jsonable, Campaign, Task, builtin_corpus, run_campaign
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
                Task.make("gird", "one_generic", configuration="tri", mode="gird"),
                Task.make("wrong-kind", "configuration", configuration="m", max_m=2),
                Task.make("expect-x", "lct_z", ideal="x1", max_m=2, expect="x"),
                Task.make("r-above-n", "cauchy_binet", r_max=5, n_max=2),
                Task.make("one-number-shape", "snf_roundtrip", shapes=[[2]]),
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
            "  primes-2-4: primes must be a non-empty list of primes below 2^31, got [2, 4]",
            "  gird: mode must be 'grid', got 'gird'",
            "  wrong-kind: input 'm' is a matrix, expected configuration",
            "  expect-x: expect must be an integer or a rational string such as '1/2', got 'x'",
            "  r-above-n: need r_max <= n_max",
            "  one-number-shape: shapes must be a non-empty list of [rows, cols] with rows >= cols >= 1, got [[2]]",
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

    def test_a_threshold_past_its_budget_is_refused_at_its_deepest_level(self):
        # the level max_m = 2 is counted first: its 2^6 jets at q = 2 are refused
        # before any shallower table is counted
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
        assert rep.results[0].payload["reason"].startswith("jet space has 64 points, over the budget 10")


def _generic():
    vs = ("x1", "x2", "x3", "x4")
    return PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])


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

    def test_jsonable_leaves(self):
        # JSON scalars pass as they are, a Fraction and any other leaf (an
        # np.int64 too) become strings, tuples lists and dict keys strings
        payload = {"r": Fraction(1, 3), 2: ({"t": (1, 2.5)}, True), "none": None, "n": np.int64(7), "s": "x"}
        assert json.dumps(_jsonable(payload), sort_keys=True) == (
            '{"2": [{"t": [1, 2.5]}, true], "n": "7", "none": null, "r": "1/3", "s": "x"}'
        )

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
