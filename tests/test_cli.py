"""CLI dispatch: exit codes, formats, file IO."""

import csv
import json

import pytest

import arcdet.counting
from arcdet.cli import main


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    paths["ideal"] = tmp_path / "z.json"
    paths["ideal"].write_text(json.dumps({"vars": ["x1"], "generators": ["x1^2"]}))
    paths["matrix"] = tmp_path / "m.json"
    paths["matrix"].write_text(
        json.dumps({"vars": ["x1", "x2", "x3", "x4"], "rows": [["x1", "x2"], ["x3", "x4"]]})
    )
    paths["config"] = tmp_path / "c.json"
    paths["config"].write_text(json.dumps({"graph": {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}}))
    paths["snf"] = tmp_path / "s.json"
    paths["snf"].write_text(
        json.dumps({"prime": 5, "level": 4, "entries": [[[0, 1], [0, 1]], [[0, 1], [0, 1, 1]]]})
    )
    paths["jet"] = tmp_path / "jet.json"
    paths["jet"].write_text(
        json.dumps({"prime": 5, "level": 4, "coords": [[1], [0], [0], [0, 0, 1]]})
    )
    return paths


WIDE = {"vars": ["x1", "x2", "x3"], "rows": [["x1", "x2", "x3"]]}
SERIES = {"prime": 5, "level": 1, "entries": [[[0, 1], [1]], [[1], [0, 1]]]}
JET = {"prime": 5, "level": 1}


class TestExitCodes:
    def test_lct_ok(self, docs, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["lct", "--ideal", str(docs["ideal"]), "--max-m", "4", "--primes", "2,3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["estimate"] == "1/2"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["snf", "--matrix", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_verify_corpus(self, capsys):
        rc = main(["verify", "--campaign", "corpus:corollary-diag-x1x1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_unknown_corpus(self, capsys):
        rc = main(["verify", "--campaign", "corpus:not-a-thing"])
        assert rc == 2

    def test_non_prime_in_primes_is_usage_error(self, capsys):
        # PrimeField used to raise a bare ValueError, which exited 1 with a traceback
        rc = main(["fiber", "--lam", "1,2", "--m", "1", "--level", "2", "--primes", "2,4"])
        assert rc == 2
        assert "--primes expects distinct primes below 2^31, got '2,4'" in capsys.readouterr().err

    def test_repeated_prime_in_primes_is_usage_error(self, docs, capsys):
        rc = main(["count", "--ideal", str(docs["ideal"]), "--m", "1", "--level", "1", "--primes", "3,3"])
        assert rc == 2
        assert "--primes expects distinct primes below 2^31, got '3,3'" in capsys.readouterr().err

    @pytest.mark.parametrize("prime", ["4", "1", "x", "2147483659"])
    def test_non_prime_prime_is_usage_error(self, docs, capsys, prime):
        # the stratification kind checks primality; argparse only reads the integer
        rc = main(["strata", "--matrix", str(docs["matrix"]), "--m", "1", "--level", "1", "--prime", prime])
        assert rc == 2
        expected = "invalid int value: 'x'" if prime == "x" else f"prime must be a prime below 2^31, got {prime}"
        assert expected in capsys.readouterr().err

    def test_conflicting_lct_inputs(self, docs, capsys):
        rc = main(["lct", "--ideal", str(docs["ideal"]), "--matrix", str(docs["matrix"]), "--max-m", "2"])
        assert rc == 2

    @pytest.mark.parametrize("argv, doc", [
        pytest.param(["fiber", "--lam", "2,1", "--m", "1", "--level", "2"], None, id="fiber-decreasing-profile"),
        pytest.param(["strata", "--m", "1", "--level", "1", "--prime", "2", "--matrix", "{doc}"], WIDE,
                     id="strata-1x3"),
        pytest.param(["cone", "--m", "1", "--p", "0", "--level", "1", "--matrix", "{doc}"], WIDE, id="cone-1x3"),
        pytest.param(["lct", "--max-m", "2", "--matrix", "{doc}"], WIDE, id="lct-1x3"),
        pytest.param(["profile", "--matrix", "{doc}", "--jet", "{jet}"],
                     {"vars": ["x1", "x2", "x3", "x4"], "rows": [["x1", "x2"]]}, id="profile-1x2"),
        pytest.param(["snf", "--matrix", "{doc}"], {**SERIES, "field": "GF(5)"}, id="series-field-key"),
        pytest.param(["snf", "--matrix", "{doc}"], {**SERIES, "prime": 6}, id="series-prime-6"),
        pytest.param(["snf", "--matrix", "{doc}"], {**SERIES, "level": "x"}, id="series-level-x"),
        pytest.param(["snf", "--matrix", "{doc}"], {**SERIES, "entries": [[["a"]]]}, id="series-coefficient-a"),
        pytest.param(["snf", "--matrix", "{doc}"], {**SERIES, "entries": [[[1], [0]]]}, id="series-1x2"),
        pytest.param(["profile", "--matrix", "{matrix}", "--jet", "{doc}"],
                     {**JET, "coords": [[1], [0], [0], [0, 0, 1]]}, id="jet-coordinate-past-level"),
        pytest.param(["patterson", "--config", "{doc}"], {"graph": {"vertices": "a", "edges": [[1, 2]]}},
                     id="graph-vertices-a"),
        pytest.param(["matroid", "--config", "{doc}"], {"graph": {"vertices": 3, "edges": [[1, "x"]]}},
                     id="graph-edge-x"),
        pytest.param(["one-generic", "--config", "{doc}"], {"graph": {"vertices": 3, "edges": [1, 2]}},
                     id="graph-flat-edges"),
        pytest.param(["patterson", "--config", "{doc}"], {"d_matrix": [1, 2]}, id="d-matrix-flat-rows"),
        pytest.param(["one-generic"], None, id="one-generic-without-document"),
        pytest.param(["one-generic", "--matrix", "{doc}"],
                     {"vars": ["x1", "x2"], "rows": [["x1^2", "x2"], ["x2", "x1"]]}, id="one-generic-nonlinear-entry"),
        pytest.param(["one-generic", "--matrix", "{doc}"], {"vars": ["x1", "x2"], "rows": [["x1", "x2"]]},
                     id="one-generic-1x2"),
        pytest.param(["lct", "--max-m", "2", "--ideal", "{doc}"], {"vars": 5, "generators": ["x1"]},
                     id="ideal-vars-5"),
        pytest.param(["lct", "--max-m", "2", "--ideal", "{doc}"], {"vars": ["x1"], "generators": ["x1 +"]},
                     id="ideal-syntax-error"),
        pytest.param(["strata", "--m", "1", "--level", "1", "--prime", "2", "--matrix", "{doc}"],
                     {"vars": ["x1"], "rows": [["x1", 2]]}, id="matrix-entry-2"),
        pytest.param(["strata", "--m", "1", "--level", "1", "--prime", "2", "--matrix", "{doc}"],
                     {"vars": ["x1"], "rows": [["x1", "x1"], ["x1"]]}, id="matrix-ragged"),
        pytest.param(["verify", "--campaign", "{doc}"], {"tasks": 5}, id="campaign-tasks-5"),
        pytest.param(["snf", "--matrix", "{dir}"], None, id="directory-document"),
    ])
    def test_invalid_input_is_one_error_line(self, docs, tmp_path, capsys, argv, doc):
        # each case used to exit 1 with a traceback, or (the "field" key) to be ignored
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc = main([arg.format(doc=path, matrix=docs["matrix"], jet=docs["jet"], dir=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err

    # each subcommand runs without the flag; only the flag is refused
    VALID = {
        "lct": ["lct", "--ideal", "{ideal}", "--max-m", "2"],
        "count": ["count", "--ideal", "{ideal}", "--m", "1", "--level", "1"],
        "strata": ["strata", "--matrix", "{matrix}", "--m", "1", "--level", "1", "--prime", "2"],
        "fiber": ["fiber", "--lam", "0,2", "--m", "1", "--level", "2"],
        "cone": ["cone", "--matrix", "{matrix}", "--m", "1", "--p", "0", "--level", "1"],
        "profile": ["profile", "--matrix", "{matrix}", "--jet", "{jet}"],
        "snf": ["snf", "--matrix", "{snf}"],
        "patterson": ["patterson", "--config", "{config}"],
        "matroid": ["matroid", "--config", "{config}"],
        "one-generic": ["one-generic", "--config", "{config}"],
    }

    @pytest.mark.parametrize("command, flag", [
        *[(command, ["--seed", "1"]) for command in VALID if command != "count"],
        *[(command, ["--budget", "1000"]) for command in ("profile", "snf", "patterson", "matroid", "one-generic")],
        ("one-generic", ["--primes", "2,3"]),
        ("count", ["--seed", "1"]),  # last, so the cases above keep their ids
    ])
    def test_flags_that_nothing_reads_are_refused(self, docs, tmp_path, capsys, command, flag):
        argv = [arg.format(**docs) for arg in self.VALID[command]] + ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        assert main(argv + flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestSubcommands:
    def test_count(self, docs, tmp_path):
        out = tmp_path / "count.json"
        rc = main([
            "count", "--ideal", str(docs["ideal"]), "--m", "2", "--level", "2",
            "--mode", "exact", "--primes", "3,5", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["counts"] == [[3, 6, 27], [5, 20, 125]]

    def test_count_past_the_budget_is_an_error(self, tmp_path, capsys):
        # x1^2 + x1*x2 is no monomial and defeats every exact split: no count is estimated
        ideal = tmp_path / "f.json"
        ideal.write_text(json.dumps({"vars": ["x1", "x2"], "generators": ["x1^2 + x1*x2"]}))
        argv = ["count", "--ideal", str(ideal), "--m", "1", "--level", "4", "--mode", "at-least",
                "--primes", "5", "--budget", "1000"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: jet space has 9765625 points, over the budget 1000, and no exact split applies\n"

    def test_snf(self, docs, tmp_path):
        out = tmp_path / "snf.json"
        rc = main(["snf", "--matrix", str(docs["snf"]), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["lambda"] == [1, 2]
        assert payload["p_det_ord"] == 0

    def test_profile(self, docs, tmp_path):
        out = tmp_path / "prof.json"
        rc = main(["profile", "--matrix", str(docs["matrix"]), "--jet", str(docs["jet"]), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["lambda"] == [0, 2]

    def test_readme_profile_example_bytes(self, docs, capsys):
        # README's example: the generic 2x2 matrix and the jet [[1],[0],[0],[0,0,1]] at q = 5, N = 4
        rc = main(["profile", "--matrix", str(docs["matrix"]), "--jet", str(docs["jet"])])
        assert rc == 0
        assert capsys.readouterr().out == '{\n  "lambda": [\n    0,\n    2\n  ],\n  "truncated": false\n}\n'

    def test_strata(self, docs, tmp_path):
        out = tmp_path / "strata.json"
        rc = main([
            "strata", "--matrix", str(docs["matrix"]), "--m", "1", "--level", "1",
            "--prime", "2", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["partition_ok"] is True

    def test_fiber(self, tmp_path):
        out = tmp_path / "fiber.json"
        rc = main(["fiber", "--lam", "0,2", "--m", "1", "--level", "2", "--primes", "2,3", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_cone(self, docs, tmp_path):
        out = tmp_path / "cone.json"
        rc = main([
            "cone", "--matrix", str(docs["matrix"]), "--m", "1", "--p", "1", "--level", "1",
            "--primes", "2,3", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_patterson_and_matroid(self, docs, tmp_path):
        out = tmp_path / "p.json"
        assert main(["patterson", "--config", str(docs["config"]), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["determinant"] == "x1*x2 + x1*x3 + x2*x3"
        assert payload["square_free"] is True
        out2 = tmp_path / "mat.json"
        assert main(["matroid", "--config", str(docs["config"]), "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["connected"] is True

    @pytest.mark.parametrize("config,expected", [
        (
            {"graph": {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}},
            {"bases": [[0, 1], [0, 2], [1, 2]], "connected": True, "ground_size": 3, "rank": 2},
        ),
        (
            {"d_matrix": [[1, 0, 1, 1], [0, 1, 1, 2]]},  # U(2,4)
            {
                "bases": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                "connected": True, "ground_size": 4, "rank": 2,
            },
        ),
    ], ids=["triangle", "U24"])
    def test_matroid_payload(self, config, expected, tmp_path):
        doc, out = tmp_path / "c.json", tmp_path / "mat.json"
        doc.write_text(json.dumps(config))
        assert main(["matroid", "--config", str(doc), "--out", str(out)]) == 0
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_one_generic(self, docs, tmp_path):
        out = tmp_path / "og.json"
        rc = main(["one-generic", "--config", str(docs["config"]), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["agree"] is True

    def test_one_generic_matrix(self, tmp_path, capsys):
        # the linear search alone: x1 v1w1 + x2 (v1w2 + v2w1) + x3 v2w2 vanishes for no nonzero v, w
        doc = tmp_path / "sym.json"
        doc.write_text(json.dumps({"vars": ["x1", "x2", "x3"], "rows": [["x1", "x2"], ["x2", "x3"]]}))
        assert main(["one-generic", "--matrix", str(doc)]) == 0
        assert json.loads(capsys.readouterr().out) == {"confirmed": True, "one_generic": True}

    def test_one_generic_denominator_divisible_by_a_search_prime(self, tmp_path):
        # the entry 1/4 of the Patterson matrix has no residue mod 2; the
        # search reduces the integer coefficient tensor instead
        doc = tmp_path / "half.json"
        doc.write_text(json.dumps({"d_matrix": [[1, "1/2", 0], [0, 1, 1]]}))
        out = tmp_path / "og.json"
        assert main(["one-generic", "--config", str(doc), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["linear"]["one_generic"] == payload["hadamard"]["one_generic"]


class TestTaskCampaign:
    @pytest.fixture()
    def ideal(self, tmp_path):
        doc = tmp_path / "f.json"
        doc.write_text(json.dumps({"vars": ["x1", "x2"], "generators": ["x1*x2 + x1^3"]}))
        return str(doc)

    def test_lct_counts_one_table_per_prime(self, ideal, monkeypatch, capsys):
        # the task runs in its campaign's table scope, where the level-4 table
        # of each prime serves levels 1-3; without it each level counts its own.
        # The largest prime goes first, so a refusal comes before any count
        counted = []
        count = arcdet.counting._contact_order_table

        def record(ideals, n, level, q, budget, prefer):
            counted.append((level, q))
            return count(ideals, n, level, q, budget, prefer)

        monkeypatch.setattr(arcdet.counting, "_contact_order_table", record)
        assert main(["lct", "--ideal", ideal, "--max-m", "4"]) == 0
        assert counted == [(4, 3), (4, 2)]
        assert json.loads(capsys.readouterr().out)["estimate"] == "1"

    def test_budget_refusal_is_an_error(self, ideal, capsys):
        # the campaign skips a refused task; the subcommand reports it and fails.
        # The largest prime is counted first, so its 3^10 jets are refused
        assert main(["lct", "--ideal", ideal, "--max-m", "4", "--budget", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: jet space has 59049 points, over the budget 10, and no exact split applies\n"


class TestFormats:
    def test_csv_matches_json_numbers(self, docs, tmp_path):
        jout = tmp_path / "a.json"
        cout = tmp_path / "a.csv"
        args = ["count", "--ideal", str(docs["ideal"]), "--m", "2", "--level", "2", "--primes", "3,5"]
        assert main(args + ["--out", str(jout), "--format", "json"]) == 0
        assert main(args + ["--out", str(cout), "--format", "csv"]) == 0
        payload = json.loads(jout.read_text())
        rows = dict()
        with open(cout, newline="") as fh:
            for row in csv.DictReader(fh):
                rows[row["key"]] = row["value"]
        assert rows["counts.0.1"] == str(payload["counts"][0][1])
        assert rows["codim"] == str(payload["codim"])

    def test_text_format(self, docs, capsys):
        assert main(["count", "--ideal", str(docs["ideal"]), "--m", "2", "--level", "2",
                     "--primes", "3,5", "--format", "text"]) == 0
        # ord(x1^2) = 2 means ord(x1) = 1: one linear condition, codim 1
        assert "codim = 1" in capsys.readouterr().out
