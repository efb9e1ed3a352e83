"""CLI dispatch: exit codes, formats, file IO."""

import csv
import json

import pytest

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
        assert "--primes expects primes below 2^31, got '2,4'" in capsys.readouterr().err

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
        rc = main([arg.format(doc=path, matrix=docs["matrix"], dir=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err


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

    def test_one_generic(self, docs, tmp_path):
        out = tmp_path / "og.json"
        rc = main(["one-generic", "--config", str(docs["config"]), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["agree"] is True

    def test_one_generic_denominator_divisible_by_a_search_prime(self, tmp_path):
        # the entry 1/4 of the Patterson matrix has no residue mod 2; the
        # search reduces the integer coefficient tensor instead
        doc = tmp_path / "half.json"
        doc.write_text(json.dumps({"d_matrix": [[1, "1/2", 0], [0, 1, 1]]}))
        out = tmp_path / "og.json"
        assert main(["one-generic", "--config", str(doc), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["linear"]["one_generic"] == payload["hadamard"]["one_generic"]


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
