"""Input document parsing and rejection of malformed fields."""

from fractions import Fraction

import pytest

from arcdet.errors import ParseError, ValidationError
from arcdet.fields import GF, QQ
from arcdet.io import configuration_from_doc, ideal_from_doc, jet_from_doc, matrix_from_doc, series_matrix_from_doc


class TestMatrixDocs:
    def test_roundtrip(self):
        m = matrix_from_doc({"vars": ["x1", "x2"], "rows": [["x1", "x2"], ["x2", "x1"]]})
        assert m.rows == 2 and m.cols == 2

    def test_unknown_field(self):
        with pytest.raises(ValidationError):
            matrix_from_doc({"vars": ["x1"], "rows": [["x1"]], "color": "red"})

    def test_missing_rows(self):
        with pytest.raises(ValidationError):
            matrix_from_doc({"vars": ["x1"]})

    def test_duplicate_vars(self):
        with pytest.raises(ValidationError):
            matrix_from_doc({"vars": ["x1", "x1"], "rows": [["x1"]]})

    def test_bad_polynomial(self):
        with pytest.raises(ParseError):
            matrix_from_doc({"vars": ["x1"], "rows": [["x1 +"]]})


class TestIdealDocs:
    def test_roundtrip(self):
        gens = ideal_from_doc({"vars": ["x1", "x2"], "generators": ["x1*x2", "x1^2"]})
        assert len(gens) == 2

    def test_empty_generators(self):
        with pytest.raises(ValidationError):
            ideal_from_doc({"vars": ["x1"], "generators": []})


class TestConfigurationDocs:
    def test_d_matrix_with_rational_strings(self):
        cfg = configuration_from_doc({"d_matrix": [["1/2", 1], [0, "3"]]})
        assert cfg.d[0][0] == Fraction(1, 2)

    def test_graph(self):
        cfg = configuration_from_doc({"graph": {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}})
        assert cfg.r == 2 and cfg.n == 3

    def test_both_forms_rejected(self):
        with pytest.raises(ValidationError):
            configuration_from_doc({"d_matrix": [[1]], "graph": {"vertices": 2, "edges": [[1, 2]]}})

    def test_bad_rational(self):
        with pytest.raises(ValidationError):
            configuration_from_doc({"d_matrix": [["one half"]]})

    def test_bad_edge_arity(self):
        with pytest.raises(ValidationError):
            configuration_from_doc({"graph": {"vertices": 3, "edges": [[1, 2, 3]]}})


class TestSeriesDocs:
    def test_series_matrix_over_q_and_gf(self):
        m = series_matrix_from_doc({"level": 2, "entries": [[[0, "1/2"]], [[1]]]})
        assert m.field == QQ and m.entries[0][0].coeffs == (0, Fraction(1, 2), 0)
        m = series_matrix_from_doc({"prime": 5, "level": 1, "entries": [[[0, "1/2"]]]})
        assert m.field == GF(5) and m.entries[0][0].coeffs == (0, 3)

    def test_jet(self):
        jet = jet_from_doc({"prime": 3, "level": 1, "coords": [[1], [0, 2]]})
        assert [c.coeffs for c in jet.coords] == [(1, 0), (0, 2)]

    @pytest.mark.parametrize("doc", [
        {"level": 1, "entries": [[[0, 1]], [[0], [1]]]},  # ragged
        {"level": 1, "entries": [[]]},
        {"level": -1, "entries": [[[0]]]},
        {"prime": 5, "level": 1, "entries": [[["1/5"]]]},  # no residue mod 5
    ])
    def test_bad_series_matrix(self, doc):
        with pytest.raises(ValidationError):
            series_matrix_from_doc(doc)
