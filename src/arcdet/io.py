"""Input documents: matrices, ideals, configurations, series matrices, jets, campaigns.

All documents are JSON objects with a fixed field set; unknown fields are
rejected so that typos fail loudly.  Polynomial strings use the expression
grammar from the parser module; rationals are accepted as integers or
"p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .configurations import ConfigurationMatrix
from .errors import ValidationError
from .fields import GF, QQ
from .harness import Campaign, Task, _is_int, _is_int_list, _is_prime, _is_rational
from .jets import IdealGens, JetPoint
from .matrices import PolyMatrix, SeriesMatrix
from .poly import parse_poly
from .series import TruncSeries


def _check_fields(doc, allowed, what, required=()):
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown fields in {what} document: {sorted(unknown)}")
    if not all(name in doc for name in required):
        raise ValidationError(f"{what} document needs {' and '.join(map(repr, required))}")


def _rational(v):
    if not _is_rational(v):
        raise ValidationError(f"bad rational {v!r}")
    return Fraction(v)


def _rows(value, what):
    """``value``, checked to be a nonempty list of equally long nonempty lists."""
    if not isinstance(value, list) or not value or not all(
        isinstance(row, list) and row and len(row) == len(value[0]) for row in value
    ):
        raise ValidationError(f"{what} must be a nonempty list of equally long nonempty rows")
    return value


def _poly_reader(doc, body, what):
    """Check a document of polynomial strings in the variables "vars", listed
    under ``body``.  Returns the reader of one string into a polynomial over Q."""
    _check_fields(doc, {"vars", body}, what, required=("vars", body))
    variables = doc["vars"]
    if not isinstance(variables, list) or not variables or not all(isinstance(v, str) for v in variables):
        raise ValidationError("'vars' must be a nonempty list of names")
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValidationError("duplicate variable names")

    def poly(text):
        if not isinstance(text, str):
            raise ValidationError(f"a polynomial must be a string, got {text!r}")
        return parse_poly(text, variables, QQ)

    return poly


def matrix_from_doc(doc) -> PolyMatrix:
    """{"vars": [names...], "rows": [[poly strings...], ...]}"""
    poly = _poly_reader(doc, "rows", "matrix")
    return PolyMatrix([[poly(text) for text in row] for row in _rows(doc["rows"], "'rows'")])


def ideal_from_doc(doc) -> IdealGens:
    """{"vars": [names...], "generators": [poly strings...]}"""
    poly = _poly_reader(doc, "generators", "ideal")
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValidationError("'generators' must be a nonempty list")
    return IdealGens(tuple(poly(text) for text in gens))


def configuration_from_doc(doc) -> ConfigurationMatrix:
    """Either {"d_matrix": [[rationals...], ...]} or
    {"graph": {"vertices": V, "edges": [[a, b], ...]}}."""
    _check_fields(doc, {"d_matrix", "graph"}, "configuration")
    if ("d_matrix" in doc) == ("graph" in doc):
        raise ValidationError("configuration document needs exactly one of 'd_matrix' or 'graph'")
    if "d_matrix" in doc:
        rows = _rows(doc["d_matrix"], "'d_matrix'")
        return ConfigurationMatrix.from_rows([[_rational(v) for v in row] for row in rows])
    graph = doc["graph"]
    _check_fields(graph, {"vertices", "edges"}, "graph", required=("vertices", "edges"))
    vertices, edges = graph["vertices"], graph["edges"]
    if not _is_int(vertices) or not isinstance(edges, list) or not all(_is_int_list(e) and len(e) == 2 for e in edges):
        raise ValidationError("a graph needs an integer 'vertices' and 'edges' as a list of [a, b] vertex pairs")
    return ConfigurationMatrix.from_graph(vertices, [tuple(e) for e in edges])


INPUT_READERS = {"matrix": matrix_from_doc, "ideal": ideal_from_doc, "configuration": configuration_from_doc}


def _series_reader(doc, body, what):
    """Check a document of series at "level" over GF("prime"), or over Q
    without a prime, listed under ``body``; returns the reader of one
    little-endian coefficient list [c0, c1, ...] into a TruncSeries."""
    _check_fields(doc, {"prime", "level", body}, what, required=("level", body))
    level = doc["level"]
    if not _is_int(level) or level < 0:
        raise ValidationError(f"'level' must be a non-negative integer, got {level!r}")
    if "prime" in doc and not _is_prime(doc["prime"]):
        raise ValidationError(f"'prime' must be a prime below 2^31, got {doc['prime']!r}")
    field = GF(doc["prime"]) if "prime" in doc else QQ

    def series(cell):
        if not isinstance(cell, list) or len(cell) > level + 1:
            raise ValidationError(f"a coefficient list must hold at most {level + 1} entries, got {cell!r}")
        try:
            return TruncSeries.from_coeffs(field, level, [_rational(c) for c in cell])
        except ZeroDivisionError as exc:
            raise ValidationError(str(exc)) from exc

    return series


def series_matrix_from_doc(doc) -> SeriesMatrix:
    """{"prime": q, "level": N, "entries": [[coefficient list, ...], ...]}"""
    series = _series_reader(doc, "entries", "series matrix")
    return SeriesMatrix([[series(cell) for cell in row] for row in _rows(doc["entries"], "'entries'")])


def jet_from_doc(doc) -> JetPoint:
    """{"prime": q, "level": N, "coords": [coefficient list, ...]}"""
    series = _series_reader(doc, "coords", "jet")
    coords = doc["coords"]
    if not isinstance(coords, list) or not coords:
        raise ValidationError("'coords' must be a nonempty list of coefficient lists")
    return JetPoint(tuple(series(cell) for cell in coords))


def campaign_from_doc(doc):
    """{"name": ..., "inputs": {name: {"matrix"|"ideal"|"configuration": {...}}},
    "tasks": [{"name": ..., "kind": ..., ...params}]}"""
    _check_fields(doc, {"name", "inputs", "tasks"}, "campaign", required=("tasks",))
    if not isinstance(doc.get("inputs") or {}, dict) or not isinstance(doc["tasks"], list):
        raise ValidationError("a campaign's 'inputs' must be a JSON object and its 'tasks' a list")
    inputs = {}
    for name, spec in (doc.get("inputs") or {}).items():
        _check_fields(spec, INPUT_READERS, f"input {name!r}")
        if len(spec) != 1:
            raise ValidationError(f"input {name!r} must have exactly one of matrix/ideal/configuration")
        ((kind, body),) = spec.items()
        inputs[name] = (kind, INPUT_READERS[kind](body))
    tasks = []
    for t in doc["tasks"]:
        if not isinstance(t, dict) or "name" not in t or "kind" not in t:
            raise ValidationError("each task needs 'name' and 'kind'")
        params = {k: v for k, v in t.items() if k not in ("name", "kind")}
        tasks.append(Task.make(t["name"], t["kind"], **params))
    return Campaign.make(doc.get("name", "custom"), inputs, tasks)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
