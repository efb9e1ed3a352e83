"""Every jet count goes through the one engine in ``counting.py``.

The ring F_q[t]/(t^(N+1)) on series codes (computed, or its lookup tables),
the selector between them, the polynomial evaluator on ring codes and the
order-vector table are the engine's internals: no other module under
``src/arcdet`` names them, so every check reads its contact orders from
``contact_order_table`` and no second enumerator or kernel can grow beside it.
Tables are shared only through the one run-scoped cache: ``harness`` opens its
scope, no other module names it, and the cone-only cache stays deleted.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE_INTERNALS = (
    "SeriesRing", "RingTables", "ring_tables", "series_ring", "eval_poly_codes", "ord_vector_distribution",
)
# the cache scope: counting.py defines it and harness.py opens it once per run
CACHE_SCOPE = ("table_cache", "TableCache")
# the cone-only cache that the scope replaced
DELETED_CACHES = ("cone_cache",)


def _modules_naming(package, names, owners=()):
    use = re.compile(r"\b(" + "|".join(names) + r")\b")
    return sorted(
        f"{path.relative_to(package)}: {match}"
        for path in package.rglob("*.py")
        if path.name not in owners
        for match in sorted(set(use.findall(path.read_text(encoding="utf-8"))))
    )


def test_only_counting_uses_engine_internals():
    assert _modules_naming(ROOT / "src" / "arcdet", ENGINE_INTERNALS, ("counting.py",)) == []


def test_guard_sees_a_second_enumerator(tmp_path):
    (tmp_path / "counting.py").write_text("def series_ring(q, level):\n    return q\n")
    (tmp_path / "other.py").write_text("from .counting import SeriesRing, series_ring\n")
    assert _modules_naming(tmp_path, ENGINE_INTERNALS, ("counting.py",)) == [
        "other.py: SeriesRing", "other.py: series_ring",
    ]


def test_only_the_run_scope_shares_tables():
    package = ROOT / "src" / "arcdet"
    assert _modules_naming(package, CACHE_SCOPE, ("counting.py", "harness.py")) == []
    assert _modules_naming(package, DELETED_CACHES) == []


def test_guard_sees_a_second_cache(tmp_path):
    (tmp_path / "counting.py").write_text("def table_cache():\n    pass\n")
    (tmp_path / "harness.py").write_text("from .counting import table_cache\ncone_cache = {}\n")
    (tmp_path / "other.py").write_text("def check(A, table_cache=None):\n    return TableCache\n")
    assert _modules_naming(tmp_path, CACHE_SCOPE, ("counting.py", "harness.py")) == [
        "other.py: TableCache", "other.py: table_cache",
    ]
    assert _modules_naming(tmp_path, DELETED_CACHES) == ["harness.py: cone_cache"]
