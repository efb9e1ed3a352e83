"""Every jet count goes through the one engine in ``counting.py``.

The ring F_q[t]/(t^(N+1)) on series codes (computed, or its lookup tables),
the selector between them, the polynomial evaluator on ring codes and the
order-vector table are the engine's internals: no other module under
``src/arcdet`` names them, so every check reads its contact orders from
``contact_order_table`` and no second enumerator or kernel can grow beside it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE_INTERNALS = (
    "SeriesRing", "RingTables", "ring_tables", "series_ring", "eval_poly_codes", "ord_vector_distribution",
)


def _modules_naming_internals(package):
    use = re.compile(r"\b(" + "|".join(ENGINE_INTERNALS) + r")\b")
    return sorted(
        f"{path.relative_to(package)}: {match}"
        for path in package.rglob("*.py")
        if path.name != "counting.py"
        for match in sorted(set(use.findall(path.read_text(encoding="utf-8"))))
    )


def test_only_counting_uses_engine_internals():
    assert _modules_naming_internals(ROOT / "src" / "arcdet") == []


def test_guard_sees_a_second_enumerator(tmp_path):
    (tmp_path / "counting.py").write_text("def series_ring(q, level):\n    return q\n")
    (tmp_path / "other.py").write_text("from .counting import SeriesRing, series_ring\n")
    assert _modules_naming_internals(tmp_path) == ["other.py: SeriesRing", "other.py: series_ring"]
