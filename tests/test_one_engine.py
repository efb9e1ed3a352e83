"""Every jet count goes through the one engine in ``counting.py``.

The digit grid, the batched series kernels, the batched polynomial
evaluators (on coefficient digits and on ring codes), the ring lookup tables
and the order-vector table are the engine's internals: no other module under
``src/arcdet`` names them, so every check reads its contact orders from
``contact_order_table`` and no second enumerator or kernel can grow beside it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE_INTERNALS = (
    "iter_digit_batches", "batch_conv", "batch_ord", "eval_poly_batch", "ord_vector_distribution",
    "RingTables", "ring_tables", "eval_poly_codes",
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
    (tmp_path / "counting.py").write_text("def batch_ord(s):\n    return s\n")
    (tmp_path / "other.py").write_text("from .counting import batch_ord, iter_digit_batches\n")
    assert _modules_naming_internals(tmp_path) == ["other.py: batch_ord", "other.py: iter_digit_batches"]
