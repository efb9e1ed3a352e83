"""Every jet count goes through the one engine in ``counting.py``.

The ring F_q[t]/(t^(N+1)) on series codes (computed, or its lookup tables),
the selector between them, the polynomial evaluator on ring codes, the walk
of the homogeneity quotient and the order-vector table are the engine's
internals: no other module under ``src/arcdet`` names them, so every check
reads its contact orders from ``contact_order_table`` and no second
enumerator or kernel can grow beside it.
Tables are shared only through the one run-scoped cache: ``harness`` opens its
scope, no other module names it, and the cone-only cache stays deleted.
Codimensions have one extraction path as well: only ``consensus.extract_codim``
calls the cyclotomic fit and the rounding vote, so a bucketed or flat count
cannot drift from it.  Thresholds have one fold: only ``lct.threshold_fold``
makes an ``LctEstimate`` and only ``determinantal.corollary_check`` a
``CorollaryReport``, a verdict over two estimates that counts nothing, so a
source of codimensions that counts no ideal reaches both through them.
Both split strategies read one block walk: ``_block_states`` walks each
block with ``_side_walk``, direct combines the states in pairs and additive
by value prefixes, and only the quotient walk calls ``_side_walk`` besides,
for its table one level down.  The additive split's own walk and the
evaluator's fast path for a plain variable stay deleted.
The incidence forms and their charts are built by position, and the
``MultiPoly`` methods that built them by name stay deleted.
The configuration oracles have one exact elimination,
``configurations._echelon``: the helpers it and the rank-one certificate
replaced stay deleted.
Each determinant is expanded once: the pair's minor-ideal tower holds the
maximal minors and ``ConfigurationMatrix.basis_dets`` the column
determinants, so ``from_matrix`` names no ``minors``, the Cauchy-Binet check
eliminates nothing and expands no Patterson determinant of its own, and the
wrappers that copied the matroid and the expansion out of the matrix stay
deleted.
Statuses have one rule: ``determinantal`` binds PASS, FAIL and AMBIGUOUS
once, and only ``determinantal.verdict`` returns or assigns one, so every
check and task reads its status from ``verdict(holds, certain)``; other
code may compare a status with them.  ``consensus.STATUS_AMBIGUOUS`` is the
status of a count report, not of a check.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE_INTERNALS = (
    "SeriesRing", "RingTables", "ring_tables", "series_ring", "eval_poly_codes", "ord_vector_distribution",
    "_quotient_walk",
)
# the cache scope: counting.py defines it and harness.py opens it once per run
CACHE_SCOPE = ("table_cache", "TableCache")
# the cone-only cache that the scope replaced
DELETED_CACHES = ("cone_cache",)
# configurations.py: the Fraction eliminations that _echelon replaced, the
# binary-form gcd certificate that _rank_one_witness replaced, and the tuple
# list that the per-prime contraction replaced
DELETED_HELPERS = (
    "_rank_rational", "_det_rational", "_kernel_vector", "_nonzero_tuples",
    "_rank_drop_certificate_r1", "_rank_drop_certificate_r2", "_binary_form_gcd", "_poly_mod",
    "_rational_root_of_binary_form",
)
# the functions that read an expansion made elsewhere, and the names each
# must not read: the pair's tower and ``basis_dets`` make the expansions
ONE_EXPANSION = {
    ("determinantal.py", "from_matrix"): ("minors",),
    ("configurations.py", "cauchy_binet_expansion"): ("_echelon", "patterson_matrix", "det_division_free"),
}
# configurations.py: the wrapper of the expansion's (basis, coefficient) pairs,
# and the column matroid and its builder, which copied ``basis_dets`` and
# forwarded ``column_rank``
DELETED_WRAPPERS = ("SupportExpansion", "Matroid", "matroid_from_columns")
# counting.py: the walk of one block, and the functions that call it
BLOCK_WALK = ("_side_walk",)
BLOCK_WALKERS = [("counting.py", "_block_states", "_side_walk"), ("counting.py", "_quotient_walk", "_side_walk")]
# counting.py: the additive split's own block walk, and the evaluator's fast
# path for 1*v, which the general term loop serves without a copy
DELETED_WALKS = ("_side_table", "_plain_variable_index")
# poly.py: the name-based embedding and ring map that built the incidence
# forms and their charts, which determinantal.py now builds by position
DELETED_POLY_METHODS = ("extend_variables", "substitute_polys")
# the two steps of codimension extraction, run only by consensus.extract_codim
EXTRACTION_STEPS = ("cyclotomic_fit", "_rounding_vote")
# the threshold results and the one function that makes each
THRESHOLD_RESULTS = ("LctEstimate", "CorollaryReport")
# the modules whose functions count, extract or fold: the corollary calls none
COUNTING_MODULES = ("counting.py", "contact.py", "consensus.py", "lct.py")
# the check and task statuses, their values, and the one function that makes them
VERDICTS = ("VERDICT_PASS", "VERDICT_FAIL", "VERDICT_AMBIGUOUS")
STATUS_VALUES = ("PASS", "FAIL", "AMBIGUOUS")
VERDICT_RULE = ("determinantal.py", "verdict")


def _modules_naming(package, names, owners=()):
    use = re.compile(r"\b(" + "|".join(names) + r")\b")
    return sorted(
        f"{path.relative_to(package)}: {match}"
        for path in package.rglob("*.py")
        if path.name not in owners
        for match in sorted(set(use.findall(path.read_text(encoding="utf-8"))))
    )


def _callers(package, names):
    """(module, enclosing function, callee) for each call of one of ``names``."""
    found = set()

    def visit(path, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if callee in names:
                    found.add((str(path.relative_to(package)), owner, callee))
            visit(path, child, owner)

    for path in package.rglob("*.py"):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(found)


def _forbidden_reads(package, rules):
    """(module, function, name) for each name or attribute that a function of
    ``rules`` reads against its rule, and (module, function, None) for each
    function of ``rules`` that its module does not define."""
    found = []
    for (module, function), names in rules.items():
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function]
        read = {
            node.id if isinstance(node, ast.Name) else node.attr
            for func in defs
            for node in ast.walk(func)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        found.extend([(module, function, None)] if not defs else [(module, function, n) for n in names if n in read])
    return found


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


def test_configuration_oracles_keep_one_elimination():
    assert _modules_naming(ROOT / "src" / "arcdet", DELETED_HELPERS) == []
    assert _modules_naming(ROOT / "tests", DELETED_HELPERS, ("test_one_engine.py",)) == []


def test_both_split_strategies_read_one_block_walk():
    assert _callers(ROOT / "src" / "arcdet", BLOCK_WALK) == BLOCK_WALKERS
    assert _modules_naming(ROOT / "src" / "arcdet", DELETED_WALKS) == []
    assert _modules_naming(ROOT / "tests", DELETED_WALKS, ("test_one_engine.py",)) == []


def test_guard_sees_a_second_block_walk(tmp_path):
    (tmp_path / "counting.py").write_text(
        "def _block_states(sides):\n    return [_side_walk(side) for side in sides]\n\n\n"
        "def _side_table(side):\n    return _side_walk(side)\n"
    )
    assert _callers(tmp_path, BLOCK_WALK) == [
        ("counting.py", "_block_states", "_side_walk"), ("counting.py", "_side_table", "_side_walk"),
    ]
    assert _modules_naming(tmp_path, DELETED_WALKS) == ["counting.py: _side_table"]


def test_incidence_forms_are_built_by_position():
    assert _modules_naming(ROOT / "src" / "arcdet", DELETED_POLY_METHODS) == []
    assert _modules_naming(ROOT / "tests", DELETED_POLY_METHODS, ("test_one_engine.py",)) == []


def test_each_determinant_is_expanded_once():
    assert _forbidden_reads(ROOT / "src" / "arcdet", ONE_EXPANSION) == []
    assert _modules_naming(ROOT / "src" / "arcdet", DELETED_WRAPPERS) == []
    assert _modules_naming(ROOT / "tests", DELETED_WRAPPERS, ("test_one_engine.py",)) == []


def test_guard_sees_a_second_expansion(tmp_path):
    (tmp_path / "determinantal.py").write_text(
        "class DeterminantalPair:\n    @classmethod\n    def from_matrix(cls, A):\n"
        "        return cls(minor_ideal_tower(A), matrices.minors(A, A.cols))\n"
    )
    (tmp_path / "configurations.py").write_text(
        "def cauchy_binet_expansion(cfg, det):\n"
        "    return det == det_division_free(patterson_matrix(cfg)) and cfg.basis_dets\n\n\n"
        "def matroids(cfg):\n    return [_echelon(cols)[2] for cols in cfg.subsets]\n"
    )
    assert _forbidden_reads(tmp_path, ONE_EXPANSION) == [
        ("determinantal.py", "from_matrix", "minors"),
        ("configurations.py", "cauchy_binet_expansion", "patterson_matrix"),
        ("configurations.py", "cauchy_binet_expansion", "det_division_free"),
    ]


def test_guard_sees_a_second_elimination(tmp_path):
    (tmp_path / "configurations.py").write_text(
        "def _echelon(rows):\n    pass\n\n\ndef _det_rational(rows):\n    return _echelon(rows)[2]\n"
    )
    assert _modules_naming(tmp_path, DELETED_HELPERS) == ["configurations.py: _det_rational"]


def test_guard_sees_a_second_cache(tmp_path):
    (tmp_path / "counting.py").write_text("def table_cache():\n    pass\n")
    (tmp_path / "harness.py").write_text("from .counting import table_cache\ncone_cache = {}\n")
    (tmp_path / "other.py").write_text("def check(A, table_cache=None):\n    return TableCache\n")
    assert _modules_naming(tmp_path, CACHE_SCOPE, ("counting.py", "harness.py")) == [
        "other.py: TableCache", "other.py: table_cache",
    ]
    assert _modules_naming(tmp_path, DELETED_CACHES) == ["harness.py: cone_cache"]


def test_only_extract_codim_runs_the_fit_and_the_vote():
    assert _callers(ROOT / "src" / "arcdet", EXTRACTION_STEPS) == [
        ("consensus.py", "extract_codim", "_rounding_vote"),
        ("consensus.py", "extract_codim", "cyclotomic_fit"),
    ]


def test_guard_sees_a_second_extraction_path(tmp_path):
    (tmp_path / "consensus.py").write_text(
        "def extract_codim(counts):\n    return cyclotomic_fit(counts) or _rounding_vote(counts)\n\n\n"
        "def extract_codim_bucketed(buckets):\n    return [cyclotomic_fit(per) for per in buckets]\n"
    )
    (tmp_path / "lct.py").write_text("from . import consensus\n\nDIM = consensus._rounding_vote([(2, 4)])\n")
    assert _callers(tmp_path, EXTRACTION_STEPS) == [
        ("consensus.py", "extract_codim", "_rounding_vote"),
        ("consensus.py", "extract_codim", "cyclotomic_fit"),
        ("consensus.py", "extract_codim_bucketed", "cyclotomic_fit"),
        ("lct.py", "<module>", "_rounding_vote"),
    ]


def _counting_calls_of_the_corollary(package):
    """What ``corollary_check`` calls among the functions of the counting
    modules and the estimators of ``determinantal.py``."""
    counting = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (
                path.name in COUNTING_MODULES or node.name.endswith("_estimate")
            ):
                counting.add(node.name)
    return sorted({callee for _, owner, callee in _callers(package, counting) if owner == "corollary_check"})


def test_one_fold_and_one_verdict_make_the_threshold_results():
    package = ROOT / "src" / "arcdet"
    assert _callers(package, THRESHOLD_RESULTS) == [
        ("determinantal.py", "corollary_check", "CorollaryReport"),
        ("lct.py", "threshold_fold", "LctEstimate"),
    ]
    assert _counting_calls_of_the_corollary(package) == []


def test_guard_sees_a_second_fold_and_a_counting_corollary(tmp_path):
    (tmp_path / "lct.py").write_text(
        "def threshold_fold(reports):\n    return LctEstimate(reports)\n\n\n"
        "def lct_estimate(gens):\n    return LctEstimate(count(gens))\n"
    )
    (tmp_path / "determinantal.py").write_text(
        "def lct_z_estimate(pair):\n    return lct_estimate(pair.z_gens)\n\n\n"
        "def corollary_check(pair):\n    return CorollaryReport(lct_z_estimate(pair), threshold_fold([]))\n"
    )
    assert _callers(tmp_path, THRESHOLD_RESULTS) == [
        ("determinantal.py", "corollary_check", "CorollaryReport"),
        ("lct.py", "lct_estimate", "LctEstimate"),
        ("lct.py", "threshold_fold", "LctEstimate"),
    ]
    assert _counting_calls_of_the_corollary(tmp_path) == ["lct_z_estimate", "threshold_fold"]


def _names_a_status(node):
    """Whether an expression reads a verdict name or a status value outside
    a comparison."""
    if isinstance(node, ast.Compare):
        return False
    if isinstance(node, ast.Constant) and node.value in STATUS_VALUES:
        return True
    if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in VERDICTS:
        return True
    return any(_names_a_status(child) for child in ast.iter_child_nodes(node))


def _status_bindings(package):
    """(module, name) for each module-level assignment that binds a verdict
    name, or binds any name to a status value or a verdict name."""
    found = set()
    for path in package.rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and (target.id in VERDICTS or _names_a_status(node.value)):
                        found.add((str(path.relative_to(package)), target.id))
    return sorted(found)


def _status_makers(package):
    """(module, function) for each function other than the verdict rule that
    returns or assigns a status, a keyword argument included."""
    made = (ast.Return, ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.keyword)
    found = set()
    for path in package.rglob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            owner = (str(path.relative_to(package)), getattr(func, "name", None))
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or owner == VERDICT_RULE:
                continue
            for node in ast.walk(func):
                if isinstance(node, made) and node.value is not None and _names_a_status(node.value):
                    found.add(owner)
    return sorted(found)


def test_one_rule_makes_every_status():
    package = ROOT / "src" / "arcdet"
    assert _status_bindings(package) == [
        ("consensus.py", "STATUS_AMBIGUOUS"),
        ("determinantal.py", "VERDICT_AMBIGUOUS"),
        ("determinantal.py", "VERDICT_FAIL"),
        ("determinantal.py", "VERDICT_PASS"),
    ]
    assert _status_makers(package) == []


def test_guard_sees_a_second_status_rule(tmp_path):
    (tmp_path / "determinantal.py").write_text(
        'VERDICT_PASS = "PASS"\nVERDICT_FAIL = "FAIL"\n\n\n'
        "def verdict(holds, certain):\n    return VERDICT_PASS if holds else VERDICT_FAIL\n"
    )
    (tmp_path / "harness.py").write_text(
        'from .determinantal import VERDICT_FAIL, VERDICT_PASS, verdict\n\nSTATUS_FAIL = "FAIL"\n\n\n'
        "def run(ok):\n    status = verdict(ok, True)\n    if status == VERDICT_FAIL:\n        return status\n"
        "    return VERDICT_PASS if ok else STATUS_FAIL\n\n\n"
        "def check(ok):\n    return Report(ok, verdict='AMBIGUOUS')\n\n\n"
        "def compare(status):\n    failed = status == VERDICT_FAIL\n    return failed or status != 'PASS'\n"
    )
    assert _status_bindings(tmp_path) == [
        ("determinantal.py", "VERDICT_FAIL"), ("determinantal.py", "VERDICT_PASS"), ("harness.py", "STATUS_FAIL"),
    ]
    assert _status_makers(tmp_path) == [("harness.py", "check"), ("harness.py", "run")]
