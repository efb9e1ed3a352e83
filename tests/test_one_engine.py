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
block with ``_side_walk``, and only the quotient walk calls ``_side_walk``
besides, for its table one level down.  Additive combines the states by
value prefixes (``_prefix_combine``); direct combines them in pairs
(``_pair_combine``) at one spanning polynomial or none, so that the
stratification's tower table and its Z total still meet through two
combines, and by value prefixes at two or more only where they cost less
than the pairs, as in the cone's joint table at (q, N) = (2, 3).  The
additive split's own walk and the evaluator's fast path for a plain
variable stay deleted.
The batch size is one constant, ``counting.BATCH_CAP``, read only where a
batch is cut: by the mesh walk, the quotient gate of ``_side_walk``, direct's
batches of state pairs and the fill of the ring tables.  No function takes
it as a parameter and no plan's count takes an argument.
The mesh walk gives each low coordinate its own axis, so it takes its code
sets alone: no cuts between term components, and only ``_blocks`` reads the
term components.
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
A profile has one reader of minor orders: ``determinantal.minor_order_profile``
reads sigma_l off a series matrix's l x l minors, and ``minor_order_parts``
is the one sigma -> lambda rule, which that reader and the stratum tables
call and which alone raises the decreasing-profile error.  ``lambda_profile``
reads the pulled-back series matrix, not the polynomial minor tower through
``ord_along_ideal``, and the Smith-form roundtrip in ``harness`` compares
Smith form with that reader and names no ``minors`` of its own.
A deeper table is read at a shallower level by one rule,
``counting.level_counts``: the table cache's truncation and the threshold's
level reads both call it, and only it raises the whole-fiber error.  Task
results hold payloads and params as the tasks made them: the second pass
that turned them into JSON values stays deleted.
A check's primes have one rule, ``counting.per_prime``: only it sorts primes
in reverse, to count the largest first, and it alone refuses a prime given
twice for every check that counts per prime.  The threshold reader of one
level-m table and its table builder stay deleted: ``lct_estimate`` counts
its tables and ``_level_report`` reads them.
Statuses have one rule: ``determinantal`` binds PASS, FAIL and AMBIGUOUS
once, and only ``determinantal.verdict`` returns or assigns one, so every
check and task reads its status from ``verdict(holds, certain)``; other
code may compare a status with them.  ``consensus.STATUS_AMBIGUOUS`` is the
status of a count report, not of a check.
"""

import ast
import re
from pathlib import Path

import arcdet.counting
from arcdet import PolyMatrix, parse_poly
from arcdet.counting import contact_order_table
from arcdet.determinantal import DeterminantalPair

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
# counting.py: the batch size, the functions that cut batches by it, and the
# parameter names that once carried it through the walks and plans
BATCH_SIZE = "BATCH_CAP"
BATCH_CUTTERS = ["RingTables.__init__", "_mesh_batches", "_pair_combine", "_side_walk"]
BATCH_PARAMETERS = ("batch_cap", "cap")
# counting.py: the mesh walk's one parameter, and the one reader of the term
# components, which also laid out and cut the mesh before it had an axis per
# low coordinate
MESH_WALK = ("_mesh_batches", ["sets"])
TERM_COMPONENTS = ("_term_components",)
TERM_COMPONENT_READERS = [("counting.py", "_blocks", "_term_components")]
# poly.py: the name-based embedding and ring map that built the incidence
# forms and their charts, which determinantal.py now builds by position
DELETED_POLY_METHODS = ("extend_variables", "substitute_polys")
# the one reader of minor orders: the modules or functions (None for a whole
# module) that must read them through it, and the names each must not read;
# and the one sigma -> lambda rule, which alone raises a decreasing profile
MINOR_ORDER_READS = {
    ("harness.py", None): ("minors",),
    ("determinantal.py", "lambda_profile"): ("minor_ideal_tower", "ord_along_ideal"),
}
DECREASING_PROFILE = "decreasing profile"
PROFILE_RULE = [("determinantal.py", "minor_order_parts")]
# the two steps of codimension extraction, run only by consensus.extract_codim
EXTRACTION_STEPS = ("cyclotomic_fit", "_rounding_vote")
# the threshold results and the one function that makes each
THRESHOLD_RESULTS = ("LctEstimate", "CorollaryReport")
# the modules whose functions count, extract or fold: the corollary calls none
COUNTING_MODULES = ("counting.py", "contact.py", "consensus.py", "lct.py")
# the one rule that reads a deeper table at a shallower level
WHOLE_FIBERS = "whole fibers"
LEVEL_RULE = [("counting.py", "level_counts")]
# harness.py: the pass that turned every payload and params into JSON values
DELETED_PASSES = ("_jsonable",)
# the one function that orders a check's primes, and the threshold reader of
# one level-m table and its table builder, which lct_estimate replaced
PRIME_ORDER = [("counting.py", "per_prime")]
DELETED_READERS = ("contact_codim_stratified", "_contact_tables")
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


def _owners(package, pick):
    """(module, enclosing function, pick(node)) for each node of the package
    for which ``pick`` is not None; "<module>" owns code outside functions."""
    found = set()

    def visit(path, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, child, child.name)
                continue
            picked = pick(child)
            if picked is not None:
                found.add((str(path.relative_to(package)), owner, picked))
            visit(path, child, owner)

    for path in package.rglob("*.py"):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(found)


def _callee(node):
    """The name a call calls, or None for any other node."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def _callers(package, names):
    """(module, enclosing function, callee) for each call of one of ``names``."""
    return _owners(package, lambda node: callee if (callee := _callee(node)) in names else None)


def _forbidden_reads(package, rules):
    """(module, function, name) for each name or attribute that a function of
    ``rules`` reads or imports against its rule, and (module, function, None)
    for each function of ``rules`` that its module does not define.  A
    function None stands for the whole module."""
    found = []
    for (module, function), names in rules.items():
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        defs = [tree] if function is None else [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        read = {
            node.id if isinstance(node, ast.Name) else node.name if isinstance(node, ast.alias) else node.attr
            for func in defs
            for node in ast.walk(func)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        found.extend([(module, function, None)] if not defs else [(module, function, n) for n in names if n in read])
    return found


def _raisers(package, text):
    """(module, enclosing function) for each raise whose exception holds a
    string constant that contains ``text``."""

    def raises(node):
        return (isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value for c in ast.walk(node.exc)
        )) or None

    return [(module, owner) for module, owner, _ in _owners(package, raises)]


def _prime_orderers(package):
    """(module, enclosing function) for each reverse sort of primes: a call
    of ``sorted`` or ``sort`` with a ``reverse`` that is not the constant
    False, or of ``reversed``, that reads a name or attribute holding
    "prime"."""

    def orders_primes(node):
        callee = _callee(node)
        reverse = callee == "reversed" or (callee in ("sorted", "sort") and any(
            k.arg == "reverse" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
            for k in node.keywords
        ))
        read = (n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
        return (reverse and any("prime" in name for name in read)) or None

    return [(module, owner) for module, owner, _ in _owners(package, orders_primes)]


def _arguments(func):
    a = func.args
    return a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]


def _batch_size_uses(path):
    """What one module does with the batch size, as (takes, reads).  ``takes``
    holds (function, parameter) for each parameter named in BATCH_PARAMETERS
    and (plan, argument) for each argument of a plan's count, the lambda that
    ends a tuple a plan name starts; ``reads`` the functions, qualified by
    their class, that read BATCH_SIZE."""
    takes, reads = set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.FunctionDef):
                takes.update((inner, arg.arg) for arg in _arguments(child) if arg.arg in BATCH_PARAMETERS)
            elif isinstance(child, ast.Tuple) and child.elts and isinstance(child.elts[-1], ast.Lambda):
                name = child.elts[0]
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    takes.update((name.value, arg.arg) for arg in _arguments(child.elts[-1]))
            elif isinstance(child, ast.Name) and child.id == BATCH_SIZE and isinstance(child.ctx, ast.Load):
                reads.add(owner or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(takes), sorted(reads)


def _parameters(path, function):
    """The parameter names of each function called ``function`` in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        [arg.arg for arg in _arguments(node)]
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]


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


def test_direct_takes_prefixes_only_where_they_are_cheaper(monkeypatch):
    calls = []
    for name in ("_pair_combine", "_prefix_combine"):
        def counted(*args, _name=name, _combine=getattr(arcdet.counting, name)):
            calls.append(_name)
            return _combine(*args)

        monkeypatch.setattr(arcdet.counting, name, counted)
    vs = ("x1", "x2", "x3", "x4")
    pair = DeterminantalPair.from_matrix(PolyMatrix([[parse_poly(v, vs) for v in row] for row in (vs[:2], vs[2:])]))
    # the stratification's tower table: only the determinant spans both blocks
    contact_order_table([ideal.nonzero() for ideal in pair.tower], 4, 1, 3, prefer="direct")
    assert calls == ["_pair_combine"]
    # the cone's joint table, where both incidence forms span both blocks: at
    # (q, N) = (2, 3) its 341 x 341 states cost more than 25 prefix vectors,
    # while at (2, 1) its 21 x 21 states cost less than 9
    for level, combine in ((3, "_prefix_combine"), (1, "_pair_combine")):
        calls.clear()
        contact_order_table([pair.y_coords, pair.w_gens.nonzero()], 6, level, 2, prefer="direct")
        assert calls == [combine]


def test_guard_sees_a_second_block_walk(tmp_path):
    (tmp_path / "counting.py").write_text(
        "def _block_states(sides):\n    return [_side_walk(side) for side in sides]\n\n\n"
        "def _side_table(side):\n    return _side_walk(side)\n"
    )
    assert _callers(tmp_path, BLOCK_WALK) == [
        ("counting.py", "_block_states", "_side_walk"), ("counting.py", "_side_table", "_side_walk"),
    ]
    assert _modules_naming(tmp_path, DELETED_WALKS) == ["counting.py: _side_table"]


def test_the_batch_size_is_one_constant():
    assert _batch_size_uses(ROOT / "src" / "arcdet" / "counting.py") == ([], BATCH_CUTTERS)
    assert _modules_naming(ROOT / "src", ("batch_cap",)) == []
    assert _modules_naming(ROOT / "tests", ("batch_cap",), ("test_one_engine.py",)) == []


def test_guard_sees_a_batch_size_parameter(tmp_path):
    (tmp_path / "counting.py").write_text(
        "BATCH_CAP = 8\n\n\n"
        "def _mesh_batches(sets, cap=BATCH_CAP):\n    return sets\n\n\n"
        "def _plans(polys):\n"
        "    return [('direct', 1, 1, lambda batch_cap: polys), ('monomial', 1, 1, lambda: polys)]\n\n\n"
        "class RingTables:\n    def __init__(self):\n        self.rows = BATCH_CAP\n"
    )
    assert _batch_size_uses(tmp_path / "counting.py") == (
        [("_mesh_batches", "cap"), ("direct", "batch_cap")], ["RingTables.__init__", "_mesh_batches"],
    )
    (tmp_path / "test_counting.py").write_text("def planned(plan, batch_cap=8):\n    return plan(batch_cap)\n")
    assert _modules_naming(tmp_path, ("batch_cap",)) == ["counting.py: batch_cap", "test_counting.py: batch_cap"]


def test_the_mesh_walk_takes_its_code_sets_alone():
    name, parameters = MESH_WALK
    assert _parameters(ROOT / "src" / "arcdet" / "counting.py", name) == [parameters]
    assert _callers(ROOT / "src" / "arcdet", TERM_COMPONENTS) == TERM_COMPONENT_READERS


def test_guard_sees_a_cut_mesh(tmp_path):
    (tmp_path / "counting.py").write_text(
        "def _mesh_batches(sets, cuts=()):\n    return sets\n\n\n"
        "def _order_batches(polys, sets):\n    return _mesh_batches(sets, _term_components(polys))\n\n\n"
        "def _blocks(polys):\n    return _term_components(polys)\n"
    )
    assert _parameters(tmp_path / "counting.py", "_mesh_batches") == [["sets", "cuts"]]
    assert _callers(tmp_path, TERM_COMPONENTS) == [
        ("counting.py", "_blocks", "_term_components"), ("counting.py", "_order_batches", "_term_components"),
    ]


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


def test_lambda_has_one_minor_order_reader():
    package = ROOT / "src" / "arcdet"
    assert _forbidden_reads(package, MINOR_ORDER_READS) == []
    assert _raisers(package, DECREASING_PROFILE) == PROFILE_RULE


def test_guard_sees_a_second_minor_order_reader(tmp_path):
    (tmp_path / "harness.py").write_text(
        "from .matrices import minors\n\n\n"
        "def _run_snf_roundtrip(M, lam):\n    return min(g.ord() for g in minors(M, 1)) == lam[0]\n"
    )
    (tmp_path / "determinantal.py").write_text(
        "def minor_order_parts(sigmas):\n"
        "    raise InternalInvariantError(f'decreasing profile from minor orders: {sigmas}')\n\n\n"
        "def lambda_profile(A, jet):\n"
        "    sigmas = [jets.ord_along_ideal(ideal, jet) for ideal in minor_ideal_tower(A)]\n"
        "    if sigmas != sorted(sigmas):\n"
        "        raise InternalInvariantError('minor orders produced a decreasing profile')\n"
        "    return sigmas\n"
    )
    assert _forbidden_reads(tmp_path, MINOR_ORDER_READS) == [
        ("harness.py", None, "minors"),
        ("determinantal.py", "lambda_profile", "minor_ideal_tower"),
        ("determinantal.py", "lambda_profile", "ord_along_ideal"),
    ]
    assert _raisers(tmp_path, DECREASING_PROFILE) == [
        ("determinantal.py", "lambda_profile"), ("determinantal.py", "minor_order_parts"),
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


def test_one_rule_reads_a_deeper_table():
    assert _raisers(ROOT / "src" / "arcdet", WHOLE_FIBERS) == LEVEL_RULE


def test_guard_sees_a_second_level_rule(tmp_path):
    (tmp_path / "counting.py").write_text(
        "def level_counts(rows, lifts):\n"
        "    if rows % lifts:\n        raise InternalInvariantError(f'{rows} are not whole fibers of {lifts}')\n"
    )
    (tmp_path / "lct.py").write_text(
        "def _level_report(cnt, lifts):\n"
        "    if cnt % lifts:\n        raise InternalInvariantError(f'{cnt} jets are not whole fibers')\n"
    )
    assert _raisers(tmp_path, WHOLE_FIBERS) == [("counting.py", "level_counts"), ("lct.py", "_level_report")]


def test_results_are_not_converted_twice():
    assert _modules_naming(ROOT / "src" / "arcdet", DELETED_PASSES) == []
    assert _modules_naming(ROOT / "tests", DELETED_PASSES, ("test_one_engine.py",)) == []


def test_guard_sees_a_second_json_pass(tmp_path):
    (tmp_path / "harness.py").write_text("def _jsonable(value):\n    return value\n")
    (tmp_path / "cli.py").write_text("from .harness import _jsonable\n")
    assert _modules_naming(tmp_path, DELETED_PASSES) == ["cli.py: _jsonable", "harness.py: _jsonable"]


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


def test_one_rule_orders_the_primes():
    package = ROOT / "src" / "arcdet"
    assert _prime_orderers(package) == PRIME_ORDER
    assert _modules_naming(package, DELETED_READERS) == []
    assert _modules_naming(ROOT / "tests", DELETED_READERS, ("test_one_engine.py",)) == []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"\b(" + "|".join(DELETED_READERS) + r")\b", readme) == []


def test_guard_sees_a_second_prime_order(tmp_path):
    (tmp_path / "counting.py").write_text(
        "def per_prime(primes, count):\n    return {q: count(q) for q in sorted(primes, reverse=True)}\n"
    )
    (tmp_path / "lct.py").write_text(
        "def _contact_tables(gens, primes):\n    return [table(gens, q) for q in sorted(primes, reverse=True)]\n\n\n"
        "def lct_estimate(gens, primes):\n    return [sorted(gens.terms, reverse=True), sorted(primes)]\n"
    )
    (tmp_path / "contact.py").write_text(
        "def count_contact(gens, query):\n    return [count(gens, q) for q in reversed(sorted(query.primes))]\n\n\n"
        "def proj_count_contact(lam, query):\n    primes = list(query.primes)\n    primes.sort(reverse=True)\n"
    )
    assert _prime_orderers(tmp_path) == [
        ("contact.py", "count_contact"), ("contact.py", "proj_count_contact"),
        ("counting.py", "per_prime"), ("lct.py", "_contact_tables"),
    ]
    assert _modules_naming(tmp_path, DELETED_READERS) == ["lct.py: _contact_tables"]
