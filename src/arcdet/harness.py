"""Config-driven verification campaigns with deterministic reports.

A campaign declares named inputs (matrices, ideals, configurations) and an
ordered task list.  Validation runs before execution and reports every
problem at once; execution is sequential (tasks are pure functions of
immutable inputs, so order cannot change results) and the report lists
tasks in declaration order.  Identity checks and estimate checks are
segregated so a rounding ambiguity can never mask a broken identity; any
failed identity marks the whole run FAILED.

Reports serialize to canonical JSON.  Wall-clock time is recorded next to
the canonical payload, not inside it, so equal inputs and seed give
byte-identical canonical reports.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .configurations import (
    ConfigurationMatrix,
    cauchy_binet_expansion,
    configuration_lct_campaign,
    cross_oracle_payload,
    hadamard_one_generic,
    linear_one_generic,
    patterson_matrix,
)
from .counting import table_cache
from .determinantal import (
    VERDICT_PASS,
    DeterminantalPair,
    cone_comparison_check,
    corollary_check,
    fiber_count_check,
    lct_w_estimate,
    lct_z_estimate,
    profiles_of_size,
    stratum_counts,
)
from .errors import ArcdetError, BudgetExceeded, ValidationError
from .fields import GF, QQ
from .jets import DEFAULT_BUDGET, IdealGens
from .lct import LCT_DEFAULT_PRIMES, lct_estimate
from .matrices import PolyMatrix, SeriesMatrix, minors
from .poly import MultiPoly, parse_poly
from .series import TruncSeries
from .snf import LambdaProfile, reconstruct, smith_normal_form

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_AMBIGUOUS = "AMBIGUOUS"
STATUS_SKIPPED = "SKIPPED_BUDGET"

TASK_KINDS = (
    "stratification",
    "fiber_formula",
    "lct_z",
    "lct_w",
    "corollary",
    "cone",
    "configuration",
    "one_generic",
    "snf_roundtrip",
    "cauchy_binet",
)

IDENTITY_KINDS = {"stratification", "fiber_formula", "cone", "one_generic", "snf_roundtrip", "cauchy_binet"}


@dataclass(frozen=True)
class Task:
    name: str
    kind: str
    params: tuple  # sorted (key, value) pairs; values JSON-compatible

    @classmethod
    def make(cls, name, kind, **params):
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self):
        return dict(self.params)

    @property
    def is_identity_check(self):
        return self.kind in IDENTITY_KINDS


@dataclass(frozen=True)
class Campaign:
    name: str
    inputs: tuple  # sorted (name, ("matrix"|"ideal"|"configuration", payload)) pairs
    tasks: tuple

    @classmethod
    def make(cls, name, inputs, tasks):
        return cls(name=name, inputs=tuple(sorted(inputs.items())), tasks=tuple(tasks))

    def input_dict(self):
        return dict(self.inputs)


@dataclass(frozen=True)
class TaskResult:
    name: str
    kind: str
    status: str
    identity_check: bool
    params: dict
    payload: dict


@dataclass(frozen=True)
class Report:
    campaign: str
    seed: int
    budget: int
    results: tuple
    failed: bool
    wall_time: float

    def canonical_payload(self):
        return {
            "campaign": self.campaign,
            "environment": {"seed": self.seed, "budget": self.budget},
            "failed": self.failed,
            "results": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "status": r.status,
                    "identity_check": r.identity_check,
                    "params": r.params,
                    "payload": r.payload,
                }
                for r in self.results
            ],
        }

    def canonical_json(self) -> str:
        """Deterministic byte-for-byte serialization (excludes wall time)."""
        return json.dumps(_jsonable(self.canonical_payload()), sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_ALLOWED_PARAMS = {
    "stratification": {"matrix", "m", "level", "prime"},
    "fiber_formula": {"lam", "m", "level", "primes"},
    "lct_z": {"ideal", "matrix", "max_m", "primes", "expect", "tolerance", "require_consensus"},
    "lct_w": {"matrix", "max_m", "primes", "expect", "tolerance"},
    "corollary": {"matrix", "max_m", "primes", "expect_z", "expect_w"},
    "cone": {"matrix", "m", "p", "level", "primes"},
    "configuration": {"configuration", "max_m", "primes", "expect_connected", "expect_z", "expect_w"},
    "one_generic": {"configuration", "mode", "r", "n_max"},
    "snf_roundtrip": {"count", "level", "prime", "shapes"},
    "cauchy_binet": {"count", "r_max", "n_max", "entry_bound"},
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _param_type_errors(p):
    """Integer parameters that are not ints (bools count as not): the scalars
    m, p, level, prime and max_m, and every element of primes and lam."""
    errors = [
        f"{name} must be an integer, got {p[name]!r}"
        for name in ("m", "p", "level", "prime", "max_m")
        if name in p and not _is_int(p[name])
    ]
    for name in ("primes", "lam"):
        value = p.get(name)
        if value is not None and not (isinstance(value, (list, tuple)) and all(map(_is_int, value))):
            errors.append(f"{name} must be a list of integers, got {value!r}")
    return errors


def _validate_campaign(campaign: Campaign):
    errors = []
    inputs = campaign.input_dict()
    names = set()
    for task in campaign.tasks:
        if task.name in names:
            errors.append(f"duplicate task name {task.name!r}")
        names.add(task.name)
        if task.kind not in TASK_KINDS:
            errors.append(f"{task.name}: unknown task kind {task.kind!r}")
            continue
        p = task.param_dict()
        unknown = set(p) - _ALLOWED_PARAMS[task.kind]
        if unknown:
            errors.append(f"{task.name}: unknown parameters for {task.kind}: {sorted(unknown)}")
        type_errors = _param_type_errors(p)
        errors.extend(f"{task.name}: {msg}" for msg in type_errors)
        ref_field = {
            "stratification": "matrix",
            "lct_z": "ideal",
            "lct_w": "matrix",
            "corollary": "matrix",
            "cone": "matrix",
            "configuration": "configuration",
            "one_generic": "configuration",
        }.get(task.kind)
        if task.kind == "one_generic" and p.get("mode") == "grid":
            ref_field = None  # self-contained sweep, no declared input
        if ref_field:
            ref = p.get(ref_field)
            if ref is None and task.kind == "lct_z" and p.get("matrix"):
                ref_field, ref = "matrix", p.get("matrix")
            if ref is None:
                errors.append(f"{task.name}: missing input reference {ref_field!r}")
            elif ref not in inputs:
                errors.append(f"{task.name}: undeclared input {ref!r}")
        if type_errors:
            continue  # the range checks below compare these values
        if task.kind == "stratification":
            if p.get("m", -1) > p.get("level", -1):
                errors.append(f"{task.name}: m must be at most level")
        if task.kind == "cone":
            if not (0 <= p.get("p", -1) <= p.get("m", -1) <= p.get("level", -1)):
                errors.append(f"{task.name}: need 0 <= p <= m <= level")
        if task.kind == "fiber_formula":
            lam = p.get("lam")
            if lam is None:
                errors.append(f"{task.name}: missing profile 'lam'")
            else:
                try:
                    parts = LambdaProfile(tuple(lam)).parts
                except (ValueError, TypeError) as exc:
                    errors.append(f"{task.name}: bad profile: {exc}")
                else:
                    if parts and parts[-1] > p.get("level", -1):
                        errors.append(f"{task.name}: profile exceeds the level")
                if p.get("m", -1) > p.get("level", -1):
                    errors.append(f"{task.name}: m must be at most level")
        if task.kind in ("lct_z", "lct_w", "corollary", "configuration"):
            if p.get("max_m", 0) < 1:
                errors.append(f"{task.name}: max_m must be at least 1")
            primes = p.get("primes", LCT_DEFAULT_PRIMES)
            if not isinstance(primes, (list, tuple)) or len(set(primes)) < 2:
                errors.append(f"{task.name}: threshold estimation needs at least two distinct primes")
    return errors


# --------------------------------------------------------------------------
# task runners
# --------------------------------------------------------------------------


def _resolve(inputs, name, want):
    kind, value = inputs[name]
    if kind != want:
        raise ValidationError(f"input {name!r} is a {kind}, expected {want}")
    return value


def _fraction_close(value, target, tol):
    return value is not None and abs(Fraction(value) - Fraction(target)) <= Fraction(tol)


def _run_stratification(task, inputs, ctx):
    p = task.param_dict()
    A = _resolve(inputs, p["matrix"], "matrix")
    pair = DeterminantalPair.from_matrix(A)
    rep = stratum_counts(pair, p["m"], p["level"], p["prime"], budget=ctx["budget"])
    status = STATUS_PASS if rep.partition_ok else STATUS_FAIL
    return status, rep.payload()


def _run_fiber(task, inputs, ctx):
    p = task.param_dict()
    fc = fiber_count_check(
        LambdaProfile(tuple(p["lam"])), p["m"], p["level"],
        primes=tuple(p.get("primes", LCT_DEFAULT_PRIMES)), budget=ctx["budget"],
    )
    return fc.verdict, fc.payload()


def _run_lct_z(task, inputs, ctx):
    p = task.param_dict()
    primes = tuple(p.get("primes", LCT_DEFAULT_PRIMES))
    if "matrix" in p:
        pair = DeterminantalPair.from_matrix(_resolve(inputs, p["matrix"], "matrix"))
        est = lct_z_estimate(pair, p["max_m"], primes=primes, budget=ctx["budget"])
    else:
        gens = _resolve(inputs, p["ideal"], "ideal")
        est = lct_estimate(gens, p["max_m"], primes=primes, budget=ctx["budget"])
    payload = est.payload()
    status = STATUS_PASS
    if est.internal_errors:
        status = STATUS_FAIL
    elif "expect" in p:
        tol = Fraction(p.get("tolerance", 0))
        ok = _fraction_close(est.estimate, Fraction(p["expect"]), tol)
        status = STATUS_PASS if ok else STATUS_FAIL
        if ok and p.get("require_consensus") and not est.certified_upper_bound:
            status = STATUS_AMBIGUOUS
    elif not est.certified_upper_bound:
        status = STATUS_AMBIGUOUS
    return status, payload


def _run_lct_w(task, inputs, ctx):
    p = task.param_dict()
    pair = DeterminantalPair.from_matrix(_resolve(inputs, p["matrix"], "matrix"))
    charts, w = lct_w_estimate(
        pair, p["max_m"], primes=tuple(p.get("primes", LCT_DEFAULT_PRIMES)), budget=ctx["budget"]
    )
    payload = {
        "charts": [c.payload() for c in charts],
        "lct_w": None if w is None else str(w),
    }
    status = STATUS_PASS
    if w is None:
        status = STATUS_AMBIGUOUS
    elif "expect" in p:
        tol = Fraction(p.get("tolerance", 0))
        status = STATUS_PASS if _fraction_close(w, Fraction(p["expect"]), tol) else STATUS_FAIL
    return status, payload


def _run_corollary(task, inputs, ctx):
    p = task.param_dict()
    A = _resolve(inputs, p["matrix"], "matrix")
    rep = corollary_check(A, p["max_m"], primes=tuple(p.get("primes", LCT_DEFAULT_PRIMES)), budget=ctx["budget"])
    status = rep.verdict
    if status == VERDICT_PASS:
        tol = Fraction(1, 2 * p["max_m"])
        if "expect_z" in p and not _fraction_close(rep.lct_z.estimate, Fraction(p["expect_z"]), tol):
            status = STATUS_FAIL
        if "expect_w" in p and not _fraction_close(rep.lct_w, Fraction(p["expect_w"]), tol):
            status = STATUS_FAIL
    return status, rep.payload()


def _run_cone(task, inputs, ctx):
    p = task.param_dict()
    A = _resolve(inputs, p["matrix"], "matrix")
    check = cone_comparison_check(
        A, p["m"], p["p"], p["level"], primes=tuple(p.get("primes", LCT_DEFAULT_PRIMES)),
        budget=ctx["budget"],
    )
    return check.verdict, check.payload()


def _run_configuration(task, inputs, ctx):
    p = task.param_dict()
    cfg = _resolve(inputs, p["configuration"], "configuration")
    rep = configuration_lct_campaign(
        cfg, p["max_m"], primes=tuple(p.get("primes", LCT_DEFAULT_PRIMES)), budget=ctx["budget"]
    )
    status = rep.verdict
    if status == VERDICT_PASS:
        tol = Fraction(1, 2 * p["max_m"])
        if "expect_connected" in p and rep.connected != p["expect_connected"]:
            status = STATUS_FAIL
        if "expect_z" in p and not _fraction_close(rep.corollary.lct_z.estimate, Fraction(p["expect_z"]), tol):
            status = STATUS_FAIL
        if "expect_w" in p and not _fraction_close(rep.corollary.lct_w, Fraction(p["expect_w"]), tol):
            status = STATUS_FAIL
        if not rep.square_free:
            status = STATUS_FAIL
    return status, rep.payload()


def _run_one_generic(task, inputs, ctx):
    p = task.param_dict()
    if p.get("mode") == "grid":
        return _run_one_generic_grid(p)
    payload = cross_oracle_payload(_resolve(inputs, p["configuration"], "configuration"))
    return (STATUS_PASS if payload["agree"] else STATUS_FAIL), payload


def _full_rank_sign_matrices(r, n):
    """All full-rank r x n configurations with entries in {-1, 0, 1}."""
    for flat in product((-1, 0, 1), repeat=r * n):
        try:
            cfg = ConfigurationMatrix.from_rows([flat[i * n : (i + 1) * n] for i in range(r)])
        except ValidationError:
            continue  # rank-deficient draw
        yield cfg


def _run_one_generic_grid(p):
    r = p.get("r", 2)
    checked = 0
    disagreements = []
    for n in range(r, p.get("n_max", 4) + 1):
        for cfg in _full_rank_sign_matrices(r, n):
            had = hadamard_one_generic(cfg)
            # the r=2 rank-one certificate decides exactly; the prime sweep
            # only hunts for small witnesses, so two primes suffice here
            lin = linear_one_generic(patterson_matrix(cfg), primes=(2, 3))
            checked += 1
            if had.one_generic != lin.one_generic:
                disagreements.append({"d": [[int(v) for v in row] for row in cfg.d]})
    payload = {"checked": checked, "disagreements": disagreements}
    return (STATUS_PASS if not disagreements else STATUS_FAIL), payload


def _random_series_matrix(rng, rows, cols, level, q):
    f = GF(q)
    return SeriesMatrix(
        [
            [TruncSeries(f, level, [rng.randrange(q) for _ in range(level + 1)]) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def _run_snf_roundtrip(task, inputs, ctx):
    p = task.param_dict()
    rng = random.Random(f"{ctx['seed']}:{task.name}")
    level = p.get("level", 6)
    q = p.get("prime", 5)
    shapes = [tuple(s) for s in p.get("shapes", [(2, 2), (3, 2)])]
    count = p.get("count", 200)
    from .errors import TruncationInsufficient
    from .matrices import det_division_free

    done = 0
    skipped = 0
    failures = []
    while done < count:
        shape = shapes[done % len(shapes)]
        M = _random_series_matrix(rng, shape[0], shape[1], level, q)
        try:
            res = smith_normal_form(M)
        except TruncationInsufficient:
            skipped += 1
            if skipped > 50 * count:
                failures.append("too many undetermined profiles")
                break
            continue
        diag = SeriesMatrix.diagonal_powers(GF(q), level, shape[0], res.lam.parts)
        if reconstruct(res, M) != diag:
            failures.append(f"reconstruction failed for sample {done}")
        if det_division_free(res.p_transform).ord() != 0 or det_division_free(res.q_transform).ord() != 0:
            failures.append(f"transform not unimodular for sample {done}")
        # minor-order oracle
        sigma_prev = 0
        for ell in range(1, shape[1] + 1):
            orders = [mm.ord() for mm in minors(M, ell)]
            orders = [o for o in orders if o is not None]
            sigma = min(orders) if orders else None
            expect = sigma_prev + res.lam.parts[ell - 1]
            if sigma != expect:
                failures.append(f"minor-order oracle mismatch at sample {done}, l={ell}")
            sigma_prev = expect
        done += 1
    payload = {"count": done, "skipped_undetermined": skipped, "failures": failures}
    return (STATUS_PASS if not failures else STATUS_FAIL), payload


def _run_cauchy_binet(task, inputs, ctx):
    p = task.param_dict()
    rng = random.Random(f"{ctx['seed']}:{task.name}")
    count = p.get("count", 100)
    bound = p.get("entry_bound", 3)
    done = 0
    failures = []
    while done < count:
        r = rng.randint(1, p.get("r_max", 3))
        n = rng.randint(r, p.get("n_max", 6))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
        try:
            cfg = ConfigurationMatrix.from_rows(rows)
        except ValidationError:
            continue  # rank-deficient draw
        try:
            cauchy_binet_expansion(cfg)
        except ArcdetError as exc:
            failures.append(f"sample {done}: {exc}")
        done += 1
    payload = {"count": done, "failures": failures}
    return (STATUS_PASS if not failures else STATUS_FAIL), payload


_RUNNERS = {
    "stratification": _run_stratification,
    "fiber_formula": _run_fiber,
    "lct_z": _run_lct_z,
    "lct_w": _run_lct_w,
    "corollary": _run_corollary,
    "cone": _run_cone,
    "configuration": _run_configuration,
    "one_generic": _run_one_generic,
    "snf_roundtrip": _run_snf_roundtrip,
    "cauchy_binet": _run_cauchy_binet,
}


def run_campaign(campaign: Campaign, seed=0, budget=DEFAULT_BUDGET) -> Report:
    """Validate, execute, and report.  Identical inputs and seed give
    byte-identical canonical reports."""
    errors = _validate_campaign(campaign)
    if errors:
        raise ValidationError("campaign validation failed:\n  " + "\n  ".join(errors))
    inputs = campaign.input_dict()
    ctx = {"seed": seed, "budget": budget}
    start = time.monotonic()
    results = []
    failed = False
    # the tasks of this run share each contact-order table; none outlives it
    with table_cache():
        for task in campaign.tasks:
            runner = _RUNNERS[task.kind]
            try:
                status, payload = runner(task, inputs, ctx)
            except BudgetExceeded as exc:
                status, payload = STATUS_SKIPPED, {"reason": str(exc)}
            if status == STATUS_FAIL and task.is_identity_check:
                failed = True
            results.append(
                TaskResult(
                    name=task.name,
                    kind=task.kind,
                    status=status,
                    identity_check=task.is_identity_check,
                    params=_jsonable(task.param_dict()),
                    payload=_jsonable(payload),
                )
            )
    wall = time.monotonic() - start
    return Report(
        campaign=campaign.name, seed=seed, budget=budget,
        results=tuple(results), failed=failed, wall_time=wall,
    )


# --------------------------------------------------------------------------
# builtin corpus
# --------------------------------------------------------------------------


def _generic_2x2():
    vs = ("x1", "x2", "x3", "x4")
    return PolyMatrix([
        [parse_poly("x1", vs), parse_poly("x2", vs)],
        [parse_poly("x3", vs), parse_poly("x4", vs)],
    ])


def _diag_x1_x1():
    vs = ("x1",)
    zero = MultiPoly.zero(QQ, vs)
    x1 = parse_poly("x1", vs)
    return PolyMatrix([[x1, zero], [zero, x1]])


def _triangle_configuration():
    return ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])


def builtin_corpus():
    """The named campaigns used by the acceptance suite.  Immutable."""
    corpus = {}

    tasks = []
    for m in (1, 2, 3):
        for q in (2, 3):
            tasks.append(Task.make(f"strata-m{m}-q{q}", "stratification", matrix="generic2x2", m=m, level=m, prime=q))
    corpus["stratification-generic-2x2"] = Campaign.make(
        "stratification-generic-2x2", {"generic2x2": ("matrix", _generic_2x2())}, tasks
    )

    tasks = []
    for r in (2, 3):
        # every nondecreasing r-tuple with parts <= 3, in lexicographic order
        profiles = sorted(lam for total in range(3 * r + 1) for lam in profiles_of_size(r, total, 3))
        for lam in profiles:
            for m in (1, 2, 3):
                tasks.append(
                    Task.make(
                        f"fiber-r{r}-l{'_'.join(map(str, lam))}-m{m}",
                        "fiber_formula", lam=list(lam), m=m, level=3, primes=[2, 3],
                    )
                )
    corpus["fiber-formula-grid"] = Campaign.make("fiber-formula-grid", {}, tasks)

    inputs = {
        "x1": ("ideal", IdealGens((parse_poly("x1", ("x1",)),))),
        "x1sq": ("ideal", IdealGens((parse_poly("x1^2", ("x1",)),))),
        "x1cube": ("ideal", IdealGens((parse_poly("x1^3", ("x1",)),))),
        "x1x2": ("ideal", IdealGens((parse_poly("x1*x2", ("x1", "x2")),))),
        "generic2x2": ("matrix", _generic_2x2()),
    }
    tasks = [
        Task.make("lct-x1", "lct_z", ideal="x1", max_m=2, expect="1", tolerance="0", require_consensus=True),
        Task.make("lct-x1sq", "lct_z", ideal="x1sq", max_m=4, expect="1/2", tolerance="0", require_consensus=True),
        Task.make("lct-x1cube", "lct_z", ideal="x1cube", max_m=6, expect="1/3", tolerance="0", require_consensus=True),
        Task.make("lct-x1x2", "lct_z", ideal="x1x2", max_m=6, expect="1", tolerance="0", require_consensus=True),
        Task.make("lct-det2x2", "lct_z", matrix="generic2x2", max_m=4, expect="1", tolerance="1/8", require_consensus=True),
    ]
    corpus["lct-known-values"] = Campaign.make("lct-known-values", inputs, tasks)

    corpus["corollary-generic-2x2"] = Campaign.make(
        "corollary-generic-2x2",
        {"generic2x2": ("matrix", _generic_2x2())},
        [Task.make("corollary", "corollary", matrix="generic2x2", max_m=4, expect_z="1", expect_w="2")],
    )
    corpus["corollary-diag-x1x1"] = Campaign.make(
        "corollary-diag-x1x1",
        {"diagx1": ("matrix", _diag_x1_x1())},
        [Task.make("corollary", "corollary", matrix="diagx1", max_m=4, expect_z="1/2", expect_w="1")],
    )

    tasks = []
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            tasks.append(Task.make(f"cone-x1-m{m}-p{p}", "cone", matrix="single", m=m, p=p, level=m, primes=[2, 3]))
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            tasks.append(Task.make(f"cone-generic-m{m}-p{p}", "cone", matrix="generic2x2", m=m, p=p, level=m, primes=[2, 3]))
    corpus["cone-comparison-basic"] = Campaign.make(
        "cone-comparison-basic",
        {
            "single": ("matrix", PolyMatrix([[parse_poly("x1", ("x1",))]])),
            "generic2x2": ("matrix", _generic_2x2()),
        },
        tasks,
    )

    corpus["configuration-triangle"] = Campaign.make(
        "configuration-triangle",
        {"triangle": ("configuration", _triangle_configuration())},
        [
            Task.make(
                "triangle", "configuration", configuration="triangle", max_m=3,
                expect_connected=True, expect_z="1", expect_w="2",
            )
        ],
    )

    corpus["snf-roundtrip-random"] = Campaign.make(
        "snf-roundtrip-random",
        {},
        [Task.make("snf-random", "snf_roundtrip", count=200, level=6, prime=5, shapes=[[2, 2], [3, 2]])],
    )

    corpus["cauchy-binet-random"] = Campaign.make(
        "cauchy-binet-random",
        {},
        [Task.make("cauchy-binet", "cauchy_binet", count=100, r_max=3, n_max=6, entry_bound=3)],
    )

    corpus["one-generic-grid"] = Campaign.make(
        "one-generic-grid",
        {},
        [Task.make("grid-r2", "one_generic", mode="grid", r=2, n_max=4)],
    )

    return corpus
