"""Config-driven verification campaigns with deterministic reports.

A campaign declares named inputs (matrices, ideals, configurations) and an
ordered task list.  Each task kind is declared once, in ``_KINDS``: its
runner, whether it checks an identity, its parameters (each with a type and
either a default or the fact that it is required), and one check across its
parameters.  Validation is one loop over that table; it runs before
execution and reports every problem at once.  A runner receives its
parameters with the defaults filled in and its input references resolved,
each matrix input to the determinantal pair it defines, built once.
``run_campaign`` is the one place a runner is called; the CLI runs a single
task as a campaign of one.  Execution is sequential, deepest task first
(tasks are pure functions of immutable inputs, so order cannot change
results), and the report lists tasks in declaration order, with their
parameters as declared.  Identity checks and estimate checks are segregated so a
rounding ambiguity can never mask a broken identity; any failed identity
marks the whole run FAILED.

Reports serialize to canonical JSON.  Wall-clock time is recorded next to
the canonical payload, not inside it, so equal inputs and seed give
byte-identical canonical reports.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product

from .configurations import (
    ConfigurationMatrix,
    cauchy_binet_expansion,
    configuration_lct_campaign,
    cross_oracle_payload,
    hadamard_split,
    linear_one_generic,
    patterson_matrix,
)
from .counting import table_cache
from .determinantal import (
    VERDICT_AMBIGUOUS,
    VERDICT_FAIL,
    VERDICT_PASS,
    DeterminantalPair,
    cone_comparison_check,
    corollary_check,
    fiber_count_check,
    lct_w_estimate,
    lct_z_estimate,
    profiles_of_size,
    stratum_counts,
    verdict,
)
from .errors import ArcdetError, BudgetExceeded, InternalInvariantError, TruncationInsufficient, ValidationError
from .fields import GF, QQ, is_prime
from .jets import DEFAULT_BUDGET, IdealGens
from .lct import LCT_DEFAULT_PRIMES, lct_estimate
from .matrices import PolyMatrix, SeriesMatrix, det_division_free, minors
from .poly import MultiPoly, parse_poly
from .series import TruncSeries
from .snf import LambdaProfile, reconstruct, smith_normal_form

STATUS_SKIPPED = "SKIPPED_BUDGET"


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
    if isinstance(value, (int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)  # a Fraction, a numpy integer, ...


# --------------------------------------------------------------------------
# parameter types: a type is a tuple of (test, what the test wants) steps,
# and the first step a value fails names its problem
# --------------------------------------------------------------------------


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value):
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _is_profile(value):
    try:
        return len(LambdaProfile(tuple(value))) > 0
    except ValueError:
        return False


def _is_rational(value):
    if not isinstance(value, str):
        return _is_int(value)
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _is_shapes(value):
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(
        _is_int_list(s) and len(s) == 2 and s[0] >= s[1] >= 1 for s in value
    )


_INTEGER = (_is_int, "an integer")
_INTEGERS = (_is_int_list, "a list of integers")
_NATURAL = (_INTEGER, (lambda v: v >= 0, "at least 0"))
_POSITIVE = (_INTEGER, (lambda v: v >= 1, "at least 1"))
_PRIME = (_INTEGER, (is_prime, "a prime below 2^31"))
_PRIMES = (_INTEGERS, (lambda v: len(v) > 0 and all(map(is_prime, v)), "a non-empty list of primes below 2^31"))
_PROFILE = (_INTEGERS, (_is_profile, "a non-empty nondecreasing list of non-negative integers"))
_RATIONAL = ((_is_rational, "an integer or a rational string such as '1/2'"),)
_FLAG = ((lambda v: isinstance(v, bool), "true or false"),)
_GRID = ((lambda v: v == "grid", "'grid'"),)
_SHAPES = ((_is_shapes, "a non-empty list of [rows, cols] with rows >= cols >= 1"),)
_INPUT = "input"  # an input reference, named after the input kind it must name
_PAIR = "pair"  # a matrix input that DeterminantalPair.from_matrix accepts, resolved to the pair
_SQUARE = "square"  # a _PAIR input whose matrix is square
_REFERENCES = (_INPUT, _PAIR, _SQUARE)


def _resolve(spec, name, value, inputs, pairs):
    """(what a runner receives, what is wrong or None) for one parameter value.
    An input reference resolves to its payload, and a matrix that must define
    a determinantal pair to the pair; ``pairs`` maps each matrix input already
    checked to (pair, problem), so each pair is built once."""
    if spec not in _REFERENCES:
        for test, wanted in spec:
            if not test(value):
                return value, f"{name} must be {wanted}, got {value!r}"
        return value, None
    if not isinstance(value, str) or value not in inputs:
        return value, f"undeclared input {value!r}"
    kind, payload = inputs[value]
    if kind != name:
        return value, f"input {value!r} is a {kind}, expected {name}"
    if spec is _INPUT:
        return payload, None
    if spec is _SQUARE and payload.rows != payload.cols:
        return value, f"input {value!r} is {payload.rows}x{payload.cols}, not square"
    if value not in pairs:
        try:
            pairs[value] = DeterminantalPair.from_matrix(payload), None
        except ValidationError as exc:
            pairs[value] = value, f"input {value!r}: {exc}"
    return pairs[value]


# --------------------------------------------------------------------------
# task runners: runner(params, budget, seed) -> (status, payload); a
# "matrix" parameter holds the input's DeterminantalPair, and every status
# is a ``verdict``: an identity's is always certain
# --------------------------------------------------------------------------


def _run_stratification(p, budget, seed):
    rep = stratum_counts(p["matrix"], p["m"], p["level"], p["prime"], budget=budget)
    return verdict(rep.partition_ok, True), rep.payload()


def _run_fiber(p, budget, seed):
    fc = fiber_count_check(
        LambdaProfile(tuple(p["lam"])), p["m"], p["level"], primes=tuple(p["primes"]), budget=budget
    )
    return fc.verdict, fc.payload()


def _threshold_status(value, certified, expect, tolerance, require_certified=False):
    """The ``verdict`` of one threshold.  It holds when the value is known,
    lies within ``tolerance`` of ``expect`` if that is given, and is
    certified; a value that meets a given ``expect`` on any evidence holds
    too, unless ``require_certified``.  Only a certified value can refute
    it, so no value, or a miss on a vote, is AMBIGUOUS."""
    meets = value is not None and (expect is None or abs(Fraction(value) - Fraction(expect)) <= Fraction(tolerance))
    holds = meets and (certified or (expect is not None and not require_certified))
    return verdict(holds, value is not None and certified)


def _run_lct_z(p, budget, seed):
    primes = tuple(p["primes"])
    if p["matrix"] is not None:
        est = lct_z_estimate(p["matrix"], p["max_m"], primes=primes, budget=budget)
    else:
        est = lct_estimate(p["ideal"], p["max_m"], primes=primes, budget=budget)
    certified = est.certified_upper_bound
    status = _threshold_status(est.estimate, certified, p["expect"], p["tolerance"], p["require_consensus"])
    # a broken guard refutes a certified estimate only; its message is in the payload
    return verdict(status == VERDICT_PASS and not est.internal_errors, certified), est.payload()


def _run_lct_w(p, budget, seed):
    charts, w = lct_w_estimate(p["matrix"], p["max_m"], primes=tuple(p["primes"]), budget=budget)
    payload = {"charts": [c.payload() for c in charts], "lct_w": None if w is None else str(w)}
    certified = all(c.certified_upper_bound for c in charts)
    return _threshold_status(w, certified, p["expect"], p["tolerance"]), payload


def _expected_thresholds(p, corollary):
    """The ``verdict`` of a corollary with its expected thresholds: it holds
    when the corollary PASSes and each threshold is within 1/(2 max_m) of
    its expected value.  A corollary PASSes on certified estimates only, so
    a miss then FAILs."""
    tol = Fraction(1, 2 * p["max_m"])
    sides = ((corollary.lct_z.estimate, p["expect_z"]), (corollary.lct_w, p["expect_w"]))
    met = all(_threshold_status(value, True, expect, tol) == VERDICT_PASS for value, expect in sides)
    return verdict(corollary.verdict == VERDICT_PASS and met, corollary.verdict != VERDICT_AMBIGUOUS)


def _run_corollary(p, budget, seed):
    pair, primes = p["matrix"], tuple(p["primes"])
    rep = corollary_check(
        lct_z_estimate(pair, p["max_m"], primes=primes, budget=budget),
        lct_w_estimate(pair, p["max_m"], primes=primes, budget=budget),
        pair.r,
    )
    return _expected_thresholds(p, rep), rep.payload()


def _run_cone(p, budget, seed):
    check = cone_comparison_check(p["matrix"], p["m"], p["p"], p["level"], primes=tuple(p["primes"]), budget=budget)
    return check.verdict, check.payload()


def _run_configuration(p, budget, seed):
    rep = configuration_lct_campaign(p["configuration"], p["max_m"], primes=tuple(p["primes"]), budget=budget)
    status = _expected_thresholds(p, rep.corollary)
    # connectivity is exact, so a mismatch refutes the task whatever its thresholds read
    connected = p["expect_connected"] in (None, rep.connected)
    return verdict(status == VERDICT_PASS and connected, status == VERDICT_FAIL or not connected), rep.payload()


def _run_one_generic(p, budget, seed):
    if p["mode"] == "grid":
        return _run_one_generic_grid(p["r"], p["n_max"])
    payload = cross_oracle_payload(p["configuration"])
    return verdict(payload["agree"], True), payload


def _full_rank_sign_matrices(r, n):
    """All full-rank r x n configurations with entries in {-1, 0, 1}."""
    for flat in product((-1, 0, 1), repeat=r * n):
        try:
            cfg = ConfigurationMatrix.from_rows([flat[i * n : (i + 1) * n] for i in range(r)])
        except ValidationError:
            continue  # rank-deficient draw
        yield cfg


def _run_one_generic_grid(r, n_max):
    checked = 0
    disagreements = []
    for n in range(r, n_max + 1):
        for cfg in _full_rank_sign_matrices(r, n):
            # the grid reads verdicts only, so no witness vectors are built
            had = hadamard_split(cfg) is None
            # the r=2 rank-one certificate decides exactly; the prime sweep
            # only hunts for small witnesses, so two primes suffice here
            lin = linear_one_generic(patterson_matrix(cfg), primes=(2, 3))
            checked += 1
            if had != lin.one_generic:
                disagreements.append({"d": [[int(v) for v in row] for row in cfg.d]})
    payload = {"checked": checked, "disagreements": disagreements}
    return verdict(not disagreements, True), payload


def _random_series_matrix(rng, rows, cols, level, q):
    f = GF(q)
    return SeriesMatrix([
        [TruncSeries(f, level, [rng.randrange(q) for _ in range(level + 1)]) for _ in range(cols)]
        for _ in range(rows)
    ])


def _run_snf_roundtrip(p, budget, seed):
    rng = random.Random(seed)
    level, q, count = p["level"], p["prime"], p["count"]
    shapes = [tuple(s) for s in p["shapes"]]
    done = skipped = 0
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
        except InternalInvariantError as exc:  # a bug, such as a transform that is not invertible
            failures.append(f"sample {done}: {exc}")
            done += 1
            continue
        diag = SeriesMatrix.diagonal_powers(GF(q), level, shape[0], res.lam.parts)
        if reconstruct(res, M) != diag:
            failures.append(f"reconstruction failed for sample {done}")
        # minor-order oracle
        sigma_prev = 0
        for ell in range(1, shape[1] + 1):
            orders = [o for o in (mm.ord() for mm in minors(M, ell)) if o is not None]
            sigma = min(orders) if orders else None
            expect = sigma_prev + res.lam.parts[ell - 1]
            if sigma != expect:
                failures.append(f"minor-order oracle mismatch at sample {done}, l={ell}")
            sigma_prev = expect
        done += 1
    payload = {"count": done, "skipped_undetermined": skipped, "failures": failures}
    return verdict(not failures, True), payload


def _run_cauchy_binet(p, budget, seed):
    rng = random.Random(seed)
    bound = p["entry_bound"]
    done = 0
    failures = []
    while done < p["count"]:
        r = rng.randint(1, p["r_max"])
        n = rng.randint(r, p["n_max"])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
        try:
            cfg = ConfigurationMatrix.from_rows(rows)
        except ValidationError:
            continue  # rank-deficient draw
        try:
            # the second algorithm: the symbolic expansion of det(D diag(x) D^T)
            cauchy_binet_expansion(cfg, det_division_free(patterson_matrix(cfg)))
        except ArcdetError as exc:
            failures.append(f"sample {done}: {exc}")
        done += 1
    payload = {"count": done, "failures": failures}
    return verdict(not failures, True), payload


# --------------------------------------------------------------------------
# the task kinds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    run: object  # runner(params, budget, seed) -> (status, payload)
    identity: bool  # a FAIL marks the whole run FAILED
    required: dict  # parameter name -> type
    optional: dict  # parameter name -> (type, default)
    check: object = lambda p: None  # complete params -> problem across them, or None

    @cached_property
    def specs(self):
        """Parameter name -> type, the required parameters first."""
        return {**self.required, **{name: spec for name, (spec, _) in self.optional.items()}}

    @cached_property
    def defaults(self):
        """Optional parameter name -> default."""
        return {name: default for name, (_, default) in self.optional.items()}


def _two_primes(p):
    return None if len(set(p["primes"])) >= 2 else "threshold estimation needs at least two distinct primes"


def _lct_z_problem(p):
    if p["ideal"] is None and p["matrix"] is None:
        return "missing input reference 'ideal'"
    if p["ideal"] is not None and p["matrix"] is not None:
        return "takes one of 'ideal' and 'matrix', not both"
    return _two_primes(p)


def _configuration_problem(p):
    """A prime that divides a denominator of the configuration, whose
    Patterson matrix the counts reduce mod each prime, or the numerator of a
    basis determinant, whose basis is lost mod that prime, or fewer than two
    primes.  An input reference that did not resolve is reported as such."""
    cfg = p.get("configuration")
    if not isinstance(cfg, ConfigurationMatrix):
        return _two_primes(p)
    entries = [v for row in cfg.d for v in row]
    for q in p["primes"]:
        entry = next((v for v in entries if v.denominator % q == 0), None)
        if entry is not None:
            return f"the configuration has the entry {entry}, whose denominator the prime {q} divides"
        lost = next(((idx, d) for idx, d in cfg.basis_dets if d.numerator % q == 0), None)
        if lost is not None:
            return f"the prime {q} divides det(D|_{list(lost[0])}) = {lost[1]}"
    return _two_primes(p)


def _one_generic_problem(p):
    if p["mode"] is None:
        return None if p["configuration"] is not None else "missing input reference 'configuration'"
    if p["configuration"] is not None:
        return "mode 'grid' takes no configuration"
    return None if p["r"] <= p["n_max"] else "need r <= n_max"


_FIT = {"primes": (_PRIMES, LCT_DEFAULT_PRIMES)}
_EXPECT = {"expect": (_RATIONAL, None), "tolerance": (_RATIONAL, 0)}
_EXPECT_ZW = {"expect_z": (_RATIONAL, None), "expect_w": (_RATIONAL, None)}

_KINDS = {
    "stratification": _Kind(
        _run_stratification, True, {"matrix": _PAIR, "m": _NATURAL, "level": _NATURAL, "prime": _PRIME}, {},
        lambda p: "m must be at most level" if p["m"] > p["level"] else None,
    ),
    "fiber_formula": _Kind(
        _run_fiber, True, {"lam": _PROFILE, "m": _NATURAL, "level": _NATURAL}, _FIT,
        lambda p: "profile exceeds the level" if p["lam"][-1] > p["level"]
        else "m must be at most level" if p["m"] > p["level"] else None,
    ),
    "lct_z": _Kind(
        _run_lct_z, False, {"max_m": _POSITIVE},
        {"ideal": (_INPUT, None), "matrix": (_PAIR, None), **_FIT, **_EXPECT, "require_consensus": (_FLAG, False)},
        _lct_z_problem,
    ),
    "lct_w": _Kind(_run_lct_w, False, {"matrix": _PAIR, "max_m": _POSITIVE}, {**_FIT, **_EXPECT}, _two_primes),
    "corollary": _Kind(
        _run_corollary, False, {"matrix": _SQUARE, "max_m": _POSITIVE}, {**_FIT, **_EXPECT_ZW}, _two_primes
    ),
    "cone": _Kind(
        _run_cone, True, {"matrix": _PAIR, "m": _NATURAL, "p": _NATURAL, "level": _NATURAL}, _FIT,
        lambda p: None if p["p"] <= p["m"] <= p["level"] else "need 0 <= p <= m <= level",
    ),
    "configuration": _Kind(
        _run_configuration, False, {"configuration": _INPUT, "max_m": _POSITIVE},
        {**_FIT, "expect_connected": (_FLAG, None), **_EXPECT_ZW}, _configuration_problem,
    ),
    "one_generic": _Kind(
        _run_one_generic, True, {},
        {"configuration": (_INPUT, None), "mode": (_GRID, None), "r": (_POSITIVE, 2), "n_max": (_POSITIVE, 4)},
        _one_generic_problem,
    ),
    "snf_roundtrip": _Kind(
        _run_snf_roundtrip, True, {},
        {"count": (_NATURAL, 200), "level": (_NATURAL, 6), "prime": (_PRIME, 5),
         "shapes": (_SHAPES, ((2, 2), (3, 2)))},
    ),
    "cauchy_binet": _Kind(
        _run_cauchy_binet, True, {},
        {"count": (_NATURAL, 100), "r_max": (_POSITIVE, 3), "n_max": (_POSITIVE, 6), "entry_bound": (_POSITIVE, 3)},
        lambda p: None if p["r_max"] <= p["n_max"] else "need r_max <= n_max",
    ),
}


# --------------------------------------------------------------------------
# validation and execution
# --------------------------------------------------------------------------


def _validate_campaign(campaign: Campaign):
    """Check every task against its kind in ``_KINDS``; raise one
    ValidationError that lists every problem.  Returns (task, kind, params)
    for each task, its params holding the defaults and the resolved inputs."""
    inputs = campaign.input_dict()
    errors, calls, names, pairs = [], [], set(), {}
    for task in campaign.tasks:
        if task.name in names:
            errors.append(f"duplicate task name {task.name!r}")
        names.add(task.name)
        kind = _KINDS.get(task.kind)
        if kind is None:
            errors.append(f"{task.name}: unknown task kind {task.kind!r}")
            continue
        given = task.param_dict()
        params = dict(kind.defaults)
        problems, sound = [], True
        for name, spec in kind.specs.items():
            if name in given:
                params[name], problem = _resolve(spec, name, given[name], inputs, pairs)
            elif name in kind.required:
                problem = f"missing {'input reference' if spec in _REFERENCES else 'parameter'} {name!r}"
            else:
                continue
            if problem:
                problems.append(problem)
                if spec not in _REFERENCES:
                    sound = False
        if sound:  # the check across parameters compares values; it tests inputs only for presence
            problems.append(kind.check(params))
        if set(given) - set(kind.specs):
            problems.append(f"unknown parameters for {task.kind}: {sorted(set(given) - set(kind.specs))}")
        errors.extend(f"{task.name}: {problem}" for problem in problems if problem)
        calls.append((task, kind, params))
    if errors:
        raise ValidationError("campaign validation failed:\n  " + "\n  ".join(errors))
    return calls


def run_campaign(campaign: Campaign, seed=0, budget=DEFAULT_BUDGET) -> Report:
    """Validate, execute, and report.  Identical inputs and seed give
    byte-identical canonical reports.  Tasks run deepest first: by the larger
    of ``level`` and ``max_m``, then by ``level - p``, the level of a cone
    task's shifted side, then in task order.  So the run counts each table
    once, at its deepest level; the report lists them in task order."""
    calls = _validate_campaign(campaign)
    start = time.monotonic()
    results = [None] * len(calls)
    failed = False
    depth = [(max(p.get("level", 0), p.get("max_m", 0)), p.get("level", 0) - p.get("p", 0)) for _, _, p in calls]
    # the tasks of this run share each contact-order table; none outlives it
    with table_cache():
        for i in sorted(range(len(calls)), key=depth.__getitem__, reverse=True):
            task, kind, params = calls[i]
            try:
                status, payload = kind.run(params, budget, f"{seed}:{task.name}")
            except BudgetExceeded as exc:
                status, payload = STATUS_SKIPPED, {"reason": str(exc)}
            if status == VERDICT_FAIL and kind.identity:
                failed = True
            results[i] = TaskResult(
                name=task.name, kind=task.kind, status=status, identity_check=kind.identity,
                params=_jsonable(task.param_dict()), payload=_jsonable(payload),
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

    tasks = [
        Task.make(f"strata-m{m}-q{q}", "stratification", matrix="generic2x2", m=m, level=m, prime=q)
        for m in (1, 2, 3)
        for q in (2, 3)
    ]
    corpus["stratification-generic-2x2"] = Campaign.make(
        "stratification-generic-2x2", {"generic2x2": ("matrix", _generic_2x2())}, tasks
    )

    tasks = [
        Task.make(
            f"fiber-r{r}-l{'_'.join(map(str, lam))}-m{m}", "fiber_formula", lam=list(lam), m=m, level=3, primes=[2, 3]
        )
        for r in (2, 3)
        # every nondecreasing r-tuple with parts <= 3, in lexicographic order
        for lam in sorted(lam for total in range(3 * r + 1) for lam in profiles_of_size(r, total, 3))
        for m in (1, 2, 3)
    ]
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

    tasks = [
        Task.make(f"cone-{label}-m{m}-p{p}", "cone", matrix=matrix, m=m, p=p, level=m, primes=[2, 3])
        for label, matrix in (("x1", "single"), ("generic", "generic2x2"))
        for m in (1, 2, 3)
        for p in range(0, m + 1)
    ]
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
        [Task.make("triangle", "configuration", configuration="triangle", max_m=3,
                   expect_connected=True, expect_z="1", expect_w="2")],
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
