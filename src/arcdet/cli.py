"""Command-line front end.  One subcommand per operation, batch oriented.

The subcommands ``lct``, ``strata``, ``fiber``, ``cone`` and ``one-generic
--config`` each run one task of a campaign task kind (``lct_z``,
``stratification``, ``fiber_formula``, ``cone``, ``one_generic``) as the
only task, named after its kind, of a campaign run by
``harness.run_campaign`` at seed 0: each flag sets the task parameter it is
named after (``--config`` the ``configuration``), a document flag names an
input read by ``io``, and the kind validates them as in any campaign.  A
budget refusal of the task is an error, not a skipped result.

Exit codes: 0 for computed results and PASS verdicts, 1 for FAIL verdicts,
failed campaigns and budget refusals, 2 for usage and validation errors.  Numeric payloads
carry exact rationals as "p/q" strings plus decimal convenience fields;
``--format csv`` flattens the same payload into key,value rows.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys

from .contact import MODE_AT_LEAST, MODE_EXACT, ContactQuery, count_contact
from .configurations import (
    cauchy_binet_expansion,
    is_connected,
    is_square_free,
    linear_one_generic,
    patterson_matrix,
)
from .determinantal import VERDICT_FAIL, lambda_profile
from .errors import ArcdetError, BudgetExceeded, ValidationError
from .fields import is_prime
from .harness import _KINDS, STATUS_SKIPPED, Campaign, Task, builtin_corpus, run_campaign
from .io import (
    INPUT_READERS,
    campaign_from_doc,
    configuration_from_doc,
    ideal_from_doc,
    jet_from_doc,
    load_json,
    matrix_from_doc,
    series_matrix_from_doc,
)
from .jets import DEFAULT_BUDGET
from .lct import LCT_DEFAULT_PRIMES
from .matrices import det_division_free
from .snf import smith_normal_form


def _ints_arg(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _primes_arg(text):
    primes = _ints_arg(text)
    if not all(map(is_prime, primes)) or len(set(primes)) < len(primes):
        raise argparse.ArgumentTypeError(f"--primes expects distinct primes below 2^31, got {text!r}")
    return tuple(primes)


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit(payload, args):
    # validate-on-emit: the payload must survive a JSON round trip unchanged
    encoded = json.dumps(payload, sort_keys=True, indent=2)
    if json.loads(encoded) != payload:
        raise ArcdetError("payload failed JSON round-trip validation")
    if args.format == "json":
        text = encoded + "\n"
    elif args.format == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        lines = [f"{key} = {value}" for key, value in _flatten(payload)]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommand handlers: return process exit status
# --------------------------------------------------------------------------


def _cmd_task(args):
    """Run one task of the subcommand's kind; exit 1 exactly on FAIL."""
    declared = _KINDS[args.kind]
    params, inputs = {}, {}
    for name in declared.specs:
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
            if name in INPUT_READERS:
                inputs[value] = (name, INPUT_READERS[name](load_json(value)))
    campaign = Campaign.make(args.kind, inputs, [Task.make(args.kind, args.kind, **params)])
    (result,) = run_campaign(campaign, budget=getattr(args, "budget", DEFAULT_BUDGET)).results
    if result.status == STATUS_SKIPPED:
        raise BudgetExceeded(result.payload["reason"])
    _emit(result.payload, args)
    return 1 if result.status == VERDICT_FAIL else 0


def _cmd_count(args):
    gens = ideal_from_doc(load_json(args.ideal))
    query = ContactQuery(
        MODE_EXACT if args.mode == "exact" else MODE_AT_LEAST,
        args.m, args.level, primes=args.primes, constraint=args.constraint,
    )
    rep = count_contact(gens, query, budget=args.budget)
    _emit(rep.payload(), args)
    return 0


def _cmd_profile(args):
    A = matrix_from_doc(load_json(args.matrix))
    jet = jet_from_doc(load_json(args.jet))
    lam = lambda_profile(A, jet)
    _emit({"lambda": list(lam.parts), "truncated": lam.truncation_flag}, args)
    return 0


def _cmd_snf(args):
    M = series_matrix_from_doc(load_json(args.matrix))
    res = smith_normal_form(M)
    payload = {
        "lambda": list(res.lam.parts),
        "valid_to_level": res.valid_to_level,
        "p_det_ord": det_division_free(res.p_transform).ord(),
        "q_det_ord": det_division_free(res.q_transform).ord(),
    }
    _emit(payload, args)
    return 0


def _cmd_patterson(args):
    cfg = configuration_from_doc(load_json(args.config))
    A = patterson_matrix(cfg)
    det = det_division_free(A)
    expansion = cauchy_binet_expansion(cfg, det)
    payload = {
        "vars": list(A.variables),
        "rows": [[str(e) for e in row] for row in A.entries],
        "determinant": str(det),
        "square_free": is_square_free(det),
        "support_expansion": {"coefficients": [[list(i), str(c)] for i, c in expansion.items()]},
    }
    _emit(payload, args)
    return 0


def _cmd_matroid(args):
    cfg = configuration_from_doc(load_json(args.config))
    payload = {
        "ground_size": cfg.n,
        "rank": cfg.r,
        "bases": [list(idx) for idx, _ in cfg.basis_dets],
        "connected": is_connected(cfg),
    }
    _emit(payload, args)
    return 0


def _cmd_one_generic(args):
    if args.configuration:
        return _cmd_task(args)
    A = matrix_from_doc(load_json(args.matrix))
    verdict = linear_one_generic(A)
    _emit(verdict.payload(), args)
    return 0


def _cmd_verify(args):
    if args.campaign.startswith("corpus:"):
        name = args.campaign.split(":", 1)[1]
        corpus = builtin_corpus()
        if name not in corpus:
            raise ValidationError(f"unknown corpus campaign {name!r}; available: {sorted(corpus)}")
        campaign = corpus[name]
    else:
        campaign = campaign_from_doc(load_json(args.campaign))
    report = run_campaign(campaign, seed=args.seed, budget=args.budget)
    for r in report.results:
        print(f"[{r.status:>14}] {r.kind:<14} {r.name}")
    payload = report.canonical_payload()
    payload["wall_time_seconds"] = round(report.wall_time, 3)
    if args.out or args.format != "text":
        _emit(payload, args)
    return 1 if report.failed else 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(p, *, level=False, max_m=False, m=False, primes=False, prime=False, p_flag=False, budget=False):
    """Add the flags that the subcommand reads, and ``--out`` and ``--format``."""
    if level:
        p.add_argument("--level", type=int, required=True, help="jet truncation level N")
    if max_m:
        p.add_argument("--max-m", dest="max_m", type=int, required=True, help="largest contact order M")
    if m:
        p.add_argument("--m", type=int, required=True, help="contact order")
    if p_flag:
        p.add_argument("--p", type=int, required=True, help="zero-section contact order")
    if primes:
        p.add_argument("--primes", type=_primes_arg, default=LCT_DEFAULT_PRIMES, help="comma-separated primes")
    if prime:
        p.add_argument("--prime", type=int, required=True, help="field size (prime)")
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max jets per exact enumeration")
    p.add_argument("--out", type=str, default=None, help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(prog="arcdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lct", help="jet-theoretic log canonical threshold estimate")
    p.add_argument("--ideal", type=str, help="ideal document path")
    p.add_argument("--matrix", type=str, help="matrix document path (uses the maximal-minor ideal)")
    _add_common(p, max_m=True, primes=True, budget=True)
    p.set_defaults(handler=_cmd_task, kind="lct_z")

    p = sub.add_parser("count", help="contact-locus point counts")
    p.add_argument("--ideal", type=str, required=True)
    p.add_argument("--mode", choices=("exact", "at-least"), default="exact")
    p.add_argument("--constraint", type=str, default=None)
    _add_common(p, level=True, m=True, primes=True, budget=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("profile", help="lambda profile of a jet against a matrix")
    p.add_argument("--matrix", type=str, required=True)
    p.add_argument("--jet", type=str, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("snf", help="Smith normal form of a truncated series matrix")
    p.add_argument("--matrix", type=str, required=True, help="series matrix document path")
    _add_common(p)
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("strata", help="lambda stratification of a contact locus")
    p.add_argument("--matrix", type=str, required=True)
    _add_common(p, level=True, m=True, prime=True, budget=True)
    p.set_defaults(handler=_cmd_task, kind="stratification")

    p = sub.add_parser("fiber", help="projective fiber codimension check")
    p.add_argument("--lam", type=_ints_arg, required=True, help="comma-separated profile")
    _add_common(p, level=True, m=True, primes=True, budget=True)
    p.set_defaults(handler=_cmd_task, kind="fiber_formula")

    p = sub.add_parser("cone", help="affine cone comparison check")
    p.add_argument("--matrix", type=str, required=True)
    _add_common(p, level=True, m=True, p_flag=True, primes=True, budget=True)
    p.set_defaults(handler=_cmd_task, kind="cone")

    p = sub.add_parser("patterson", help="Patterson matrix of a configuration")
    p.add_argument("--config", type=str, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_patterson)

    p = sub.add_parser("matroid", help="column matroid of a configuration")
    p.add_argument("--config", type=str, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_matroid)

    p = sub.add_parser("one-generic", help="1-genericity checks")
    documents = p.add_mutually_exclusive_group(required=True)
    documents.add_argument(
        "--config", dest="configuration", metavar="CONFIG", help="configuration document (runs both oracles)"
    )
    documents.add_argument("--matrix", type=str, help="matrix document (linear-search oracle only)")
    _add_common(p)
    p.set_defaults(handler=_cmd_one_generic, kind="one_generic")

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--campaign", type=str, required=True, help="corpus:NAME or a campaign document path")
    p.add_argument("--seed", type=int, default=0, help="seed of the randomized campaign tasks")
    _add_common(p, budget=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ArcdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
