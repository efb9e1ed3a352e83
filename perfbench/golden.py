"""Golden values: the mathematical content of every benchmark cell.

A cell is one task of a workload campaign, keyed by "<campaign>/<task>".
Its content keeps the exact counts, strata, codimensions, estimates and
verdicts, and drops method, detail and strategy strings, parameter echoes
and decimal copies, so that a deliberate change of report wording is not a
failure but a changed count is.

Regenerate `golden.json` from the checkout root with

    python3 perfbench/golden.py

which runs every workload once, untraced, with seed 0.
"""

from __future__ import annotations

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# payload keys whose values are kept as they are
_LEAVES = {
    "backward_bound_ok", "biconditional_ok", "certified_upper_bound", "codim",
    "codim_identity_ok", "codim_interval", "connected", "cont_m", "count_identity_ok",
    "counts", "determinant", "dims", "estimate", "estimate_lower_bound", "formula",
    "forward_bound_ok", "lct_w", "one_generic", "partition_ok", "prop24_ok", "ratio",
    "residual", "square_free", "status", "strata", "verdict", "w_is_r", "witness_m",
    "z_is_one",
}
# payload keys whose values are filtered recursively
_CONTAINERS = {"charts", "corollary", "lct_z", "lhs", "per_m", "report", "rhs"}


def _filter(value):
    if isinstance(value, list):
        return [_filter(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in value.items():
        if key in _LEAVES:
            out[key] = v
        elif key in _CONTAINERS:
            out[key] = _filter(v)
    return out


def cell_content(result):
    """The mathematical content of one `TaskResult`, as JSON-compatible data."""
    return {"status": result.status, "payload": _filter(result.payload)}


def report_contents(report):
    """Cell name -> content for every result of a `Report`."""
    return {r.name: cell_content(r) for r in report.results}


def failed_cells(report, golden):
    """Names of the cells that did not PASS or whose content differs from ``golden``."""
    failed = []
    for r in report.results:
        content = json.loads(json.dumps(cell_content(r)))
        if r.status != "PASS" or golden.get(r.name) != content:
            failed.append(r.name)
    return failed


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from arcdet.harness import run_campaign
    from workloads import WORKLOADS, build_campaign

    golden = {}
    for workload in WORKLOADS:
        report = run_campaign(build_campaign(workload, 0), seed=0)
        bad = [r.name for r in report.results if r.status != "PASS"]
        if bad:
            raise SystemExit(f"{workload}: cells did not PASS: {bad}")
        golden.update(report_contents(report))
        print(f"{workload}: {len(report.results)} cells", file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
