"""One benchmark process: set up a workload, run it, check it, report as JSON.

Run from the checkout root (`run.py` starts it with BLAS and OpenMP pinned
to one thread):

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  setup   import arcdet and numpy, build the workload campaign, stop;
  plain   then run untraced passes over the campaign until --seconds have
          passed (at least one pass);
  traced  then install the tracer and run exactly one traced pass, so the
          per-layer counts of two traced runs are comparable.

The last line of standard output is a JSON object. `ready` is the
CLOCK_MONOTONIC time at which the first cell could start, so the parent can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None, help="where the traced mode writes its spans")
    ap.add_argument("--golden", default=None, help="golden values file (default: perfbench/golden.json)")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import arcdet.harness
    import numpy

    import golden
    from workloads import build_campaign

    campaign = build_campaign(args.workload, args.seed)
    ready = _now()
    out = {"ready": ready, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    expected = golden.load_golden(args.golden or golden.GOLDEN_PATH)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    walls, cpus, failures = [], [], []
    canonical = contents = None
    start = _now()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        # looked up at call time, so the traced run goes through the wrapper
        report = arcdet.harness.run_campaign(campaign, seed=args.seed)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        failures.extend(golden.failed_cells(report, expected))
        if canonical is None:
            # later passes reuse a heap shaped by the earlier ones and raised
            # the high-water mark by up to 80 MB on thresholds, so the peak of
            # the first pass is the one reported
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            canonical = _sha(report.canonical_json())
            contents = _sha(json.dumps(golden.report_contents(report), sort_keys=True))
        if tracer is not None or _now() - start >= args.seconds:
            break

    out.update(
        walls=walls,
        cpus=cpus,
        cells=len(campaign.tasks),
        order=[t.name for t in campaign.tasks],
        attempted=len(campaign.tasks) * len(walls),
        failed=len(failures),
        failures=sorted(set(failures)),
        canonical_sha256=canonical,
        content_sha256=contents,
        peak_rss_kb=peak_rss_kb,
    )
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        out["metrics"] = layer_metrics(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
