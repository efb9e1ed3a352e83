"""arcdet benchmark: one workload of verification campaigns, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {strata,fiber,cone,thresholds} \
        --seed N --seconds S --trace {0,1}

Every process runs one workload at a time, in a fresh child with BLAS and
OpenMP pinned to one thread (`worker.py`), so memory peaks and set-up time
belong to that workload.

--trace 0 reports the end-to-end metrics:
  wall_s       median seconds of one untraced pass over all of the
               workload's cells; passes repeat until --seconds have passed;
  setup_s      median seconds from starting a fresh process to the moment
               the first cell could start (imports and campaign building),
               over several set-up-only processes and the measured one;
  peak_rss_mb  peak resident memory of the measured process.
--trace 1 runs an untraced child, then one traced pass in a second child,
and reports the per-layer metrics of `tracer.layer_metrics` plus
harness.cpu_per_wall, harness.trace_overhead and harness.fail_ratio.

Every pass is checked against `golden.json`; a cell fails when its status
is not PASS or its mathematical content differs. The last line of standard
output is the result object; the line before it describes the machine. The
traced run writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 20
DEADLINE_S = 170.0
PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args, mode, deadline, extra=()):
    """Run one worker child to completion; return (its result, its start time)."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), *extra,
    ]
    started = _now()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - _now()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _machine(worker_result):
    model, mem_kb = "unknown", None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
        with open("/proc/meminfo") as fh:
            mem_kb = next((int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "mem_gb": None if mem_kb is None else round(mem_kb / 2**20, 1),
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
    }


def _setup_samples(args, deadline, count):
    out = []
    for _ in range(count):
        res, started = _worker(args, "setup", deadline)
        out.append(res["ready"] - started)
    return out


def _end_to_end(args, deadline):
    # set-up samples sit on both sides of the measured process, so a slow
    # spell of the machine does not move all of them together
    setups = _setup_samples(args, deadline, SETUP_SAMPLES // 2)
    res, started = _worker(args, "plain", deadline)
    setups.append(res["ready"] - started)
    setups += _setup_samples(args, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    return metrics, [res]


def _traced(args, deadline):
    plain, _ = _worker(args, "plain", deadline)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    traced, _ = _worker(args, "traced", deadline, ("--trace-out", trace_path))
    layer = dict(traced["metrics"])
    layer["harness.cpu_per_wall"] = traced["cpus"][0] / traced["walls"][0]
    layer["harness.trace_overhead"] = traced["walls"][0] / statistics.median(plain["walls"]) - 1
    attempted = plain["attempted"] + traced["attempted"]
    layer["harness.fail_ratio"] = (plain["failed"] + traced["failed"]) / attempted
    return layer, [plain, traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = _now() + DEADLINE_S
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join("src", "arcdet", "__init__.py")):
        print("perfbench: run from the root of an arcdet checkout (src/arcdet not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        metrics, results = (_traced if args.trace else _end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = sorted({name for r in results for name in r["failures"]})
    if failures:
        print(f"perfbench: failed cells: {failures}", file=sys.stderr)
    print(json.dumps({"machine": _machine(results[0])}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
