"""Tests of the benchmark itself: tracer coverage, tracing transparency,
the golden-value gate, seeds, and the run contract.

Run from the checkout root:

    python3 -m pytest -q perfbench/tests

The per-workload tests run three passes of every workload in child
processes, a few minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import golden  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, build_campaign  # noqa: E402


def _worker(workload, seed, mode, *extra):
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--seconds", "0", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def installed():
    tracer = tr.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


def test_install_leaves_no_unwrapped_binding(installed):
    import arcdet
    import arcdet.contact
    import arcdet.counting
    import arcdet.harness

    assert tr.unwrapped_bindings() == []
    # names imported into other modules are swapped too
    for module, attr in [
        (arcdet.contact, "batch_conv"), (arcdet.contact, "batch_ord"),
        (arcdet.contact, "iter_digit_batches"), (arcdet.harness, "stratum_counts"),
        (arcdet.harness, "cone_comparison_check"), (arcdet, "lct_estimate"),
    ]:
        assert getattr(getattr(module, attr), "__perfbench_traced__", False), (module.__name__, attr)


def test_uninstall_restores_originals():
    import arcdet.contact
    import arcdet.counting

    original = arcdet.counting.batch_conv
    tracer = tr.Tracer()
    tracer.install()
    tracer.uninstall()
    assert arcdet.counting.batch_conv is original
    assert arcdet.contact.batch_conv is original
    assert len(tr.unwrapped_bindings()) > 20


def test_grid_steps_are_timed_and_counted(installed):
    import arcdet.counting as counting
    from arcdet.fields import GF
    from arcdet.poly import parse_poly

    poly = parse_poly("x1*x2 + x3", ("x1", "x2", "x3")).map_coeffs(GF(3))
    traced = counting.ord_vector_distribution([poly], 3, 2, 3, batch_cap=1000)
    steps = [s for s in installed.spans if s[tr.NAME] == "counting.iter_digit_batches"]
    assert len(steps) > 2
    assert sum(s[tr.WORK] for s in steps) == 3 ** 9
    assert all(isinstance(s[tr.WORK], int) for s in steps)  # no array is kept
    table = [s for s in installed.spans if s[tr.NAME] == "counting.ord_vector_distribution"]
    assert len(table) == 1 and table[0][tr.WORK] == 3 ** 9
    installed.uninstall()
    assert counting.ord_vector_distribution([poly], 3, 2, 3, batch_cap=1000) == traced


def test_generator_wrapper_yields_the_same_batches(installed):
    import arcdet.counting as counting

    traced = [b.copy() for b in counting.iter_digit_batches(7, 3, batch_cap=100)]
    installed.uninstall()
    plain = [b.copy() for b in counting.iter_digit_batches(7, 3, batch_cap=100)]
    assert len(traced) == len(plain)
    assert all((a == b).all() for a, b in zip(traced, plain))


def test_layer_metrics_self_time_and_nesting():
    # run_campaign [0, 10] > ord_vector_distribution [1, 9] > grid step [2, 3] and
    # eval [3, 7] > batch_conv [4, 6] > batch_conv [4.5, 5]
    spans = [
        ["harness.run_campaign", 0.0, 10.0, -1, -1, None],
        ["counting.ord_vector_distribution", 1.0, 9.0, 0, -1, 2**6],
        ["counting.iter_digit_batches", 2.0, 3.0, 1, -1, 2**5],
        ["counting.eval_poly_batch", 3.0, 7.0, 1, -1, None],
        ["counting.batch_conv", 4.0, 6.0, 3, -1, (10, 3, 4)],
        ["counting.batch_conv", 4.5, 5.0, 4, -1, (10, 3, 4)],
    ]
    m = tr.layer_metrics(spans)
    assert m["harness.run_s"] == 2.0
    assert m["counting.table_s"] == 3.0
    assert m["counting.eval_s"] == 2.0
    assert m["counting.conv_s"] == 2.0  # the nested call is not counted twice
    assert m["counting.grid_s"] == 1.0
    assert m["counting.jets"] == 32
    assert m["counting.enum_ratio"] == 0.5
    assert m["counting.conv_madds"] == 2 * 10 * 6
    assert m["counting.rows_per_s"] == 32 / 5.0


# --------------------------------------------------------------------------
# workloads, seeds and the golden gate
# --------------------------------------------------------------------------


def test_seed_permutes_cells_only():
    a, b = build_campaign("fiber", 1), build_campaign("fiber", 2)
    assert [t.name for t in a.tasks] != [t.name for t in b.tasks]
    assert sorted(a.tasks, key=lambda t: t.name) == sorted(b.tasks, key=lambda t: t.name)
    assert build_campaign("fiber", 1) == a


def test_golden_covers_every_cell():
    expected = golden.load_golden()
    names = {t.name for w in WORKLOADS for t in build_campaign(w, 0).tasks}
    assert names == set(expected)


def _bump_first_int(value):
    """Copy of ``value`` with its first integer (not bool) increased by one."""
    if isinstance(value, bool):
        return value, False
    if isinstance(value, int):
        return value + 1, True
    if isinstance(value, list):
        out, done = [], False
        for v in value:
            if not done:
                v, done = _bump_first_int(v)
            out.append(v)
        return out, done
    if isinstance(value, dict):
        out, done = {}, False
        for k in sorted(value):
            v = value[k]
            if not done:
                v, done = _bump_first_int(v)
            out[k] = v
        return out, done
    return value, False


def test_golden_value_off_by_one_fails(tmp_path):
    expected = golden.load_golden()
    cell = "lct-known-values/lct-x1sq"
    expected[cell], changed = _bump_first_int(expected[cell])
    assert changed
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(expected))
    res = _worker("thresholds", 3, "plain", "--golden", str(path))
    assert res["failed"] / res["attempted"] > 0
    assert res["failures"] == [cell]


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload):
        if workload not in cache:
            # the second seed is the first that orders the cells differently,
            # when the workload has more than one cell
            first = build_campaign(workload, 1).tasks
            other = next((s for s in range(2, 100) if build_campaign(workload, s).tasks != first), 2)
            cache[workload] = {
                "plain1": _worker(workload, 1, "plain"),
                "traced1": _worker(workload, 1, "traced"),
                "traced2": _worker(workload, other, "traced"),
            }
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_matches_untraced(runs, workload):
    r = runs(workload)
    assert r["plain1"]["canonical_sha256"] == r["traced1"]["canonical_sha256"]
    assert r["plain1"]["failed"] == 0 and r["traced1"]["failed"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_counts_repeat(runs, workload):
    a, b = runs(workload)["traced1"]["metrics"], runs(workload)["traced2"]["metrics"]
    for name in ("counting.jets", "counting.tables", "counting.conv_madds"):
        assert a[name] == b[name], name
    assert a["counting.jets"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_same_cells(runs, workload):
    r = runs(workload)
    one, two = r["plain1"], r["traced2"]
    assert one["failed"] == 0 and two["failed"] == 0
    assert one["content_sha256"] == two["content_sha256"]
    if one["cells"] > 1:
        assert one["order"] != two["order"]


# --------------------------------------------------------------------------
# the run contract
# --------------------------------------------------------------------------


def test_run_prints_end_to_end_result():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "thresholds",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 8
    assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strata", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
