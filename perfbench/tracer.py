"""Outside-in tracing of arcdet's layers, and the per-layer metrics it gives.

`Tracer.install()` wraps every public function of the layer modules (plus
the cell entry point `configurations.configuration_lct_campaign`) and swaps
the wrapper into every `arcdet.*` module attribute that holds the original,
so calls through a name imported elsewhere (`contact` imports `batch_conv`
by name, `harness` imports the determinantal checks) are traced too.
`Tracer.uninstall()` puts the originals back.

Each call records one span: name, start, end, the span that was open when
it started (its parent), the cell it belongs to, and one number describing
its work. A cell is the outermost call of one of `CELL_FUNCTIONS`.
`iter_digit_batches` is a generator that reuses its buffer: each `next()` is
timed as its own grid span that records the number of rows, and the
yielded array is not kept past the next step. Spans stay in memory until
`write()`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time

LAYERS = ("counting", "contact", "consensus", "lct", "determinantal", "harness")
EXTRA_FUNCTIONS = (("configurations", "configuration_lct_campaign"),)
CELL_FUNCTIONS = {
    "determinantal.stratum_counts",
    "determinantal.fiber_count_check",
    "determinantal.cone_comparison_check",
    "lct.lct_estimate",
    "determinantal.corollary_check",
    "configurations.configuration_lct_campaign",
}

# span fields
NAME, START, END, PARENT, CELL, WORK = range(6)


def _conv_work(args, kwargs, result):
    # rows and series width of the product, from the first operand's shape
    a = args[0] if args else kwargs["a"]
    return (a.shape[0], a.shape[-1], a.dtype.itemsize)


def _table_work(sig):
    def work(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        return bound["q"] ** (bound["n"] * (bound["level"] + 1))

    return work


def _cone_work(sig):
    from arcdet.lct import LCT_DEFAULT_PRIMES

    def work(args, kwargs, result):
        primes = sig.bind(*args, **kwargs).arguments.get("primes", LCT_DEFAULT_PRIMES)
        return 2 * len(tuple(primes))

    return work


def _fit_work(args, kwargs, result):
    return 0 if result is None else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._swapped = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else -1
        cell = self.spans[parent][CELL] if parent >= 0 else -1
        sid = len(self.spans)
        if cell < 0 and name in CELL_FUNCTIONS:
            cell = sid
        self.spans.append([name, 0.0, 0.0, parent, cell, None])
        stack.append(sid)
        self.spans[sid][START] = time.perf_counter()
        return sid

    def _close(self, sid, work=None):
        end = time.perf_counter()
        span = self.spans[sid]
        span[END] = end
        span[WORK] = work
        self._stack.pop()

    def _wrap(self, name, fn, work):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(name)
                        try:
                            batch = next(it)
                        except StopIteration:
                            tracer._close(sid, 0)
                            return
                        except BaseException:
                            tracer._close(sid)
                            raise
                        tracer._close(sid, batch.shape[0])
                        yield batch
                        del batch  # the generator reuses its buffer
                finally:
                    it.close()

            wrapper = traced_generator
        else:

            def traced(*args, **kwargs):
                sid = tracer._open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._close(sid, work(args, kwargs, result) if work else None)

            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__perfbench_traced__ = True
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced functions in every loaded and loadable arcdet module."""
        if self._swapped:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for original, name in traced_functions():
            wrappers[id(original)] = (original, self._wrap(name, original, self._work(name, original)))
        for module in arcdet_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._swapped.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped = []

    @staticmethod
    def _work(name, fn):
        if name == "counting.batch_conv":
            return _conv_work
        if name == "counting.ord_vector_distribution":
            return _table_work(inspect.signature(fn))
        if name == "determinantal.cone_comparison_check":
            return _cone_work(inspect.signature(fn))
        if name == "consensus.cyclotomic_fit":
            return _fit_work
        return None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "cell", "work"], "spans": self.spans},
                fh, separators=(",", ":"),
            )


def arcdet_modules():
    """Every arcdet module, importing the ones not loaded yet."""
    import arcdet

    for info in pkgutil.iter_modules(arcdet.__path__):
        importlib.import_module(f"arcdet.{info.name}")
    return [m for key, m in sorted(sys.modules.items()) if key == "arcdet" or key.startswith("arcdet.")]


def _original(value):
    return value.__wrapped__ if getattr(value, "__perfbench_traced__", False) else value


def traced_functions():
    """(original function, span name) for every public function of the layers,
    plus the extras; the same whether or not a tracer is installed."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"arcdet.{layer}")
        for attr, value in sorted(vars(module).items()):
            value = _original(value)
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                out.append((value, f"{layer}.{attr}"))
    for layer, attr in EXTRA_FUNCTIONS:
        module = importlib.import_module(f"arcdet.{layer}")
        out.append((_original(getattr(module, attr)), f"{layer}.{attr}"))
    return out


def unwrapped_bindings():
    """(module, attribute) pairs that still hold an original traced function."""
    originals = {id(fn) for fn, _ in traced_functions()}
    return [
        (module.__name__, attr)
        for module in arcdet_modules()
        for attr, value in vars(module).items()
        if id(value) in originals
    ]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans."""
    n = len(spans)
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    table_of = [-1] * n  # nearest enclosing ord_vector_distribution span
    cone_of = [-1] * n  # nearest enclosing cone_comparison_check span
    for sid, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child_time[parent] += duration[sid]
            table_of[sid] = table_of[parent]
            cone_of[sid] = cone_of[parent]
        if s[NAME] == "counting.ord_vector_distribution":
            table_of[sid] = sid
        elif s[NAME] == "determinantal.cone_comparison_check":
            cone_of[sid] = sid

    def self_time(name):
        return sum((duration[i] - child_time[i] for i, s in enumerate(spans) if s[NAME] == name), 0.0)

    def time_in(names):
        # outermost spans only, so a nested call is not counted twice
        total = 0.0
        for i, s in enumerate(spans):
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                total += duration[i]
        return total

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    grid = named("counting.iter_digit_batches")
    convs = [spans[i][WORK] for i in named("counting.batch_conv")]
    tables = named("counting.ord_vector_distribution")
    fits = [spans[i][WORK] for i in named("consensus.cyclotomic_fit")]
    cones = named("determinantal.cone_comparison_check")

    jets = sum(spans[i][WORK] for i in grid)
    table_jets = sum(spans[i][WORK] for i in grid if table_of[i] >= 0)
    table_space = sum(spans[i][WORK] for i in tables)
    cone_tables = sum(1 for i in tables if cone_of[i] >= 0)
    conv_s = time_in({"counting.batch_conv"})
    grid_s = sum(duration[i] for i in grid)
    ord_s = time_in({"counting.batch_ord"})
    eval_s = self_time("counting.eval_poly_batch")
    kernel_s = grid_s + eval_s + conv_s + ord_s
    return {
        "counting.conv_s": conv_s,
        "counting.conv_madds": sum(rows * w * (w + 1) // 2 for rows, w, _ in convs),
        "counting.conv_bytes": sum(3 * rows * w * size for rows, w, size in convs),
        "counting.grid_s": grid_s,
        "counting.ord_s": ord_s,
        "counting.eval_s": eval_s,
        "counting.table_s": self_time("counting.ord_vector_distribution"),
        "counting.tables": len(tables),
        "counting.jets": jets,
        "counting.enum_ratio": table_jets / table_space if table_space else 0.0,
        "counting.rows_per_s": jets / kernel_s if kernel_s else 0.0,
        "contact.proj_s": self_time("contact.proj_count_contact"),
        "contact.proj_calls": len(named("contact.proj_count_contact")),
        "consensus.extract_s": time_in(
            {"consensus.extract_codim", "consensus.extract_codim_bucketed", "consensus.codim_consensus"}
        ),
        "consensus.fit_calls": len(fits),
        "consensus.fit_hit_ratio": sum(fits) / len(fits) if fits else 0.0,
        "lct.bucket_s": self_time("lct.contact_codim_stratified"),
        "determinantal.strata_s": self_time("determinantal.stratum_counts"),
        "determinantal.cone_sides_per_table": (
            sum(spans[i][WORK] for i in cones) / cone_tables if cone_tables else 0.0
        ),
        "harness.run_s": self_time("harness.run_campaign"),
    }
