"""Outside-in layer tracer for the gausscap package.

The layers are the package's modules.  ``Tracer.install`` walks the package,
takes every public module-level function of every module and replaces each
reference to it, in every module namespace of the package, with a wrapper
that records a span.  ``from .x import f`` callers are therefore traced too.
``uninstall`` puts every original back.  The package itself is not edited.

A span is (id, parent id, name, start, end, thread id, raised).  Each thread
keeps its own stack of open spans, so a span's parent is the innermost span
open on the same thread.  The callable handed to ``ensembles.run_indexed`` is
wrapped as well: every call of it becomes an ``ensembles.sample`` span whose
parent is the ``run_indexed`` span, also when it runs on a worker thread.

Spans stay in memory until ``layer_metrics`` turns them into per-item
numbers.  Names a later version of the package no longer has simply record
no spans and report zero.
"""

import functools
import importlib
import itertools
import pkgutil
import threading
import time
import types
from collections import defaultdict

SAMPLE_SPAN = "ensembles.sample"
RUN_INDEXED = "ensembles.run_indexed"


def _first_arg_size(args, kwargs, position, keyword):
    value = args[position] if len(args) > position else kwargs.get(keyword)
    return len(value) if hasattr(value, "__len__") else 0


# Work counts read from a call's arguments: span name -> (metric, counter).
ARG_COUNTERS = {
    "_kernels.jacobi_sq_series": ("point_terms_per_item", lambda args, kwargs: (
        _first_arg_size(args, kwargs, 0, "x") * _first_arg_size(args, kwargs, 3, "inv_h"))),
    "_kernels.entropy_g_arr": ("elems_per_item",
                               lambda args, kwargs: _first_arg_size(args, kwargs, 0, "x")),
}


def package_modules(package):
    """{short name: module} of every module in the package, except __main__."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            found[info.name] = importlib.import_module(package.__name__ + "." + info.name)
    return found


def public_functions(modules):
    """{function object: "<module>.<name>"} for public module-level functions."""
    named = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                named.setdefault(obj, "%s.%s" % (short, attr))
    return named


class Tracer:
    """Records spans for every public function of a package while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts_lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run_span(self, name, parent, fn, args, kwargs, sid=None):
        sid = next(self._ids) if sid is None else sid
        stack = self._stack()
        stack.append(sid)
        raised = False
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), raised))

    def _wrap(self, fn, name):
        counter = ARG_COUNTERS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                n = counter(args, kwargs)
                with tracer._counts_lock:
                    tracer.counts[name] += n
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            if name != RUN_INDEXED:
                return tracer._run_span(name, parent, fn, args, kwargs)
            # The run_indexed span id is taken before the call, so that each
            # sample can name it as parent on whichever thread it runs.
            sid = next(tracer._ids)

            def as_sample(eval_one):
                if not callable(eval_one):
                    return eval_one

                @functools.wraps(eval_one)
                def sample(*a, **k):
                    return tracer._run_span(SAMPLE_SPAN, sid, eval_one, a, k)
                return sample

            args = [as_sample(a) for a in args]
            kwargs = {k: as_sample(v) for k, v in kwargs.items()}
            return tracer._run_span(name, parent, fn, args, kwargs, sid)

        return traced

    def install(self):
        modules = package_modules(self.package)
        named = public_functions(modules)
        wrappers = {fn: self._wrap(fn, name) for fn, name in named.items()}
        for mod in [self.package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{span id: duration minus the time its child spans cover}."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
            for sid, _, _, t0, t1, _, _ in spans}


def metric_prefix(span_name):
    """Metric names start with a letter: '_kernels.x' reports as 'kernels.x'."""
    return span_name.lstrip("_")


def layer_metrics(spans, counts, items):
    """Per-item layer metrics from recorded spans.

    Returns {metric name: value}: for every module and every traced function
    ``<name>.self_us_per_item`` and ``<name>.calls_per_item``, plus the
    derived ratios the benchmark reports.  Absent names are simply missing;
    the caller fills in zeros for the names it expects.
    """
    selfs = self_times(spans)
    per_name = defaultdict(lambda: [0.0, 0, 0])     # self seconds, calls, raised
    for sid, _, name, _, _, _, raised in spans:
        entry = per_name[name]
        entry[0] += selfs[sid]
        entry[1] += 1
        entry[2] += raised
    per_layer = defaultdict(lambda: [0.0, 0])
    for name, (self_s, calls, _) in per_name.items():
        layer = per_layer[name.split(".", 1)[0]]
        layer[0] += self_s
        layer[1] += calls
    out = {}
    for name, (self_s, calls) in list(per_layer.items()) + [
            (n, v[:2]) for n, v in per_name.items()]:
        prefix = metric_prefix(name)
        out[prefix + ".self_us_per_item"] = 1e6 * self_s / items
        out[prefix + ".calls_per_item"] = calls / items
    for name, (_, calls, raised) in per_name.items():
        out[metric_prefix(name) + ".raised_frac"] = raised / calls
    for name, total in counts.items():
        out["%s.%s" % (metric_prefix(name), ARG_COUNTERS[name][0])] = total / items
    quad = per_name.get("_kernels.jacobi_sq_series", [0, 0])[1]
    configs = per_name.get("ensembles.expected_capacity_passive", [0, 0])[1]
    if configs:
        out["ensembles.quad_orders_per_config"] = quad / configs
    out.update(_busy_frac(spans))
    return out


def _busy_frac(spans):
    # Summed sample-span time over (workers x wall) of the run_indexed spans,
    # where the workers are the threads that ran at least one sample.
    runs = {sid: t1 - t0 for sid, _, name, t0, t1, _, _ in spans if name == RUN_INDEXED}
    busy, threads = defaultdict(float), defaultdict(set)
    for _, parent, name, t0, t1, tid, _ in spans:
        if name == SAMPLE_SPAN and parent in runs:
            busy[parent] += t1 - t0
            threads[parent].add(tid)
    capacity = sum(len(threads[sid]) * wall for sid, wall in runs.items() if threads[sid])
    if not capacity:
        return {}
    return {"ensembles.run_indexed.busy_frac": sum(busy.values()) / capacity}
