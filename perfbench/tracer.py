"""Per-layer trace of sqlab, taken from outside the package.

``Tracer.install`` wraps every public function and every public method of
the nine sqlab modules (the layers) and rebinds each wrapper in every
sqlab namespace that binds the original, e.g. ``experiments.average_squares``
next to ``operators.average_squares``.  ``Tracer.remove`` puts the originals
back.  No file under ``src/`` is changed.

A span records name, layer, op id, parent span, start and end
(``perf_counter``), thread CPU time and ``ru_maxrss`` before and after.  The
current span lives in a context variable; the ``ThreadPoolExecutor`` that
sqlab binds is swapped for one that copies the caller's context into the
worker, so spans made in a worker thread keep the enclosing operation and
parent.  Spans are kept in memory (flat arrays) and written out once.

numpy and scipy are not wrapped, so their time counts toward the layer that
called them.  FFT entry points of ``numpy.fft`` and ``scipy.fft`` are
counted (transform length and computed in+out bytes) for the layer of the
innermost open span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import resource
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("arith", "gauss", "hsums", "circle", "operators", "sparse", "experiments", "reports", "cli")

# (span id, op id) of the innermost open span; span id -1 means none.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(-1, -1))

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class ContextThreadPoolExecutor(ThreadPoolExecutor):
    """Runs each submitted call inside a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _usage() -> tuple[float, int]:
    """(CPU seconds of this thread, process ru_maxrss in KiB): one syscall."""
    r = resource.getrusage(resource.RUSAGE_THREAD)
    return r.ru_utime + r.ru_stime, r.ru_maxrss


class Tracer:
    """Span and counter store plus the wrapper installation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self.s_name = array("i")
        self.s_op = array("i")
        self.s_parent = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_cpu = array("d")
        self.s_rss0 = array("q")
        self.s_rss1 = array("q")
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.child_cost_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._name_ids[name]

    def _open(self, name_id: int, parent: int, op: int) -> int:
        cpu, rss = _usage()
        lock = self._lock
        lock.acquire()
        try:
            idx = len(self.s_start)
            self.s_name.append(name_id)
            self.s_op.append(op)
            self.s_parent.append(parent)
            self.s_rss0.append(rss)
            self.s_rss1.append(rss)
            self.s_end.append(0.0)
            self.s_cpu.append(cpu)
            self.s_start.append(time.perf_counter())
        finally:
            lock.release()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        cpu, rss = _usage()
        # each row is written by the thread that opened it: no lock needed
        self.s_end[idx] = end
        self.s_cpu[idx] = cpu - self.s_cpu[idx]
        self.s_rss1[idx] = rss

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _current_layer(self) -> str | None:
        idx = _CURRENT.get()[0]
        if idx < 0:
            return None
        return LAYERS[self.name_layer[self.s_name[idx]]]

    def begin_op(self, op: int) -> contextvars.Token:
        """Mark the start of operation ``op``; spans opened until the
        matching ``end_op`` carry its id."""
        return _CURRENT.set((-1, op))

    def end_op(self, token: contextvars.Token) -> None:
        _CURRENT.reset(token)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)
        probe = _PROBES.get(name)
        tracer = self

        if probe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent, op = _CURRENT.get()
                idx = tracer._open(name_id, parent, op)
                token = _CURRENT.set((idx, op))
                try:
                    return fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    tracer._close(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent, op = _CURRENT.get()
                finish = probe(tracer)
                idx = tracer._open(name_id, parent, op)
                token = _CURRENT.set((idx, op))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    tracer._close(idx)
                finish(result)
                return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            out = fn(a, n, *args, **kwargs)
            layer = tracer._current_layer()
            if layer is not None:
                arr = np.asarray(a)
                tracer.count(f"{layer}.fft_points", int(n) if n is not None else arr.shape[-1])
                tracer.count(f"{layer}.fft_bytes", int(arr.nbytes) + int(out.nbytes))
            return out

        return wrapper

    def _bind(self, namespace, attr: str, value) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def calibrate(self, calls: int = 2000, repeats: int = 5) -> float:
        """Measure the tracing time one child span adds to its parent's self
        time (bookkeeping outside the child's own clock readings), so that
        ``layer_metrics`` can take it back out.  Median of ``repeats``."""
        costs = []
        for _ in range(repeats):
            probe = Tracer()
            leaf = probe._wrap(_noop, "arith.calibration_leaf", "arith")

            def loop(fn):
                for _ in range(calls):
                    fn()

            t0 = time.perf_counter()
            loop(_noop)
            bare = time.perf_counter() - t0
            token = probe.begin_op(0)
            try:
                probe._wrap(loop, "arith.calibration_parent", "arith")(leaf)
            finally:
                probe.end_op(token)
            a = probe.arrays()
            parent_self = self_times(a["parent"], a["start"], a["end"])[0]
            costs.append(max(parent_self - bare, 0.0) / calls)
        self.child_cost_s = sorted(costs)[len(costs) // 2]
        return self.child_cost_s

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        import scipy.fft

        modules = [sys.modules[f"sqlab.{layer}"] for layer in LAYERS]
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if issubclass(obj, BaseException):
                        continue
                    self._wrap_methods(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        # the pool sqlab binds, and the FFT entry points it may call
        replaced[id(ThreadPoolExecutor)] = ContextThreadPoolExecutor
        for fft_mod in (np.fft, scipy.fft):
            for fname in _FFT_NAMES:
                fn = getattr(fft_mod, fname)
                wrapped = self._wrap_fft(fn)
                replaced[id(fn)] = wrapped
                self._bind(fft_mod, fname, wrapped)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._bind(module, attr, replaced[id(obj)])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer)
            else:
                continue  # properties and data stay as they are
            self._bind(cls, attr, wrapped)

    def remove(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            namespace, attr, value = self._restore.pop()
            setattr(namespace, attr, value)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32),
            "op": np.frombuffer(self.s_op, dtype=np.int32),
            "parent": np.frombuffer(self.s_parent, dtype=np.int64),
            "start": np.frombuffer(self.s_start, dtype=np.float64),
            "end": np.frombuffer(self.s_end, dtype=np.float64),
            "cpu": np.frombuffer(self.s_cpu, dtype=np.float64),
            "rss0_kb": np.frombuffer(self.s_rss0, dtype=np.int64),
            "rss1_kb": np.frombuffer(self.s_rss1, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write all spans, the name table and the counters to one .npz."""
        layers = np.array([LAYERS[i] for i in self.name_layer], dtype=str)
        np.savez(
            path,
            child_cost_s=np.float64(self.child_cost_s),
            names=np.array(self.names, dtype=str),
            name_layer=layers,
            counters=np.array(sorted(self.counters.items()), dtype=str).reshape(-1, 2),
            **self.arrays(),
        )


def _noop() -> None:
    return None


def _cache_probe(key: str, module: str, cache_attr: str, table_bytes: bool = False):
    """Probe counting hits and misses of an lru cache around one call; with
    ``table_bytes`` a miss also adds the size of the table it built."""

    def probe(tracer: Tracer):
        cache = getattr(sys.modules[f"sqlab.{module}"], cache_attr, None)
        if not hasattr(cache, "cache_info"):
            return lambda result: None
        before = cache.cache_info()

        def finish(result) -> None:
            after = cache.cache_info()
            misses = after.misses - before.misses
            tracer.count(f"{key}.hits", after.hits - before.hits)
            tracer.count(f"{key}.misses", misses)
            if table_bytes and misses:
                tracer.count("hsums.table_bytes", int(np.asarray(result).nbytes))

        return finish

    return probe


def _nodes_probe(tracer: Tracer):
    return lambda result: tracer.count("sparse.nodes", len(result.nodes))


# Counters read around particular calls.  h_vector's cache is the private
# table builder behind it; factorize is an lru cache itself.
_PROBES = {
    "hsums.h_vector": _cache_probe("hsums.h_vector", "hsums", "_h_vector_cached", table_bytes=True),
    "arith.factorize": _cache_probe("arith.factorize", "arith", "factorize"),
    "sparse.sparse_decompose": _nodes_probe,
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover (the union
    of the child intervals, so overlapping children in threads count once)."""
    dur = end - start
    has_parent = parent >= 0
    kids = np.nonzero(has_parent)[0]
    covered = np.bincount(parent[kids], weights=dur[kids], minlength=len(dur))
    # children of one parent overlap only when they ran in different threads
    order = kids[np.lexsort((start[kids], parent[kids]))]
    same = parent[order][1:] == parent[order][:-1]
    overlap = same & (start[order][1:] < end[order][:-1])
    for p in np.unique(parent[order][1:][overlap]):
        members = order[parent[order] == p]
        total, cur_s, cur_e = 0.0, None, None
        for i in members:  # already sorted by start
            s, e = start[i], end[i]
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        covered[p] = total + (cur_e - cur_s)
    return np.maximum(dur - covered, 0.0)


# Per-function self times and call counts reported besides the layer totals;
# "gauss.vector" sums the two bulk Gauss-sum tables.
_SELF_S = {
    "operators.average_squares": ("operators.average_squares",),
    "operators.apply_multiplier": ("operators.apply_multiplier",),
    "circle.sample_multiplier": ("circle.sample_multiplier",),
    "circle.weyl_multiplier_grid": ("circle.weyl_multiplier_grid",),
    "circle.dirichlet_approx": ("circle.dirichlet_approx",),
    "circle.gamma_N": ("circle.gamma_N",),
    "circle.arc_level_grid": ("circle.arc_level_grid",),
    "hsums.accumulate_S": ("hsums.accumulate_S",),
    "hsums.abs_h_on_points": ("hsums.abs_h_on_points",),
    "gauss.vector": ("gauss.gauss_G_vector", "gauss.gauss_G0_vector"),
    "arith.sqrt_count_vector": ("arith.sqrt_count_vector",),
    "sparse.sparse_decompose": ("sparse.sparse_decompose",),
    "sparse.build_admissible_tau": ("sparse.build_admissible_tau",),
    "sparse.check_admissible": ("sparse.check_admissible",),
}
_CALLS = ("circle.dirichlet_approx", "circle.gamma_N", "gauss.gauss_G0", "arith.count_sqrts")
_COUNTERS = (
    "operators.fft_points", "operators.fft_bytes", "circle.fft_points", "hsums.fft_points",
    "hsums.h_vector.hits", "hsums.h_vector.misses", "hsums.table_bytes",
    "arith.factorize.hits", "arith.factorize.misses", "sparse.nodes",
)
_RATIOS = ("hsums.h_vector", "arith.factorize")
_RSS_LAYERS = ("operators", "hsums")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


PER_LAYER = (
    [m for layer in LAYERS for m in (f"{layer}.self_s", f"{layer}.calls")]
    + [f"{n}.self_s" for n in _SELF_S]
    + [f"{n}.calls" for n in _CALLS]
    + list(_COUNTERS)
    + [f"{n}.hit_ratio" for n in _RATIOS]
    + [f"{layer}.rss_growth_mb" for layer in _RSS_LAYERS]
    + ["trace.spans", "trace.overhead_s", "trace.count_mismatches"]
)
UNITS = {name: _unit(name) for name in PER_LAYER}
# Metrics that must repeat exactly between two traced runs of one seed.
COUNTS = tuple(
    n for n in PER_LAYER if UNITS[n] in ("count", "B") and n != "trace.count_mismatches"
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced round except the two that
    compare rounds (trace.overhead_s, trace.count_mismatches)."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    if len(own):
        children = np.bincount(a["parent"][a["parent"] >= 0], minlength=len(own))
        own = np.maximum(own - tracer.child_cost_s * children, 0.0)
    layer = np.asarray(tracer.name_layer, dtype=np.int64)[a["name"]] if len(own) else np.zeros(0, np.int64)
    ids = tracer._name_ids
    out: dict[str, float] = {}
    for i, name in enumerate(LAYERS):
        mask = layer == i
        out[f"{name}.self_s"] = float(own[mask].sum())
        out[f"{name}.calls"] = int(mask.sum())
    for metric, names in _SELF_S.items():
        mask = np.isin(a["name"], [ids[n] for n in names if n in ids])
        out[f"{metric}.self_s"] = float(own[mask].sum())
    for name in _CALLS:
        out[f"{name}.calls"] = int(np.count_nonzero(a["name"] == ids.get(name, -1)))
    for name in _COUNTERS:
        out[name] = int(tracer.counters.get(name, 0))
    for key in _RATIOS:
        hits, misses = out[f"{key}.hits"], out[f"{key}.misses"]
        out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # peak-RSS growth while inside a layer: its outermost spans only
    parent_layer = np.where(a["parent"] >= 0, layer[np.maximum(a["parent"], 0)], -1) if len(own) else layer
    growth_mb = (a["rss1_kb"] - a["rss0_kb"]) / 1024.0
    for name in _RSS_LAYERS:
        i = LAYERS.index(name)
        out[f"{name}.rss_growth_mb"] = float(growth_mb[(layer == i) & (parent_layer != i)].sum())
    out["trace.spans"] = len(own)
    return out
