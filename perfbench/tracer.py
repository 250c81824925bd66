"""Span tracer that times spinchain's layers from outside the package.

`Tracer.install()` replaces public functions at the names their callers
import them under (modules use `from .x import y`, so patching only the
defining module would miss most calls). Every wrapped call records a span
(id, parent id, name, start, end, thread) in memory. The current span lives
in a `contextvars.ContextVar`; the scan module's thread pool is swapped for
a subclass that runs each task in a copy of the submitting context, so spans
opened on pool threads keep the enclosing scan as their parent.

A hook whose target no longer exists is listed in `Tracer.absent`, and the
metrics that depend on it read 0 and are named by `absent_metrics()`.
Installing never fails on a missing name.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (span name, module, attribute, class or None): one wrapper per import site.
# The span name's prefix is the layer. Several sites with one span name are
# one function reached through different imports.
HOOKS = (
    ("cli.main", "spinchain.cli", "main", None),
    ("scans.figure", "spinchain.cli", "figure_dataset", None),
    ("scans.scan", "spinchain.cli", "scan_pair_measures", None),
    ("scans.scan", "spinchain.scans", "scan_pair_measures", None),
    ("thermal.diagonalize", "spinchain.scans", "diagonalize_chain", None),
    ("thermal.gibbs_weights", "spinchain.scans", "gibbs_weights", None),
    ("thermal.pair_rdm", "spinchain.scans", "pair_rdm", None),
    ("thermal.pair_features", "spinchain.thermal", "pair_blocks", "ChainSpectrum"),
    ("hamiltonian.build", "spinchain.thermal", "build_sector_hamiltonian", None),
    ("hamiltonian.build", "spinchain.hamiltonian", "build_sector_hamiltonian", None),
    ("basis.enumerate_sector", "spinchain.hamiltonian", "enumerate_sector", None),
    ("numerics.eigh", "spinchain.thermal", "eigh_symmetric", None),
    ("measures.concurrence", "spinchain.scans", "concurrence", None),
    ("measures.eof", "spinchain.scans", "eof_from_concurrence", None),
    ("measures.mutual_information", "spinchain.scans", "mutual_information", None),
    ("measures.chsh", "spinchain.scans", "chsh_quantity", None),
    ("svgplot.render", "spinchain.cli", "render_plot_payload", None),
    ("svgplot.render", "spinchain.cli", "render_line_plot", None),
    ("svgplot.render", "spinchain.svgplot", "render_heatmap", None),
    ("svgplot.render", "spinchain.svgplot", "render_line_plot", None),
)
# Non-function hooks, named like spans so that metrics can depend on them.
POOL_HOOK = ("scans.pool", "spinchain.scans", "ThreadPoolExecutor")
CUTOFF_HOOK = ("thermal.weight_cutoff", "spinchain.thermal", "WEIGHT_CUTOFF")

# Symmetric eigendecomposition with eigenvectors (tridiagonal reduction plus
# implicit QR) costs about 9 n^3 flops (Golub & Van Loan, Matrix
# Computations, 4th ed., section 8.3). A model of the work, not a count.
EIGH_FLOPS_PER_N3 = 9.0

# (metric, unit, hook it needs or None), in report order. `*_s` is self time.
LAYER_METRICS = (
    ("basis.enumerate_sector_s", "s", "basis.enumerate_sector"),
    ("hamiltonian.build_s", "s", "hamiltonian.build"),
    ("hamiltonian.build_calls", "count", "hamiltonian.build"),
    ("numerics.eigh_s", "s", "numerics.eigh"),
    ("numerics.eigh_calls", "count", "numerics.eigh"),
    ("numerics.eigh_max_dim", "count", "numerics.eigh"),
    ("numerics.eigh_gflop_computed", "GFLOP", "numerics.eigh"),
    ("thermal.diagonalize_s", "s", "thermal.diagonalize"),
    ("thermal.pair_features_s", "s", "thermal.pair_features"),
    ("thermal.pair_features_calls", "count", "thermal.pair_features"),
    ("thermal.pair_features_hit_ratio", "ratio", "thermal.pair_features"),
    ("thermal.gibbs_weights_s", "s", "thermal.gibbs_weights"),
    ("thermal.gibbs_weights_calls", "count", "thermal.gibbs_weights"),
    ("thermal.pair_rdm_s", "s", "thermal.pair_rdm"),
    ("thermal.pair_rdm_calls", "count", "thermal.pair_rdm"),
    ("thermal.weights_kept_frac", "ratio", "thermal.weight_cutoff"),
    ("measures.concurrence_s", "s", "measures.concurrence"),
    ("measures.concurrence_calls", "count", "measures.concurrence"),
    ("measures.eof_s", "s", "measures.eof"),
    ("measures.eof_calls", "count", "measures.eof"),
    ("measures.mutual_information_s", "s", "measures.mutual_information"),
    ("measures.mutual_information_calls", "count", "measures.mutual_information"),
    ("measures.chsh_s", "s", "measures.chsh"),
    ("measures.chsh_calls", "count", "measures.chsh"),
    ("scans.scan_self_s", "s", "scans.scan"),
    ("scans.scan_wall_s", "s", "scans.scan"),
    ("scans.figure_self_s", "s", "scans.figure"),
    ("scans.worker_busy_s", "s", "scans.pool"),
    ("scans.parallel_efficiency", "ratio", "scans.pool"),
    ("scans.points", "count", "scans.scan"),
    ("svgplot.render_s", "s", "svgplot.render"),
    ("svgplot.bytes", "bytes", "svgplot.render"),
    ("cli.self_s", "s", "cli.main"),
    ("cli.bytes_written", "bytes", None),
    ("trace.overhead_s", "s", None),
)

# Self-time metrics: span name -> metric.
_SELF_TIME = {
    "basis.enumerate_sector": "basis.enumerate_sector_s",
    "hamiltonian.build": "hamiltonian.build_s",
    "numerics.eigh": "numerics.eigh_s",
    "thermal.diagonalize": "thermal.diagonalize_s",
    "thermal.pair_features": "thermal.pair_features_s",
    "thermal.gibbs_weights": "thermal.gibbs_weights_s",
    "thermal.pair_rdm": "thermal.pair_rdm_s",
    "measures.concurrence": "measures.concurrence_s",
    "measures.eof": "measures.eof_s",
    "measures.mutual_information": "measures.mutual_information_s",
    "measures.chsh": "measures.chsh_s",
    "scans.scan": "scans.scan_self_s",
    "scans.figure": "scans.figure_self_s",
    "svgplot.render": "svgplot.render_s",
    "cli.main": "cli.self_s",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, thread id)
        self.absent = []  # hooks whose target is missing, as "module.attr"
        self._hooked = set()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        # Side data from result hooks, aggregated in report().
        self._eigh_dims = []
        self._weights = []  # the weights tuple of every Gibbs ensemble
        self._scan_points = 0
        self._svg_bytes = {}  # span id -> length of the returned SVG text
        self._features_seen = {}  # (id(spectrum), i, j) -> returned blocks
        self._feature_hits = 0
        self._pools = []  # (start, end, max workers) per pool
        self._busy = []  # duration of every pool task
        self._weight_cutoff = None

    # -- installation -------------------------------------------------------

    def install(self):
        for name, module_name, attr, class_name in HOOKS:
            owner = _resolve(module_name, class_name)
            target = getattr(owner, attr, None)
            if not callable(target):
                self.absent.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            setattr(owner, attr, self._wrap(name, target))
            self._hooked.add(name)

        name, module_name, attr = POOL_HOOK
        owner = _resolve(module_name)
        if getattr(owner, attr, None) is ThreadPoolExecutor:
            setattr(owner, attr, self._pool_class())
            self._hooked.add(name)
        else:
            self.absent.append(f"{module_name}.{attr}")

        name, module_name, attr = CUTOFF_HOOK
        self._weight_cutoff = getattr(_resolve(module_name), attr, None)
        if self._weight_cutoff is None:
            self.absent.append(f"{module_name}.{attr}")
        else:
            self._hooked.add(name)

    def _wrap(self, name, fn):
        on_result = {
            "numerics.eigh": self._on_eigh,
            "thermal.gibbs_weights": self._on_gibbs,
            "thermal.pair_features": self._on_pair_features,
            "scans.scan": self._on_scan,
            "svgplot.render": self._on_svg,
        }.get(name)
        current, ids, spans = self._current, self._ids, self.spans
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, name, start, end, thread_id()))
            if on_result is not None:
                on_result(sid, args, result)
            return result

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            """Runs each task in a copy of the submitter's context and times it."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._perfbench_start = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()

                def task():
                    start = time.perf_counter()
                    try:
                        return ctx.run(fn, *args, **kwargs)
                    finally:
                        tracer._busy.append(time.perf_counter() - start)

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer._pools.append((self._perfbench_start, time.perf_counter(), self._max_workers))

        return TracedThreadPoolExecutor

    # -- result hooks: bookkeeping only, they run inside the parent span ----

    def _on_eigh(self, _sid, args, _result):
        self._eigh_dims.append(int(args[0].shape[0]))

    def _on_gibbs(self, _sid, _args, result):
        self._weights.append(result.weights)

    def _on_pair_features(self, _sid, args, result):
        # A hit is a call that hands back the very object an earlier call
        # for the same spectrum and pair returned, i.e. served from cache.
        key = (id(args[0]), args[1], args[2])
        with self._lock:
            if self._features_seen.get(key) is result:
                self._feature_hits += 1
            else:
                self._features_seen[key] = result

    def _on_scan(self, _sid, args, _result):
        grid = args[0]
        self._scan_points += len(grid.b_values) * len(grid.kt_values)

    def _on_svg(self, sid, _args, result):
        self._svg_bytes[sid] = len(result)

    # -- aggregation --------------------------------------------------------

    def report(self, bytes_written: int) -> dict:
        """Per-layer metric values (without trace.overhead_s)."""
        self_time, calls, wall = self_times(self.spans)
        out = {metric: self_time[span] for span, metric in _SELF_TIME.items()}
        for span in (
            "hamiltonian.build",
            "numerics.eigh",
            "thermal.pair_features",
            "thermal.gibbs_weights",
            "thermal.pair_rdm",
            "measures.concurrence",
            "measures.eof",
            "measures.mutual_information",
            "measures.chsh",
        ):
            out[span + "_calls"] = calls[span]
        out["numerics.eigh_max_dim"] = max(self._eigh_dims, default=0)
        out["numerics.eigh_gflop_computed"] = sum(EIGH_FLOPS_PER_N3 * n**3 for n in self._eigh_dims) / 1e9
        n_features = calls["thermal.pair_features"]
        out["thermal.pair_features_hit_ratio"] = self._feature_hits / n_features if n_features else 0.0
        out["thermal.weights_kept_frac"] = self._weights_kept_frac()
        out["scans.scan_wall_s"] = wall["scans.scan"]
        busy = sum(self._busy)
        capacity = sum((end - start) * workers for start, end, workers in self._pools)
        out["scans.worker_busy_s"] = busy
        out["scans.parallel_efficiency"] = busy / capacity if capacity > 0 else 0.0
        out["scans.points"] = self._scan_points
        # render_plot_payload calls the other renderers: count outermost only.
        names = {sid: name for sid, _parent, name, *_ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}
        out["svgplot.bytes"] = sum(
            n for sid, n in self._svg_bytes.items() if names.get(parents[sid], "") != "svgplot.render"
        )
        out["cli.bytes_written"] = bytes_written
        return out

    def absent_metrics(self) -> list:
        """Per-layer metrics that read 0 because a hook they need is missing."""
        return [m for m, _unit, hook in LAYER_METRICS if hook is not None and hook not in self._hooked]

    def thread_summary(self) -> dict:
        """Threads that recorded spans, spans off the main thread, and how many
        of those have no parent (0 when every pool-thread span found its scan)."""
        main = threading.main_thread().ident
        off_main = [parent for _sid, parent, _name, _start, _end, tid in self.spans if tid != main]
        return {
            "threads": len({span[-1] for span in self.spans}),
            "pool_thread_spans": len(off_main),
            "unattributed": sum(1 for parent in off_main if parent is None),
        }

    def _weights_kept_frac(self) -> float:
        if self._weight_cutoff is None:
            return 0.0
        kept = total = 0
        for weights in self._weights:
            for w in weights:
                kept += int((w >= self._weight_cutoff).sum())
                total += w.size
        return kept / total if total else 0.0


def self_times(spans):
    """Self time, call count and summed duration per span name.

    Self time is a span's duration minus the union of its children's
    intervals, so children that overlap on pool threads count once.
    """
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_time = defaultdict(float)
    calls = defaultdict(int)
    wall = defaultdict(float)
    for sid, _parent, name, start, end, _tid in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        self_time[name] += (end - start) - covered
        calls[name] += 1
        wall[name] += end - start
    return self_time, calls, wall


def _resolve(module_name, class_name=None):
    """The module (or a class in it), or None when it cannot be imported."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module
