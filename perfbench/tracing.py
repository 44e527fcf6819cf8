"""Outside-in tracing of reebscope's layers.

The tracer wraps public functions and methods of the program where their
callers look them up: every ``reebscope.*`` module global that is the
original function object is replaced by the wrapper, and methods are
replaced on their class.  Nothing in the program changes on disk and no
span is recorded unless the tracer is installed.

A span measures the CPU time of the calling thread (``time.thread_time``),
so that under the suites' thread pool a thread waiting for the
interpreter lock is not charged to the layer it waits in.  A layer's self
time is its CPU time minus that of named spans it calls on the same
thread.  Coverage is measured in wall time: the share of the run window
that lies under at least one outermost span of any thread.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import weakref


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.spans = 0
        self.intervals = []          # wall (start, end) of outermost spans
        self._rows = weakref.WeakKeyDictionary()   # complex -> sources seen
        self._measured = set()       # ids of live gap views measured

    # ------------------------------------------------------------ records

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` may add
        counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack()
            w0 = time.perf_counter()
            c0 = time.thread_time()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = time.thread_time()
                w1 = time.perf_counter()
                child = stack.pop()
                spent = c1 - c0
                if stack:
                    stack[-1] += spent
                with tracer._lock:
                    tracer.spans += 1
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                    tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                           + spent - child)
                    if not stack:
                        tracer.intervals.append((w0, w1))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def coverage(self, start, end):
        """Share of the wall window [start, end] under outermost spans."""
        covered = 0.0
        reach = start
        for a, b in sorted(self.intervals):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        return covered / (end - start) if end > start else 0.0

    # ------------------------------------------------------ installation

    def install(self):
        """Wrap every traced layer of the imported reebscope package."""
        from reebscope.complexes import (generators, geodesic, homology, io,
                                         levelscan, simplicial)
        from reebscope import metric, width
        from reebscope.reeb import build, graph

        def on_build(args, kwargs, result):
            self.count("reeb.build_reeb.vertices", args[0].n_vertices)

        def on_rows(args, kwargs, result):
            complex = args[0]
            sources = args[1] if len(args) > 1 else kwargs.get("sources")
            rows = (range(complex.n_vertices) if sources is None
                    else [int(s) for s in sources])
            with self._lock:
                seen = self._rows.setdefault(complex, set())
                before = len(seen)
                seen.update(rows)
                fresh = len(seen) - before
            self.count("geodesic.vertex_distances.sources", len(rows))
            self.count("geodesic.vertex_distances.distinct", fresh)

        def on_contours(args, kwargs, result):
            self.count("levelscan.contours.returned", len(result))
            with self._lock:
                self._measured.add(id(args[0]))

        def on_load(args, kwargs, result):
            self.count("io.bytes_read", os.path.getsize(args[0]))

        functions = [
            (build, "build_reeb", "reeb.build_reeb", on_build),
            (geodesic, "vertex_distances", "geodesic.vertex_distances",
             on_rows),
            (metric, "max_contour_diameter", "metric.max_contour_diameter",
             None),
            (metric, "distortion", "metric.distortion", None),
            (width, "disk_contour_verify", "width.disk_contour_verify", None),
            (generators, "generate_space", "generators.generate_space", None),
            (homology, "betti_numbers", "homology.betti_numbers", None),
            (io, "load_complex", "io.load_complex", on_load),
            (io, "load_field", "io.load_field", on_load),
        ]
        for module, attr, name, after in functions:
            _replace_global(getattr(module, attr),
                            self.span(name, getattr(module, attr), after))

        def on_init(args, kwargs, result):
            self.count("simplicial.complex_init.edges", args[0].n_edges)

        cx = simplicial.SimplicialComplex
        cx.__init__ = self.span("simplicial.complex_init", cx.__init__,
                                on_init)
        view = levelscan.GapView
        view.contours = self.span("levelscan.contours", view.contours,
                                  on_contours)
        rg = graph.ReebGraph
        rg.node_distances = self.span("reeb.graph.node_distances",
                                      rg.node_distances)
        rg.to_json = self.span("reeb.graph.export", rg.to_json)
        rg.to_dot = self.span("reeb.graph.export", rg.to_dot)

        scan = levelscan.LevelScan
        stepped = scan.gaps
        tracer = self

        @functools.wraps(stepped)
        def gaps(self_scan):
            for gap in stepped(self_scan):
                tracer.count("levelscan.gaps")
                try:
                    yield gap
                finally:
                    with tracer._lock:
                        used = id(gap) in tracer._measured
                        tracer._measured.discard(id(gap))
                    if used:
                        tracer.count("levelscan.gaps_measured")

        scan.gaps = gaps


def _replace_global(original, wrapper):
    """Point every reebscope module global bound to `original` at
    `wrapper`, so callers that imported the name see the span too."""
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "reebscope" or mod_name.startswith("reebscope.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def span_cost(samples=20000):
    """Seconds one span adds to a call, measured on an empty function."""
    def empty():
        return None

    probe = Tracer()
    traced = probe.span("probe", empty)
    t0 = time.perf_counter()
    for _ in range(samples):
        empty()
    t1 = time.perf_counter()
    for _ in range(samples):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / samples)
