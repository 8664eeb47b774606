"""Spans around tensortopo's public functions, installed from outside.

A Tracer replaces each listed function in every tensortopo module namespace
that binds it (and each listed method on its class) with a wrapper that
records one span per call: name, start, end and parent span. Spans are kept
per thread; a span that starts with an empty stack on a worker thread (the
census pool) takes the installing thread's innermost open span as parent.
``uninstall`` puts the originals back. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name); "Class.method" patches the class
FUNCTIONS = (
    ("lab", "census", "lab.census"),
    ("sampling", "sample_rank_r", "sampling.draw"),
    ("sampling", "sample_sym_rank_r", "sampling.draw"),
    ("sampling", "sample_fixed_mrank", "sampling.draw"),
    ("sampling", "sample_sym_mrank", "sampling.draw"),
    ("classifiers", "classify", "classifiers.classify"),
    ("classifiers", "classify_brank3_222", "classifiers.classify_brank3_222"),
    ("certify", "classify_222", "certify.classify_222"),
    ("certify", "rank2_decompose", "certify.rank2_decompose"),
    ("certify", "is_rank_one", "certify.is_rank_one"),
    ("core", "mrank", "core.mrank"),
    ("core", "numerical_rank", "core.numerical_rank"),
    ("core", "sym_power", "core.sym_power"),
    ("geometry", "GrassmannGeodesic.frame", "geometry.frame"),
    ("geometry", "OrientationLoop.frame", "geometry.frame"),
    ("paths", "connect", "paths.connect"),
    ("paths", "path_verify", "paths.path_verify"),
    ("paths", "TensorPath.eval", "paths.eval"),
)
# factories whose returned closures are traced, not the factory call itself
FACTORIES = (
    ("geometry", "gl_interpolator", "geometry.interpolator"),
    ("geometry", "orthogonal_interpolator", "geometry.interpolator"),
)
PATH_SPANS = ("paths.connect", "paths.path_verify")

# span fields
NAME, START, END, PARENT, IN_PATHS, VALUE = range(6)


def _result_size(name: str, out) -> int | None:
    """Samples a path_verify report holds, segments a connect path has."""
    if name == "paths.path_verify":
        return len(out.samples)
    if name == "paths.connect":
        return len(out.segments)
    return None


class _ThreadState:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.paths_depth = 0
        self.svd_in_paths = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._undo: list = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _traced(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent, st.paths_depth > 0, None]
            st.spans.append(span)
            stack.append(span)
            in_path_layer = name in PATH_SPANS
            if in_path_layer:
                st.paths_depth += 1
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if in_path_layer:
                    st.paths_depth -= 1
            span[VALUE] = _result_size(name, out)
            return out

        return traced

    def _factory(self, name: str, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self._traced(name, fn(*args, **kwargs))
        return factory

    def _svd_counter(self, fn):
        @functools.wraps(fn)
        def svd(*args, **kwargs):
            st = self._state()
            if st.paths_depth:
                st.svd_in_paths += 1
            return fn(*args, **kwargs)
        return svd

    def install(self) -> None:
        self._main = self._state()
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tensortopo"
                                         or key.startswith("tensortopo."))]
        for module, attr, name in FUNCTIONS:
            self._patch(modules, module, attr, name, self._traced)
        for module, attr, name in FACTORIES:
            self._patch(modules, module, attr, name, self._factory)
        original = np.linalg.svd
        np.linalg.svd = self._svd_counter(original)
        self._undo.append((np.linalg, "svd", original))

    def _patch(self, modules, module, attr, name, make) -> None:
        home = sys.modules.get(f"tensortopo.{module}")
        cls_name, _, method = attr.rpartition(".")
        owner = getattr(home, cls_name, None) if cls_name else home
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapped = make(name, original)
        if cls_name:
            setattr(owner, method, wrapped)
            self._undo.append((owner, method, original))
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def spans(self) -> list:
        return [span for st in self._states for span in st.spans]

    def svd_in_paths(self) -> int:
        return sum(st.svd_in_paths for st in self._states)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, calls inside connect/path_verify, outer time
    (spans nested in a span of the same name are not counted twice), self
    time (duration minus the union of its children's intervals), and the
    calls that returned a sized result with the sizes summed. Also the mrank
    calls made directly by a sampler."""
    spans = tracer.spans()
    children: dict[int, list] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[START], span[END]))
    table: dict[str, dict] = {}
    sampler_mrank = 0
    for span in spans:
        name = span[NAME]
        row = table.setdefault(name, {"calls": 0, "returned": 0, "in_paths": 0,
                                      "s": 0.0, "self_s": 0.0, "value": 0})
        row["calls"] += 1
        row["in_paths"] += span[IN_PATHS]
        duration = span[END] - span[START]
        row["self_s"] += duration - _covered(children.get(id(span), []))
        if span[VALUE] is not None:
            row["returned"] += 1
            row["value"] += span[VALUE]
        parent = span[PARENT]
        if name == "core.mrank" and parent is not None \
                and parent[NAME] == "sampling.draw":
            sampler_mrank += 1
        while parent is not None and parent[NAME] != name:
            parent = parent[PARENT]
        if parent is None:
            row["s"] += duration
    return {"table": table, "sampler_mrank": sampler_mrank,
            "svd_in_paths": tracer.svd_in_paths(), "absent": list(tracer.absent)}
