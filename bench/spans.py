"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: `Tracer.patched` swaps the
public functions and methods of polycbf for thin wrappers while a traced
pass runs and restores them afterwards, so untraced runs execute the
library untouched.  Each span stores its name, start, end (perf_counter_ns),
parent span and trace id; all spans of one rollout, tick replay or audit
share a trace id, whose label names the phase and scenario.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from polycbf import barrier, safety_filter, scenarios, sim, verify
from polycbf.geometry import PolytopeEnvironment

# (span name, class, method) patched on the class, so instances built inside
# the library (e.g. by the CLI) are traced too.
METHODS = (
    ("geometry.frame", PolytopeEnvironment, "frame"),
    ("safety_filter.velocity", safety_filter.DesiredController, "velocity"),
)

# (span name, function) patched wherever a polycbf module binds the function.
FUNCTIONS = (
    ("barrier.smooth_barrier", barrier.smooth_barrier),
    ("barrier.barrier_field", barrier.barrier_field),
    ("barrier.margin_field", barrier.margin_field),
    ("safety_filter.safe_velocity", safety_filter.safe_velocity),
    ("sim.step", sim.step),
    ("sim.run", sim.run),
    ("scenarios.builtin", scenarios.builtin),
    ("verify.gradient_audit", verify.gradient_audit),
    ("verify.hull_containment_audit", verify.hull_containment_audit),
    ("verify.under_approximation_audit", verify.under_approximation_audit),
)


class NullTracer:
    """Stand-in used by untraced passes: records nothing."""

    enabled = False

    def new_trace(self, label: str) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self.labels: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._trace = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._trace_id = -1

    def new_trace(self, label: str) -> None:
        self.labels.append(label)
        self._trace_id = len(self.labels) - 1

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._trace.append(self._trace_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(idx)
        # Clock read last and first in end(), so bookkeeping stays outside.
        self._start.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)
        return traced

    @contextmanager
    def patched(self):
        """Trace every call into the layers listed in METHODS / FUNCTIONS."""
        undo = []
        try:
            for name, cls, attr in METHODS:
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, name))
                undo.append((cls, attr, original))
            wrappers = {id(fn): (fn, self._wrap(fn, name))
                        for name, fn in FUNCTIONS}
            modules = [m for n, m in list(sys.modules.items())
                       if n == "polycbf" or n.startswith("polycbf.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        undo.append((module, attr, value))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def save(self, path) -> None:
        """Write every span, with the name and label tables, as one .npz."""
        np.savez_compressed(
            path, names=np.array(self.names), labels=np.array(self.labels),
            name=np.asarray(self._name), trace=np.asarray(self._trace),
            parent=np.asarray(self._parent), start=np.asarray(self._start),
            end=np.asarray(self._end))


class SpanTable:
    """Columnar view of recorded spans with inclusive and self durations."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.labels = list(tracer.labels)
        self.name = np.asarray(tracer._name, dtype=np.int64)
        self.trace = np.asarray(tracer._trace, dtype=np.int64)
        self.parent = np.asarray(tracer._parent, dtype=np.int64)
        self.dur = (np.asarray(tracer._end, dtype=np.int64)
                    - np.asarray(tracer._start, dtype=np.int64))
        # Self time: the span's duration minus the time its children cover.
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=self.dur.size)
        self.self_ns = self.dur - covered

    def traces(self, predicate) -> np.ndarray:
        """Mask over spans whose trace label satisfies predicate."""
        keep = np.array([bool(predicate(lab)) for lab in self.labels]
                        + [False])  # index -1: spans outside any trace
        return keep[self.trace]

    def of(self, name: str, mask=None) -> np.ndarray:
        """Boolean mask of the spans called name (within mask)."""
        if name not in self.names:
            hit = np.zeros(self.dur.size, dtype=bool)
        else:
            hit = self.name == self.names.index(name)
        return hit if mask is None else hit & mask

