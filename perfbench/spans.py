"""Outside-in span tracing for the sweep benchmark.

The benchmark records a span around each of its own calls into a layer
of the library: the graph instance, protocol preparation, each engine's
run, and the output checks.  Deeper layers are reached from the outside
as well: while a traced run is in progress, the library entry points
listed in :data:`DEEP_TARGETS` are replaced by wrappers that open a span
around the original, and are put back when the run ends.  The library
is never edited, and an untraced run wraps nothing, so it pays nothing.

A span is ``[id, parent id, root id, trace id, name, start, end]``; the
root is the pass that caused it and the trace id is the coordinate
(one scenario instance) it belongs to.  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute path)`` of the library entry points
#: wrapped while tracing.  A target the library no longer has is
#: skipped, so the benchmark keeps running across refactors; its time
#: then counts towards the span that called it.
DEEP_TARGETS = (
    ("plan", "repro.simulation.protocol", "build_plan"),
    ("circuit", "repro.circuits.arithmetic", "matmul_circuit_strassen"),
    ("circuit", "repro.circuits.builders", "threshold_parity_circuit"),
    ("schedule", "repro.routing.schedule", "build_schedule"),
    ("compile", "repro.core.kernels", "compile_program"),
    ("deliver", "repro.core.fastlane", "FixedLane.deliver"),
    ("deliver", "repro.core.fastlane", "BroadcastLane.deliver"),
    ("deliver", "repro.core.fastlane", "BatchLane.deliver_compiled"),
    ("deliver", "repro.core.fastlane", "BatchLane.deliver_kernel"),
    ("deliver", "repro.core.fastlane", "BatchBroadcastLane.deliver_kernel"),
    ("deliver", "repro.core.engine.legacy", "deliver_outbox"),
    ("deliver", "repro.core.engine.fast", "deliver_outbox"),
    ("deliver", "repro.core.engine.fast", "deliver_round_scalar"),
)

_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.trace_id: Optional[str] = None
        self._open: List[list] = []

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        record = [
            len(self.spans),
            None if parent is None else parent[0],
            len(self.spans) if parent is None else parent[2],
            self.trace_id,
            name,
            time.perf_counter(),
            None,
        ]
        self.spans.append(record)
        self._open.append(record)
        return record

    def end(self, record: list) -> None:
        record[6] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per root span, the self time (seconds) of every layer name,
        the root's own name included."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _root, _trace, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_root: Dict[int, Dict[str, float]] = {}
        for sid, _parent, root, _trace, name, start, end in self.spans:
            layers = per_root.setdefault(root, {})
            layers[name] = layers.get(name, 0.0) + (end - start) - child_time[sid]
        return per_root

    def counts(self) -> Dict[int, Dict[str, int]]:
        """Per root span, how many spans of every layer name it holds."""
        per_root: Dict[int, Dict[str, int]] = {}
        for _sid, _parent, root, _trace, name, _start, _end in self.spans:
            layers = per_root.setdefault(root, {})
            layers[name] = layers.get(name, 0) + 1
        return per_root

    def write(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the
        first span."""
        origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, root, trace, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "root": root,
                            "trace": trace,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )


def span(tracer: Optional[Tracer], name: str):
    """A span context on ``tracer``, or a shared no-op when untraced."""
    return _NULL if tracer is None else tracer.span(name)


def median_per_root(per_root: Dict[int, Dict[str, Any]], names: Tuple[str, ...]) -> float:
    """Median over root spans of the summed value of some layers (a layer
    absent from a root adds 0)."""
    values = [sum(layers.get(name, 0) for name in names) for layers in per_root.values()]
    return statistics.median(values) if values else 0.0


def _wrap(fn: Callable, layer: str, tracer: Tracer) -> Callable:
    def traced(*args, **kwargs):
        record = tracer.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(record)

    traced.__name__ = getattr(fn, "__name__", layer)
    traced.__qualname__ = getattr(fn, "__qualname__", layer)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


@contextlib.contextmanager
def deep_spans(tracer: Tracer):
    """Wrap the :data:`DEEP_TARGETS` the library has for the duration of
    the block."""
    installed = []
    try:
        for layer, module_name, path in DEEP_TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            # Only plain functions: re-binding a staticmethod or a
            # classmethod as a function would change how it is called.
            if not inspect.isfunction(original):
                continue
            setattr(owner, attr, _wrap(original, layer, tracer))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
