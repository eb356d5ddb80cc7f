"""The tracer: spans, events, and export sinks.

One process-wide :class:`Telemetry` hub owns an on/off switch, a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and a sink.  The
layer is strictly opt-in: until :func:`enable` is called every
instrumentation point short-circuits on a single attribute check, and
``span()`` hands back a shared no-op context manager — the profiler's
throughput budget (<5 % overhead disabled, enforced by
``benchmarks/bench_telemetry_overhead.py``) depends on that.

Spans nest: ``with span("experiment.measure"): ...`` records wall time
(``time.perf_counter``), depth, and parent, emits one NDJSON event on
close, and feeds the ``span.<name>`` histogram so run reports can show
per-stage timings without replaying the event stream.

This module imports only the standard library (plus its sibling
``metrics``) so any layer of the stack — ISA tables, the scheduler,
the executor — can instrument itself without import cycles.

Forks are safe beside threads that instrument: an ``os.fork`` hook
holds the registry's and the sink's locks across every fork, with the
sink's buffer flushed first, as the standard ``logging`` module guards
its own (see :func:`_before_fork`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, TextIO, Union

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "NullSink", "MemorySink", "NdjsonSink", "Span", "Telemetry",
    "get_telemetry", "enable", "disable", "is_enabled", "reset",
    "span", "event", "count", "observe", "set_gauge", "registry",
    "read_ndjson", "register_reset_hook", "trace_id", "current_phase",
]

#: Functions invoked on every :func:`reset` — the live-layer modules
#: (windows, cache stats, phase profiles) register here so test
#: isolation wipes their module state without ``core`` importing them
#: (which would invert the dependency direction).
_RESET_HOOKS: List = []


def register_reset_hook(hook) -> None:
    """Run ``hook()`` whenever the hub is reset (test isolation)."""
    if hook not in _RESET_HOOKS:
        _RESET_HOOKS.append(hook)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class NullSink:
    """Drops every event — the disabled / metrics-only configuration."""

    def emit(self, record: Dict) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects events in memory (tests, examples, the CLI summary)."""

    def __init__(self):
        self.records: List[Dict] = []

    def emit(self, record: Dict) -> None:
        self.records.append(record)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class NdjsonSink:
    """Streams events as newline-delimited JSON, one object per line.

    Accepts a path (opened and owned by the sink) or an already-open
    text stream (borrowed; ``close()`` only flushes it).
    ``autoflush`` flushes after every record — the live layer uses it
    for worker side-channel files and heartbeat-bearing traces so an
    in-flight run can be tailed (``repro top``) and a crashed worker
    leaves complete lines behind.
    """

    def __init__(self, target: Union[str, TextIO],
                 autoflush: bool = False):
        self._lock = threading.Lock()
        self.autoflush = autoflush
        if isinstance(target, str):
            parent = os.path.dirname(target)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self.path: Optional[str] = target
            self._fh: TextIO = open(target, "w")
            self._owns = True
        else:
            self.path = getattr(target, "name", None)
            self._fh = target
            self._owns = False

    def emit(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._fh.write(line + "\n")
            if self.autoflush:
                self._fh.flush()

    def flush(self) -> None:
        with self._lock:
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()


def read_ndjson(path: str) -> List[Dict]:
    """Load an NDJSON trace back into event dicts (round-trip helper)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span:
    """One timed, nested region of work."""

    __slots__ = ("name", "attrs", "_hub", "start", "duration_ms",
                 "depth", "parent")

    def __init__(self, hub: "Telemetry", name: str, attrs: Dict):
        self.name = name
        self.attrs = attrs
        self._hub = hub
        self.start = 0.0
        self.duration_ms: Optional[float] = None
        self.depth = 0
        self.parent: Optional[str] = None

    def annotate(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._hub._stack()
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self._hub.current_phase = self.name
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self.start) * 1000.0
        stack = self._hub._stack()
        if stack and stack[-1] is self:
            stack.pop()
        hub = self._hub
        hub.current_phase = stack[-1].name if stack else None
        hub.registry.histogram(f"span.{self.name}") \
            .observe(self.duration_ms)
        record = {
            "kind": "span",
            "name": self.name,
            "ts": time.time(),
            "dur_ms": round(self.duration_ms, 3),
            "depth": self.depth,
            "parent": self.parent,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record.update(self.attrs)
        hub.emit(record)


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


# ---------------------------------------------------------------------------
# The hub
# ---------------------------------------------------------------------------

class Telemetry:
    """Process-wide tracer + metrics switchboard."""

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.sink = NullSink()
        self._local = threading.local()
        #: Run-scoped trace identity.  Minted once per pipeline run
        #: (``repro.parallel.engine``), threaded into pool workers via
        #: ``MachineDescriptor``, and stamped onto every record so
        #: stitched worker events are attributable to their run.
        self.trace_id: Optional[str] = None
        #: Static fields merged into every record — workers set
        #: ``{"worker": pid, "shard": index}`` so the parent can merge
        #: their side-channel stream back in shard-index order.
        self.context: Dict = {}
        #: Monotonic per-process record sequence number; the stitcher's
        #: stable sort key within one worker's stream.
        self._seq = 0
        #: Name of the innermost open span (main thread) — what the
        #: heartbeat and ``repro top`` report as the current phase.
        self.current_phase: Optional[str] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def emit(self, record: Dict) -> None:
        """Stamp run identity onto a record and hand it to the sink."""
        self._seq += 1
        record["seq"] = self._seq
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        if self.context:
            record.update(self.context)
        self.sink.emit(record)

    # -- lifecycle ------------------------------------------------------

    def enable(self, sink: Union[None, str, NullSink, MemorySink,
                                 NdjsonSink] = None) -> "Telemetry":
        """Turn collection on.

        ``sink`` may be an export sink, a path (NDJSON is written
        there), or ``None`` for metrics-only collection.
        """
        if isinstance(sink, str):
            sink = NdjsonSink(sink)
        if sink is not None:
            self.sink.close()
            self.sink = sink
        self.enabled = True
        return self

    def disable(self) -> None:
        """Turn collection off and flush/close the sink."""
        self.enabled = False
        self.sink.close()
        self.sink = NullSink()

    def reset(self) -> None:
        """Disable and wipe all metrics (test isolation)."""
        self.disable()
        self.registry.reset()
        self._local = threading.local()
        self.trace_id = None
        self.context = {}
        self._seq = 0
        self.current_phase = None
        for hook in _RESET_HOOKS:
            hook()

    # -- instrumentation points ----------------------------------------

    def span(self, name: str, **attrs) -> Union[Span, _NoopSpan]:
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **fields) -> None:
        if not self.enabled:
            return
        record = {"kind": "event", "name": name, "ts": time.time()}
        record.update(fields)
        self.emit(record)

    def count(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.registry.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.registry.gauge(name).set(value)


#: The process-wide hub every instrumentation point talks to.
_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    return _TELEMETRY


def enable(sink=None) -> Telemetry:
    return _TELEMETRY.enable(sink)


def disable() -> None:
    _TELEMETRY.disable()


def is_enabled() -> bool:
    return _TELEMETRY.enabled


def reset() -> None:
    _TELEMETRY.reset()


def span(name: str, **attrs):
    return _TELEMETRY.span(name, **attrs)


def event(name: str, **fields) -> None:
    _TELEMETRY.event(name, **fields)


def count(name: str, amount: int = 1) -> None:
    _TELEMETRY.count(name, amount)


def observe(name: str, value: float) -> None:
    _TELEMETRY.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    _TELEMETRY.set_gauge(name, value)


def registry() -> MetricsRegistry:
    return _TELEMETRY.registry


#: The locks :func:`_before_fork` took, released on both sides.
_HELD_AT_FORK: List[threading.Lock] = []


def _before_fork() -> None:
    """Hold the hub's locks across a fork, the sink's buffer flushed.

    Otherwise a worker inherits a lock another thread (the heartbeat,
    mid-emit) held at the fork, and its first :func:`reset` waits on it
    for good; and a worker that closes the sink it inherited writes the
    parent's unflushed records into the trace a second time.
    """
    sink = _TELEMETRY.sink
    locks = [_TELEMETRY.registry._lock]
    if isinstance(sink, NdjsonSink):
        locks.append(sink._lock)
    for lock in locks:
        lock.acquire()  # then listed, so a concurrent fork waits here
        _HELD_AT_FORK.append(lock)
    if isinstance(sink, NdjsonSink):
        try:
            sink._fh.flush()
        except (OSError, ValueError):
            pass  # a closed sink or a full disk: fork all the same


def _after_fork() -> None:
    while _HELD_AT_FORK:
        _HELD_AT_FORK.pop().release()


os.register_at_fork(before=_before_fork, after_in_parent=_after_fork,
                    after_in_child=_after_fork)


def trace_id() -> Optional[str]:
    """The current run's trace ID (``None`` outside a traced run)."""
    return _TELEMETRY.trace_id


def current_phase() -> Optional[str]:
    """Name of the innermost open span on the main thread."""
    return _TELEMETRY.current_phase
