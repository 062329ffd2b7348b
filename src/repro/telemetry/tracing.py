"""Structured tracing: nested spans with a chrome-trace/Perfetto exporter.

A :class:`Tracer` hands out :class:`Span` context managers.  Parentage is
implicit through a thread-local "current span" -- opening a span inside
another (on the same thread) nests it; crossing a thread boundary is
explicit via :meth:`Tracer.attach`/:meth:`Tracer.detach` (a plan chunk
on a pool thread attaches the span its update was in when it fanned out,
``repro.core.update``).  A span timed outside any ``with`` block
(the checkpoint restore, whose tracer does not exist when it starts) is
recorded by value with :meth:`Tracer.adopt`.  A *root* span (``update``,
``job.run``) also reports the time none of its direct children covers, as
attr ``unattributed_s``.

The disabled path is a single attribute check returning a module-level
null span -- no allocation, no branches downstream.  Enabled spans land in
a bounded ring buffer (``collections.deque(maxlen=...)``) so always-on
tracing cannot grow without bound; overwritten spans are counted in
``dropped``.

:meth:`Tracer.export_chrome_trace` emits the chrome trace-event JSON
(``ph:"X"`` complete events, microsecond timestamps) that
``chrome://tracing`` and https://ui.perfetto.dev load directly.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import deque
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanRecord", "Tracer", "NULL_SPAN"]


class SpanRecord:
    """One finished span: immutable-by-convention timing record."""

    __slots__ = (
        "name", "span_id", "parent_id", "start", "duration",
        "pid", "thread_id", "thread_name", "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        duration: float,
        pid: int,
        thread_id: int,
        thread_name: str,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.pid = pid
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": dict(self.attrs) if self.attrs else {},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanRecord({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration * 1e3:.3f}ms)"
        )


class _NullSpan:
    """The span returned when tracing is off: every operation is a no-op.

    A single module-level instance is shared, so the disabled hot path
    allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """A live span; use as a context manager.

    ``__enter__`` captures the thread-local parent and installs itself as
    the current span; ``__exit__`` restores the parent and appends the
    finished :class:`SpanRecord` to the tracer's ring buffer.  Attributes
    set via :meth:`set` are carried onto the record.
    """

    __slots__ = (
        "_tracer", "name", "span_id", "_parent_id", "_start", "attrs", "_root",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Optional[Dict[str, Any]] = None,
                 root: bool = False) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self._parent_id: Optional[int] = None
        self._start = 0.0
        self.attrs = attrs
        self._root = root

    def set(self, key: str, value: Any) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tls = self._tracer._tls
        self._parent_id = getattr(tls, "span", None)
        tls.span = self.span_id
        if self._root:
            self._tracer._open_root(self.span_id)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = perf_counter() - self._start
        self._tracer._tls.span = self._parent_id
        if exc_type is not None:
            self.set("error", exc_type.__name__)
        if self._root:
            self.set(
                "unattributed_s",
                self._tracer._unattributed(self.span_id, self._start, duration),
            )
        thread = threading.current_thread()
        self._tracer._record(
            SpanRecord(
                self.name,
                self.span_id,
                self._parent_id,
                self._start,
                duration,
                os.getpid(),
                thread.ident or 0,
                thread.name,
                self.attrs,
            )
        )


class Tracer:
    """Span factory + bounded span store for one telemetry session."""

    def __init__(self, *, enabled: bool = False, capacity: int = 4096) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: open root spans: span id -> its direct children's intervals
        self._children: Dict[int, List[Tuple[float, float]]] = {}

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None, *,
             root: bool = False):
        """A context-managed span, or the shared null span when disabled.

        A ``root`` span reports, as attr ``unattributed_s``, its duration
        minus the union of its direct children's intervals (children
        recorded on any thread): the time no nested span accounts for.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs, root)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(record)
            siblings = self._children.get(record.parent_id)
            if siblings is not None:
                siblings.append((record.start, record.start + record.duration))

    def _open_root(self, span_id: int) -> None:
        with self._lock:
            self._children[span_id] = []

    def _unattributed(self, span_id: int, start: float, duration: float) -> float:
        """``duration`` minus the union of the closed root span's children."""
        with self._lock:
            intervals = sorted(self._children.pop(span_id))
        end = start + duration
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return max(0.0, duration - covered)

    # -- cross-thread propagation -------------------------------------------

    def current_span_id(self) -> Optional[int]:
        return getattr(self._tls, "span", None)

    def attach(self, span_id: Optional[int]) -> Optional[int]:
        """Install ``span_id`` as this thread's current span.

        Returns the previous current span id; pass it to :meth:`detach`
        to restore (use in a ``finally``).
        """
        prev = getattr(self._tls, "span", None)
        self._tls.span = span_id
        return prev

    def detach(self, prev: Optional[int]) -> None:
        self._tls.span = prev

    # -- adoption of spans timed elsewhere ------------------------------------

    def adopt(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        parent_id: Optional[int],
        pid: int,
        thread_id: int = 0,
        thread_name: str = "main",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record a span measured elsewhere (e.g. before the tracer existed).

        ``start`` must be a ``perf_counter`` reading from the same machine.
        Returns the assigned span id.
        """
        span_id = next(self._ids)
        self._record(
            SpanRecord(name, span_id, parent_id, start, duration,
                       pid, thread_id, thread_name, attrs)
        )
        return span_id

    # -- inspection / export -------------------------------------------------

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def export_chrome_trace(self, path: Optional[str] = None):
        """Chrome trace-event JSON for chrome://tracing / Perfetto.

        Returns the trace dict; when ``path`` is given, also writes it
        there as JSON.  Span start times are rebased so the earliest span
        starts at t=0 (chrome's ``ts`` is microseconds).
        """
        records = self.spans()
        base = min((r.start for r in records), default=0.0)
        events: List[Dict[str, Any]] = []
        seen_threads: Dict[Tuple[int, int], str] = {}
        seen_pids: Dict[int, bool] = {}
        for r in records:
            if r.pid not in seen_pids:
                seen_pids[r.pid] = True
                events.append({
                    "name": "process_name", "ph": "M", "pid": r.pid, "tid": 0,
                    "args": {"name": f"qtask[{r.pid}]"},
                })
            key = (r.pid, r.thread_id)
            if key not in seen_threads:
                seen_threads[key] = r.thread_name
                events.append({
                    "name": "thread_name", "ph": "M",
                    "pid": r.pid, "tid": r.thread_id,
                    "args": {"name": r.thread_name},
                })
            args: Dict[str, Any] = {"span_id": r.span_id}
            if r.parent_id is not None:
                args["parent_id"] = r.parent_id
            if r.attrs:
                args.update(r.attrs)
            events.append({
                "name": r.name,
                "cat": "qtask",
                "ph": "X",
                "ts": (r.start - base) * 1e6,
                "dur": r.duration * 1e6,
                "pid": r.pid,
                "tid": r.thread_id,
                "args": args,
            })
        trace = {"traceEvents": events, "displayTimeUnit": "ms"}
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
        return trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(enabled={self.enabled}, spans={len(self._spans)}, "
            f"dropped={self.dropped})"
        )
