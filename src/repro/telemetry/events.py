"""Recovery event log: a bounded, timestamped record of discrete events.

Spans answer "where did the time go"; the event log answers "what did
recovery *do*" -- fault injected at which site, which run retried, which
chunk fell back to run-granular execution, which checkpoint was
saved/restored.  Events are tiny (kind + seq + two clocks +
a small field dict), land in a bounded deque, and are queryable by kind
and by sequence number so ``explain_last_update()`` can render "events
since the last update started" without scanning history.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["TelemetryEvent", "EventLog"]


class TelemetryEvent:
    """One discrete event.

    ``time`` is ``perf_counter`` (correlates with span timings);
    ``wall_time`` is ``time.time`` (correlates with the outside world).
    """

    __slots__ = ("seq", "kind", "time", "wall_time", "fields")

    def __init__(self, seq: int, kind: str, fields: Dict[str, Any]) -> None:
        self.seq = seq
        self.kind = kind
        self.time = time.perf_counter()
        self.wall_time = time.time()
        self.fields = fields

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "time": self.time,
            "wall_time": self.wall_time,
            **self.fields,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"TelemetryEvent(#{self.seq} {self.kind} {inner})"


class EventLog:
    """Bounded, append-only event store."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self.dropped = 0
        self.last_seq = 0
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> TelemetryEvent:
        with self._lock:
            self.last_seq += 1
            event = TelemetryEvent(self.last_seq, kind, fields)
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            return event

    def events(
        self,
        kind: Optional[str] = None,
        since: Optional[int] = None,
    ) -> List[TelemetryEvent]:
        """Events in order, optionally filtered by kind and/or ``seq > since``."""
        with self._lock:
            out = list(self._events)
        if since is not None:
            out = [e for e in out if e.seq > since]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: occurrences}`` over the retained window (insertion order).

        Dropped events are not counted -- this is a health signal over the
        recent window, not a lifetime total (the service layer's session
        pool uses it to rank warm sessions by instability).
        """
        out: Dict[str, int] = {}
        with self._lock:
            for event in self._events:
                out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog(events={len(self._events)}, dropped={self.dropped})"
