"""The per-session telemetry bundle and its thread-local activation.

:class:`Telemetry` groups the three pillars -- metrics registry, tracer,
event log -- under one session id.  Each simulator session (including
every COW fork) owns one bundle; forks carry ``parent_session_id`` so
fleet aggregation can reassemble the family tree instead of silently
losing fork stats.

Deep modules (``core/faults``, ``core/kernels``) must not take a
telemetry object through every signature, and the slab backend is shared
by every session -- so discovery is ambient: the simulator
*activates* its bundle on the current thread around an update
(:func:`activate`/:func:`deactivate`), a plan chunk re-activates it
on the pool thread it runs on (``repro.core.update``), and anything
downstream reaches it via :func:`current` or fires events through
:func:`emit_event` (a no-op when nothing is active, which keeps the
fault-injection hot path allocation-free for untraced sessions).

A fork that closes before its caller returns (``run_shots``'s walk) takes
its bundle out of sight; :func:`collect_forks` hands the caller the bundle
of every fork created on its thread instead.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .events import EventLog
from .metrics import MetricsRegistry, next_session_id
from .tracing import Tracer

__all__ = [
    "Telemetry",
    "current",
    "activate",
    "deactivate",
    "emit_event",
    "collect_forks",
]

_tls = threading.local()


class Telemetry:
    """One session's metrics + tracer + event log."""

    def __init__(
        self,
        *,
        tracing: Optional[bool] = None,
        parent: Optional["Telemetry"] = None,
        span_capacity: int = 4096,
        event_capacity: int = 512,
    ) -> None:
        if tracing is None:
            tracing = os.environ.get("QTASK_TRACING", "").lower() in (
                "1", "true", "yes", "on",
            )
        self.session_id = next_session_id()
        self.parent_session_id = parent.session_id if parent is not None else None
        self.metrics = MetricsRegistry(
            session_id=self.session_id,
            parent_session_id=self.parent_session_id,
        )
        self.tracer = Tracer(enabled=bool(tracing), capacity=span_capacity)
        self.events = EventLog(capacity=event_capacity)
        if parent is not None:
            forks = getattr(_tls, "forks", None)
            if forks is not None:
                forks.append(self)

    def report(self) -> Dict[str, Any]:
        """One dict with everything: ids, metrics digest, span/event health."""
        snapshot = self.metrics.as_dict()
        histograms = {}
        for name, summary in snapshot["histograms"].items():
            metric = self.metrics.get(name)
            entry = dict(summary)
            if metric is not None and metric.unit:
                entry["unit"] = metric.unit
            histograms[name] = entry
        return {
            "session_id": self.session_id,
            "parent_session_id": self.parent_session_id,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": histograms,
            "spans": {
                "enabled": self.tracer.enabled,
                "recorded": len(self.tracer.spans()),
                "dropped": self.tracer.dropped,
            },
            "events": {
                "recorded": len(self.events),
                "dropped": self.events.dropped,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(session={self.session_id}, "
            f"parent={self.parent_session_id}, "
            f"tracing={self.tracer.enabled})"
        )


def current() -> Optional[Telemetry]:
    """The telemetry bundle active on this thread, if any."""
    return getattr(_tls, "telemetry", None)


def activate(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Make ``telemetry`` current on this thread; returns the previous one.

    Restore with ``deactivate(previous)`` in a ``finally``.
    """
    prev = getattr(_tls, "telemetry", None)
    _tls.telemetry = telemetry
    return prev


def deactivate(prev: Optional[Telemetry]) -> None:
    _tls.telemetry = prev


def emit_event(kind: str, **fields: Any) -> None:
    """Emit into the active session's event log; no-op when none is active."""
    telemetry = getattr(_tls, "telemetry", None)
    if telemetry is not None:
        telemetry.events.emit(kind, **fields)


@contextmanager
def collect_forks() -> Iterator[List[Telemetry]]:
    """Collect the bundle of every fork created on this thread in the block.

    Yields the list the bundles are appended to.  The service reads the
    recovery events of ``run_shots``'s walk fork -- created, walked and
    closed on the calling thread -- through it.
    """
    prev = getattr(_tls, "forks", None)
    _tls.forks = forks = []
    try:
        yield forks
    finally:
        _tls.forks = prev
