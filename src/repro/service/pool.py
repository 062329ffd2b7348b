"""The warm session pool: one warm base session per circuit hash.

Building a base :class:`~repro.qtask.QTask` session for a circuit means
parsing, levelizing and running the full initial ``update_state()`` --
hundreds of milliseconds to seconds.  So the pool keeps one warm **base
session per circuit family** (keyed by circuit hash): the first request of
a family pays the build, every later one finds it warm.

:meth:`SessionPool.pin` hands out the base itself, pinned against eviction
until :meth:`SessionPool.unpin`.  A pinned base is warm and nobody edits
it, so readers (``counts``, ``expectation``, ``state``, ``run_shots``,
which forks once for its own walk) share it -- the backend serves every
job this way.  :meth:`SessionPool.lease` is ``pin`` plus a copy-on-write
``fork()`` of the base for callers that edit: the fork is theirs to close,
and :meth:`SessionPool.release` returns the pin.

Budget enforcement uses the COW accounting that makes the pool cheap in
the first place: a base session's cost is its
:attr:`~repro.core.cow.MemoryReport.owned_bytes` (blocks it materialised
itself, excluding what it shares with live forks), summed across entries
and bounded by ``memory_budget_bytes``.  When the pool is over budget or
over ``max_sessions``, idle entries (zero pins) are evicted --
most-unstable first (recovery events recorded on the base session:
chunk fallbacks), then least-recently-used.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..qtask import QTask
from ..telemetry.metrics import MetricsRegistry

__all__ = ["SessionPool", "RECOVERY_EVENT_KINDS", "recovery_events"]

#: event kinds on a base session's recovery log that mark it *unstable* --
#: an unstable warm session is evicted before a merely old one, because its
#: updates have already needed recovery and a rebuild is likely cheaper
#: than another recovery cycle
RECOVERY_EVENT_KINDS: Tuple[str, ...] = ("chunk.fallback",)


def recovery_events(telemetry) -> int:
    """How many :data:`RECOVERY_EVENT_KINDS` events ``telemetry`` retains."""
    counts = telemetry.events.counts_by_kind()
    return sum(counts.get(kind, 0) for kind in RECOVERY_EVENT_KINDS)


class _PoolEntry:
    """One warm base session and its accounting."""

    __slots__ = (
        "key",
        "ready",
        "session",
        "error",
        "last_used",
        "hits",
        "leases",
        "owned_bytes",
        "build_seconds",
    )

    def __init__(self, key: str) -> None:
        self.key = key
        #: set once the creator thread finished building (or failed)
        self.ready = threading.Event()
        self.session: Optional[QTask] = None
        self.error: Optional[BaseException] = None
        self.last_used = time.perf_counter()
        self.hits = 0
        #: pins currently held on this base, leases included (eviction
        #: blocker)
        self.leases = 0
        self.owned_bytes = 0
        self.build_seconds = 0.0

    def instability(self) -> int:
        """Recovery events recorded on the base session (eviction priority)."""
        if self.session is None:
            return 0
        return recovery_events(self.session.telemetry)


class SessionPool:
    """Warm base sessions keyed by circuit hash, with budget eviction.

    ``pin(key, factory)`` returns ``(base, hit)``: the warm base for
    ``key`` (building it via ``factory()`` on first use) and whether it was
    already warm; pair it with :meth:`unpin` (the backend does this in a
    ``finally``).  ``lease(key, factory)`` returns ``(fork, hit)`` with a
    fresh fork of that base instead; pair it with :meth:`release`.  Either
    pins the base against eviction: a reader is still using it, and
    evicting a base whose forks still share its blocks would only *move*
    memory, not free it.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 8,
        memory_budget_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        self.max_sessions = max_sessions
        self.memory_budget_bytes = memory_budget_bytes
        self._entries: Dict[str, _PoolEntry] = {}
        self._lock = threading.Lock()
        self._closed = False
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            "service.pool_hits", help="pins served from a warm base session"
        )
        self._misses = registry.counter(
            "service.pool_misses", help="pins that had to build the base session"
        )
        self._evictions = registry.counter(
            "service.pool_evictions", help="warm base sessions evicted"
        )
        self._gauge_sessions = registry.gauge(
            "service.pool_sessions", help="warm base sessions currently held"
        )
        self._gauge_owned = registry.gauge(
            "service.pool_owned_bytes",
            unit="bytes",
            help="COW bytes owned by warm base sessions (MemoryReport.owned_bytes)",
        )

    # -- pinning and leasing ------------------------------------------------

    def pin(self, key: str, factory: Callable[[], QTask]) -> Tuple[QTask, bool]:
        """The warm base for ``key``, pinned; build it if cold.

        Exactly one thread runs ``factory()`` per cold key; concurrent
        pins of the same key block on the entry's ready event and then
        share the same base.  A failed build is not cached: the entry is
        removed so the next pin retries.  The caller reads the base and
        must not edit it.
        """
        creator = False
        with self._lock:
            if self._closed:
                raise RuntimeError("SessionPool is closed")
            entry = self._entries.get(key)
            if entry is None:
                entry = _PoolEntry(key)
                self._entries[key] = entry
                creator = True
            entry.leases += 1

        if creator:
            start = time.perf_counter()
            session = None
            try:
                session = factory()
                session.update_state()  # warm: compute the full base state
                entry.build_seconds = time.perf_counter() - start
                entry.session = session
                entry.owned_bytes = session.memory_report().owned_bytes
            except BaseException as exc:
                if session is not None:
                    session.close()
                entry.error = exc
                with self._lock:
                    entry.leases -= 1
                    self._entries.pop(key, None)
                entry.ready.set()
                raise
            entry.ready.set()
            self._misses.inc()
        else:
            entry.ready.wait()
            if entry.error is not None:
                with self._lock:
                    entry.leases -= 1
                raise entry.error
            self._hits.inc()
            with self._lock:
                entry.hits += 1

        assert entry.session is not None
        entry.last_used = time.perf_counter()
        self._enforce_budgets()
        return entry.session, not creator

    def lease(self, key: str, factory: Callable[[], QTask]) -> Tuple[QTask, bool]:
        """A fresh fork of the warm base for ``key`` (:meth:`pin` + fork).

        The fork is the caller's to edit and close; return the pin with
        :meth:`release`.
        """
        base, hit = self.pin(key, factory)
        try:
            return base.fork(), hit
        except BaseException:
            self.unpin(key)
            raise

    def unpin(self, key: str) -> None:
        """Return a pin taken by :meth:`pin` and re-run budget enforcement
        (an idle base may now be evicted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            entry.leases = max(0, entry.leases - 1)
            entry.last_used = time.perf_counter()
        self._enforce_budgets()

    def release(self, key: str) -> None:
        """Return a lease taken by :meth:`lease` (the fork itself is closed
        by the caller).  Also refreshes the base's owned-bytes accounting --
        closing forks can change what the base owns versus shares; a pin
        cannot, so :meth:`unpin` skips it."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry.session is not None:
            entry.owned_bytes = entry.session.memory_report().owned_bytes
        self.unpin(key)

    # -- eviction -----------------------------------------------------------

    def _over_budget_locked(self) -> bool:
        if len(self._entries) > self.max_sessions:
            return True
        if self.memory_budget_bytes is not None:
            total = sum(e.owned_bytes for e in self._entries.values())
            if total > self.memory_budget_bytes:
                return True
        return False

    def _pick_victim_locked(self) -> Optional[_PoolEntry]:
        candidates = [
            e
            for e in self._entries.values()
            if e.leases == 0 and e.ready.is_set() and e.session is not None
        ]
        if not candidates:
            return None
        # Most unstable first (recovery events on the base), then oldest.
        return max(candidates, key=lambda e: (e.instability(), -e.last_used))

    def _enforce_budgets(self) -> None:
        """Evict idle entries until within ``max_sessions`` and the byte
        budget (or nothing idle remains to evict)."""
        while True:
            with self._lock:
                if not self._over_budget_locked():
                    break
                victim = self._pick_victim_locked()
                if victim is None:
                    break  # everything is pinned; budgets re-checked on unpin
                del self._entries[victim.key]
            session = victim.session
            if session is not None:
                session.close()
            self._evictions.inc()
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        with self._lock:
            self._gauge_sessions.set(len(self._entries))
            self._gauge_owned.set(sum(e.owned_bytes for e in self._entries.values()))

    # -- introspection / lifecycle -----------------------------------------

    def stats(self) -> Dict[str, object]:
        """Point-in-time snapshot (entries sorted by recency, hot first)."""
        with self._lock:
            entries = sorted(
                self._entries.values(), key=lambda e: -e.last_used
            )
            return {
                "sessions": len(entries),
                "max_sessions": self.max_sessions,
                "memory_budget_bytes": self.memory_budget_bytes,
                "owned_bytes": sum(e.owned_bytes for e in entries),
                "entries": [
                    {
                        "key": e.key,
                        "hits": e.hits,
                        "leases": e.leases,
                        "owned_bytes": e.owned_bytes,
                        "build_seconds": e.build_seconds,
                        "instability": e.instability(),
                    }
                    for e in entries
                ],
            }

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            if entry.session is not None:
                entry.session.close()
        self._refresh_gauges()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionPool(sessions={len(self._entries)}/{self.max_sessions}, "
            f"budget={self.memory_budget_bytes})"
        )
