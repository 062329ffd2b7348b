"""Seeded fault injection for chaos-testing the execution stack.

The fault recovery (a faulted chunk re-executes run by run, each run
retried in place a bounded number of times) and checkpoint recovery are only
trustworthy if every failure path can be exercised *deterministically*.  This module provides that:
a :class:`FaultPlan` is a seeded schedule of synthetic failures at named
**fault sites** threaded through the hot paths:

=================  ========================================================
site               where it fires
=================  ========================================================
``kernel.run``     kernel execution: once per run table
                   (``NumpyBatchBackend.execute_plan``)
``cow.publish``    block publish into a :class:`~repro.core.cow.BlockStore`
=================  ========================================================

Both fire inside a chunk's kernel execution, which is where the simulator
recovers: nothing outside a chunk can fault.

Design constraints (all load-bearing):

* **Off by default, zero hot-path cost.**  Every site is guarded by a
  single ``if faults.ACTIVE is not None`` module-global check; with no
  plan installed the hot paths pay one pointer comparison.

* **Armed scope.**  Even with a plan installed, faults only fire inside
  an :func:`armed` scope.  The simulator arms the plan around recovered
  regions (``update_state``); direct unit-test calls to ``write_blocks``
  or ``execute_plan`` outside an update therefore never see synthetic
  faults, which is what lets the chaos CI job run the *whole* tier-1
  suite with a plan installed and still expect green.

* **Deterministic and replayable.**  Probabilistic firing draws from a
  per-site ``random.Random`` stream keyed ``(seed, site)``, so the k-th
  *armed* evaluation of a site fires identically across runs for a given
  seed, independent of what other sites did.  Scripted triggers fire on
  exact armed-occurrence indices.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.session import emit_event

__all__ = [
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "ACTIVE",
    "install",
    "uninstall",
    "active_plan",
    "plan_from_env",
    "fire",
    "armed",
    "is_armed",
]

#: Every site name threaded through the execution stack.  ``FaultPlan``
#: rejects unknown sites so a typo'd probability map fails loudly.
FAULT_SITES: Tuple[str, ...] = ("kernel.run", "cow.publish")


class FaultInjected(RuntimeError):
    """A synthetic fault raised by an armed :class:`FaultPlan`.

    Recovery layers treat this exactly like a real infrastructure error;
    tests match on the type to assert the *recovery* worked rather than
    the fault being swallowed.
    """

    def __init__(self, site: str, occurrence: int):
        super().__init__(f"injected fault at {site!r} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the
        # formatted message as ``site`` and drop ``occurrence``.
        return (FaultInjected, (self.site, self.occurrence))


class FaultPlan:
    """A seeded, deterministic schedule of synthetic faults.

    Parameters
    ----------
    seed:
        Seeds the per-site probability streams.  Same seed => same
        firing pattern for the same sequence of armed site evaluations.
    probability:
        Default per-evaluation firing probability applied to every site
        not listed in ``probabilities``.
    probabilities:
        Per-site overrides, e.g. ``{"cow.publish": 0.2}``.  A site mapped
        to ``0.0`` never fires probabilistically.  Every probability, the
        default and each override, must lie in ``[0, 1]`` (NaN does not).
    script:
        Exact triggers: an iterable of ``(site, occurrence)`` pairs; the
        plan fires on that site's N-th armed evaluation (1-based),
        regardless of probabilities.  This is how tests stage "the
        second publish of the third update dies" scenarios.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        probability: float = 0.0,
        probabilities: Optional[Dict[str, float]] = None,
        script: Optional[Iterable[Tuple[str, int]]] = None,
    ):
        self.seed = int(seed)
        overrides = dict(probabilities or {})
        for site in overrides:
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r}")
        self._probs: Dict[str, float] = {
            site: float(overrides.get(site, probability)) for site in FAULT_SITES
        }
        for p in (float(probability), *self._probs.values()):
            if not 0.0 <= p <= 1.0:  # false for NaN
                raise ValueError(f"probability must be in [0, 1], got {p}")
        self._script: Dict[str, set] = {}
        for site, occurrence in script or ():
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r}")
            if occurrence < 1:
                raise ValueError(
                    f"scripted occurrence must be >= 1, got {occurrence}"
                )
            self._script.setdefault(site, set()).add(int(occurrence))
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{self.seed}:{site}") for site in FAULT_SITES
        }
        self._calls: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._injected: Dict[str, int] = {site: 0 for site in FAULT_SITES}

    # -- decision ----------------------------------------------------------

    def should_fire(self, site: str) -> Tuple[bool, int]:
        """Advance ``site``'s stream one armed evaluation.

        Returns ``(fire, occurrence)`` where ``occurrence`` is the
        1-based index of this evaluation.  Thread-safe: concurrent
        chunks on pool threads evaluating the same site serialize on the plan
        lock so counters stay exact (the *order* of concurrent draws is
        scheduling-dependent, but the multiset of decisions is not).
        """
        if site not in self._probs:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            self._calls[site] += 1
            occurrence = self._calls[site]
            fire_now = occurrence in self._script.get(site, ())
            p = self._probs[site]
            if p > 0.0:
                # Always advance the stream so scripted hits do not shift
                # later probabilistic draws.
                draw = self._rngs[site].random() < p
                fire_now = fire_now or draw
            if fire_now:
                self._injected[site] += 1
            return fire_now, occurrence

    def fire(self, site: str) -> None:
        """Evaluate ``site`` and raise :class:`FaultInjected` if it fires."""
        fire_now, occurrence = self.should_fire(site)
        if fire_now:
            emit_event("fault.injected", site=site, occurrence=occurrence)
            raise FaultInjected(site, occurrence)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"calls": n, "injected": m}`` counters."""
        with self._lock:
            return {
                site: {
                    "calls": self._calls[site],
                    "injected": self._injected[site],
                }
                for site in FAULT_SITES
                if self._calls[site]
            }

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def reset(self) -> None:
        """Rewind counters and RNG streams to the initial state."""
        with self._lock:
            for site in FAULT_SITES:
                self._calls[site] = 0
                self._injected[site] = 0
                self._rngs[site] = random.Random(f"{self.seed}:{site}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        active = {s: p for s, p in self._probs.items() if p > 0.0}
        return (
            f"FaultPlan(seed={self.seed}, probabilities={active!r}, "
            f"scripted={sorted(self._script)!r})"
        )


#: The installed plan, or ``None``.  Hot paths check this one global.
ACTIVE: Optional[FaultPlan] = None

#: Armed-scope depth.  Process-global (not thread-local) on purpose: the
#: thread that arms a scope (``update_state``) is not the thread that hits
#: the sites -- pool threads run chunks -- so a thread-local flag
#: would never fire there.
_armed_depth = 0
_armed_lock = threading.Lock()


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide fault plan (``None`` clears).

    Returns the previously installed plan so callers can restore it.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plan
    return previous


def uninstall() -> None:
    """Remove any installed plan."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return ACTIVE


def is_armed() -> bool:
    return _armed_depth > 0


@contextmanager
def armed() -> Iterator[None]:
    """Scope inside which an installed plan's sites may fire.

    Re-entrant and process-wide; the plan stays armed until every open
    scope has exited.
    """
    global _armed_depth
    with _armed_lock:
        _armed_depth += 1
    try:
        yield
    finally:
        with _armed_lock:
            _armed_depth -= 1


def fire(site: str) -> None:
    """Evaluate ``site`` against the installed plan, if armed.

    This is the helper hot paths call *after* their cheap
    ``faults.ACTIVE is not None`` guard.
    """
    plan = ACTIVE
    if plan is not None and is_armed():
        plan.fire(site)


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """Build a plan from ``QTASK_FAULT_*`` environment variables.

    * ``QTASK_FAULT_P`` — default probability (required to enable; a
      missing or zero value returns ``None``).
    * ``QTASK_FAULT_SEED`` — seed (default 0).
    * ``QTASK_FAULT_SITES`` — optional comma-separated whitelist; listed
      sites get ``QTASK_FAULT_P``, everything else 0.
    """
    env = os.environ if environ is None else environ
    raw_p = env.get("QTASK_FAULT_P", "").strip()
    if not raw_p:
        return None
    p = float(raw_p)
    if p <= 0.0:
        return None
    seed = int(env.get("QTASK_FAULT_SEED", "0") or 0)
    raw_sites = env.get("QTASK_FAULT_SITES", "").strip()
    if raw_sites:
        sites: Sequence[str] = [s.strip() for s in raw_sites.split(",") if s.strip()]
        probabilities = {site: p for site in sites}
        return FaultPlan(seed, probability=0.0, probabilities=probabilities)
    return FaultPlan(seed, probability=p)
