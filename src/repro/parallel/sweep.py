"""Parameter sweeps over one forked copy-on-write session.

A variational workload evaluates the same circuit at many parameter points.
The retune path makes each point cheap (``update_gate`` + incremental
``update_state``); :class:`SweepRunner` packages it without touching the base
session: it forks the base session once (:meth:`repro.QTask.fork` -- zero
amplitude copies; the fork shares the base's pool) and evaluates the
points on that fork in submission order.  The fork carries
its own observables cache, so per-point expectations stay incremental from
one point to the next.

Points must set parameters *absolutely* (every handle gets a value at every
point), so a point's result does not depend on the points before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SweepPoint", "SweepResult", "SweepRunner"]

#: one grid point: a parameter value (or tuple of values) per swept handle
SweepPoint = Sequence[object]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep point, tagged with its submission index."""

    index: int
    params: Tuple[object, ...]
    expectation: Optional[float]
    counts: Optional[Dict[str, int]]
    seconds: float
    affected_fraction: float = 0.0


class SweepRunner:
    """Evaluate a grid of ``update_gate`` variants on a forked session.

    ``session`` is a :class:`repro.QTask` (or anything exposing ``fork`` /
    ``update_gate`` / ``update_state`` / ``expectation`` / ``counts``);
    ``handles`` are the tunable gate handles *of that session*.  Each call
    to :meth:`run` takes a list of points -- one parameter entry per handle,
    either a float or a tuple of floats -- and returns one
    :class:`SweepResult` per point, in submission order.

    >>> runner = SweepRunner(ckt, [g1, g2], observable="ZZ")   # doctest: +SKIP
    >>> results = runner.run([(0.1, 0.5), (0.2, 0.4)])         # doctest: +SKIP

    The fork is created lazily on first use, reused across ``run`` calls
    and rebuilt when the base session's ``state_epoch`` moves; :meth:`close`
    releases it.
    """

    def __init__(self, session, handles: Sequence[object], *, observable=None) -> None:
        self.session = session
        self.handles = list(handles)
        self.observable = observable
        #: (forked session, its mirrors of ``handles``), once forked
        self._fork: Optional[Tuple[object, List[object]]] = None
        #: the base session's state epoch the fork was taken at
        self._fork_epoch: Optional[Tuple[int, bool]] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the forked session (the base session stays open)."""
        self._drop_fork()
        self._closed = True

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def merged_metrics(self):
        """Metrics of the base session and the live fork, merged.

        The forked session owns its own registry (tagged with the base
        session's id), so its counters are not visible on the base
        session.  This folds both into one fresh
        :class:`~repro.telemetry.MetricsRegistry` (counters and histograms
        accumulate; gauges keep the base session's reading) without
        mutating either live registry.
        """
        from ..telemetry import MetricsRegistry

        base = self.session.simulator.telemetry.metrics
        merged = MetricsRegistry(
            session_id=base.session_id,
            parent_session_id=base.parent_session_id,
        )
        merged.merge(base)
        if self._fork is not None:
            merged.merge(self._fork[0].simulator.telemetry.metrics)
        return merged

    def _drop_fork(self) -> None:
        if self._fork is not None:
            self._fork[0].close()
            self._fork = None

    def _ensure_fork(self) -> Tuple[object, List[object]]:
        # The fork snapshots the base session at fork time; if the session
        # was edited since (pending modifiers or further updates), the fork
        # describes a stale state -- rebuild it rather than silently serve
        # points from an old base state.
        epoch = getattr(self.session.simulator, "state_epoch", None)
        if self._fork is not None and epoch != self._fork_epoch:
            self._drop_fork()
        if self._fork is None:
            child = self.session.fork()
            self._fork = (child, [child.handle_for(h) for h in self.handles])
            # fork() flushes pending parent modifiers, so read the epoch after.
            self._fork_epoch = getattr(self.session.simulator, "state_epoch", None)
        return self._fork

    # -- the sweep ----------------------------------------------------------

    def _apply_point(self, child, mirrored: List[object], point: SweepPoint) -> None:
        values = point if isinstance(point, (list, tuple)) else (point,)
        if len(values) != len(mirrored):
            raise ValueError(
                f"point has {len(values)} parameter entries for "
                f"{len(mirrored)} swept handles"
            )
        for handle, value in zip(mirrored, values):
            params = value if isinstance(value, (list, tuple)) else (value,)
            child.update_gate(handle, *params)

    def run(
        self,
        points: Sequence[SweepPoint],
        *,
        observable=None,
        shots: int = 0,
        seed: Optional[int] = None,
    ) -> List[SweepResult]:
        """Evaluate every point on the fork, in submission order.

        ``observable`` overrides the runner-level one for this call; with
        ``shots > 0`` each result also carries a measurement histogram
        (seeded per point index, so results are reproducible).
        """
        if self._closed:
            raise RuntimeError("SweepRunner is closed")
        points = list(points)
        if not points:
            return []
        obs = self.observable if observable is None else observable
        child, mirrored = self._ensure_fork()
        results: List[SweepResult] = []
        for index, point in enumerate(points):
            t0 = time.perf_counter()
            self._apply_point(child, mirrored, point)
            child.update_state()
            expectation = child.expectation(obs) if obs is not None else None
            counts = (
                child.counts(shots, seed=None if seed is None else seed + index)
                if shots
                else None
            )
            values = point if isinstance(point, (list, tuple)) else (point,)
            results.append(
                SweepResult(
                    index=index,
                    params=tuple(values),
                    expectation=expectation,
                    counts=counts,
                    seconds=time.perf_counter() - t0,
                    affected_fraction=child.simulator.last_update.affected_fraction,
                )
            )
        return results
