"""Batched parameter sweeps over forked copy-on-write sessions.

A variational workload evaluates the same circuit at many parameter points.
PR 3's retune path makes each point cheap *sequentially* (``update_gate`` +
incremental ``update_state``); :class:`SweepRunner` makes the points cheap
*concurrently*: it forks the base session into a small fleet of
copy-on-write children (:meth:`repro.QTask.fork` -- zero amplitude copies,
shared executor), deals the grid across the fleet round-robin, and runs one
chunk per fork as tasks on the shared
:class:`~repro.parallel.executor.WorkStealingExecutor`.  Each fork carries
its own observables cache, so per-point expectations stay incremental
within a chunk, and every nested ``update_state`` issued from a sweep task
re-enters the same executor (worker threads help instead of blocking, see
``WorkStealingExecutor._wait``).

Results are gathered back in submission order regardless of which fork or
worker computed them.

Points must set parameters *absolutely* (every handle gets a value at every
point) -- that is what makes dealing points across forks order-independent.
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
    fork: int
    affected_fraction: float = 0.0


class SweepRunner:
    """Fan a grid of ``update_gate`` variants across forked sessions.

    ``session`` is a :class:`repro.QTask` (or anything exposing ``fork`` /
    ``update_gate`` / ``update_state`` / ``expectation`` / ``counts``);
    ``handles`` are the tunable gate handles *of that session*.  Each call
    to :meth:`run` takes a list of points -- one parameter entry per handle,
    either a float or a tuple of floats -- and returns one
    :class:`SweepResult` per point, in submission order.

    >>> runner = SweepRunner(ckt, [g1, g2], observable="ZZ")   # doctest: +SKIP
    >>> results = runner.run([(0.1, 0.5), (0.2, 0.4)])         # doctest: +SKIP

    The fork fleet is created lazily on first use (at most
    ``num_forks`` children, default the executor's worker count) and reused
    across ``run`` calls; :meth:`close` releases it.
    """

    def __init__(
        self,
        session,
        handles: Sequence[object],
        *,
        observable=None,
        num_forks: Optional[int] = None,
        nested_parallelism: bool = False,
        kernel_backend: Optional[object] = None,
        store_transport: Optional[object] = None,
    ) -> None:
        self.session = session
        self.handles = list(handles)
        self.observable = observable
        if num_forks is not None and num_forks < 1:
            raise ValueError(f"num_forks must be positive, got {num_forks}")
        self.num_forks = num_forks
        #: kernel backend handed to every fleet member; ``None`` inherits the
        #: base session's backend object
        self.kernel_backend = kernel_backend
        #: store transport handed to every fleet member; ``None`` inherits
        #: the base session's transport *object*, so a sharded fleet aliases
        #: one set of shard payloads instead of spawning processes per fork.
        self.store_transport = store_transport
        #: with False (default) each fork updates on its own
        #: SequentialExecutor -- one sweep point is one coarse task and the
        #: shared pool parallelises *across* forks, which is both faster
        #: (no nested-run scheduling) and exactly one point per worker.
        #: True keeps the forks on the shared pool, so a single point's
        #: partitions also spread over idle workers (useful when the grid
        #: is smaller than the pool).
        self.nested_parallelism = bool(nested_parallelism)
        #: (forked session, its mirrors of ``handles``) per fleet member
        self._forks: List[Tuple[object, List[object]]] = []
        #: the base session's state epoch the current fleet was forked from
        self._fleet_epoch: Optional[Tuple[int, bool]] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close every forked session (the shared executor stays alive)."""
        for child, _ in self._forks:
            child.close()
        self._forks.clear()
        self._closed = True

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def active_forks(self) -> int:
        return len(self._forks)

    def merged_metrics(self):
        """Fleet-wide metrics: base session + every live fork, merged.

        Forked sessions own their own registries (tagged with the base
        session's id), so their counters are not silently lost when the
        fleet is rebuilt or closed mid-sweep -- but they are also not
        visible on the base session.  This folds the whole family into one
        fresh :class:`~repro.telemetry.MetricsRegistry` (counters and
        histograms accumulate; gauges keep the base session's reading)
        without mutating any live registry.
        """
        from ..telemetry import MetricsRegistry

        base = self.session.simulator.telemetry.metrics
        merged = MetricsRegistry(
            session_id=base.session_id,
            parent_session_id=base.parent_session_id,
        )
        merged.merge(base)
        for child, _ in self._forks:
            merged.merge(child.simulator.telemetry.metrics)
        return merged

    def _ensure_forks(self, wanted: int) -> None:
        from .executor import SequentialExecutor

        # The fleet snapshots the base session at fork time; if the session
        # was edited since (pending modifiers or further updates), cached
        # forks describe a stale state -- rebuild the whole fleet rather
        # than silently mixing base states across points.
        epoch = getattr(self.session.simulator, "state_epoch", None)
        if self._forks and epoch != self._fleet_epoch:
            for child, _ in self._forks:
                child.close()
            self._forks.clear()
        while len(self._forks) < wanted:
            inner = None if self.nested_parallelism else SequentialExecutor()
            child = self.session.fork(
                executor=inner,
                kernel_backend=self.kernel_backend,
                store_transport=self.store_transport,
            )
            mirrored = [child.handle_for(h) for h in self.handles]
            self._forks.append((child, mirrored))
        # fork() flushes pending parent modifiers, so read the epoch after.
        self._fleet_epoch = getattr(self.session.simulator, "state_epoch", None)

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
        """Evaluate every point, batched across the fork fleet.

        ``observable`` overrides the runner-level one for this call; with
        ``shots > 0`` each result also carries a measurement histogram
        (seeded per point index, so results are reproducible regardless of
        which fork served the point).  Results come back in submission
        order.
        """
        if self._closed:
            raise RuntimeError("SweepRunner is closed")
        points = list(points)
        if not points:
            return []
        obs = self.observable if observable is None else observable
        executor = self.session.simulator.executor
        workers = max(1, int(getattr(executor, "num_workers", 1)))
        limit = workers if self.num_forks is None else self.num_forks
        fleet = max(1, min(len(points), limit))
        self._ensure_forks(fleet)

        # Round-robin deal: fork f serves points f, f+fleet, ...  Points set
        # every handle absolutely, so a fork's chunk is history-independent.
        chunks: List[List[Tuple[int, SweepPoint]]] = [
            [(i, p) for i, p in enumerate(points) if i % fleet == f]
            for f in range(fleet)
        ]

        def run_chunk(fork_id: int) -> List[SweepResult]:
            child, mirrored = self._forks[fork_id]
            out: List[SweepResult] = []
            for index, point in chunks[fork_id]:
                t0 = time.perf_counter()
                self._apply_point(child, mirrored, point)
                child.update_state()
                expectation = (
                    child.expectation(obs) if obs is not None else None
                )
                counts = (
                    child.counts(
                        shots, seed=None if seed is None else seed + index
                    )
                    if shots
                    else None
                )
                values = point if isinstance(point, (list, tuple)) else (point,)
                out.append(
                    SweepResult(
                        index=index,
                        params=tuple(values),
                        expectation=expectation,
                        counts=counts,
                        seconds=time.perf_counter() - t0,
                        fork=fork_id,
                        affected_fraction=(
                            child.simulator.last_update.affected_fraction
                        ),
                    )
                )
            return out

        results: List[Optional[SweepResult]] = [None] * len(points)
        for chunk_results in executor.map(run_chunk, list(range(fleet))):
            for result in chunk_results:
                results[result.index] = result
        return results  # type: ignore[return-value]
