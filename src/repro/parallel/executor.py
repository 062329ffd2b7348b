"""The executor: a task graph run in topological order, chunks over a pool.

qTask gets two kinds of parallelism from Taskflow's work-stealing pool
(§III.F.1): *inter-gate* (independent stage tasks of the graph run
concurrently) and *intra-gate* (a stage task spawns a subflow of chunks
over its partitions).  Here only the second is kept.  :meth:`Executor.run`
walks the graph's topological order on the calling thread; a task's
subflow children -- the chunk closures of one stage plan -- run inline at
``num_workers == 1`` (the default) and, above 1, over a stdlib thread pool
of ``num_workers - 1`` threads with the caller running chunks too.  The
numpy kernels release the GIL during the heavy array work, which is where
the chunks overlap.

Inter-gate concurrency went with the work-stealing runtime that provided
it: timed at the default block size (at most eight blocks per stage, so a
stage is one fat task), neither that runtime nor this chunk pool beat
inline by 10 % on any qft / qaoa / ising row of 12-18 qubits (CHANGES.md,
the executor verdict), hence the inline default.

The join never blocks on a chunk nobody has started: before waiting on a
pooled chunk the caller tries ``Future.cancel()`` and, when that succeeds,
runs the chunk itself.  A ``run`` issued from a pool thread (a nested
session update inside a chunk) therefore completes even when every pool
thread is busy.  Children run in spawn order at width 1 (depth-first for
nested spawns, which join the same subflow).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Union

from ..core import faults
from ..core.faults import FaultInjected
from ..telemetry import session as tsession
from .taskgraph import TaskGraph

__all__ = ["Executor"]

#: bounded in-place retries of a task body that hit an injected fault.
#: Task bodies write disjoint output ranges (the contract that makes the
#: graph parallelisable in the first place), so re-running one is safe; the
#: bound keeps a pathological plan from spinning forever -- past it the
#: fault propagates to ``run()`` and the simulator's update-level retry.
_TASK_FAULT_RETRIES = 3


def _attach_task_context(
    exc: BaseException, label: Union[None, str, Callable[[], str]]
) -> None:
    """Stamp the failing task's identity onto ``exc`` before re-raising.

    Sets ``exc.task_label`` (first failure wins) and, on Python >= 3.11,
    adds a traceback note -- so the exception surfacing from ``run()``
    says *which* stage/task died instead of arriving bare.  ``label`` may
    be a callable: tasks carry their label unformatted and only a
    failure pays for the string.
    """
    if label is None or getattr(exc, "task_label", None) is not None:
        return
    if not isinstance(label, str):
        label = label()
    if not label:
        return
    try:
        exc.task_label = label
    except (AttributeError, TypeError):  # pragma: no cover - slotted exc
        return
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(f"raised by executor task {label!r}")


class Executor:
    """Run a task graph, or map a function over items, ``num_workers`` wide.

    ``num_workers`` of ``None``, 0 or 1 runs everything inline on the
    calling thread.  Above 1, subflow children and :meth:`map` items spread
    over ``num_workers - 1`` pool threads (named ``qtask-worker_*``) plus
    the caller.
    """

    def __init__(self, num_workers: Optional[int] = None) -> None:
        self.num_workers = max(1, int(num_workers or 1))
        #: task bodies re-run in place after an injected fault (see
        #: ``_TASK_FAULT_RETRIES``); informational, merged into statistics()
        self.task_retries = 0
        self._retry_lock = threading.Lock()
        self._pool = (
            ThreadPoolExecutor(self.num_workers - 1, thread_name_prefix="qtask-worker")
            if self.num_workers > 1
            else None
        )

    def _guarded(self, fn: Callable[[], object]) -> object:
        """Run a task body under the ``executor.task`` fault site.

        Task bodies stamped with a ``trace_context`` attribute -- a
        ``(telemetry, parent_span_id)`` tuple the simulator's plan pipeline
        attaches -- first re-activate that session's telemetry on *this*
        thread (a chunk may run on a pool thread, where ambient context does
        not follow) and parent any spans the body opens to the caller's
        span.  Unmarked bodies skip all of it on a single ``getattr`` miss.

        With no fault plan installed the fault envelope is one global-load
        branch around ``fn()``; with one armed, injected faults trigger
        bounded in-place retries (task bodies are idempotent by the
        disjoint-writes contract) before propagating.
        """
        ctx = getattr(fn, "trace_context", None)
        if ctx is None:
            # graph tasks arrive as the bound ``Task.run`` method; the
            # stamped closure is the task's ``fn``
            task = getattr(fn, "__self__", None)
            if task is not None:
                ctx = getattr(getattr(task, "fn", None), "trace_context", None)
        if ctx is None:
            return self._run_guarded(fn)
        telemetry, parent_span = ctx
        prev_tel = tsession.activate(telemetry)
        tracer = telemetry.tracer
        prev_span = tracer.attach(parent_span) if tracer.enabled else None
        try:
            return self._run_guarded(fn)
        finally:
            if tracer.enabled:
                tracer.detach(prev_span)
            tsession.deactivate(prev_tel)

    def _run_guarded(self, fn: Callable[[], object]) -> object:
        if faults.ACTIVE is None:
            return fn()
        attempt = 0
        while True:
            try:
                faults.fire("executor.task")
                return fn()
            except FaultInjected:
                attempt += 1
                if attempt > _TASK_FAULT_RETRIES:
                    raise
                with self._retry_lock:  # chunks retry on several threads
                    self.task_retries += 1
                tsession.emit_event("task.retry", attempt=attempt)

    def run(self, graph: TaskGraph) -> None:
        """Execute every task of ``graph`` in topological order.

        A task returning callables spawns a subflow: its children all
        finish (see :meth:`_join`) before the next task starts.
        """
        for task in graph.validate():
            try:
                children = self._guarded(task.run)
                if children:
                    self._join(children)
            except BaseException as exc:
                _attach_task_context(exc, task.name)
                raise

    def map(self, fn: Callable[[object], object], items: Sequence[object]) -> List[object]:
        """Apply ``fn`` to every item (over the pool when wider than 1), keeping order."""
        items = list(items)
        results: List[object] = [None] * len(items)

        def body(i: int) -> Callable[[], None]:
            def run() -> None:
                results[i] = fn(items[i])
            return run

        if items:
            self._join([body(i) for i in range(len(items))])
        return results

    def _expand(self, fn: Callable[[], object]) -> None:
        """Run one child and, depth-first in spawn order, whatever it spawns."""
        stack = [fn]
        while stack:
            result = self._guarded(stack.pop())
            if callable(result):
                stack.append(result)
            elif isinstance(result, (list, tuple)) and all(callable(c) for c in result):
                stack.extend(reversed(result))

    def _join(self, children: List[Callable[[], object]]) -> None:
        """Run ``children`` to completion; the first error raises after all stop.

        Inline when there is no pool.  Otherwise every child but the first
        is submitted; the caller runs the first, then runs each submitted
        child no pool thread has started yet (a successful ``cancel()``),
        and only then waits on the rest.  After a failure no further child
        is started, but the running ones finish before the error raises, so
        nothing writes behind the caller's back.
        """
        pool = self._pool
        if pool is None:
            for fn in children:
                self._expand(fn)
            return
        futures = [pool.submit(self._expand, fn) for fn in children[1:]]
        error: Optional[BaseException] = None
        for fn, future in zip(children, [None, *futures]):
            if future is not None and not future.cancel():
                continue  # a pool thread has it
            if error is None:
                try:
                    self._expand(fn)
                except BaseException as exc:
                    error = exc
        for future in futures:
            if not future.cancelled():
                exc = future.exception()  # waits for a running child
                error = error or exc
        if error is not None:
            raise error

    def close(self) -> None:
        """Stop the pool's threads (a no-op inline)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
