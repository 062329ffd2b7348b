"""The executor: an update's steps in order, a step's chunks over a pool.

qTask gets two kinds of parallelism from Taskflow's work-stealing pool
(§III.F.1): *inter-gate* (independent stage tasks of the graph run
concurrently) and *intra-gate* (a stage task spawns a subflow of chunks
over its partitions).  Here only the second is kept.  :meth:`Executor.run`
takes an update's steps -- one per stage plan -- in plan order and runs
each body on the calling thread; the chunk closures a body returns run
inline at ``num_workers == 1`` (the default) and, above 1, over a stdlib
thread pool of ``num_workers - 1`` threads with the caller running chunks
too.  The numpy kernels release the GIL during the heavy array work,
which is where the chunks overlap.

Inter-gate concurrency went with the work-stealing runtime that provided
it: timed at the default block size (at most eight blocks per stage, so a
stage is one fat task), neither that runtime nor this chunk pool beat
inline by 10 % on any qft / qaoa / ising row of 12-18 qubits (CHANGES.md,
the executor verdict), hence the inline default.  Plan order needs no
graph walk: every block a plan reads comes from an earlier plan or from
no plan at all.

The join never blocks on a chunk nobody has started: before waiting on a
pooled chunk the caller tries ``Future.cancel()`` and, when that succeeds,
runs the chunk itself.  A ``run`` issued from a pool thread (a nested
session update inside a chunk) therefore completes even when every pool
thread is busy.  Chunks run in list order at width 1.

The executor has no fault recovery of its own: the simulator re-executes a
faulted chunk run by run inside the chunk, so a failure reaching ``run``
is final and carries its step's label.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple, Union

from ..telemetry import session as tsession

__all__ = ["Executor"]

#: a step's label: a string, or a zero-argument callable formatting one
Label = Union[str, Callable[[], str]]


def _attach_task_context(exc: BaseException, label: Optional[Label]) -> None:
    """Stamp the failing step's identity onto ``exc`` before re-raising.

    Sets ``exc.task_label`` (first failure wins) and, on Python >= 3.11,
    adds a traceback note -- so the exception surfacing from ``run()``
    says *which* stage plan died instead of arriving bare.  ``label`` may
    be a callable: steps carry their label unformatted and only a
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
    """Run steps in order, a step's chunks ``num_workers`` wide.

    ``num_workers`` is ``None`` (the default, same as 1) or an ``int`` of
    at least 1; 1 runs everything inline on the calling thread.  Above 1,
    a step's chunks spread over ``num_workers - 1`` pool threads (named
    ``qtask-worker_*``) plus the caller.
    """

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is None:
            num_workers = 1
        elif isinstance(num_workers, bool) or not isinstance(num_workers, int):
            raise TypeError(
                f"num_workers must be None or an int >= 1, got {num_workers!r}"
            )
        elif num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._pool = (
            ThreadPoolExecutor(num_workers - 1, thread_name_prefix="qtask-worker")
            if num_workers > 1
            else None
        )

    def _traced(self, fn: Callable[[], object]) -> object:
        """Run a chunk in the telemetry context it was stamped with.

        A chunk stamped with a ``trace_context`` attribute -- a
        ``(telemetry, parent_span_id)`` tuple the simulator attaches --
        first re-activates that session's telemetry on *this* thread (a
        chunk may run on a pool thread, where ambient context does not
        follow) and parents any spans it opens to the caller's span.
        Unmarked chunks skip all of it on a single ``getattr`` miss.
        """
        ctx = getattr(fn, "trace_context", None)
        if ctx is None:
            return fn()
        telemetry, parent_span = ctx
        prev_tel = tsession.activate(telemetry)
        tracer = telemetry.tracer
        prev_span = tracer.attach(parent_span) if tracer.enabled else None
        try:
            return fn()
        finally:
            if tracer.enabled:
                tracer.detach(prev_span)
            tsession.deactivate(prev_tel)

    def run(self, steps: Iterable[Tuple[Callable[[], object], Label]]) -> None:
        """Run ``(body, label)`` steps in order.

        Each body runs on the calling thread and returns ``None`` or a
        list of chunk callables, which all finish (see :meth:`_join`)
        before the next step starts.  A failure carries its step's label
        as ``task_label``.
        """
        for body, label in steps:
            try:
                chunks = body()
                if chunks:
                    self._join(chunks)
            except BaseException as exc:
                _attach_task_context(exc, label)
                raise

    def _join(self, chunks: List[Callable[[], object]]) -> None:
        """Run ``chunks`` to completion; the first error raises after all stop.

        Inline when there is no pool.  Otherwise every chunk but the first
        is submitted; the caller runs the first, then runs each submitted
        chunk no pool thread has started yet (a successful ``cancel()``),
        and only then waits on the rest.  After a failure no further chunk
        is started, but the running ones finish before the error raises, so
        nothing writes behind the caller's back.
        """
        pool = self._pool
        if pool is None:
            for fn in chunks:
                self._traced(fn)
            return
        futures = [pool.submit(self._traced, fn) for fn in chunks[1:]]
        error: Optional[BaseException] = None
        for fn, future in zip(chunks, [None, *futures]):
            if future is not None and not future.cancel():
                continue  # a pool thread has it
            if error is None:
                try:
                    self._traced(fn)
                except BaseException as exc:
                    error = exc
        for future in futures:
            if not future.cancelled():
                exc = future.exception()  # waits for a running chunk
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
