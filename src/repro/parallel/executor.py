"""Executors: sequential and work-stealing execution of task graphs.

The :class:`WorkStealingExecutor` reproduces the execution model qTask gets
from Taskflow (§III.F.1): a fixed pool of worker threads, per-worker deques
with stealing, dependency counters released as predecessors complete, and
subflows (dynamically spawned tasks joined back into their parent).  The
:class:`SequentialExecutor` runs the same graphs deterministically on the
calling thread and doubles as the one-core data point in the scalability
experiments (Figs. 17/18).

``run`` is re-entrant: every invocation carries its own :class:`_RunState`
(pending counter plus dependency map), so independent graphs can execute
concurrently on one shared worker pool (e.g. a session and a fork sharing
its executor, updated from two threads).  A ``run`` issued *from a worker
thread* does not block the pool: the worker keeps taking and executing
queued work from any run until its own graph completes.  Nested runs stay
supported, but nothing in the package issues one any more: ``run_shots``
and :class:`~repro.parallel.sweep.SweepRunner` update their one fork on a
:class:`SequentialExecutor` from the calling thread.

Subflow children execute in spawn order on both executors (depth-first for
nested spawns), so order-sensitive subflows observe the same schedule under
``SequentialExecutor`` and a single-worker ``WorkStealingExecutor``.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core import faults
from ..core.faults import FaultInjected
from ..telemetry import session as tsession
from .taskgraph import Task, TaskGraph
from .workqueue import StealScheduler

__all__ = [
    "Executor",
    "SequentialExecutor",
    "WorkStealingExecutor",
    "make_executor",
]

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
    be a callable: work units carry their label unformatted and only a
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


class Executor(ABC):
    """Common interface: run a task graph, or map a function over items."""

    #: number of worker threads (1 for the sequential executor)
    num_workers: int = 1

    #: task bodies re-run in place after an injected fault (see
    #: ``_TASK_FAULT_RETRIES``); informational, merged into statistics()
    task_retries: int = 0

    def _guarded(self, fn: Callable[[], object]) -> object:
        """Run a task body under the ``executor.task`` fault site.

        Task bodies stamped with a ``trace_context`` attribute -- a
        ``(telemetry, parent_span_id)`` tuple the simulator's plan pipeline
        attaches -- first re-activate that session's telemetry on *this*
        thread (workers steal tasks, so ambient context does not follow)
        and parent any spans the body opens to the caller's span.  Unmarked
        bodies skip all of it on a single ``getattr`` miss.

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
                self.task_retries += 1
                tsession.emit_event("task.retry", attempt=attempt)

    #: how many subflow children a plan-granular task body should hand back:
    #: the simulator's plan pipeline splits one stage's run table into at
    #: most this many chunk subflows.  1 (sequential) keeps a stage's whole
    #: table in one batched backend call -- exactly the submission shape the
    #: batching kernels want; the work-stealing executor widens it to its
    #: worker count so big tables still spread across the pool.
    subflow_width: int = 1

    @abstractmethod
    def run(self, graph: TaskGraph) -> None:
        """Execute every task of ``graph`` respecting its dependencies."""

    @abstractmethod
    def map(self, fn: Callable[[object], object], items: Sequence[object]) -> List[object]:
        """Apply ``fn`` to every item (possibly in parallel), keeping order."""

    def load(self) -> int:
        """Tasks currently queued on this executor (0 when untracked).

        A point-in-time congestion signal: the service layer exposes it as
        the ``service.executor_load`` gauge so operators can tell "queue is
        deep because jobs are big" from "the shared pool is saturated".
        """
        return 0

    def close(self) -> None:  # pragma: no cover - optional
        """Release executor resources (no-op by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialExecutor(Executor):
    """Deterministic single-threaded executor."""

    num_workers = 1

    def run(self, graph: TaskGraph) -> None:
        for task in graph.validate():
            try:
                sub = self._guarded(task.run)
                # Subflow: run spawned callables depth-first, children of one
                # spawn in spawn order (matching the work-stealing executor's
                # single-worker schedule).
                stack = list(reversed(sub or []))
                while stack:
                    fn = stack.pop()
                    result = self._guarded(fn)
                    if callable(result):
                        stack.append(result)
                    elif isinstance(result, (list, tuple)) and all(
                        callable(c) for c in result
                    ):
                        stack.extend(reversed(result))
            except BaseException as exc:
                _attach_task_context(exc, task.name)
                raise

    def map(self, fn, items):
        return [fn(x) for x in items]


class _RunState:
    """Bookkeeping for one ``run`` invocation of the work-stealing executor.

    Each ``run`` owns its state (pending counter *and* dependency map), so
    any number of graphs can be in flight on the shared pool at once.
    """

    __slots__ = ("pending", "lock", "done", "error", "deps", "deps_lock")

    def __init__(self, total: int, deps: Dict[int, int]) -> None:
        self.pending = total
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.error: Optional[BaseException] = None
        #: remaining-predecessor counters of this run's tasks (by task uid)
        self.deps = deps
        self.deps_lock = threading.Lock()

    def task_finished(self, count: int = 1) -> None:
        with self.lock:
            self.pending -= count
            finished = self.pending <= 0
        if finished:
            self.done.set()

    def task_added(self, count: int = 1) -> None:
        with self.lock:
            self.pending += count

    def fail(self, exc: BaseException) -> None:
        with self.lock:
            self.error = self.error or exc
        self.done.set()


class _Work:
    """A schedulable unit: either a graph task or a subflow callable."""

    __slots__ = ("fn", "task", "parent", "state", "label")

    def __init__(
        self,
        fn,
        task: Optional[Task] = None,
        parent: Optional["_Join"] = None,
        state: Optional[_RunState] = None,
        label: Optional[Callable[[], str]] = None,
    ):
        self.fn = fn
        self.task = task
        self.parent = parent
        self.state = state
        #: human-readable identity (task name, or parent task name for
        #: subflow children) attached to any exception this unit raises;
        #: a thunk, formatted by ``_attach_task_context`` on failure only
        if label is None and task is not None:
            label = lambda: task.name
        self.label = label


class _Join:
    """Join counter for a subflow: releases the parent task's successors.

    Every mutation of ``remaining`` happens under ``lock`` -- including
    :meth:`add_children`, used when a child dynamically spawns more children
    into the same join.  An unlocked increment can interleave with a
    finishing sibling's locked decrement, either losing the increment (the
    join never fires) or firing ``on_done`` before the new children ran.
    """

    __slots__ = ("remaining", "lock", "on_done")

    def __init__(self, remaining: int, on_done: Callable[[], None]) -> None:
        self.remaining = remaining
        self.lock = threading.Lock()
        self.on_done = on_done

    def add_children(self, count: int) -> None:
        """Grow the join by ``count`` not-yet-finished children."""
        with self.lock:
            self.remaining += count

    def child_done(self) -> None:
        with self.lock:
            self.remaining -= 1
            fire = self.remaining == 0
        if fire:
            self.on_done()


class WorkStealingExecutor(Executor):
    """Thread-pool executor with per-worker deques and random stealing."""

    def __init__(self, num_workers: Optional[int] = None, *, spin_sleep: float = 5e-5) -> None:
        cpu = os.cpu_count() or 1
        self.num_workers = max(1, int(num_workers) if num_workers else cpu)
        self.subflow_width = self.num_workers
        self._spin_sleep = spin_sleep
        self._scheduler: StealScheduler[_Work] = StealScheduler(self.num_workers)
        self._wakeup = threading.Condition()
        self._shutdown = False
        self._local = threading.local()
        self._threads: List[threading.Thread] = []
        for i in range(self.num_workers):
            t = threading.Thread(target=self._worker_loop, args=(i,), daemon=True,
                                 name=f"qtask-worker-{i}")
            t.start()
            self._threads.append(t)

    # -- worker machinery ---------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        self._local.worker_id = worker_id
        rng = [worker_id * 2654435761 + 1]
        self._local.rng = rng
        while True:
            work = self._scheduler.take(worker_id, rng)
            if work is None:
                with self._wakeup:
                    if self._shutdown:
                        return
                    if self._scheduler.outstanding() == 0:
                        self._wakeup.wait(timeout=0.05)
                if self._shutdown:
                    return
                continue
            self._execute(work, worker_id)

    def _submit(self, work: _Work, worker: Optional[int] = None) -> None:
        self._scheduler.push(work, worker)
        with self._wakeup:
            self._wakeup.notify()

    def _execute(self, work: _Work, worker_id: int) -> None:
        state = work.state
        try:
            if work.task is not None:
                sub = self._guarded(work.task.run)
                if sub:
                    self._spawn_subflow(work.task, list(sub), state, worker_id)
                else:
                    self._release_successors(work.task, state, worker_id)
            else:
                result = self._guarded(work.fn) if work.fn is not None else None
                extra: List[Callable] = []
                if callable(result):
                    extra = [result]
                elif isinstance(result, (list, tuple)) and all(callable(c) for c in result):
                    extra = list(result)
                if extra and work.parent is not None:
                    # Nested subflow: the children join the same parent.  The
                    # increment must hold the join lock -- a finishing sibling
                    # decrements concurrently (see _Join.add_children).
                    work.parent.add_children(len(extra))
                    if state:
                        state.task_added(len(extra))
                    # Reversed submission + LIFO owner pop = spawn order.
                    for fn in reversed(extra):
                        self._submit(
                            _Work(fn, parent=work.parent, state=state,
                                  label=work.label), worker_id
                        )
                if work.parent is not None:
                    work.parent.child_done()
        except BaseException as exc:  # propagate to the waiting run() caller
            _attach_task_context(exc, work.label)
            if state is not None:
                state.fail(exc)
            return
        if state is not None:
            state.task_finished()

    def _spawn_subflow(self, task: Task, children: List[Callable],
                       state: Optional[_RunState], worker_id: int) -> None:
        if state:
            state.task_added(len(children))
        join = _Join(len(children), lambda: self._release_successors(task, state, worker_id))
        label = lambda: f"{task.name}[subflow]"
        if len(children) == 1:
            # Batched block-run bodies usually hand back a single fat child;
            # run it inline on this worker instead of a queue round-trip.
            self._execute(
                _Work(children[0], parent=join, state=state, label=label),
                worker_id,
            )
            return
        # Reversed submission + LIFO owner pop = spawn order on one worker.
        for fn in reversed(children):
            self._submit(_Work(fn, parent=join, state=state, label=label), worker_id)

    def _release_successors(self, task: Task, state: Optional[_RunState],
                            worker_id: int) -> None:
        if state is None:
            return
        deps = state.deps
        for succ in task.successors:
            with state.deps_lock:
                deps[succ.uid] -= 1
                ready = deps[succ.uid] == 0
            if ready:
                self._submit(_Work(None, task=succ, state=state), worker_id)

    # -- public API ----------------------------------------------------------

    def run(self, graph: TaskGraph) -> None:
        graph.validate()
        tasks = graph.tasks
        if not tasks:
            return
        deps = {t.uid: len(t.predecessors) for t in tasks}
        state = _RunState(len(tasks), deps)
        roots = [t for t in tasks if not t.predecessors]
        for i, t in enumerate(roots):
            self._submit(_Work(None, task=t, state=state), i % self.num_workers)
        self._wait(state)
        if state.error is not None:
            raise state.error

    def _wait(self, state: _RunState) -> None:
        """Block until ``state`` completes.

        An external thread parks on the event.  A *worker* thread instead
        keeps executing queued work -- its own run's or any other's -- so a
        nested ``run`` (a forked session updating inside a sweep task) makes
        progress instead of deadlocking the pool.
        """
        worker_id = getattr(self._local, "worker_id", None)
        if worker_id is None:
            state.done.wait()
            return
        rng = self._local.rng
        idle_wait = self._spin_sleep
        while not state.done.is_set():
            work = self._scheduler.take(worker_id, rng)
            if work is None:
                # Exponential backoff: on oversubscribed hosts a tight
                # take/wait spin starves the workers doing real work.
                state.done.wait(timeout=idle_wait)
                idle_wait = min(idle_wait * 2.0, 0.005)
            else:
                idle_wait = self._spin_sleep
                self._execute(work, worker_id)

    def load(self) -> int:
        return self._scheduler.outstanding()

    def map(self, fn, items):
        items = list(items)
        if not items:
            return []
        results: List[object] = [None] * len(items)
        graph = TaskGraph("map")
        for i, item in enumerate(items):
            def make(i=i, item=item):
                def body():
                    results[i] = fn(item)
                return body
            graph.emplace(make(), name=f"map-{i}")
        self.run(graph)
        return results

    def close(self) -> None:
        with self._wakeup:
            self._shutdown = True
            self._wakeup.notify_all()
        for t in self._threads:
            t.join(timeout=1.0)

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass


def make_executor(num_workers: Optional[int] = None) -> Executor:
    """Executor factory: 0/1 workers -> sequential, otherwise work stealing."""
    if num_workers is not None and num_workers <= 1:
        return SequentialExecutor()
    return WorkStealingExecutor(num_workers)
