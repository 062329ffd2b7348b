"""Taskflow-style task-parallel runtime (pure Python).

The paper implements qTask on top of the Taskflow C++ library: static tasks
express inter-gate operation parallelism, *subflows* (dynamic tasking) express
intra-gate operation parallelism, and a work-stealing scheduler executes the
whole graph with dynamic load balancing (§III.F.1).

This package reproduces that structure in Python:

* :class:`~repro.parallel.taskgraph.TaskGraph` / :class:`~repro.parallel.taskgraph.Task`
  -- the graph programming model (``precede`` / ``succeed`` / subflows),
* :class:`~repro.parallel.executor.WorkStealingExecutor` -- a thread-based
  work-stealing scheduler (per-worker deques, LIFO pop / FIFO steal),
* :class:`~repro.parallel.executor.SequentialExecutor` -- a deterministic
  single-threaded executor used for tests and as the 1-core datapoint of the
  scalability experiments.

The GIL obviously limits speedups for tiny tasks; the numpy kernels release
the GIL during the heavy array work, which is where the available parallelism
lives (see docs/architecture.md, section 4: a stage plan's chunks run as
subflows on the executor's worker threads -- the paper's intra-gate
parallel-for).
"""

from .taskgraph import Task, TaskGraph
from .executor import Executor, SequentialExecutor, WorkStealingExecutor, make_executor
from .sweep import SweepPoint, SweepResult, SweepRunner

__all__ = [
    "Task",
    "TaskGraph",
    "Executor",
    "SequentialExecutor",
    "WorkStealingExecutor",
    "make_executor",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]
