"""Taskflow-style task graphs and the executor that runs them (pure Python).

The paper implements qTask on top of the Taskflow C++ library: static tasks
express inter-gate operation parallelism, *subflows* (dynamic tasking) express
intra-gate operation parallelism, and a work-stealing scheduler executes the
whole graph with dynamic load balancing (§III.F.1).

This package keeps the programming model and the intra-gate half:

* :class:`~repro.parallel.taskgraph.TaskGraph` / :class:`~repro.parallel.taskgraph.Task`
  -- the graph programming model (``precede`` / ``succeed`` / subflows),
* :class:`~repro.parallel.executor.Executor` -- runs a graph's tasks in
  topological order on the calling thread; a stage task's chunk subflow
  runs inline at ``num_workers=1`` (the default) and over a stdlib thread
  pool above it.

Inter-gate (DAG-level) concurrency is not reproduced: with the default
block size a stage is a handful of blocks, the GIL serialises the Python
between kernels, and a work-stealing pool running independent stages
concurrently was measured slower than inline on every row (CHANGES.md,
the executor verdict).  The numpy kernels release the GIL during the heavy
array work, which is where the chunks of one stage overlap (see
docs/architecture.md, section 4).
"""

from .taskgraph import Task, TaskGraph
from .executor import Executor
from .sweep import SweepPoint, SweepResult, SweepRunner

__all__ = [
    "Task",
    "TaskGraph",
    "Executor",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]
