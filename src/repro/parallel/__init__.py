"""The executor that runs an update's plans, and parameter sweeps (pure Python).

The paper implements qTask on top of the Taskflow C++ library: static tasks
express inter-gate operation parallelism, *subflows* (dynamic tasking) express
intra-gate operation parallelism, and a work-stealing scheduler executes the
whole graph with dynamic load balancing (§III.F.1).

This package keeps the intra-gate half:
:class:`~repro.parallel.executor.Executor` runs an update's stage plans in
plan order (seq order) on the calling thread; a plan's chunks -- the only
fan-out -- run inline at ``num_workers=1`` (the default) and over a stdlib
thread pool above it.

Inter-gate (DAG-level) concurrency is not reproduced: with the default
block size a stage is a handful of blocks, the GIL serialises the Python
between kernels, and a work-stealing pool running independent stages
concurrently was measured slower than inline on every row (CHANGES.md,
the executor verdict).  The numpy kernels release the GIL during the heavy
array work, which is where the chunks of one stage overlap (see
docs/architecture.md, section 4).
"""

from .executor import Executor
from .sweep import SweepPoint, SweepResult, SweepRunner

__all__ = [
    "Executor",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]
