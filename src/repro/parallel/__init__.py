"""Parameter sweeps over one forked session (pure Python).

The paper implements qTask on top of the Taskflow C++ library: static tasks
express inter-gate operation parallelism, *subflows* (dynamic tasking) express
intra-gate operation parallelism, and a work-stealing scheduler executes the
whole graph with dynamic load balancing (§III.F.1).  Only the intra-gate half
is kept, and it lives where the plans are made: ``repro.core.update`` runs
an update's stage plans in plan order on the calling thread, and a plan's
chunks -- the only fan-out -- over the session's thread pool above
``num_workers=1``.

What this package holds is :class:`~repro.parallel.sweep.SweepRunner`, which
evaluates a grid of ``update_gate`` points on one copy-on-write fork of a
base session.
"""

from .sweep import SweepPoint, SweepResult, SweepRunner

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]
