"""Batch-major execution plans: the dirty frontier as run tables.

The dirty frontier of one update is described *once*, as a handful of
batch-major structures, rather than as a task or a Python closure per
affected block run:

* :class:`RunTable` -- the runs of one stage packed into contiguous arrays
  (``los``/``his``) under the one :class:`PlanOp` every run applies, the
  shape the slab backend consumes whole.  Every stage kind applies one
  operation (``Stage.plan_op``) to all of its runs, so ``Stage.emit_table``
  is the bounds of the planned block ranges -- shared per range tuple and
  geometry -- plus that operation; nothing is built per run.
* :class:`StagePlan` -- one affected stage: its reader, whether its sync
  step (a collapse's draw) must run, and the block ranges to recompute.  For
  static stages (unitary and dense stages, whose operation depends on
  nothing drawn at execution time) the table is emitted eagerly at
  plan-build time; dynamic stages defer emission until their controlling
  outcomes are drawn.  A *coalesced run* -- consecutive diagonal / monomial
  stages swept whole, measure and reset included -- is one stage plan too
  (:meth:`StagePlan.for_run`): one table applying the members' composed
  action to the union of their covers, read as of the first member and
  published through a store that routes every block to the last member
  declaring it.  A superposition stage right after such a run closes it as
  its last member: the table's operation then carries that stage's dense
  steps too, applied to the same buffer before the one publish.  Those
  parts live on the run's record (``graph.StageRun``), so a run the next
  update meets again is planned from its record as it is.  A run holding
  collapses composes after its sync step drew them.
* :class:`ExecutionPlan` -- every stage plan of one update, emitted in seq
  order by the partition graph's frontier sweep
  (``PartitionGraph.sweep``); its source pass
  (``PartitionGraph.plan_sources``) reads each plan's inputs off the stage
  covers, all from earlier plans or unplanned stages.

:mod:`repro.core.update` then runs the stage plans in plan order, each
table split into at most ``num_workers`` chunks, and the slab backend
(:class:`~repro.core.kernels.NumpyBatchBackend`) executes each chunk in
bulk.

This module is pure data/plumbing: it imports no kernels and no threads,
so the slab backend in :mod:`repro.core.kernels` and the orchestration in
:mod:`repro.core.update` can both build on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RUN_ACTION",
    "RUN_DENSE",
    "RUN_COPY",
    "PlanOp",
    "RunTable",
    "StagePlan",
    "ExecutionPlan",
    "PlanReport",
]

#: Apply a classified (diagonal/monomial) action to the range.
RUN_ACTION = 0
#: Apply a superposition stage's ``(qubits, matrix)`` steps to the range's
#: window (``kernels.apply_dense``).
RUN_DENSE = 1
#: Identity-copy the range from the stage input (condition-false c_if).
RUN_COPY = 2


class PlanOp(NamedTuple):
    """The operation of a run table (shared by all of its runs)."""

    kind: int
    qubits: Tuple[int, ...]
    op: object
    #: of a run closed by a superposition stage (``RUN_ACTION`` only): that
    #: stage's ``(steps, tile)``, applied (``kernels.apply_dense``) to what
    #: ``op`` left in the same buffer
    dense: object = None


class RunTable:
    """The runs of one stage packed into contiguous arrays under one operation.

    ``los``/``his`` are the inclusive amplitude bounds per run and ``op``
    the :class:`PlanOp` every run applies -- the batch-major layout the
    slab backend consumes whole, in a handful of stacked array ops.
    """

    __slots__ = ("op", "los", "his")

    def __init__(self, op: PlanOp, los: np.ndarray, his: np.ndarray) -> None:
        self.op = op
        self.los = los
        self.his = his

    @property
    def num_runs(self) -> int:
        return int(self.los.shape[0])

    def split(self, parts: int) -> List["RunTable"]:
        """At most ``parts`` contiguous sub-tables covering every run.

        Runs of one stage write disjoint ranges, so the sub-tables can
        execute concurrently; the operation is shared by reference.
        """
        n = self.num_runs
        parts = max(1, min(int(parts), n)) if n else 1
        if parts <= 1:
            return [self]
        bounds = np.linspace(0, n, parts + 1, dtype=np.int64)
        return [
            RunTable(self.op, self.los[a:b], self.his[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunTable(runs={self.num_runs}, kind={self.op.kind})"


class StagePlan:
    """Everything one stage -- or one coalesced run of stages -- contributes
    to an update's execution plan."""

    __slots__ = (
        "stage",
        "members",
        "store",
        "reader",
        "has_sync",
        "block_ranges",
        "mask",
        "_static_table",
        "run",
        "reused",
        "gathers",
        "emitted_runs",
        "num_chunks",
    )

    def __init__(
        self,
        stage,
        block_ranges: Sequence[object] = (),
        has_sync: bool = False,
        mask: int = 0,
    ) -> None:
        #: the stage whose input the plan reads (a run's first member)
        self.stage = stage
        #: the stages the plan executes, seq ascending
        self.members: Tuple[object, ...] = (stage,)
        #: where the plan's kernels publish
        self.store = stage.store
        #: the stage-input view, attached once the block sources are resolved
        self.reader = None
        #: the plan holds a collapse: its sync step reads everything and
        #: draws before the table is emitted
        self.has_sync = has_sync
        #: block ranges of the affected partitions (of a run: of the union of
        #: the members' covers), ascending
        self.block_ranges = block_ranges
        #: the blocks of :attr:`block_ranges` as a bitmask
        self.mask = mask
        #: table emitted at build time for static stages; ``None`` defers
        #: emission to execution time (after the sync step drew)
        self._static_table: Optional[RunTable] = None
        #: of a coalesced run: its record (``graph.StageRun``), which
        #: composes the table -- at build time, or after the sync step drew
        #: when the run holds a collapse
        self.run = None
        #: the run is a record an earlier update formed, emitted whole
        self.reused = False
        #: of a run whose composed operation was not in the cache (composing
        #: it was part of building this plan): the gathers it took
        self.gathers: Optional[int] = None
        #: filled in by the executing task body (one writer, read after join)
        self.emitted_runs = 0
        self.num_chunks = 0

    @classmethod
    def for_run(cls, run) -> "StagePlan":
        """One plan standing for a run record's consecutive stages, each
        planned whole: the run's table computes every block any of them
        writes (the union of their covers) from the first one's input, and
        its store hands each block to the member owning it."""
        sp = cls(run.members[0], run.ranges, run.has_sync, run.cover)
        sp.members = run.members
        sp.store = run.store
        sp.run = run
        return sp

    @property
    def recomposed(self) -> bool:
        """The run's composed operation was not in the cache."""
        return self.gathers is not None

    @property
    def block_writes(self) -> int:
        """Blocks the plan publishes."""
        return bin(self.mask).count("1")

    def label(self) -> str:
        head = self.stage.label()
        extra = len(self.members) - 1
        return f"{head} (+{extra} coalesced)" if extra else head

    def freeze_static(self) -> None:
        """Pre-emit the table of a stage -- or a run without collapses --
        whose operation is input-independent."""
        if self._static_table is not None or self.has_sync:
            return
        if self.run is not None:
            self._static_table, self.gathers = self.run.compose()
        elif getattr(self.stage, "plan_static", False):
            self._static_table = self.stage.emit_table(self.block_ranges)

    def build_table(self) -> RunTable:
        """The stage's run table (static, or emitted now, after the draws)."""
        table = self._static_table
        if table is None and self.run is not None:
            table, self.gathers = self.run.compose()
        elif table is None:
            table = self.stage.emit_table(self.block_ranges)
        self.emitted_runs = table.num_runs
        return table


class ExecutionPlan:
    """One update's worth of stage plans, in the order they run."""

    __slots__ = (
        "stage_plans",
        "affected_partitions",
        "written",
        "first_seq",
        "stages_swept",
        "redraw_from",
    )

    def __init__(
        self,
        stage_plans: List[StagePlan],
        *,
        affected_partitions: int = 0,
        written: int = 0,
        first_seq: int = 0,
        stages_swept: int = 0,
        redraw_from: int = 0,
    ) -> None:
        #: affected stages (and coalesced runs of them), seq ascending
        self.stage_plans = stage_plans
        #: affected partitions plus one per affected sync barrier, counted
        #: per member stage whether or not the stages were coalesced
        self.affected_partitions = affected_partitions
        #: bitmask of the blocks the affected partitions write
        self.written = written
        #: where the sweep started and how many stages it looked at
        self.first_seq = first_seq
        self.stages_swept = stages_swept
        #: the first seq an edit or a re-armed trajectory made stale: a
        #: collapse before it re-executes only because its run did, so it
        #: replays its recorded outcome instead of drawing again
        self.redraw_from = redraw_from

    @property
    def num_stages(self) -> int:
        return len(self.stage_plans)

    @property
    def block_writes(self) -> int:
        """Blocks the plan's kernels publish (a run's union cover, once)."""
        return sum(sp.block_writes for sp in self.stage_plans)

    def runs(self) -> List[StagePlan]:
        """The stage plans that stand for more than one stage."""
        return [sp for sp in self.stage_plans if len(sp.members) > 1]

    def coalesced(self) -> Tuple[int, int, int, int, int, int, int, int, int]:
        """``(stages, collapses, runs, largest run, widest union in qubits,
        runs recomposed, runs reused, gathers, runs closed)`` of the
        coalesced runs; ``collapses`` counts the measure / reset members
        among ``stages``, ``reused`` the runs emitted whole from their
        records, ``gathers`` those the recomposed ones took, ``closed`` the
        runs a superposition stage closed."""
        runs = self.runs()
        return (
            sum(len(sp.members) for sp in runs),
            sum(s.reads_all_blocks() for sp in runs if sp.has_sync for s in sp.members),
            len(runs),
            max((len(sp.members) for sp in runs), default=0),
            max((len(sp.run.qubits) for sp in runs), default=0),
            sum(sp.recomposed for sp in runs),
            sum(sp.reused for sp in runs),
            sum(sp.gathers or 0 for sp in runs),
            sum(sp.run.tail is not None for sp in runs),
        )

    def static_runs(self) -> int:
        """Runs already emitted at plan time (the frozen static tables)."""
        return sum(
            sp._static_table.num_runs
            for sp in self.stage_plans
            if sp._static_table is not None
        )

    def total_runs(self) -> int:
        return sum(sp.emitted_runs for sp in self.stage_plans)

    def total_chunks(self) -> int:
        return sum(sp.num_chunks for sp in self.stage_plans)


@dataclass(frozen=True)
class PlanReport:
    """Dispatch-overhead accounting of the plan pipeline (one session).

    The :class:`~repro.core.cow.MemoryReport` sibling for execution plans:
    how many plans were compiled, how many runs they batched, how many
    chunks their tables were split into and the one fault recovery's
    counts: how often a faulted chunk was re-executed run by run
    (``backend_fallbacks``) and how often a run was retried in place there
    (``run_retries``).  ``runs_per_plan`` is the headline number
    -- the dispatch work one stage plan absorbs.
    """

    plans_built: int
    runs_batched: int
    plan_chunks: int
    backend_fallbacks: int
    updates_planned: int
    #: per-run re-executions after an injected fault inside the
    #: run-granular fallback loop
    run_retries: int = 0
    #: stages that executed as members of a coalesced run (``plans_built``
    #: counts such a run once)
    stages_coalesced: int = 0

    @property
    def runs_per_plan(self) -> float:
        if self.plans_built == 0:
            return 0.0
        return self.runs_batched / self.plans_built

    def as_dict(self) -> Dict[str, object]:
        return {
            "plans_built": self.plans_built,
            "runs_batched": self.runs_batched,
            "stages_coalesced": self.stages_coalesced,
            "plan_chunks": self.plan_chunks,
            "backend_fallbacks": self.backend_fallbacks,
            "updates_planned": self.updates_planned,
            "runs_per_plan": self.runs_per_plan,
            "run_retries": self.run_retries,
        }
