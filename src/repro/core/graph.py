"""The partition graph: declared covers, pending dirt and the frontier sweep.

This module implements §III.D (circuit modifiers) and §III.E (incremental
update) of the paper:

* every stage contributes *partitions* (plus a ``sync`` barrier when it reads
  the whole previous state vector); what it declares is recorded once, when
  the stage enters the graph;
* a connection exists between two partitions of different stages when they
  are the *closest pair of overlapped blocks*.  Those pairs are not stored,
  nor is anything per block: each stage's **cover** (the bitmask of the
  blocks it declares) is, and whole-mask walks over the covers find the
  closest declarers of any set of blocks;
* circuit modifiers leave **pending dirt** -- ``{anchor stage: block
  bitmask}``, "these blocks are stale as input to this stage": an inserted,
  retuned or re-armed stage marks its own blocks, a removed one hands its
  blocks (and any dirt it carried) to the stage that took its place;
* the partitions affected by a sequence of modifiers -- everything reachable
  from the paper's frontier list over closest-overlap edges -- are found by
  one forward sweep in seq order that carries the dirty block set along
  (:meth:`PartitionGraph.sweep`);
* consecutive stages an update executed as one **coalesced run** are on
  record (:meth:`PartitionGraph.runs`): within a run each block is held by
  the last member declaring it only, so the state *between* two members is
  not available and a run is recomputed whole or not at all -- the sweep
  widens to every member as soon as dirt reaches the run and emits the
  record's one plan, a retune or re-armed collapse inside a run dirties the
  run at its head, and an insert inside a run or a removal dissolves the
  record and marks every member dirty;
* nodes and edges are a *derived view* of the covers, computed on demand
  for statistics, DOT export and tests.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence,
    Set, TextIO, Tuple,
)

import numpy as np

from .blocks import (
    MAX_RUN_BLOCKS, MAX_RUN_QUBITS, MAX_RUN_STAGES, BlockRange, mask_ranges,
)
from .cow import BlockStore, RoutedStore
from .exec_plan import ExecutionPlan, RunTable, StagePlan
from .partition import PartitionSpec
from .stage import (
    DynamicStage, MatVecStage, MeasureStage, ResetStage, Stage, UnitaryStage,
    coalesced_table, run_tail,
)

__all__ = ["PartitionNode", "PartitionGraph", "GraphStats", "StageRun"]


class PartitionNode(NamedTuple):
    """One partition (or sync barrier) in the derived node view."""

    stage: Stage
    block_range: BlockRange
    is_sync: bool = False

    def name(self) -> str:
        base = self.stage.label()
        if self.is_sync:
            return f"sync[{base}]"
        return f"{base} {self.block_range}"


class StageLayout(NamedTuple):
    """What a stage declared when it entered the graph.

    Captured at insert and never re-asked: a matrix--vector stage emptied of
    its last gate answers ``partition_specs() == []`` by the time it is
    removed, and the graph must forget exactly what it registered.
    """

    specs: Tuple[PartitionSpec, ...]
    #: one block bitmask per partition, and their union
    masks: Tuple[int, ...]
    cover: int
    #: the stage reads the whole previous vector behind a sync barrier (and,
    #: like every such stage, declares every block)
    full_read: bool

    @property
    def num_nodes(self) -> int:
        return len(self.specs) + self.full_read


class StageRun:
    """Consecutive stages the last update executed as one coalesced run --
    and, for as long as the record lives, that run's plan.

    The parts a plan of the run needs are derived once per record, from
    the members' layouts (:meth:`derive`): the block ranges of the union
    cover, the affected partitions it counts, the store routing each block
    to the last member declaring it, and the union of the composed members'
    qubits -- all but the :attr:`tail`, a superposition stage that closed
    the run, which declares every block and so owns them all.
    A record an update formed derives them for its plan; one a fork mirrors
    or a checkpoint adopts, on first reuse.  The composed table of a run
    without collapses is kept too, until a member is rebound.
    """

    __slots__ = (
        "members", "cover", "ranges", "nodes", "store", "qubits", "has_sync",
        "table", "tail",
    )

    def __init__(self, members: Tuple[Stage, ...], cover: int) -> None:
        #: seq ascending and seq-adjacent for as long as the record lives
        self.members = members
        #: the superposition stage closing the run, if one does (the last
        #: member; ``Updater.coalesce`` says when)
        self.tail: Optional[MatVecStage] = run_tail(members)[1]
        #: union of the members' block covers
        self.cover = cover
        #: the derived parts; ``store`` is ``None`` until :meth:`derive`
        self.ranges: List[BlockRange] = []
        self.nodes = 0
        self.store: Optional[RoutedStore] = None
        self.qubits: FrozenSet[int] = frozenset()
        self.has_sync = False
        #: the composed table, while no member has been rebound since
        self.table: Optional[RunTable] = None

    def derive(self, layouts: Sequence[StageLayout]) -> "StageRun":
        """Fill in the plan parts from the members' layouts (seq order)."""
        self.ranges = mask_ranges(self.cover)
        self.nodes = sum(layout.num_nodes for layout in layouts)
        self.store = RoutedStore(
            [stage.store for stage in self.members],
            _owned_masks([layout.cover for layout in layouts], self.cover),
        )
        composed, _ = run_tail(self.members)
        self.qubits = frozenset(q for stage in composed for q in stage.qubits)
        self.has_sync = any(layout.full_read for layout in layouts)
        return self

    def compose(self) -> Tuple[RunTable, Optional[int]]:
        """The run's table, and the gathers composing it took now (``None``:
        it came from the composite cache or this record).  A run holding
        collapses composes after every draw, so only the others keep theirs."""
        if self.table is not None:
            return self.table, None
        table, gathers = coalesced_table(self.members, self.ranges)
        if not self.has_sync:
            self.table = table
        return table, gathers


def _owned_masks(covers: Sequence[int], union: int) -> List[int]:
    """What each of a run's members owns of the run's ``union`` cover, given
    their ``covers`` in seq order: the blocks it is the last to declare."""
    owned = [0] * len(covers)
    for i in range(len(covers) - 1, -1, -1):
        owned[i] = covers[i] & union
        union &= ~owned[i]
        if not union:
            break
    return owned


class GraphStats(NamedTuple):
    """Lightweight counters describing the current partition graph."""

    num_stages: int
    num_nodes: int
    num_edges: int
    num_frontiers: int

    def as_dict(self) -> Dict[str, int]:
        return self._asdict()


class PartitionGraph:
    """Ordered stages, what each declares, and the dirt pending on them."""

    def __init__(
        self,
        full_block_range: BlockRange,
        *,
        on_stage_inserted: Optional[Callable[[Stage], None]] = None,
        on_stage_removed: Optional[Callable[[Stage], None]] = None,
    ) -> None:
        self._stages: List[Stage] = []
        self._layouts: Dict[int, StageLayout] = {}
        self._full_range = full_block_range
        self._num_nodes = 0
        #: pending dirt: anchor stage -> bitmask of the blocks that are stale
        #: as input to it.  Anchored by stage identity, never by seq --
        #: mid-circuit inserts renumber.  Never holds an empty mask.
        self._pending: Dict[Stage, int] = {}
        #: the anchors of pending dirt an edit or a re-armed trajectory left
        #: (not only a dissolved run): collapses from the first of them on
        #: draw again, earlier ones replay (``ExecutionPlan.redraw_from``)
        self._edited: Set[Stage] = set()
        #: the coalesced run each member stage was last executed in.  An
        #: earlier member holds nothing of a block a later one declares, so
        #: no stage of a recorded run but its head carries pending dirt: a
        #: retune or a re-armed collapse dirties the run at its head, any
        #: other modifier that lands in a run dissolves the record first.
        self._run_of: Dict[Stage, StageRun] = {}
        #: every member of a recorded run holds exactly the blocks it owns
        #: -- false while an update runs: one that raises may have published
        #: through another grouping, and the next one settles every run
        self.runs_settled = True
        #: seq-maintenance hooks: fired after a stage enters the global order
        #: (its seq is valid) and after it leaves it.  The simulator binds
        #: and releases per-stage session state there.  Both events renumber
        #: stage seqs, but never permute surviving stages relative to each
        #: other.
        self._on_stage_inserted = on_stage_inserted
        self._on_stage_removed = on_stage_removed

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def stages(self) -> List[Stage]:
        return list(self._stages)

    def num_stages(self) -> int:
        return len(self._stages)

    def num_nodes(self) -> int:
        """Partitions plus sync barriers, maintained incrementally."""
        return self._num_nodes

    @property
    def has_pending(self) -> bool:
        """True when a modifier left dirt the next update has to sweep."""
        return bool(self._pending)

    def clear_pending(self) -> None:
        self._pending.clear()
        self._edited.clear()

    def runs(self) -> List[StageRun]:
        """The coalesced runs on record, in stage order (read-only view)."""
        heads = [
            run for stage, run in self._run_of.items() if run.members[0] is stage
        ]
        return sorted(heads, key=lambda run: run.members[0].seq)

    def record_runs(self, plans: Sequence[StagePlan]) -> None:
        """Note how a completed update executed the stages of ``plans``.

        A plan standing for several stages is their run record: a record
        the update reused stays as it is, a run the update formed replaces
        whatever records its members were on.  A stage that ran alone holds
        every block it declares and is on no record.
        """
        run_of = self._run_of
        for sp in plans:
            run = sp.run
            if run is None:
                run_of.pop(sp.stage, None)
            elif not sp.reused:
                for stage in run.members:
                    run_of[stage] = run

    def adopt_runs(self, spans: Sequence[Sequence[int]]) -> None:
        """Re-enter run records from ``(first seq, member count)`` pairs
        (a checkpoint header's), in stage order.

        A record is executed whole as its own plan, so a span is taken only
        where an update could have formed that run: disjoint from the
        others, unitary stages and collapses only, within the caps, no
        collapse in a run starting before the first dynamic stage, and every
        member holding the blocks it owns in it (it keeps only those); the
        last member may be a superposition stage closing a run without
        collapses on a state of at most ``MAX_RUN_BLOCKS`` blocks.
        Anything else raises ``ValueError``.
        """
        prefix = next(
            (s.seq for s in self._stages if isinstance(s, DynamicStage)),
            len(self._stages),
        )
        end = 0
        for first, count in spans:
            members = tuple(self._stages[first : first + count]) if first >= end else ()
            if not 2 <= count <= MAX_RUN_STAGES or len(members) != count:
                raise ValueError(f"no run of {count} stages at seq {first}")
            composed, tail = run_tail(members)
            if not all(
                isinstance(stage, UnitaryStage)
                or (
                    first >= prefix and tail is None
                    and isinstance(stage, (MeasureStage, ResetStage))
                )
                for stage in composed
            ) or len({q for stage in composed for q in stage.qubits}) > MAX_RUN_QUBITS or (
                tail is not None and tail.n_blocks > MAX_RUN_BLOCKS
            ):
                raise ValueError(f"the {count} stages at seq {first} form no run")
            covers = [self._layouts[stage.uid].cover for stage in members]
            cover = 0
            for member_cover in covers:
                cover |= member_cover
            for stage, owned in zip(members, _owned_masks(covers, cover)):
                if owned & ~stage.store.held:
                    raise ValueError(
                        f"stage {stage.seq} of the run at seq {first} lacks blocks it owns"
                    )
                stage.store.keep_only(owned)
            self._enter_run(members, cover)
            end = first + count

    def _enter_run(self, members: Tuple[Stage, ...], cover: int) -> None:
        """Record a run whose plan parts are derived on first reuse."""
        run = StageRun(members, cover)
        for stage in members:
            self._run_of[stage] = run

    def run_plan(self, run: StageRun) -> StagePlan:
        """The one plan executing ``run`` whole: a recorded run, or one an
        update is forming (its new record)."""
        if run.store is None:
            run.derive([self._layouts[stage.uid] for stage in run.members])
        return StagePlan.for_run(run)

    def member_plans(self, run: StageRun) -> List[StagePlan]:
        """One plan per member of a recorded run, each swept whole -- what
        the sweep emits for a stage it reaches on no record."""
        plans = []
        for stage in run.members:
            specs, _, cover, full_read = self._layouts[stage.uid]
            plans.append(
                StagePlan(stage, [spec.block_range for spec in specs], full_read, cover)
            )
        return plans

    def _dissolve_run(self, stage: Stage) -> None:
        """Forget the run ``stage`` is on record in, if any.

        What a member holds is only the run's final answer for the blocks it
        declares last, so once the run stops being one unit every member has
        to recompute: each gets its whole cover marked dirty -- not edited,
        so a collapse among them replays its outcome.
        """
        run = self._run_of.get(stage)
        if run is None:
            return
        for member in run.members:
            del self._run_of[member]
            self._mark(member, self._layouts[member.uid].cover, edited=False)

    def stats(self) -> GraphStats:
        return GraphStats(
            num_stages=len(self._stages),
            num_nodes=self._num_nodes,
            num_edges=self.num_edges(),
            num_frontiers=len(self._pending),
        )

    def _renumber(self, start: int) -> None:
        """Re-assign seqs from ``start`` on; earlier stages keep theirs."""
        stages = self._stages
        for i in range(start, len(stages)):
            stages[i].seq = i

    def _mark(self, stage: Stage, blocks: int, edited: bool = True) -> None:
        if blocks:
            self._pending[stage] = self._pending.get(stage, 0) | blocks
            if edited:
                self._edited.add(stage)

    # ------------------------------------------------------------------
    # circuit modifiers
    # ------------------------------------------------------------------

    def insert_stage(self, stage: Stage, position: int) -> None:
        """Insert ``stage`` at ``position``: a batch of one."""
        self.insert_stages([(position, stage)])

    def insert_stages(self, placed: Sequence[Tuple[int, Stage]]) -> None:
        """Enter a batch of stages into the global order, in one pass.

        ``placed`` lists ``(position, stage)`` by ascending position in the
        resulting order; the stages already in the graph keep their relative
        order.  Renumbers once, dissolves a run a new stage lands
        strictly inside, records each new stage's layout and marks its
        blocks dirty on it: all partitions of a newly inserted gate are
        frontiers (§III.E).
        """
        if not placed:
            return
        old = self._stages
        merged: List[Stage] = []
        taken = 0
        for position, stage in placed:
            cut = taken + position - len(merged)
            if not taken <= cut <= len(old):
                raise IndexError(f"stage position {position} out of range")
            merged.extend(old[taken:cut])
            taken = cut
            if taken < len(old):
                follower = old[taken]
                run = self._run_of.get(follower)
                if run is not None and run.members[0] is not follower:
                    # strictly between two members of a run (before its head
                    # or after its tail the run stays one unit)
                    self._dissolve_run(follower)
            merged.append(stage)
        merged.extend(old[taken:])
        self._stages = merged
        self._renumber(placed[0][0])
        dirt: Dict[Stage, int] = {}
        for _, stage in placed:
            if self._on_stage_inserted is not None:
                self._on_stage_inserted(stage)
            declared = stage.partition_layout()
            layout = StageLayout(
                *declared, bool(declared.specs) and stage.reads_all_blocks()
            )
            self._layouts[stage.uid] = layout
            self._num_nodes += layout.num_nodes
            if layout.cover:
                dirt[stage] = layout.cover
        self._pending.update(dirt)
        self._edited.update(dirt)

    def remove_stage(self, stage: Stage) -> None:
        """Remove ``stage``; its blocks become stale for whatever follows.

        §III.E adds the successors of the removed partitions to the frontier
        list.  Here the removed stage's blocks -- and any dirt still pending
        on it -- are re-anchored onto the stage now at its position, from
        where the sweep carries them to the closest later declarers.  A
        removed last stage leaves nothing to recompute -- unless it was on a
        run record: then it held blocks its run-mates declare too, and the
        dissolved run's remaining members recompute them.
        """
        if stage.uid not in self._layouts:
            raise KeyError(f"stage {stage!r} is not in the graph")
        self._dissolve_run(stage)
        layout = self._layouts.pop(stage.uid)
        position = stage.seq
        del self._stages[position]
        self._num_nodes -= layout.num_nodes
        self._renumber(position)
        if self._on_stage_removed is not None:
            self._on_stage_removed(stage)
        dirt = self._pending.pop(stage, 0) | layout.cover
        self._edited.discard(stage)
        if position < len(self._stages):
            self._mark(self._stages[position], dirt)

    def touch_stage(self, stage: Stage) -> None:
        """Mark every block ``stage`` declares as needing recomputation.

        Used when the stage keeps its layout but not its output: a retune
        (a matvec member's included), a re-armed collapse.  A matvec stage
        gaining or losing a member changes its layout: it is removed and
        inserted again instead.

        A stage on a run record keeps its record: membership and layout
        survive, so the run is dirtied at its head (its union cover: the
        run is recomputed whole) and loses its composed table.  Only the
        stage itself counts as edited, so a collapse before it in the run
        replays its outcome.
        """
        run = self._run_of.get(stage)
        if run is None:
            self._mark(stage, self._layouts[stage.uid].cover)
            return
        self._mark(run.members[0], run.cover, edited=False)
        self._edited.add(stage)
        run.table = None

    # ------------------------------------------------------------------
    # incremental scoping: the frontier sweep
    # ------------------------------------------------------------------

    def sweep(self) -> ExecutionPlan:
        """The partitions the pending dirt reaches, as stage plans by seq.

        One forward pass from the first anchored stage carries the set ``D``
        of stale blocks: a stage first takes the dirt anchored on it, a
        partition is affected iff it spans a block of ``D``, and every
        affected partition adds its blocks to ``D`` -- the next declarer of
        any of them is its closest-overlap successor.  A stage behind a sync
        barrier is affected whole (barrier included) as soon as anything it
        reads is stale: its blocks are computed from one shared gathered
        input / drawn outcome.  That is reachability from the frontier list
        over closest-overlap edges without storing either -- widened to
        recorded runs: when the dirt at a run's first member meets the union
        of the members' covers, every block of that union counts as stale
        and every member is swept whole (which over-approximates the paper's
        set by the members, and their successors, the dirt alone would not
        have reached).  Such a run is emitted as the record's one plan
        (:meth:`run_plan`), and a run the dirt misses is stepped over: no
        member but the head carries dirt of its own.

        The plan's ``redraw_from`` is the seq of the first stage an edit or
        a re-armed trajectory marked (dirt a dissolved run left does not
        count): a collapse before it re-executes only because its run does,
        on the input it drew from, so it keeps its outcome.

        The sweep changes nothing: pending dirt stays until
        :meth:`clear_pending`.
        """
        pending = self._pending
        if not pending:
            return ExecutionPlan([])
        first, dirty = min(stage.seq for stage in pending), 0
        redraw_from = min(
            (stage.seq for stage in self._edited), default=len(self._stages)
        )
        layouts = self._layouts
        run_of = self._run_of
        stages = self._stages
        plans: List[StagePlan] = []
        written = 0
        affected = 0
        at, end = first, len(stages)
        while at < end:
            stage = stages[at]
            at += 1
            if stage in pending:
                dirty |= pending[stage]
            run = run_of.get(stage)
            if run is not None and run.members[0] is stage:
                at += len(run.members) - 1
                if run.cover & dirty:
                    plan = self.run_plan(run)
                    dirty |= run.cover
                    written |= run.cover
                    affected += run.nodes
                    plans.append(plan)
                continue
            specs, masks, cover, full_read = layouts[stage.uid]
            if not cover & dirty:
                continue
            if full_read or not cover & ~dirty:
                ranges = [spec.block_range for spec in specs]
                hit = cover
            else:
                ranges = []
                hit = 0
                for spec, mask in zip(specs, masks):
                    if mask & dirty:
                        ranges.append(spec.block_range)
                        hit |= mask
            dirty |= hit
            written |= hit
            affected += len(ranges) + full_read
            plans.append(StagePlan(stage, ranges, full_read, hit))
        return ExecutionPlan(
            plans,
            affected_partitions=affected,
            written=written,
            first_seq=first,
            stages_swept=len(self._stages) - first,
            redraw_from=redraw_from,
        )

    # ------------------------------------------------------------------
    # block resolution: which store holds a block, read off the covers
    # ------------------------------------------------------------------

    def holders(
        self, mask: int, before_seq: int
    ) -> List[Tuple[BlockStore, int]]:
        """The stores holding the blocks of ``mask`` as of stage sequence
        ``before_seq``, as disjoint ``(store, bits)`` pairs: one backward
        walk over ``cover & store.held`` that stops when ``mask`` is
        resolved.  A declarer holding nothing (not executed yet,
        half-written by a failed update) is stepped over; a bit no pair
        covers is still the initial state's.
        """
        found: List[Tuple[BlockStore, int]] = []
        layouts = self._layouts
        stages = self._stages
        for at in range(min(before_seq, len(stages)) - 1, -1, -1):
            stage = stages[at]
            store = stage.store
            hit = layouts[stage.uid].cover & store.held & mask
            if hit:
                found.append((store, hit))
                mask &= ~hit
                if not mask:
                    break
        return found

    def plan_sources(
        self, plans: Sequence[StagePlan], initial: BlockStore
    ) -> List[List[Tuple[BlockStore, int]]]:
        """Per stage plan, where its input holds each recomputed block.

        ``plans`` lists an update's stage plans, seq ascending.  A plan's
        sources are disjoint ``(store, mask)`` pairs covering its mask:
        each store is the closest declarer of its bits before the plan's
        (first) stage that holds them, or will once its plan has run
        (``initial`` when there is none): a declarer inside an earlier run
        is that run's last one for the block, the member owning it.  So
        every source is an earlier plan's store or no plan's, and running
        the plans in list order is correct.

        One pass from the first plan's seq keeps the owners of the plans'
        union as a short list of ``(store, mask)`` pairs (seeded by
        :meth:`holders`): a plan's sources are the pairs meeting its mask,
        then its stage (a run: each member) and every unplanned stage up
        to the next plan take over what they declare.
        """
        if not plans:
            return []
        union = 0
        for sp in plans:
            union |= sp.mask
        layouts = self._layouts
        stages = self._stages
        at = plans[0].stage.seq
        owners = self.holders(union, at)
        rest = union
        for _, bits in owners:
            rest &= ~bits
        if rest:
            owners.append((initial, rest))

        tables: List[List[Tuple[BlockStore, int]]] = []
        #: ``(store, cover)`` of what declared since the owners were
        #: brought up to date, seq ascending
        takers: List[Tuple[BlockStore, int]] = []
        for sp in plans:
            for stage in stages[at : sp.stage.seq]:
                takers.append((stage.store, layouts[stage.uid].cover))
            taken = 0
            fresh = []
            for store, bits in reversed(takers):  # the newest declarer wins
                bits &= union & ~taken
                if bits:
                    fresh.append((store, bits))
                    taken |= bits
            for store, bits in owners:
                if bits & ~taken:
                    fresh.append((store, bits & ~taken))
            owners = fresh
            mask = sp.mask
            tables.append(
                [(store, bits & mask) for store, bits in owners if bits & mask]
            )
            if sp.run is None:
                takers = [(sp.stage.store, layouts[sp.stage.uid].cover)]
            else:
                takers = list(sp.store.routes)
            at = sp.members[-1].seq + 1
        return tables

    # ------------------------------------------------------------------
    # graph mirroring (session forking)
    # ------------------------------------------------------------------

    def mirror_from(self, other: "PartitionGraph",
                    stage_map: Dict[int, Stage]) -> None:
        """Clone another graph's stage order and layouts.

        ``stage_map`` maps the other graph's stage uids to the stages this
        (empty) graph should hold: fresh clones with empty stores.  Layout
        records are immutable and shared -- O(stages), which is what makes
        forking a deep circuit cheap.  Run records are translated too (the clones
        adopt stores that hold what the records say).  Pending dirt is *not*
        mirrored: a fork inherits computed state, not pending work.
        """
        if self._stages:
            raise ValueError("mirror_from requires an empty graph")
        self._stages = [stage_map[stage.uid] for stage in other._stages]
        self._renumber(0)
        for stage, clone in zip(other._stages, self._stages):
            if self._on_stage_inserted is not None:
                self._on_stage_inserted(clone)
            self._layouts[clone.uid] = other._layouts[stage.uid]
        self._num_nodes = other._num_nodes
        for run in other.runs():
            self._enter_run(
                tuple(stage_map[stage.uid] for stage in run.members), run.cover
            )

    # ------------------------------------------------------------------
    # derived view: nodes and closest-overlap edges, on demand
    # ------------------------------------------------------------------

    def partition_nodes(self, stage: Stage) -> List[PartitionNode]:
        """Only the writing partitions of a stage (no sync)."""
        return [
            PartitionNode(stage, spec.block_range)
            for spec in self._layouts[stage.uid].specs
        ]

    def sync_node(self, stage: Stage) -> Optional[PartitionNode]:
        if self._layouts[stage.uid].full_read:
            return PartitionNode(stage, self._full_range, True)
        return None

    def stage_nodes(self, stage: Stage) -> List[PartitionNode]:
        """Every node of a stage (sync node first when present)."""
        sync = self.sync_node(stage)
        return ([sync] if sync is not None else []) + self.partition_nodes(stage)

    def all_nodes(self) -> List[PartitionNode]:
        return [node for stage in self._stages for node in self.stage_nodes(stage)]

    def _closest_pairs(
        self,
    ) -> Iterator[Tuple[Stage, StageLayout, np.ndarray, np.ndarray, np.ndarray]]:
        """The closest-overlap pairs, by entered stage in seq order: one
        forward walk keeps the latest declaring partition of each block
        (numbered in declaration order), and each overlap is one pair.
        Yields ``(stage, layout, earlier partition numbers, entered
        partition index or -1 for its sync barrier, first shared block)``."""
        owner = np.full(self._full_range.last + 1, -1, dtype=np.int64)
        base = 0
        for stage in self._stages:
            layout = self._layouts[stage.uid]
            k = len(layout.specs)
            if not k:
                continue
            firsts = np.array([spec.block_range.first for spec in layout.specs])
            lens = np.array([len(spec.block_range) for spec in layout.specs])
            part = np.repeat(np.arange(k), lens)  # partition index per block
            starts = np.cumsum(lens) - lens
            blocks = np.arange(part.size) + np.repeat(firsts - starts, lens)
            earlier = owner[blocks]
            seen = earlier >= 0
            entered = np.full(part.size, -1) if layout.full_read else part
            keys, first = np.unique(
                earlier[seen] * (k + 1) + entered[seen] + 1, return_index=True
            )
            yield stage, layout, keys // (k + 1), keys % (k + 1) - 1, blocks[seen][first]
            owner[blocks] = base + part
            base += k

    def edges(self) -> List[Tuple[PartitionNode, PartitionNode]]:
        """The closest-overlap pairs, derived from the covers.

        A later stage that reads everything is entered through its sync
        barrier, which in turn precedes that stage's own partitions.
        Canonical: a function of the circuit, whatever modifiers built it.
        Barrier pairs come first, the others by first shared block, then
        earlier partition.
        """
        nodes: List[PartitionNode] = []
        pairs: List[Tuple[PartitionNode, PartitionNode]] = []
        overlaps = []
        for stage, _, earlier, entered, first in self._closest_pairs():
            own = self.partition_nodes(stage)
            nodes.extend(own)
            sync = self.sync_node(stage)
            if sync is not None:
                pairs.extend((sync, node) for node in own)
            overlaps.extend(
                (block, pred, sync or own[at])
                for block, pred, at in zip(
                    first.tolist(), earlier.tolist(), entered.tolist()
                )
            )
        overlaps.sort(key=lambda o: o[:2])
        pairs.extend((nodes[pred], node) for _, pred, node in overlaps)
        return pairs

    def num_edges(self) -> int:
        """``len(edges())``, counted without building a node."""
        return sum(
            earlier.size + layout.full_read * len(layout.specs)
            for _, layout, earlier, _, _ in self._closest_pairs()
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dot(self, name: str = "qtask") -> str:
        """GraphViz DOT rendering of the current partition graph."""
        lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
        ids: Dict[PartitionNode, str] = {}
        for i, node in enumerate(self.all_nodes()):
            ids[node] = f"n{i}"
            shape = "ellipse" if node.is_sync else "box"
            lines.append(f'  n{i} [label="{node.name()}", shape={shape}];')
        for pred, succ in self.edges():
            lines.append(f"  {ids[pred]} -> {ids[succ]};")
        lines.append("}")
        return "\n".join(lines)

    def dump(self, stream: TextIO, name: str = "qtask") -> None:
        stream.write(self.to_dot(name) + "\n")
