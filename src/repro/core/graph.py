"""The partition task graph: connectivity, frontiers and incremental scoping.

This module implements §III.D (circuit modifiers) and §III.E (incremental
update) of the paper:

* every stage contributes *partition nodes* (plus a ``sync`` node for
  matrix--vector stages);
* a connection exists between two partitions of different stages when they are
  the *closest pair of overlapped blocks*; the closest earlier and later
  writer of each block is read off a per-block writer index, so wiring a
  partition costs O(blocks it spans), independent of the circuit's depth;
* removing a stage reconnects its predecessors to its successors when their
  block ranges overlap;
* a *frontier* list collects the partitions of newly inserted gates and the
  successors of removed partitions; the set of partitions affected by a
  sequence of circuit modifiers is everything reachable from the frontiers
  (depth-first search over successor edges).
"""

from __future__ import annotations

import itertools
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple,
)

from .blocks import BlockRange
from .cow import BlockStore
from .stage import Stage

__all__ = ["PartitionNode", "PartitionGraph", "GraphStats"]

_node_counter = itertools.count()


class PartitionNode:
    """A node of the partition graph: one partition (or sync barrier)."""

    __slots__ = (
        "uid",
        "stage",
        "block_range",
        "num_unit_tasks",
        "num_units",
        "is_sync",
        "preds",
        "succs",
    )

    def __init__(
        self,
        stage: Stage,
        block_range: BlockRange,
        *,
        num_unit_tasks: int = 1,
        num_units: int = 0,
        is_sync: bool = False,
    ) -> None:
        self.uid = next(_node_counter)
        self.stage = stage
        self.block_range = block_range
        self.num_unit_tasks = num_unit_tasks
        self.num_units = num_units
        self.is_sync = is_sync
        self.preds: Set["PartitionNode"] = set()
        self.succs: Set["PartitionNode"] = set()

    # Sync nodes read the whole vector; ordinary partitions read what they write.
    @property
    def read_range(self) -> BlockRange:
        return self.block_range

    @property
    def write_range(self) -> Optional[BlockRange]:
        return None if self.is_sync else self.block_range

    def name(self) -> str:
        base = self.stage.label()
        if self.is_sync:
            return f"sync[{base}]"
        return f"{base} {self.block_range}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionNode({self.name()})"


def _slot(writers: List[PartitionNode], seq: int) -> int:
    """Index of the first writer whose stage has ``seq`` or a later one.

    ``writers`` is one block's entry of the writer index, sorted by stage
    seq.  Hand-rolled: ``bisect`` only grew ``key=`` in Python 3.10 and this
    package supports 3.9.
    """
    # Fast path: a circuit under construction appends stages, so the probed
    # seq lies past every registered writer.
    if not writers or writers[-1].stage.seq < seq:
        return len(writers)
    lo, hi = 0, len(writers) - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        if writers[mid].stage.seq < seq:
            lo = mid + 1
        else:
            hi = mid
    return lo


class GraphStats:
    """Lightweight counters describing the current partition graph."""

    def __init__(self, num_stages: int, num_nodes: int, num_edges: int,
                 num_frontiers: int) -> None:
        self.num_stages = num_stages
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.num_frontiers = num_frontiers

    def as_dict(self) -> Dict[str, int]:
        return {
            "num_stages": self.num_stages,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_frontiers": self.num_frontiers,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStats(stages={self.num_stages}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, frontiers={self.num_frontiers})"
        )


class PartitionGraph:
    """Ordered stages, their partition nodes, edges and the frontier list."""

    def __init__(
        self,
        full_block_range: BlockRange,
        *,
        on_stage_inserted: Optional[Callable[[Stage], None]] = None,
        on_stage_removed: Optional[Callable[[Stage], None]] = None,
    ) -> None:
        self._stages: List[Stage] = []
        self._nodes_by_stage: Dict[int, List[PartitionNode]] = {}
        self._sync_by_stage: Dict[int, Optional[PartitionNode]] = {}
        self._frontiers: Set[PartitionNode] = set()
        self._full_range = full_block_range
        self._num_nodes = 0
        #: writer index: for every block id, the partition nodes that
        #: *declare* that block, sorted by stage seq.  One entry per block a
        #: node spans; sync barriers write nothing and are not listed (their
        #: stage's partitions cover every block, which is what ends a walk in
        #: either direction at a full-read stage).  The lists survive
        #: renumbering because inserts and removals never permute surviving
        #: stages.  Wiring reads the closest writers off it and block reads
        #: resolve through it (``holder`` / ``plan_sources``): with
        #: copy-on-write a store holds only blocks its stage declares.
        self._writers: List[List[PartitionNode]] = [
            [] for _ in range(full_block_range.last + 1)
        ]
        #: seq-maintenance hooks: fired after a stage enters the global order
        #: (its seq is valid) and after it leaves it.  The simulator binds
        #: and releases per-stage session state there.  Both events renumber
        #: stage seqs, but never permute surviving stages relative to each
        #: other -- an invariant the writer index relies on.
        self._on_stage_inserted = on_stage_inserted
        self._on_stage_removed = on_stage_removed

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def stages(self) -> List[Stage]:
        return list(self._stages)

    def stage_at(self, position: int) -> Stage:
        """The stage at ``position`` in the global order (no list copy)."""
        return self._stages[position]

    def stages_after(self, position: int) -> List[Stage]:
        """Stages at or after ``position`` (copies only the tail)."""
        return self._stages[position:]

    def stage_nodes(self, stage: Stage) -> List[PartitionNode]:
        """Every node of a stage (sync node first when present)."""
        nodes = list(self._nodes_by_stage.get(stage.uid, []))
        sync = self._sync_by_stage.get(stage.uid)
        return ([sync] if sync is not None else []) + nodes

    def partition_nodes(self, stage: Stage) -> List[PartitionNode]:
        """Only the writing partitions of a stage (no sync)."""
        return list(self._nodes_by_stage.get(stage.uid, []))

    def sync_node(self, stage: Stage) -> Optional[PartitionNode]:
        return self._sync_by_stage.get(stage.uid)

    def all_nodes(self) -> List[PartitionNode]:
        out: List[PartitionNode] = []
        for s in self._stages:
            out.extend(self.stage_nodes(s))
        return out

    def num_nodes(self) -> int:
        """Total node count, maintained incrementally (no graph traversal)."""
        return self._num_nodes

    @property
    def frontiers(self) -> Set[PartitionNode]:
        return set(self._frontiers)

    def clear_frontiers(self) -> None:
        self._frontiers.clear()

    def add_frontier(self, node: PartitionNode) -> None:
        self._frontiers.add(node)

    def num_edges(self) -> int:
        return sum(len(n.succs) for n in self.all_nodes())

    def stats(self) -> GraphStats:
        return GraphStats(
            num_stages=len(self._stages),
            num_nodes=self._num_nodes,
            num_edges=self.num_edges(),
            num_frontiers=len(self._frontiers),
        )

    def num_stages(self) -> int:
        return len(self._stages)

    def _renumber(self, start: int) -> None:
        """Re-assign seqs from ``start`` on; earlier stages keep theirs."""
        stages = self._stages
        for i in range(start, len(stages)):
            stages[i].seq = i

    # ------------------------------------------------------------------
    # stage insertion
    # ------------------------------------------------------------------

    def insert_stage(self, stage: Stage, position: int) -> List[PartitionNode]:
        """Insert ``stage`` at ``position`` in the global order and wire it up.

        Returns the newly created partition nodes (the gate's frontier).
        """
        if not 0 <= position <= len(self._stages):
            raise IndexError(f"stage position {position} out of range")
        self._stages.insert(position, stage)
        self._renumber(position)
        if self._on_stage_inserted is not None:
            self._on_stage_inserted(stage)
        nodes = self._create_nodes(stage)
        for node in nodes:
            if node.is_sync:
                self._connect_sync(node)
            else:
                self._connect_partition(node)
        # Frontier: all partitions of a newly inserted gate (§III.E).
        for node in self._nodes_by_stage.get(stage.uid, []):
            self._frontiers.add(node)
        return nodes

    def _create_nodes(self, stage: Stage) -> List[PartitionNode]:
        specs = stage.partition_specs()
        nodes = [
            PartitionNode(
                stage,
                spec.block_range,
                num_unit_tasks=spec.num_unit_tasks,
                num_units=spec.num_units,
            )
            for spec in specs
        ]
        self._nodes_by_stage[stage.uid] = nodes
        sync: Optional[PartitionNode] = None
        if stage.reads_all_blocks() and nodes:
            sync = PartitionNode(stage, self._full_range, is_sync=True)
            for n in nodes:
                sync.succs.add(n)
                n.preds.add(sync)
        self._sync_by_stage[stage.uid] = sync
        created = ([sync] if sync is not None else []) + nodes
        self._num_nodes += len(created)
        return created

    # -- connections: closest writers via the writer index ------------------

    def _connect_partition(self, node: PartitionNode) -> None:
        """Register ``node`` and connect it to each block's closest writers.

        The closest earlier writer of a block becomes a predecessor, the
        closest later one a successor; a later stage that reads everything
        is entered through its sync barrier instead.
        """
        seq = node.stage.seq
        sync_by_stage = self._sync_by_stage
        preds: Set[PartitionNode] = set()
        succs: Set[PartitionNode] = set()
        blocks = node.block_range
        for writers in self._writers[blocks.first : blocks.last + 1]:
            i = _slot(writers, seq)
            if i:
                preds.add(writers[i - 1])
            if i < len(writers):
                later = writers[i]
                succs.add(sync_by_stage[later.stage.uid] or later)
            writers.insert(i, node)
        for q in preds:
            q.succs.add(node)
        node.preds.update(preds)
        for q in succs:
            q.preds.add(node)
        node.succs.update(succs)
        self._prune_transitive(node, preds, succs)

    def _connect_sync(self, node: PartitionNode) -> None:
        # The sync barrier reads the entire previous state vector.
        seq = node.stage.seq
        for writers in self._writers:
            i = _slot(writers, seq)
            if i:
                q = writers[i - 1]
                q.succs.add(node)
                node.preds.add(q)

    def _unregister(self, stage: Stage) -> None:
        """Drop the writer-index entries of ``stage`` (its seq still valid)."""
        seq = stage.seq
        for node in self._nodes_by_stage[stage.uid]:
            blocks = node.block_range
            for writers in self._writers[blocks.first : blocks.last + 1]:
                del writers[_slot(writers, seq)]

    def _prune_transitive(
        self,
        node: PartitionNode,
        preds: Iterable[PartitionNode],
        succs: Set[PartitionNode],
    ) -> None:
        """Remove pred->succ edges now mediated by ``node`` (§III.D, Fig. 9).

        An edge A -> C is redundant only when every block of the overlap that
        justified it is covered by the new node, so ordering A -> node -> C
        subsumes it.
        """
        write = node.write_range
        if write is None:
            return
        for a in preds:
            for c in list(a.succs):
                if c not in succs or c is node:
                    continue
                overlap = a.block_range.intersection(c.read_range)
                if overlap is None:
                    continue
                if overlap.first >= write.first and overlap.last <= write.last:
                    a.succs.discard(c)
                    c.preds.discard(a)

    # ------------------------------------------------------------------
    # block resolution: which store holds a block, read off the index
    # ------------------------------------------------------------------

    def holder(self, block: int, before_seq: int) -> Optional[BlockStore]:
        """The store holding ``block`` as of stage sequence ``before_seq``.

        That is the closest declarer of ``block`` with ``seq < before_seq``
        whose store holds it; a declarer holding nothing (not executed yet,
        forsaken, half-written by a failed update) is stepped over.
        ``None`` when no stage holds the block: it is still the initial
        state's.
        """
        writers = self._writers[block]
        i = _slot(writers, before_seq)
        while i:
            i -= 1
            store = writers[i].stage.store
            if store.has_block(block):
                return store
        return None

    def plan_sources(
        self,
        stage_ranges: Iterable[Tuple[Stage, Sequence[BlockRange]]],
        initial: BlockStore,
    ) -> List[Dict[int, BlockStore]]:
        """Per stage, the store its input holds each recomputed block in.

        ``stage_ranges`` lists an update's affected stages, seq ascending,
        each with the block ranges of its affected partitions.  One table
        per entry maps every block of those ranges to the store of its
        closest earlier declarer (``initial`` when there is none) -- where
        the block will be held by the time the stage runs.  The index is
        searched once per block per update: every declarer downstream of an
        affected one is affected too, so the next stage in the pass that
        recomputes the block sits in the slot right after.
        """
        cursor = [-1] * len(self._writers)
        tables: List[Dict[int, BlockStore]] = []
        for stage, ranges in stage_ranges:
            seq = stage.seq
            sources: Dict[int, BlockStore] = {}
            for blocks in ranges:
                block = blocks.first
                for writers in self._writers[block : blocks.last + 1]:
                    i = cursor[block]
                    if not (0 <= i < len(writers) and writers[i].stage is stage):
                        i = _slot(writers, seq)
                    sources[block] = writers[i - 1].stage.store if i else initial
                    cursor[block] = i + 1
                    block += 1
            tables.append(sources)
        return tables

    # ------------------------------------------------------------------
    # graph mirroring (session forking)
    # ------------------------------------------------------------------

    def mirror_from(self, other: "PartitionGraph",
                    stage_map: Dict[int, Stage]) -> None:
        """Clone another graph's stages, nodes and edges into this (empty) one.

        ``stage_map`` maps the other graph's stage uids to the stages this
        graph should hold (fresh clones with empty stores).  Connectivity is
        copied verbatim in O(nodes + edges) instead of re-wiring stage by
        stage, and the writer index is translated through the same node map
        in O(entries), which is what makes forking a deep circuit cheap.
        Frontiers are *not* mirrored: a fork inherits computed state, not
        pending work.
        """
        if self._stages:
            raise ValueError("mirror_from requires an empty graph")
        for stage in other._stages:
            self._stages.append(stage_map[stage.uid])
        self._renumber(0)
        node_map: Dict[int, PartitionNode] = {}
        for stage in other._stages:
            clone_stage = stage_map[stage.uid]
            if self._on_stage_inserted is not None:
                self._on_stage_inserted(clone_stage)
            nodes = []
            for node in other._nodes_by_stage.get(stage.uid, []):
                clone = PartitionNode(
                    clone_stage,
                    node.block_range,
                    num_unit_tasks=node.num_unit_tasks,
                    num_units=node.num_units,
                )
                node_map[node.uid] = clone
                nodes.append(clone)
            self._nodes_by_stage[clone_stage.uid] = nodes
            sync = other._sync_by_stage.get(stage.uid)
            if sync is not None:
                clone = PartitionNode(clone_stage, sync.block_range, is_sync=True)
                node_map[sync.uid] = clone
                self._sync_by_stage[clone_stage.uid] = clone
            else:
                self._sync_by_stage[clone_stage.uid] = None
            self._num_nodes += len(nodes) + (1 if sync is not None else 0)
        for node in other.all_nodes():
            clone = node_map[node.uid]
            for succ in node.succs:
                succ_clone = node_map[succ.uid]
                clone.succs.add(succ_clone)
                succ_clone.preds.add(clone)
        self._writers = [
            [node_map[n.uid] for n in writers] for writers in other._writers
        ]

    # ------------------------------------------------------------------
    # stage removal
    # ------------------------------------------------------------------

    def remove_stage(self, stage: Stage) -> List[PartitionNode]:
        """Remove ``stage`` and reconnect around it.

        Returns the *successors* of the removed partitions, which the caller
        adds to the frontier (§III.E: "for each removed gate, we add all
        successors of removed partitions to the frontier list").
        """
        if stage.uid not in self._nodes_by_stage:
            raise KeyError(f"stage {stage!r} is not in the graph")
        removed = self.stage_nodes(stage)
        removed_set = set(removed)
        # External neighbourhood of the whole stage: predecessors/successors
        # that survive the removal.  (Edges internal to the stage -- e.g. the
        # sync barrier preceding its MxV partitions -- are ignored, otherwise
        # removing a matvec stage would reconnect nothing.)
        ext_preds: List[PartitionNode] = []
        ext_succs: List[PartitionNode] = []
        for node in removed:
            ext_preds.extend(p for p in node.preds if p not in removed_set)
            ext_succs.extend(s for s in node.succs if s not in removed_set)
        downstream: List[PartitionNode] = list(dict.fromkeys(ext_succs))
        # Reconnect surviving predecessors to surviving successors when their
        # blocks overlap (§III.D, Fig. 7).
        for a in dict.fromkeys(ext_preds):
            for c in downstream:
                if a.stage.seq < c.stage.seq and a.block_range.intersects(c.read_range):
                    a.succs.add(c)
                    c.preds.add(a)
        for node in removed:
            for p in node.preds:
                p.succs.discard(node)
            for s in node.succs:
                s.preds.discard(node)
            node.preds.clear()
            node.succs.clear()
            self._frontiers.discard(node)
        self._unregister(stage)
        position = stage.seq
        del self._stages[position]
        self._nodes_by_stage.pop(stage.uid, None)
        self._sync_by_stage.pop(stage.uid, None)
        self._num_nodes -= len(removed)
        self._renumber(position)
        if self._on_stage_removed is not None:
            self._on_stage_removed(stage)
        for node in downstream:
            self._frontiers.add(node)
        return downstream

    # ------------------------------------------------------------------
    # stage refresh (matvec stage gaining/losing a member gate)
    # ------------------------------------------------------------------

    def touch_stage(self, stage: Stage) -> None:
        """Mark every partition of ``stage`` as needing recomputation."""
        for node in self._nodes_by_stage.get(stage.uid, []):
            self._frontiers.add(node)

    def touch_stage_full(self, stage: Stage) -> None:
        """``touch_stage`` plus the stage's sync barrier, when it has one.

        Dynamic stages draw their measurement outcome in ``prepare`` (the
        sync node's body); re-arming a trajectory must therefore re-execute
        the sync as well, not just the collapse partitions.
        """
        self.touch_stage(stage)
        sync = self._sync_by_stage.get(stage.uid)
        if sync is not None:
            self._frontiers.add(sync)

    # ------------------------------------------------------------------
    # incremental scoping
    # ------------------------------------------------------------------

    def affected_nodes(self) -> List[PartitionNode]:
        """All nodes reachable from the frontiers (frontiers included).

        The result is returned in a valid topological order: edges only ever
        point from earlier stages to later stages, so ordering by stage
        sequence (sync nodes first within a stage) is sufficient.
        """
        visited: Set[int] = set()
        out: List[PartitionNode] = []
        stack: List[PartitionNode] = list(self._frontiers)
        for node in stack:
            visited.add(node.uid)
        while stack:
            node = stack.pop()
            out.append(node)
            for s in node.succs:
                if s.uid not in visited:
                    visited.add(s.uid)
                    stack.append(s)
        # When any partition of a full-read stage (matvec, measure, reset,
        # superposition c_if) is affected, the whole stage is: its blocks are
        # computed from one shared prepared input / drawn outcome.
        extra: List[PartitionNode] = []
        touched_full: Set[int] = set()
        for node in out:
            if node.stage.reads_all_blocks():
                touched_full.add(node.stage.uid)
        for stage_uid in touched_full:
            for node in self._nodes_by_stage.get(stage_uid, []):
                if node.uid not in visited:
                    visited.add(node.uid)
                    extra.append(node)
            sync = self._sync_by_stage.get(stage_uid)
            if sync is not None and sync.uid not in visited:
                visited.add(sync.uid)
                extra.append(sync)
        out.extend(extra)
        out.sort(key=lambda n: (n.stage.seq, 0 if n.is_sync else 1, n.block_range.first))
        return out

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dot(self, name: str = "qtask") -> str:
        """GraphViz DOT rendering of the current partition graph."""
        lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
        ids: Dict[int, str] = {}
        for i, node in enumerate(self.all_nodes()):
            ids[node.uid] = f"n{i}"
            shape = "ellipse" if node.is_sync else "box"
            lines.append(f'  n{i} [label="{node.name()}", shape={shape}];')
        for node in self.all_nodes():
            for s in node.succs:
                if s.uid in ids and node.uid in ids:
                    lines.append(f"  {ids[node.uid]} -> {ids[s.uid]};")
        lines.append("}")
        return "\n".join(lines)

    def dump(self, stream: TextIO, name: str = "qtask") -> None:
        stream.write(self.to_dot(name) + "\n")
