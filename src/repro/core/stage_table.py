"""The stage table: modifier handling, from circuit edits to graph stages.

A :class:`StageTable` is a session's circuit observer (§III.C-D).  It owns
the per-stage maps and the insert queue: a gate's stage is built at its
insert (classification and layout errors raise there) and the next graph
read wires every queued stage in one batch (:meth:`StageTable.wire`).
Stages come from one factory keyed by stage kind and are filed by one
routine, whether a modifier inserts them, a fork mirrors them
(:meth:`StageTable.mirror`) or a checkpoint restores them
(:meth:`StageTable.load`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .circuit import Circuit, CircuitObserver, GateHandle, NetHandle
from .classical import OutcomeRecord
from .exceptions import CircuitError
from .gates import Gate
from .graph import PartitionGraph
from .ops import CGate, MeasureOp, ResetOp
from .stage import (
    ClassicallyControlledStage,
    MatVecStage,
    MeasureStage,
    ResetStage,
    Stage,
    UnitaryStage,
    gate_action,
    gate_shape,
)

__all__ = ["StageTable"]

#: the stage class of each dynamic operation type, and of each dynamic kind
_DYNAMIC = {MeasureOp: MeasureStage, ResetOp: ResetStage, CGate: ClassicallyControlledStage}
_DYNAMIC_KINDS = {cls.kind: cls for cls in _DYNAMIC.values()}


def _net_order(stages: Sequence[Stage]) -> List[Stage]:
    """A net's stages in the paper's within-net order, by one sort.

    ``stages`` is the net's order followed by its new stages in insert
    order; the result equals inserting the new ones one by one.  The
    matrix--vector stage leads; the paper orders the other gates "in an
    increasing order of block count in partitions" (ties: insert order).  A
    dynamic stage stays behind what was there before it: it sorts as the
    widest non-superposition stage before it.
    """
    keyed = []
    widest = -1
    for t, stage in enumerate(stages):
        if isinstance(stage, MatVecStage):
            key = (-2, t)
        elif isinstance(stage, UnitaryStage):
            count = stage.total_block_count()
            widest = max(widest, count)
            key = (count, t)
        else:
            key = (widest, t)
        keyed.append((key, stage))
    keyed.sort(key=lambda entry: entry[0])
    return [stage for _, stage in keyed]


class StageTable(CircuitObserver):
    """The stages of one session's circuit: ``graph`` is the session's
    partition graph, ``outcomes`` the record dynamic stages draw into and
    ``tracer`` where each wired batch is one ``modify`` span."""

    def __init__(
        self,
        circuit: Circuit,
        block_size: int,
        graph: PartitionGraph,
        outcomes: OutcomeRecord,
        tracer,
    ) -> None:
        self.circuit = circuit
        self._args = (circuit.num_qubits, block_size)
        self._graph = graph
        self._outcomes = outcomes
        self._tracer = tracer
        #: wired stages of each net, in within-net order
        self._net_stages: Dict[int, List[Stage]] = {
            net.uid: [] for net in circuit.nets()
        }
        #: the (single) matvec stage of each net, when present
        self._matvec: Dict[int, MatVecStage] = {}
        #: stage owning each gate handle
        self._gate_stage: Dict[int, Stage] = {}
        #: gate handles whose gates each stage applies (the members of a
        #: matvec stage; one handle for every other stage)
        self._stage_handles: Dict[int, List[GateHandle]] = {}
        #: stages built since the last wiring, in insert order, with the uid
        #: of their net; :meth:`wire` files them all at the next graph read
        self.queued: Dict[Stage, int] = {}
        #: gates inserted since the last wiring (a matvec member included),
        #: and gates removed / retuned since the last ``modify`` span
        self._inserted = 0
        self._removed = 0
        self._retuned = 0

    # -- lookups -------------------------------------------------------------

    def stage_of(self, handle: GateHandle) -> Stage:
        """The stage applying ``handle``'s gate (queued or wired)."""
        return self._gate_stage[handle.uid]

    def members(self, stage: Stage) -> List[GateHandle]:
        """The gate handles ``stage`` applies, in the order they joined it."""
        return self._stage_handles[stage.uid]

    def net_stages(self, net: NetHandle) -> List[Stage]:
        """``net``'s wired stages in within-net order."""
        return self._net_stages[net.uid]

    # -- building and filing -------------------------------------------------

    def build(self, kind: str, gates: Sequence[Gate]) -> Stage:
        """A new stage of ``kind`` (a :attr:`Stage.kind`) applying ``gates``:
        the one stage factory."""
        if kind == "unitary":
            return UnitaryStage(gates[0], *self._args)
        if kind == "matvec":
            return MatVecStage(list(gates), *self._args)
        cls = _DYNAMIC_KINDS.get(kind)
        if cls is None:
            raise CircuitError(f"unknown stage kind {kind!r}")
        return cls(gates[0], *self._args, record=self._outcomes)

    def _kind_of(self, gate) -> str:
        """The kind of stage a newly inserted ``gate`` needs."""
        cls = _DYNAMIC.get(type(gate))
        if cls is not None:
            self._outcomes.ensure_bits(self.circuit.num_clbits)
            return cls.kind
        if gate_shape(gate, *self._args)[0].creates_superposition:
            return "matvec"
        return "unitary"

    def _file(self, stage: Stage, handles: Sequence[GateHandle], net_uid: int) -> None:
        """Record ``handles`` as members of ``stage``, a stage of ``net_uid``."""
        self._stage_handles.setdefault(stage.uid, []).extend(handles)
        for handle in handles:
            self._gate_stage[handle.uid] = stage
        if isinstance(stage, MatVecStage):
            self._matvec[net_uid] = stage

    def _adopt(
        self, placed: Iterable[Tuple[Stage, List[GateHandle]]]
    ) -> List[Stage]:
        """File built stages given in global order with their members, each
        at the end of its net (a net's stages are contiguous in that order)."""
        stages = []
        for stage, members in placed:
            net_uid = members[0].net.uid
            self._file(stage, members, net_uid)
            self._net_stages[net_uid].append(stage)
            stages.append(stage)
        return stages

    def mirror(self, parent: "StageTable", gate_map: Dict[int, GateHandle]) -> int:
        """Fill this empty table with clones of ``parent``'s wired stages, in
        its exact global order (block resolution by seq depends on it), with
        its layout and run records; each clone's store adopts its original's
        blocks by reference, and the count adopted is returned.  ``gate_map``
        maps parent handle uids to this circuit's handles."""
        originals = parent._graph.stages
        stage_map = {stage.uid: stage.clone_for_fork() for stage in originals}
        self._adopt(
            (stage_map[stage.uid], [gate_map[h.uid] for h in parent.members(stage)])
            for stage in originals
        )
        self._graph.mirror_from(parent._graph, stage_map)
        return sum(stage_map[s.uid].store.share_from(s.store) for s in originals)

    def load(self, entries: Iterable[Tuple[str, List[GateHandle]]]) -> List[Stage]:
        """Build and wire stages from ``(kind, member handles)`` entries
        given in global order, as one batch; returns the stages."""
        stages = self._adopt(
            (self.build(kind, [h.gate for h in members]), members)
            for kind, members in entries
        )
        self._graph.insert_stages(list(enumerate(stages)))
        return stages

    def insert_all(self) -> None:
        """Insert every gate the circuit already holds (attach time)."""
        for net in self.circuit.nets():
            for handle in net.gates:
                self.on_gate_inserted(self.circuit, handle)

    # -- CircuitObserver callbacks -------------------------------------------

    def on_net_inserted(self, circuit: Circuit, net: NetHandle, position: int) -> None:
        self._net_stages.setdefault(net.uid, [])

    def on_net_removed(self, circuit: Circuit, net: NetHandle,
                       removed_gates: Sequence[GateHandle]) -> None:
        # Individual gate removals already wired and dismantled its stages.
        self._net_stages.pop(net.uid, None)
        self._matvec.pop(net.uid, None)

    def on_gate_inserted(self, circuit: Circuit, handle: GateHandle) -> None:
        """Build the gate's stage -- classification and layout errors raise
        here -- and queue it: :meth:`wire` files every queued stage at the
        next graph read.  A superposition gate joins its net's matvec stage.
        """
        self._insert(handle)
        self._inserted += 1

    def _insert(self, handle: GateHandle) -> None:
        gate, net_uid = handle.gate, handle.net.uid
        kind = self._kind_of(gate)
        stage = self._matvec.get(net_uid) if kind == "matvec" else None
        if stage is not None:
            stage.add_gate(gate)
            self._requeue(stage, net_uid)
            self._file(stage, [handle], net_uid)
            return
        stage = self.build(kind, [gate])
        self._file(stage, [handle], net_uid)
        self.queued[stage] = net_uid

    def _requeue(self, stage: MatVecStage, net_uid: int) -> None:
        """Take a wired matvec stage whose members are about to change out of
        the graph, to be filed again at the next wiring.

        Its qubits, and with them its layout, change: the graph forgets the
        layout it recorded (the removal hands that cover's dirt on) and the
        wiring files the new one (marking the new cover dirty).
        """
        if stage in self.queued:
            return
        self._net_stages[net_uid].remove(stage)
        self._graph.remove_stage(stage)
        self.queued[stage] = net_uid

    def wire(self, *, report: bool = True) -> Tuple[int, int, int, int, int]:
        """Wire every queued stage into the partition graph, in one batch:
        each net with new stages sorted once (:func:`_net_order`), the global
        order rebuilt once, one :meth:`PartitionGraph.insert_stages` call.

        One ``modify`` span records the batch together with the gates
        removed and retuned since the last such span, and its ``(gates
        inserted, stages, nets, removed, retuned)`` are returned.  A
        modifier about to edit the graph passes ``report=False``: it wires a
        queued batch but records no span for removals and retunes alone, so
        a run of them lands on one span at the next graph read.
        """
        queued = self.queued
        if not queued and not (report and (self._removed or self._retuned)):
            return (0, 0, 0, 0, 0)
        with self._tracer.span("modify") as span:
            by_net: Dict[int, List[Stage]] = {}
            for stage, net_uid in queued.items():
                by_net.setdefault(net_uid, []).append(stage)
            net_stages = self._net_stages
            for net_uid, new in by_net.items():
                net_stages[net_uid] = _net_order(net_stages[net_uid] + new)
            order = [s for net in self.circuit.nets() for s in net_stages[net.uid]]
            self._graph.insert_stages(
                [(i, stage) for i, stage in enumerate(order) if stage in queued]
            )
            wired = (
                self._inserted, len(queued), len(by_net),
                self._removed, self._retuned,
            )
            for key, value in zip(
                ("inserted", "stages", "nets", "removed", "retuned"), wired
            ):
                span.set(key, value)
        queued.clear()
        self._inserted = self._removed = self._retuned = 0
        return wired

    def on_gate_updated(
        self, circuit: Circuit, handle: GateHandle, old_gate: Gate
    ) -> None:
        """A gate was retuned in place: keep its stage, mark it dirty.

        The stage, its store and the graph survive a retune that keeps the
        action's classification and partition layout (variational angle
        changes): only the stage's own partitions join the frontier, the
        scope a newly inserted gate would have, without graph surgery.  A
        retune that changes either (``rx(pi)`` <-> ``rx(pi/2)`` crosses the
        permutation/superposition boundary) rebuilds the stage through the
        remove+insert path; the handle keeps its identity, and the edit
        counts as one retune.
        """
        stage = self._gate_stage.get(handle.uid)
        if stage is None:
            return
        self.wire(report=False)
        self._retuned += 1
        new_gate = handle.gate
        if isinstance(stage, MatVecStage):
            if gate_action(new_gate).creates_superposition and stage.retune_gate(
                old_gate, new_gate
            ):
                self._graph.touch_stage(stage)
                return
        elif stage.retune(new_gate):
            self._graph.touch_stage(stage)
            return
        # Classification or partition layout changed: rebuild this gate's
        # stage via the remove+insert path.  The removal path must see the
        # *old* gate (matvec stages look members up by value).
        handle.gate = old_gate
        self._remove(handle)
        handle.gate = new_gate
        self._insert(handle)

    def on_gate_removed(self, circuit: Circuit, handle: GateHandle) -> None:
        if handle.uid in self._gate_stage:
            self._remove(handle)
            self._removed += 1

    def _remove(self, handle: GateHandle) -> None:
        self.wire(report=False)  # the stage may still be queued
        stage = self._gate_stage.pop(handle.uid)
        net = handle.net
        if isinstance(stage, MatVecStage):
            stage.remove_gate(handle.gate)
            members = self._stage_handles[stage.uid]
            members.remove(handle)
            if members:
                self._requeue(stage, net.uid)
                return
            self._matvec.pop(net.uid, None)
        stages = self._net_stages.get(net.uid, [])
        if stage in stages:
            stages.remove(stage)
        self._stage_handles.pop(stage.uid, None)
        self._graph.remove_stage(stage)
