"""The qTask simulator: incremental, task-parallel state-vector simulation.

:class:`QTaskSimulator` observes a :class:`~repro.core.circuit.Circuit` and
maintains, across circuit modifiers, the partition task graph of §III.C-D.
Calling :meth:`QTaskSimulator.update_state` re-simulates exactly the
partitions affected by the modifiers issued since the previous update (the
partition graph's frontier sweep, §III.E), one stage plan after another in
seq order on the configured executor, each plan's chunks the only fan-out.
Stage inputs are resolved from the same stage covers the sweep runs on: an
update's plan resolves every recomputed block's source store in one pass
(``PartitionGraph.plan_sources``) as ``(store, mask)`` pairs the kernels
read through, all from earlier plans or unplanned stages; reads outside an
update walk the covers back from a stage seq.  Each affected stage's
partitions execute as one run table handed to the kernel backend, and a
swept run of consecutive diagonal / monomial stages executes as one table
applying their composed action (``_coalesce``): only the last member
declaring a block publishes it.  A net's superposition gates are one dense stage whose partitions each read
only their own blocks; only a collapse (measure / reset) reads the whole
vector, in a sync step that draws it, after which it is a projector that
joins such runs too.

Fault recovery is one loop: a chunk that raises an injected fault
(``repro.core.faults``) re-executes run by run, each run retried in place up
to ``_RUN_FAULT_RETRIES`` times; past that the fault surfaces from
``update_state``, which keeps its dirt for the next call.

The facade class most applications use is :class:`repro.QTask`, which bundles
a circuit and a simulator behind the paper's Table-II API.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from ..parallel import Executor
from ..telemetry import Telemetry
from ..telemetry import session as tsession
from ..telemetry.tracing import NULL_SPAN
from . import faults
from .faults import FaultInjected
from .blocks import (
    MAX_RUN_QUBITS,
    MAX_RUN_STAGES,
    BlockRange,
    default_block_size,
    num_blocks,
    validate_block_size,
)
from .circuit import Circuit, CircuitObserver, GateHandle, NetHandle
from .classical import OutcomeRecord
from .cow import IndexReader, InitialStateStore, MemoryReport
from .exceptions import CircuitError, QTaskError
from .exec_plan import ExecutionPlan, PlanReport, StagePlan
from .gates import Gate
from .graph import PartitionGraph, StageRun
from .kernels import (
    KernelBackend,
    NumpyBatchBackend,
    execute_run,
    iter_table_runs,
)
from .ops import CGate, MeasureOp, ResetOp, is_dynamic_op
from .stage import (
    ClassicallyControlledStage,
    DynamicStage,
    MatVecStage,
    MeasureStage,
    ResetStage,
    Stage,
    UnitaryStage,
    draw_collapses,
    gate_action,
    gate_shape,
)

__all__ = ["UpdateReport", "QTaskSimulator"]

#: the constructor knobs that define a session durably: ``fork`` hands them to
#: the child, a checkpoint header stores them and ``statistics()`` reports
#: them.  Execution resources (executor, kernel backend) are not durable
#: state; a fork shares them and a restore may override them.
DURABLE_KNOBS: Tuple[str, ...] = ("block_size",)

#: bounded in-place re-executions of one run inside the run-granular
#: fallback, the only fault recovery: 16 attempts per run, past which the
#: fault surfaces from ``update_state`` (which keeps its dirt)
_RUN_FAULT_RETRIES = 15


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


def _coalescable(sp: StagePlan) -> bool:
    """Whether a stage plan may be a run member: a recorded run's plan, a
    collapse, or a unitary stage swept whole."""
    stage = sp.stage
    return (
        sp.run is not None
        or isinstance(stage, (MeasureStage, ResetStage))
        or (isinstance(stage, UnitaryStage) and sp.mask == stage.partition_layout().cover)
    )


def _joins(first: int, last: int, size: int, qubits, stage: Stage, prefix: int) -> bool:
    """Whether an open run of ``size`` members at seqs ``first..last`` on
    ``qubits`` takes in ``stage`` (a member candidate) next: the stage is
    adjacent, neither cap is passed, and no collapse joins a run starting
    before the first dynamic stage (``prefix``)."""
    return (
        stage.seq == last + 1
        and size < MAX_RUN_STAGES
        and len(qubits.union(stage.qubits)) <= MAX_RUN_QUBITS
        and not (first < prefix and isinstance(stage, (MeasureStage, ResetStage)))
    )


@dataclass
class UpdateReport:
    """What one ``update_state`` call did."""

    affected_partitions: int = 0
    total_partitions: int = 0
    executed_block_writes: int = 0
    elapsed_seconds: float = 0.0
    was_incremental: bool = False

    @property
    def affected_fraction(self) -> float:
        if self.total_partitions == 0:
            return 0.0
        return self.affected_partitions / self.total_partitions


class QTaskSimulator(CircuitObserver):
    """Incremental task-parallel simulator attached to a circuit.

    ``block_size=None`` is :func:`~repro.core.blocks.default_block_size`'s
    rule, eight blocks per state floored at the paper's 256, resolved once:
    the session's ``block_size`` holds the value, which forks and
    checkpoints carry.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        block_size: Optional[int] = None,
        num_workers: Optional[int] = None,
        kernel_backend: Optional[object] = None,
        seed: Optional[int] = None,
        tracing: Optional[bool] = None,
    ) -> None:
        self._assemble(circuit, locals())  # the keywords above, by name
        circuit.register_observer(self)
        self._sync_existing()

    def _assemble(
        self,
        circuit: Circuit,
        knobs: Dict[str, object],
        parent: Optional["QTaskSimulator"] = None,
    ) -> None:
        """Assign every attribute of a session, once; stages are the caller's.

        The one routine behind a new session, a fork and a checkpoint
        restore.  ``knobs`` maps ``__init__`` keywords to values: the
        :data:`DURABLE_KNOBS` are required, an absent execution knob means
        what ``None`` means to ``__init__``.  A fork passes itself as
        ``parent``: the child then shares the parent's kernel backend and
        executor, reports to the parent's telemetry and starts from a clone
        of its outcomes.
        """
        self.circuit = circuit
        block_size = knobs["block_size"]
        if block_size is None:  # resolved once: forks and checkpoints carry it
            block_size = default_block_size(circuit.num_qubits)
        self.block_size = validate_block_size(block_size)
        self.dim = 1 << circuit.num_qubits
        self.n_blocks = num_blocks(self.dim, self.block_size)

        #: what executes the run tables: the numpy slab backend unless the
        #: session was handed a :class:`KernelBackend` instance (the seam the
        #: tests use to run a session on the reference loop).  "auto" and
        #: "numpy" are accepted spellings of ``None``; backends are
        #: stateless, so a fork shares its parent's.
        spec = knobs.get("kernel_backend")
        if parent is not None:
            self._backend = parent._backend
        elif isinstance(spec, KernelBackend):
            self._backend = spec
        elif spec is not None and spec not in ("auto", "numpy"):
            raise ValueError(
                f"unknown kernel backend {spec!r}; expected None, 'auto', "
                "'numpy' or a KernelBackend instance"
            )
        else:
            self._backend = NumpyBatchBackend()

        # Last of the knobs: a rejected one above must not leak worker threads.
        #: a fork shares its parent's executor; only a root session closes one
        self._owns_executor = parent is None
        self.executor: Executor = (
            Executor(knobs.get("num_workers")) if parent is None else parent.executor
        )

        # A fork gets its own registry (counters start at zero) tagged with
        # the parent session's id, so aggregation can merge fork stats back
        # instead of losing them -- see SweepRunner.merged_metrics().
        self._init_telemetry(
            tracing=knobs.get("tracing"),
            parent=parent.telemetry if parent is not None else None,
        )
        #: where a fork's ``fork.close`` span lands: its parent's tracer
        self._parent_tracer = parent.telemetry.tracer if parent is not None else None

        self._initial = InitialStateStore(self.dim, self.block_size)
        #: read through :attr:`graph`, which wires queued inserts first
        self._graph = PartitionGraph(
            BlockRange(0, self.n_blocks - 1),
            on_stage_inserted=self._on_stage_entered,
            on_stage_removed=self._on_stage_left,
        )

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
        #: of their net; :meth:`_wire` files them all at the next graph read
        self._queued: Dict[Stage, int] = {}
        #: gates inserted since the last wiring (a matvec member included),
        #: and gates removed / retuned since the last ``modify`` span
        self._inserted = 0
        self._removed = 0
        self._retuned = 0
        #: ``(gates, stages, nets, removed, retuned)`` the last update's
        #: ``modify`` span recorded before planning
        self._last_wired = (0, 0, 0, 0, 0)

        #: set by :meth:`close`
        self._closed = False
        self.last_update: UpdateReport = UpdateReport()
        #: ``(first seq, stages swept, stage plans)`` of the last update's
        #: frontier sweep and what it coalesced
        #: (:meth:`ExecutionPlan.coalesced`), for :meth:`explain_last_update`
        self._last_sweep = (0, 0, 0)
        self._last_coalesced = (0, 0, 0, 0, 0, 0, 0)
        #: completed ``update_state`` calls; with "is anything pending" this
        #: is the state epoch a sweep's fork uses to detect a diverged base
        self._num_updates = 0

        #: per-trajectory classical state: measurement outcomes, classical
        #: bits and the keyed randomness that draws collapses.  Dynamic
        #: stages hold a reference to this record (the graph's insertion hook
        #: binds it); a fork starts from a verbatim copy of its parent's, so
        #: re-collapses stay fork-local.
        self.outcomes = (
            parent.outcomes.clone()
            if parent is not None
            else OutcomeRecord(circuit.num_clbits, seed=knobs.get("seed"))
        )
        #: live dynamic stages, in no particular order (trajectory re-arming)
        self._dynamic_stages: Dict[int, DynamicStage] = {}

        #: dirty-block listeners: callables receiving the ids of every block
        #: (re)written by an update or orphaned by a stage removal.  The
        #: observables engine registers here so its per-block caches are
        #: invalidated by exactly the frontier the incremental update scopes.
        self._dirty_listeners: List[Callable[[Iterable[int]], None]] = []
        self._observables = None

    def _init_telemetry(
        self,
        *,
        tracing: Optional[bool] = None,
        parent: Optional[Telemetry] = None,
    ) -> None:
        """One telemetry bundle per session; plan counters live in it.

        The plan-pipeline counters keep their ``self._x`` attribute names,
        but each is now a registry-owned :class:`~repro.telemetry.Counter`
        -- write sites call ``.inc()``, report sites read ``.value``, and
        the same numbers surface through ``telemetry_report()`` and the
        Prometheus dump without a second bookkeeping path.
        """
        self.telemetry = Telemetry(tracing=tracing, parent=parent)
        m = self.telemetry.metrics
        #: plan-pipeline counters (see :meth:`plan_report`)
        self._plans_built = m.counter(
            "plan.plans_built", help="stage plans compiled"
        )
        self._runs_batched = m.counter(
            "plan.runs_batched", help="block runs batched into plans"
        )
        self._plan_chunks = m.counter(
            "plan.chunks", help="executor-visible plan chunks"
        )
        self._stages_coalesced = m.counter(
            "plan.stages_coalesced",
            help="stages executed as members of a coalesced run",
        )
        self._updates_planned = m.counter(
            "plan.updates_planned", help="updates through the plan pipeline"
        )
        self._backend_fallbacks = m.counter(
            "recovery.backend_fallbacks",
            help="chunk executions that fell back run-granular",
        )
        self._run_retries = m.counter(
            "recovery.run_retries", help="per-run fault retries"
        )
        self._update_seconds = m.histogram(
            "update.seconds", unit="s", help="update_state wall time"
        )
        #: event-log high-water mark when the last update began, so
        #: ``explain_last_update`` can scope "what recovery did" exactly.
        self._update_event_mark = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the circuit, drop the state, release the executor.

        Every stage store is cleared, so the session's blocks are freed here
        by reference count instead of whenever the cyclic collector reaches
        the simulator <-> stage cycle; arrays a fork adopted live on through
        the fork's own references.  Reads of a closed session raise.
        Queued inserts are dropped unwired.  A fork's close is one
        ``fork.close`` span on its parent's tracer.
        """
        tracer = self._parent_tracer
        with tracer.span("fork.close") if tracer is not None else NULL_SPAN:
            self._closed = True
            self.circuit.unregister_observer(self)
            for stage in [*self._graph.stages, *self._queued]:
                stage.store.release()
            if self._owns_executor:
                self.executor.close()

    def __enter__(self) -> "QTaskSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _sync_existing(self) -> None:
        """Adopt gates already present in the circuit at attach time."""
        for net in self.circuit.nets():
            for handle in net.gates:
                self.on_gate_inserted(self.circuit, handle)

    @property
    def graph(self) -> PartitionGraph:
        """The partition graph, with every queued insert wired into it."""
        self._wire()
        return self._graph

    def _has_edits(self) -> bool:
        """True when the next update has modifiers to apply."""
        return bool(self._queued) or self._graph.has_pending

    # ------------------------------------------------------------------
    # session forking (copy-on-write children)
    # ------------------------------------------------------------------

    @property
    def state_epoch(self) -> Tuple[int, bool]:
        """``(completed updates, edits pending)`` -- the session's version.

        Two observations of the same epoch with no pending edits are
        guaranteed to describe the same simulated state;
        :class:`~repro.parallel.sweep.SweepRunner` compares epochs to detect
        that its base session has diverged from its fork.
        """
        return self._num_updates, self.graph.has_pending

    def fork(self) -> "QTaskSimulator":
        """A child simulator sharing this one's computed state copy-on-write.

        The child gets its own circuit (a structural clone with fresh
        handles), its own stages, partition graph (layout records included)
        and observables engine -- but every stage store *adopts* the parent
        stage's blocks by reference (:meth:`BlockStore.share_from`), so
        forking costs O(stages + stored blocks) bookkeeping and zero block
        copies.  The first write a child update makes to a block rebinds the
        child's entry, leaving the parent untouched; edits on either side
        never perturb the other.

        The child always runs on this simulator's kernel backend and
        *shares its executor* (``close()`` on the child will not shut it
        down).  Pending modifiers on
        this simulator are flushed first so the forked state is well
        defined; the child's gate-handle translation table is exposed as
        ``forked_gate_map`` (parent handle uid -> child handle).  The
        mirroring is one ``fork`` span on this session's tracer (attrs
        ``stages`` mirrored, ``blocks`` adopted).
        """
        # The forked state is "the state after all issued modifiers".
        if self._has_edits() or self._num_updates == 0:
            self.update_state()
        with self.telemetry.tracer.span("fork") as span:
            circuit, gate_map, net_map = self.circuit.clone()

            child = QTaskSimulator.__new__(QTaskSimulator)
            knobs = {name: getattr(self, name) for name in DURABLE_KNOBS}
            knobs["tracing"] = self.telemetry.tracer.enabled
            child._assemble(circuit, knobs, parent=self)
            child._num_updates = self._num_updates

            # Mirror the parent's stages in its exact global order (seq-based
            # block resolution depends on it) together with their layout
            # records -- O(stages).
            stages = self._graph.stages
            stage_map: Dict[int, Stage] = {}
            for stage in stages:
                child_stage = stage.clone_for_fork()
                stage_map[stage.uid] = child_stage
                members = [gate_map[h.uid] for h in self._stage_handles[stage.uid]]
                child._stage_handles[child_stage.uid] = members
                for child_handle in members:
                    child._gate_stage[child_handle.uid] = child_stage
            child._graph.mirror_from(self._graph, stage_map)
            for net_uid, net_stages in self._net_stages.items():
                child_net = net_map.get(net_uid)
                if child_net is not None:
                    child._net_stages[child_net.uid] = [
                        stage_map[s.uid] for s in net_stages
                    ]
            for net_uid, stage in self._matvec.items():
                child._matvec[net_map[net_uid].uid] = stage_map[stage.uid]

            # Adopt the parent's computed blocks copy-on-write (zero copies);
            # the mirrored layouts already declare every adopted block.
            blocks = 0
            for stage in stages:
                blocks += stage_map[stage.uid].store.share_from(stage.store)

            # A warm observables cache is valid verbatim (identical state).
            if self._observables is not None:
                child._observables = self._observables.clone_for(child)

            child.forked_gate_map = gate_map
            circuit.register_observer(child)
            span.set("stages", len(stages))
            span.set("blocks", blocks)
        return child

    # ------------------------------------------------------------------
    # partition-graph hooks: per-stage session state
    # ------------------------------------------------------------------

    def _on_stage_entered(self, stage: Stage) -> None:
        if isinstance(stage, DynamicStage):
            stage.bind_record(self.outcomes)
            if isinstance(stage, ClassicallyControlledStage):
                stage.bind_clbit_lookup(self._clbit_value_asof)
            self._dynamic_stages[stage.uid] = stage

    def _clbit_value_asof(self, bit: int, before_seq: int) -> int:
        """The value of ``bit`` at program point ``before_seq``.

        Resolved from the recorded outcome of the latest measurement stage
        that writes ``bit`` and executes strictly before ``before_seq`` --
        never from the final classical register, whose bits a *later*
        measurement may have overwritten on a previous (partial) execution
        pass.  This is what makes incrementally re-executed c_if stages read
        the same values a from-scratch run would.
        """
        best_seq = -1
        value = 0
        for stage in self._dynamic_stages.values():
            if (
                isinstance(stage, MeasureStage)
                and stage.op.clbit == bit
                and best_seq < stage.seq < before_seq
            ):
                outcome = self.outcomes.outcome_of(stage.op.op_index)
                if outcome is not None:
                    best_seq = stage.seq
                    value = outcome
        return value

    def _on_stage_left(self, stage: Stage) -> None:
        # A departing stage's stored blocks now resolve to an *older* writer,
        # which changes the final state even when nothing re-executes (e.g.
        # removing the last gate of the circuit) -- so they are dirty now.
        self._notify_dirty(stage.store.stored_blocks())
        self._dynamic_stages.pop(stage.uid, None)
        if isinstance(stage, MeasureStage):
            # A removed measurement no longer backs its classical bit:
            # forget its outcome and fall back to the latest surviving
            # writer of the bit (0 when none), so downstream c_if stages --
            # which the removal's frontier re-executes -- read the value a
            # from-scratch run of the edited circuit would produce.
            self.outcomes.discard_op(stage.op.op_index)
            self._restore_clbit(stage.op.clbit)
        elif isinstance(stage, ResetStage):
            self.outcomes.discard_op(stage.op.op_index)

    def _restore_clbit(self, clbit: int) -> None:
        """Rebind ``clbit`` to the last surviving measurement that wrote it."""
        value = 0
        for handle in self.circuit.gates():
            op = handle.gate
            if isinstance(op, MeasureOp) and op.clbit == clbit:
                outcome = self.outcomes.outcome_of(op.op_index)
                if outcome is not None:
                    value = outcome
        self.outcomes.set_bit(clbit, value)

    # ------------------------------------------------------------------
    # dirty-block listeners (observable caches)
    # ------------------------------------------------------------------

    def add_dirty_listener(self, listener: Callable[[Iterable[int]], None]) -> None:
        """Subscribe to dirty-block notifications (see ``_dirty_listeners``)."""
        if listener not in self._dirty_listeners:
            self._dirty_listeners.append(listener)

    def remove_dirty_listener(self, listener: Callable[[Iterable[int]], None]) -> None:
        if listener in self._dirty_listeners:
            self._dirty_listeners.remove(listener)

    def _notify_dirty(self, blocks: Sequence[int]) -> None:
        """Hand listeners the dirty block ids as one index array."""
        if not self._dirty_listeners:
            return
        ids = np.asarray(blocks, dtype=np.intp)
        if not ids.size:
            return
        for listener in self._dirty_listeners:
            listener(ids)

    # ------------------------------------------------------------------
    # CircuitObserver callbacks: maintain stages + partition graph
    # ------------------------------------------------------------------

    def on_net_inserted(self, circuit: Circuit, net: NetHandle, position: int) -> None:
        self._net_stages.setdefault(net.uid, [])

    def on_net_removed(self, circuit: Circuit, net: NetHandle,
                       removed_gates: Sequence[GateHandle]) -> None:
        # Individual gate removals already wired and dismantled its stages.
        self._net_stages.pop(net.uid, None)
        self._matvec.pop(net.uid, None)

    def on_gate_inserted(self, circuit: Circuit, handle: GateHandle) -> None:
        """Build the gate's stage -- classification and layout errors raise
        here -- and queue it: :meth:`_wire` files every queued stage at the
        next graph read.  A superposition gate joins its net's matvec stage.
        """
        self._insert_handle(handle)
        self._inserted += 1

    def _insert_handle(self, handle: GateHandle) -> None:
        gate = handle.gate
        net_uid = handle.net.uid
        args = (self.circuit.num_qubits, self.block_size)
        if is_dynamic_op(gate):
            self.outcomes.ensure_bits(self.circuit.num_clbits)
            stage = self._make_dynamic_stage(gate)
        elif gate_shape(gate, *args)[0].creates_superposition:
            stage = self._matvec.get(net_uid)
            if stage is not None:
                stage.add_gate(gate)
                self._requeue(stage, net_uid)
                self._gate_stage[handle.uid] = stage
                self._stage_handles[stage.uid].append(handle)
                return
            stage = self._matvec[net_uid] = MatVecStage([gate], *args)
        else:
            stage = UnitaryStage(gate, *args)
        self._gate_stage[handle.uid] = stage
        self._stage_handles[stage.uid] = [handle]
        self._queued[stage] = net_uid

    def _requeue(self, stage: MatVecStage, net_uid: int) -> None:
        """Take a wired matvec stage whose members are about to change out of
        the graph, to be filed again at the next wiring.

        Its qubits, and with them its layout, change: the graph forgets the
        layout it recorded (the removal hands that cover's dirt on) and the
        wiring files the new one (marking the new cover dirty).
        """
        if stage in self._queued:
            return
        self._net_stages[net_uid].remove(stage)
        self._graph.remove_stage(stage)
        self._queued[stage] = net_uid

    def _make_dynamic_stage(self, op) -> DynamicStage:
        """Build the stage for a measure/reset/classically-controlled op."""
        args = (self.circuit.num_qubits, self.block_size)
        if isinstance(op, MeasureOp):
            return MeasureStage(op, *args, record=self.outcomes)
        if isinstance(op, ResetOp):
            return ResetStage(op, *args, record=self.outcomes)
        if isinstance(op, CGate):
            return ClassicallyControlledStage(op, *args, record=self.outcomes)
        raise CircuitError(f"unknown dynamic operation {op!r}")

    def _wire(self, *, report: bool = True) -> Tuple[int, int, int, int, int]:
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
        queued = self._queued
        if not queued and not (report and (self._removed or self._retuned)):
            return (0, 0, 0, 0, 0)
        with self.telemetry.tracer.span("modify") as span:
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

        The stage object, its store, and the partition-graph topology all
        survive a retune whenever the new parameters preserve the action's
        classification and partition layout (the overwhelmingly common case
        in variational sweeps: ``rz``/``rx``/``cp`` angle changes).  Only the
        stage's own partitions join the frontier; the incremental update then
        re-simulates exactly the downstream cone -- the same scope a newly
        inserted gate would have, without any graph surgery.

        When the retune *does* change the classification (e.g. ``rx(pi)``
        <-> ``rx(pi/2)`` crossing the permutation/superposition boundary) or
        the layout (angles collapsing a gate to the identity), the stage is
        rebuilt through the remove+insert path; the gate handle keeps its
        identity either way, and the edit counts as one retune.
        """
        stage = self._gate_stage.get(handle.uid)
        if stage is None:
            return
        self._wire(report=False)
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
        self._remove_handle(handle)
        handle.gate = new_gate
        self._insert_handle(handle)

    def on_gate_removed(self, circuit: Circuit, handle: GateHandle) -> None:
        if handle.uid in self._gate_stage:
            self._remove_handle(handle)
            self._removed += 1

    def _remove_handle(self, handle: GateHandle) -> None:
        self._wire(report=False)  # the stage may still be queued
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

    # ------------------------------------------------------------------
    # trajectories (dynamic circuits)
    # ------------------------------------------------------------------

    @property
    def num_dynamic_stages(self) -> int:
        """Live measure/reset/classically-controlled stages."""
        self._wire()
        return len(self._dynamic_stages)

    def reset_trajectory(self, seed=None, from_op: Optional[int] = None) -> None:
        """Re-arm the dynamic operations for a fresh trajectory.

        Clears the outcome record (reseeding its keyed randomness with
        ``seed``) and marks every dynamic stage dirty -- a touched collapse
        re-runs whole, sync barrier (where outcomes are drawn) included -- so
        the next :meth:`update_state` re-collapses from the first
        measurement onward while the unitary prefix stays cached
        (copy-on-write makes the re-collapse exactly as incremental as a
        gate update at the same depth).

        With ``from_op`` (the ``op_index`` of a measure or reset) the new
        trajectory shares the current one's prefix: bits and outcomes of the
        operations executing before ``from_op`` are kept, and only the
        dynamic stages from it onward are re-armed and redrawn under
        ``seed``.  :meth:`repro.QTask.run_shots` branches this way wherever a
        shot's draw leaves a path it has already simulated, passing a
        :class:`~repro.core.classical.PrimedSeed` so the re-armed collapses
        take their first draws from its row.
        """
        stages = self._dynamic_stages_from(from_op)
        if from_op is None:
            self.outcomes.reseed(seed)
        else:
            self.outcomes.branch(seed, [s.op.op_index for s in stages])
        for stage in stages:
            self._graph.touch_stage(stage)

    def _dynamic_stages_from(self, from_op: Optional[int]) -> List[DynamicStage]:
        """Dynamic stages in execution order, from ``from_op``'s stage on."""
        # a queued stage is registered, and gets its seq, there
        self._wire(report=False)
        stages = sorted(self._dynamic_stages.values(), key=lambda s: s.seq)
        if from_op is None:
            return stages
        for i, stage in enumerate(stages):
            if stage.op.op_index == from_op:
                return stages[i:]
        raise CircuitError(f"no dynamic operation has op_index {from_op}")

    def collapse_ops(self) -> List[int]:
        """``op_index`` of every measure/reset, execution order."""
        return [
            s.op.op_index
            for s in self._dynamic_stages_from(None)
            if isinstance(s, (MeasureStage, ResetStage))
        ]

    def collapse_path(
        self, from_op: Optional[int] = None
    ) -> List[Tuple[int, float, float, int]]:
        """``(op_index, p0, p1, outcome)`` per measure/reset, execution order.

        The masses are the ones each collapse last drew against, so right
        after an update they describe the trajectory the session holds;
        ``from_op`` starts the list at that operation.
        """
        return [
            (s.op.op_index, *s.masses, s.outcome)
            for s in self._dynamic_stages_from(from_op)
            if isinstance(s, (MeasureStage, ResetStage)) and s.masses is not None
        ]

    def _light_cone(self) -> Tuple[Optional[MeasureOp], List[GateHandle]]:
        """The last measurement, and the gates no measurement can see.

        Scans the stages backwards, from the last one down to the first
        dynamic stage, growing the set of qubits a later collapse reads.
        A measure or reset is kept and adds its qubit; a gate (a ``c_if``
        too, each member of a matvec stage on its own) is kept when its
        qubits meet the set, and then adds them.  Every other gate there,
        and every stage after the last measurement, acts on qubits no later
        collapse reads, so it commutes with all of them: dropping it moves
        no collapse's masses and no classical bit.  The prefix before the
        first dynamic stage is shared and never re-run; it is left alone.
        Returns ``(None, [])`` when the circuit measures nothing.
        """
        stages = self.graph.stages
        first = min((s.seq for s in self._dynamic_stages.values()), default=len(stages))
        last: Optional[MeasureOp] = None
        cone: set = set()
        unobserved: List[GateHandle] = []
        for stage in reversed(stages[first:]):
            if last is None and isinstance(stage, MeasureStage):
                last = stage.op
            collapse = isinstance(stage, (MeasureStage, ResetStage))
            for handle in self._stage_handles[stage.uid]:
                qubits = handle.gate.qubits
                if last is not None and (collapse or not cone.isdisjoint(qubits)):
                    cone.update(qubits)
                else:
                    unobserved.append(handle)
        return (last, unobserved) if last is not None else (None, [])

    # ------------------------------------------------------------------
    # state update (full or incremental)
    # ------------------------------------------------------------------

    def update_state(self) -> UpdateReport:
        """Re-simulate every partition affected by modifiers since last call."""
        tel = self.telemetry
        self._update_event_mark = tel.events.last_seq
        prev = tsession.activate(tel)
        try:
            if tel.tracer.enabled:
                with tel.tracer.span("update", root=True) as span:
                    report = self._update_state_impl()
                    span.set("affected", report.affected_partitions)
                    span.set("block_writes", report.executed_block_writes)
                    span.set("update", self._num_updates - 1)
            else:
                report = self._update_state_impl()
            self._update_seconds.observe(report.elapsed_seconds)
            return report
        finally:
            tsession.deactivate(prev)

    def _update_state_impl(self) -> UpdateReport:
        start = time.perf_counter()
        graph = self._graph
        settled, graph.runs_settled = graph.runs_settled, False
        plan = self._build_plan()
        report = UpdateReport(
            affected_partitions=plan.affected_partitions,
            total_partitions=self._graph.num_nodes(),
            was_incremental=self._num_updates > 0,
        )
        if plan.stage_plans:
            # an installed FaultPlan fires inside this scope and nowhere else
            with faults.armed():
                self._execute(plan)
            report.executed_block_writes = plan.block_writes
            if self._dirty_listeners:
                # the blocks the affected partitions wrote, bit by bit
                bits = np.frombuffer(
                    plan.written.to_bytes((self.n_blocks + 7) // 8, "little"),
                    dtype=np.uint8,
                )
                self._notify_dirty(
                    np.flatnonzero(np.unpackbits(bits, bitorder="little"))
                )
        # only now: an update that raised keeps its dirt -- and the runs its
        # stages were last executed in -- for the next one
        graph.clear_pending()
        for sp in plan.runs():
            # a reused record's members already hold exactly what they own
            if not (sp.reused and settled):
                sp.store.settle()
        graph.record_runs(plan.stage_plans)
        graph.runs_settled = True
        report.elapsed_seconds = time.perf_counter() - start
        self.last_update = report
        self._last_sweep = (plan.first_seq, plan.stages_swept, plan.num_stages)
        self._last_coalesced = plan.coalesced()
        self._num_updates += 1
        return report

    def _build_plan(self) -> ExecutionPlan:
        """Sweep the pending dirt into stage plans and resolve their inputs.

        One pass, inside the ``plan.build`` span: the partition graph's
        frontier sweep emits the affected stages in seq order, swept runs
        of static stages coalesce into one plan each, one pass over the
        covers gives every recomputed block's source store, and static
        stages freeze their run tables.  Queued inserts are wired first,
        in the ``modify`` span before it.
        """
        self._last_wired = self._wire()
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return self._build_plan_impl()
        with tracer.span("plan.build") as span:
            plan = self._build_plan_impl()
            coalesced, collapses, runs, _, _, recomposed, reused = plan.coalesced()
            span.set("first_seq", plan.first_seq)
            span.set("stages_swept", plan.stages_swept)
            span.set("stages", plan.num_stages)
            span.set("runs", runs)
            span.set("coalesced_stages", coalesced)
            span.set("collapses", collapses)
            span.set("runs_recomposed", recomposed)
            span.set("runs_reused", reused)
            span.set("kernel_runs", plan.static_runs())
        return plan

    def _build_plan_impl(self) -> ExecutionPlan:
        graph = self._graph
        plan = graph.sweep()
        self._coalesce(plan)
        stage_plans = plan.stage_plans
        tables = graph.plan_sources(stage_plans, self._initial)
        for sp, sources in zip(stage_plans, tables):
            sp.reader = IndexReader(graph, self._initial, sp.stage.seq, sources)
            sp.freeze_static()
        return plan

    def _coalesce(self, plan: ExecutionPlan) -> None:
        """Turn every swept run of diagonal / monomial stages into one plan.

        A run is a maximal sequence of seq-adjacent stage plans whose stages
        are unitary stages or collapses (a measure / reset is a projector
        once drawn) and swept whole, cut where the union of the members'
        qubits would pass ``MAX_RUN_QUBITS`` or the member count
        ``MAX_RUN_STAGES``; a dense or ``c_if`` stage plans alone.  It
        executes as one table -- the members' composed action over the
        union of their covers, read as of the first member -- and each
        block is published to the last member declaring it
        (``RoutedStore``); what that costs later is the sweep's widening,
        see ``PartitionGraph.sweep``.  A run holding collapses draws them
        all in one sync step first (:func:`draw_collapses`).

        A re-armed collapse re-runs its run from the head, and the members
        before it hold nothing of its blocks: so no collapse joins a run
        that starts before the first dynamic stage, and the unitary prefix
        every trajectory shares stays cached.

        The sweep emits a recorded run as its record's one plan.  That plan
        is kept (reused) exactly where this greedy pass would form the same
        run again: no open group takes its head in, its follower would not
        join it, and it still meets the collapse rule (a record meets the
        caps for as long as it lives).  Otherwise the record is expanded
        into its members' plans and regrouped.
        """
        graph = self._graph
        merged: List[StagePlan] = []
        group: List[StagePlan] = []
        qubits: set = set()
        prefix = min((s.seq for s in self._dynamic_stages.values()), default=0)

        def close() -> None:
            if len(group) > 1:
                cover = 0
                for sp in group:
                    cover |= sp.mask
                run = StageRun(tuple(sp.stage for sp in group), cover)
                merged.append(graph.run_plan(run))
            else:
                merged.append(group[0])
            group.clear()
            qubits.clear()

        def add(sp: StagePlan) -> None:
            if group and not _joins(group[0].stage.seq, group[-1].stage.seq,
                                    len(group), qubits, sp.stage, prefix):
                close()
            group.append(sp)
            qubits.update(sp.stage.qubits)

        plans = plan.stage_plans
        for k, sp in enumerate(plans):
            run = sp.run
            if run is None:
                if _coalescable(sp):
                    add(sp)
                    continue
                if group:
                    close()
                merged.append(sp)
                continue
            head, size = run.members[0], len(run.members)
            follower = plans[k + 1] if k + 1 < len(plans) else None
            if not (
                (group and _joins(group[0].stage.seq, group[-1].stage.seq,
                                  len(group), qubits, head, prefix))
                or (run.has_sync and head.seq < prefix)
                or (
                    follower is not None
                    and _coalescable(follower)
                    and _joins(head.seq, run.members[-1].seq, size, run.qubits,
                               follower.stage, prefix)
                )
            ):
                if group:
                    close()
                sp.reused = True
                merged.append(sp)
                continue
            for member in graph.member_plans(run):
                add(member)
        if group:
            close()
        plan.stage_plans = merged

    def _reader_asof(self, before_seq: int):
        """A writer-index view of everything written before ``before_seq``."""
        if self._closed:
            # close() emptied the stores: every block would resolve to |0...0>
            raise QTaskError("session is closed")
        return IndexReader(self._graph, self._initial, before_seq)

    def _execute(self, plan: ExecutionPlan) -> None:
        """Batch-execute the plan, one executor step per stage plan -- an
        affected *stage*, or a coalesced run of them -- in plan order.

        A step runs the plan's sync step (the draws) when its barrier is
        affected, materialises the stage's run table, and hands it -- split
        into at most ``Executor.num_workers`` chunks -- to the kernel
        backend.  Plan order is seq order, which every block source
        respects: a plan reads only what earlier plans (or unplanned
        stages) wrote.
        """
        # labelled lazily: only a failing step formats its label
        self.executor.run(
            (self._make_plan_body(sp, plan.redraw_from), sp.label)
            for sp in plan.stage_plans
        )

        self._plans_built.inc(plan.num_stages)
        self._stages_coalesced.inc(sum(len(sp.members) for sp in plan.runs()))
        self._runs_batched.inc(plan.total_runs())
        self._plan_chunks.inc(plan.total_chunks())
        self._updates_planned.inc()

    def _make_plan_body(self, sp: StagePlan, redraw_from: int):
        width = self.executor.num_workers
        tel = self.telemetry

        def body():
            if sp.has_sync:
                with (
                    tel.tracer.span("stage.prepare", {"stage": sp.label()})
                    if tel.tracer.enabled else NULL_SPAN
                ):
                    draw_collapses(sp.members, sp.reader, redraw_from)
            table = sp.build_table()
            if table.num_runs == 0:
                return None
            chunks = table.split(width)
            sp.num_chunks = len(chunks)
            if len(chunks) == 1:
                self._run_plan_chunk(sp, chunks[0])
                return None
            # Chunks may run on pool threads; carry the trace context
            # (parented to the current span, i.e. the update) onto each
            # chunk closure so their spans nest correctly.
            parent = tel.tracer.current_span_id()
            subtasks = []
            for c in chunks:
                fn = (lambda c=c: self._run_plan_chunk(sp, c))
                fn.trace_context = (tel, parent)
                subtasks.append(fn)
            return subtasks

        return body

    def _run_plan_chunk(self, sp: StagePlan, chunk) -> None:
        if self.telemetry.tracer.enabled:
            amps = int((chunk.his - chunk.los + 1).sum()) if chunk.num_runs else 0
            with self.telemetry.tracer.span(
                "run.chunk",
                {
                    "stage": sp.label(),
                    "backend": self._backend.name,
                    "runs": chunk.num_runs,
                    "amps": amps,
                },
            ):
                self._execute_chunk(sp, chunk)
        else:
            self._execute_chunk(sp, chunk)

    def _execute_chunk(self, sp: StagePlan, chunk) -> None:
        backend = self._backend
        try:
            backend.execute_plan(sp.reader, sp.store, chunk)
        except FaultInjected as exc:
            # The one fault recovery.  Both fault sites (``kernel.run``,
            # ``cow.publish``) fire inside the chunk, and its writes are
            # deterministic overwrites, so re-executing it run by run is
            # always safe.  Anything else is a programming error.
            self._backend_fallbacks.inc()
            tsession.emit_event(
                "chunk.fallback",
                stage=sp.label(),
                backend=backend.name,
                reason=f"{type(exc).__name__}: {exc}",
            )
            self._run_chunk_fallback(sp, chunk)

    def _run_chunk_fallback(self, sp: StagePlan, chunk) -> None:
        """Run-granular chunk execution with bounded per-run fault retries.

        Each run is retried in place on an injected fault (it redraws the
        site streams, so retries converge); past ``_RUN_FAULT_RETRIES`` the
        fault propagates out of ``update_state``, whose dirt stays for the
        caller's next call.  No draw re-runs: the plan's draws happened
        before its chunks, so no classical state needs rolling back.
        """
        for spec in iter_table_runs(chunk):
            attempt = 0
            while True:
                try:
                    execute_run(sp.reader, sp.store, spec)
                    break
                except FaultInjected:
                    attempt += 1
                    if attempt > _RUN_FAULT_RETRIES:
                        raise
                    self._run_retries.inc()
                    tsession.emit_event(
                        "run.retry",
                        stage=sp.label(),
                        attempt=attempt,
                    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def state_reader(self):
        """A block-resolving :class:`StateReader` over the final state.

        The reader serves the state as of the last ``update_state`` call
        through the COW block resolution (O(1) construction),
        which is how the observables engine reads amplitudes without
        materialising the full vector.
        """
        return self._reader_asof(sys.maxsize)

    def state(self) -> np.ndarray:
        """The full state vector after the last ``update_state`` call."""
        return self._reader_asof(sys.maxsize).full_vector()

    def amplitude(self, basis_state: int) -> complex:
        if not 0 <= basis_state < self.dim:
            raise IndexError(f"basis state {basis_state} out of range")
        reader = self._reader_asof(sys.maxsize)
        return complex(reader.read_range(basis_state, basis_state)[0])

    def probabilities(self) -> np.ndarray:
        amps = self.state()
        return (amps.conj() * amps).real

    def probability(self, basis_state: int) -> float:
        a = self.amplitude(basis_state)
        return float((a.conjugate() * a).real)

    def norm(self) -> float:
        """The state's 2-norm, accumulated block-wise.

        Uses the observables engine's per-block probability masses (cached
        in its sampling tree and invalidated by the dirty frontier) instead
        of materialising the full ``probabilities()`` array.
        """
        return float(math.sqrt(self.observables.total_probability()))

    # -- observables --------------------------------------------------------

    @property
    def observables(self):
        """The lazily created observables engine bound to this simulator.

        One engine per simulator; its per-block caches subscribe to the
        dirty-block notifications and therefore stay consistent across
        incremental updates.
        """
        if self._observables is None:
            from ..observables.engine import ObservablesEngine

            self._observables = ObservablesEngine(self)
        return self._observables

    def expectation(self, observable) -> float:
        """``<psi|H|psi>`` of a Hermitian Pauli observable, block-wise.

        ``observable`` is a :class:`~repro.observables.PauliSum`,
        :class:`~repro.observables.PauliString` or label string.
        """
        return self.observables.expectation(observable)

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        """Draw ``shots`` basis-state samples from ``|psi|^2``."""
        return self.observables.sample(shots, seed=seed)

    def counts(self, shots: int, *, seed: Optional[int] = None) -> Dict[str, int]:
        """Measurement histogram ``{bitstring: count}`` over ``shots`` draws."""
        return self.observables.counts(shots, seed=seed)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome distribution of measuring a subset of qubits."""
        return self.observables.marginal_probabilities(qubits)

    def memory_report(self) -> MemoryReport:
        """Logical COW storage accounting across every stage store.

        Returns a :class:`~repro.core.cow.MemoryReport` whose
        ``allocated_bytes`` counts only the blocks stages actually
        materialised, ``dense_bytes`` what one dense vector per stage would
        cost -- byte for byte what a store per stage without copy-on-write
        held, the §IV.F baseline -- and ``savings_fraction`` the headroom
        between the two (the §III.F.3 copy-on-write saving).
        """
        return MemoryReport.from_stores(s.store for s in self.graph.stages)

    def plan_report(self) -> PlanReport:
        """Dispatch-overhead accounting of the plan pipeline.

        The :meth:`memory_report` sibling for execution plans: plans
        compiled, runs batched into them, executor-visible chunks, the
        backend that executed them and how often a faulted chunk fell back
        to run-granular execution.
        """
        return PlanReport(
            backend=self._backend.name,
            plans_built=self._plans_built.value,
            runs_batched=self._runs_batched.value,
            stages_coalesced=self._stages_coalesced.value,
            plan_chunks=self._plan_chunks.value,
            backend_fallbacks=self._backend_fallbacks.value,
            updates_planned=self._updates_planned.value,
            run_retries=self._run_retries.value,
        )

    def statistics(self) -> Dict[str, object]:
        """Counters describing the simulator's current incremental state.

        Combines the partition-graph shape (``num_stages``, ``num_nodes``,
        ``num_edges`` -- counted from the stage covers on every call,
        without building a node --
        and ``num_frontiers``, the stages carrying pending dirt) with the
        configuration knobs (:data:`DURABLE_KNOBS` and the worker count) and the
        outcome of the most recent update (affected partitions, elapsed
        seconds), so benchmark rows and debugging sessions can snapshot one
        dict instead of poking internals.
        """
        stats = self.graph.stats().as_dict()
        stats.update((name, getattr(self, name)) for name in DURABLE_KNOBS)
        stats.update(
            {
                "num_updates": self._num_updates,
                "num_workers": self.executor.num_workers,
                "num_dynamic_stages": self.num_dynamic_stages,
                "cached_observable_partials": (
                    self._observables.cached_partials
                    if self._observables is not None
                    else 0
                ),
                "last_affected_partitions": self.last_update.affected_partitions,
                "last_elapsed_seconds": self.last_update.elapsed_seconds,
                # 0: blocks stay in process; kept while the ledger reads them
                "store_remote_reads": 0,
                "store_bytes_shipped": 0,
            }
        )
        stats.update(self.plan_report().as_dict())
        self._refresh_gauges(stats)
        return stats

    def _refresh_gauges(self, stats: Dict[str, object]) -> None:
        """Mirror point-in-time statistics into the registry as gauges.

        Counters already live in the registry; the graph shape, last-update
        outcome and executor mirror are point-in-time readings,
        so they surface as gauges -- refreshed on every ``statistics()`` /
        ``telemetry_report()`` call rather than written on the hot path.
        """
        m = self.telemetry.metrics
        m.gauge("graph.num_stages").set(stats["num_stages"])
        m.gauge("graph.num_nodes").set(stats["num_nodes"])
        m.gauge("graph.num_edges").set(stats["num_edges"])
        m.gauge("graph.num_frontiers").set(stats["num_frontiers"])
        m.gauge("update.count").set(stats["num_updates"])
        m.gauge("update.last_affected_partitions").set(
            stats["last_affected_partitions"]
        )
        m.gauge("update.last_elapsed_seconds", unit="s").set(
            stats["last_elapsed_seconds"]
        )

    def explain_last_update(self) -> str:
        """A human-readable account of the most recent ``update_state``.

        Renders the update report, the edits it wired first ("wired G
        inserted gates as S stages in N nets, R removed, T retuned": the
        ``modify`` span's numbers; 0 when it recorded none), what the frontier
        sweep looked at
        ("swept stages k..S, planned N": it started at stage ``k`` of ``S``
        and the affected stages became ``N`` stage plans) and what it
        coalesced ("coalesced N stages (C collapses) into R runs (K reused,
        M recomposed, ...)": C of the N are measure / reset members, K of
        the runs were emitted whole from their records, M were not in the
        composite cache and were composed for this
        plan) -- the ``plan.build`` span's numbers, except that a run
        holding collapses composes after its draws, so only this report
        counts it in M --, the plan
        pipeline's view of it, and -- the part no counter can answer -- the
        time-ordered recovery events (injected faults, chunk fallbacks, run
        retries) that fired during the update.
        """
        report = self.last_update
        coalesced, collapses, runs, largest, widest, recomposed, reused = (
            self._last_coalesced
        )
        inserted, wired, nets, removed, retuned = self._last_wired
        lines = [
            f"update #{self._num_updates - 1}"
            if self._num_updates else "no update yet",
            (
                f"  affected {report.affected_partitions}"
                f"/{report.total_partitions} partitions"
                f" ({report.affected_fraction:.1%}),"
                f" {report.executed_block_writes} block writes,"
                f" {report.elapsed_seconds * 1e3:.2f} ms"
            ),
            (
                f"  wired {inserted} inserted gates as {wired} stages"
                f" in {nets} nets, {removed} removed, {retuned} retuned"
            ),
            (
                f"  swept stages {self._last_sweep[0]}"
                f"..{self._last_sweep[0] + self._last_sweep[1]},"
                f" planned {self._last_sweep[2]}"
            ),
            f"  coalesced {coalesced} stages ({collapses} collapses) into {runs} runs"
            + (
                f" ({reused} reused, {recomposed} recomposed, largest {largest},"
                f" union <= {widest} qubits)"
                if runs
                else ""
            ),
            f"  backend {self._backend.name}, {self._plan_chunks.value} chunks total",
        ]
        events = self.telemetry.events.events(since=self._update_event_mark)
        if events:
            lines.append(f"  recovery events ({len(events)}):")
            base = events[0].time
            for e in events:
                detail = ", ".join(
                    f"{k}={v}" for k, v in e.fields.items()
                )
                lines.append(
                    f"    +{(e.time - base) * 1e3:8.2f} ms  {e.kind}"
                    + (f"  [{detail}]" if detail else "")
                )
        else:
            lines.append("  recovery events: none")
        return "\n".join(lines)

    def dump_graph(self, stream: TextIO) -> None:
        """Write the current partition task graph in DOT format."""
        self.graph.dump(stream)
