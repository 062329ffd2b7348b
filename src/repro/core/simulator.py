"""The qTask simulator: incremental, task-parallel state-vector simulation.

:class:`QTaskSimulator` observes a :class:`~repro.core.circuit.Circuit` and
maintains, across circuit modifiers, the partition task graph of §III.C-D.
Calling :meth:`QTaskSimulator.update_state` re-simulates exactly the
partitions affected by the modifiers issued since the previous update (the
partition graph's frontier sweep, §III.E).

A session is assembled from three owners:

* :class:`~repro.core.stage_table.StageTable` -- modifier handling: the
  circuit observer that builds, queues and wires each gate's stage, and the
  one filing path forks and checkpoint restores take too;
* :class:`~repro.core.update.Updater` -- update orchestration: planning,
  coalescing, executing (a plan's chunks fan out over the session's thread
  pool, ``pool``, above ``num_workers=1``) and the one fault-recovery loop;
* this module -- the session itself: assembly (the worker count and the
  pool a fork shares) and forking, trajectory control of dynamic circuits
  (re-arming, collapse paths, the light cone ``run_shots`` prunes to),
  queries and reporting.

The facade class most applications use is :class:`repro.QTask`, which bundles
a circuit and a simulator behind the paper's Table-II API.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from ..telemetry import Telemetry
from ..telemetry.tracing import NULL_SPAN
from .blocks import (
    BlockRange,
    default_block_size,
    mask_blocks,
    num_blocks,
    validate_block_size,
)
from .circuit import Circuit, GateHandle
from .classical import OutcomeRecord
from .cow import IndexReader, InitialStateStore, MemoryReport
from .exceptions import CircuitError, QTaskError
from .exec_plan import PlanReport
from .graph import PartitionGraph
from .ops import MeasureOp
from .stage import (
    ClassicallyControlledStage,
    DynamicStage,
    MeasureStage,
    ResetStage,
    Stage,
)
from .stage_table import StageTable
from .update import Updater, UpdateReport

__all__ = ["UpdateReport", "QTaskSimulator"]

#: the constructor knobs that define a session durably: ``fork`` hands them to
#: the child, a checkpoint header stores them and ``statistics()`` reports
#: them.  The worker count is not durable state; a fork shares its parent's
#: pool and a restore may override its width.
DURABLE_KNOBS: Tuple[str, ...] = ("block_size",)


def _worker_count(num_workers: Optional[int]) -> int:
    """``num_workers`` as given to a new session: ``None`` (1) or an ``int``
    of at least 1."""
    if num_workers is None:
        return 1
    if isinstance(num_workers, bool) or not isinstance(num_workers, int):
        raise TypeError(
            f"num_workers must be None or an int >= 1, got {num_workers!r}"
        )
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    return num_workers


class QTaskSimulator:
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
        seed: Optional[int] = None,
        tracing: Optional[bool] = None,
    ) -> None:
        self.assemble(circuit, locals())  # the keywords above, by name
        self.stages.insert_all()

    def assemble(
        self,
        circuit: Circuit,
        knobs: Dict[str, object],
        parent: Optional["QTaskSimulator"] = None,
    ) -> None:
        """Assign every attribute of a session, once; stages are the caller's.

        The one routine behind a new session, a fork and a checkpoint
        restore, called on a bare ``QTaskSimulator.__new__`` instance by the
        latter two.  ``knobs`` maps ``__init__`` keywords to values: the
        :data:`DURABLE_KNOBS` are required, an absent execution knob means
        what ``None`` means to ``__init__``.  A fork passes itself as
        ``parent``: the child then shares the parent's pool, reports to
        the parent's telemetry and starts from a clone of its outcomes.  The
        session's (empty) stage table is registered as the circuit's
        observer last.
        """
        self.circuit = circuit
        block_size = knobs["block_size"]
        if block_size is None:  # resolved once: forks and checkpoints carry it
            block_size = default_block_size(circuit.num_qubits)
        self.block_size = validate_block_size(block_size)
        self.dim = 1 << circuit.num_qubits
        self.n_blocks = num_blocks(self.dim, self.block_size)

        # Last of the knobs: a rejected one above must not leak worker threads.
        if parent is None:
            num_workers = _worker_count(knobs.get("num_workers"))
            pool = (
                ThreadPoolExecutor(num_workers - 1, thread_name_prefix="qtask-worker")
                if num_workers > 1 else None
            )
        else:
            num_workers, pool = parent.num_workers, parent.pool
        #: how many chunks a plan's run table splits into at most
        self.num_workers = num_workers
        #: the ``num_workers - 1`` threads a plan's chunks fan out over
        #: besides the caller (``None`` at width 1); a fork shares its
        #: parent's, and only a root session shuts it down
        self.pool: Optional[ThreadPoolExecutor] = pool

        # A fork gets its own registry (counters start at zero) tagged with
        # the parent session's id, so aggregation can merge fork stats back
        # instead of losing them -- see SweepRunner.merged_metrics().
        self.telemetry = Telemetry(
            tracing=knobs.get("tracing"),
            parent=parent.telemetry if parent is not None else None,
        )
        #: the update-orchestration half; its plan counters live in the registry
        self.updater = Updater(self)
        #: where a fork's ``fork.close`` span lands: its parent's tracer
        self._parent_tracer = parent.telemetry.tracer if parent is not None else None

        self._initial = InitialStateStore(self.dim, self.block_size)

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
        #: read through :attr:`graph`, which wires queued inserts first
        self._graph = PartitionGraph(
            BlockRange(0, self.n_blocks - 1),
            on_stage_inserted=self._on_stage_entered,
            on_stage_removed=self._on_stage_left,
        )
        #: the modifier-handling half: which stage applies each gate
        self.stages = StageTable(
            circuit, self.block_size, self._graph, self.outcomes,
            self.telemetry.tracer,
        )

        #: set by :meth:`close`
        self._closed = False
        self.last_update: UpdateReport = UpdateReport()
        #: completed ``update_state`` calls; with "is anything pending" this
        #: is the state epoch a sweep's fork uses to detect a diverged base
        self.num_updates = 0

        #: created by the first query; :meth:`invalidate_blocks` feeds it
        self._observables = None
        circuit.register_observer(self.stages)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Detach from the circuit, drop the state, stop a root's pool.

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
            self.circuit.unregister_observer(self.stages)
            for stage in [*self._graph.stages, *self.stages.queued]:
                stage.store.release()
            if tracer is None and self.pool is not None:  # a root session
                self.pool.shutdown(wait=True)

    def __enter__(self) -> "QTaskSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def graph(self) -> PartitionGraph:
        """The partition graph, with every queued insert wired into it."""
        self.stages.wire()
        return self._graph

    def flush(self) -> None:
        """Run :meth:`update_state` unless the state after every issued
        modifier is already computed: what a fork and a checkpoint take."""
        if self.stages.queued or self._graph.has_pending or self.num_updates == 0:
            self.update_state()

    # -- session forking (copy-on-write children) -----------------------------

    @property
    def state_epoch(self) -> Tuple[int, bool]:
        """``(completed updates, edits pending)`` -- the session's version.

        Two observations of the same epoch with no pending edits are
        guaranteed to describe the same simulated state;
        :class:`~repro.parallel.sweep.SweepRunner` compares epochs to detect
        that its base session has diverged from its fork.
        """
        return self.num_updates, self.graph.has_pending

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

        The child *shares this simulator's pool* (its ``close()`` leaves
        it running).  Pending modifiers here are flushed first;
        ``forked_gate_map`` maps parent handle uids to child handles.  The
        mirroring is one ``fork`` span on this session's tracer (attrs
        ``stages`` mirrored, ``blocks`` adopted).
        """
        # The forked state is "the state after all issued modifiers".
        self.flush()
        with self.telemetry.tracer.span("fork") as span:
            circuit, gate_map, _ = self.circuit.clone()

            child = QTaskSimulator.__new__(QTaskSimulator)
            knobs = {name: getattr(self, name) for name in DURABLE_KNOBS}
            knobs["tracing"] = self.telemetry.tracer.enabled
            child.assemble(circuit, knobs, parent=self)
            child.num_updates = self.num_updates
            blocks = child.stages.mirror(self.stages, gate_map)

            # A warm observables cache is valid verbatim (identical state).
            if self._observables is not None:
                child._observables = self._observables.clone_for(child)

            child.forked_gate_map = gate_map
            span.set("stages", len(child._graph.stages))
            span.set("blocks", blocks)
        return child

    # -- partition-graph hooks: per-stage session state -----------------------

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
        self.invalidate_blocks(stage.store.held)
        self._dynamic_stages.pop(stage.uid, None)
        if isinstance(stage, MeasureStage):
            # A removed measurement no longer backs its classical bit:
            # forget its outcome and fall back to the latest surviving
            # writer of the bit (0 when none), so downstream c_if stages --
            # which the removal's frontier re-executes -- read the value a
            # from-scratch run of the edited circuit would produce.
            self.outcomes.discard_op(stage.op.op_index)
            bit = stage.op.clbit
            self.outcomes.set_bit(bit, self._clbit_value_asof(bit, sys.maxsize))
        elif isinstance(stage, ResetStage):
            self.outcomes.discard_op(stage.op.op_index)

    # -- dirty blocks (observable caches) -------------------------------------

    def invalidate_blocks(self, mask: int) -> None:
        """Hand the observables engine, when one exists, the blocks set in
        ``mask``: (re)written by an update or orphaned by a stage removal,
        exactly the frontier the incremental update scopes."""
        if self._observables is not None and mask:
            self._observables.mark_blocks_dirty(mask_blocks(mask))

    # -- trajectories (dynamic circuits) --------------------------------------

    @property
    def num_dynamic_stages(self) -> int:
        """Live measure/reset/classically-controlled stages."""
        self.stages.wire()
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
        self.stages.wire(report=False)
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
            for handle in self.stages.members(stage):
                qubits = handle.gate.qubits
                if last is not None and (collapse or not cone.isdisjoint(qubits)):
                    cone.update(qubits)
                else:
                    unobserved.append(handle)
        return (last, unobserved) if last is not None else (None, [])

    # -- state update (full or incremental): repro.core.update ----------------

    def update_state(self) -> UpdateReport:
        """Re-simulate every partition affected by modifiers since last call."""
        return self.updater.run()

    def _reader_asof(self, before_seq: int):
        """A writer-index view of everything written before ``before_seq``."""
        if self._closed:
            # close() emptied the stores: every block would resolve to |0...0>
            raise QTaskError("session is closed")
        return IndexReader(self._graph, self._initial, before_seq)

    # -- queries --------------------------------------------------------------

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

        Uses the observables engine's per-block probability masses (the
        identity term's cached partials, invalidated by the dirty frontier)
        instead of materialising the full ``probabilities()`` array.
        """
        return float(math.sqrt(self.observables.total_probability()))

    # -- observables --------------------------------------------------------

    @property
    def observables(self):
        """The lazily created observables engine bound to this simulator.

        One engine per simulator; :meth:`invalidate_blocks` hands it every
        dirty block, so its per-block caches stay consistent across
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
        compiled, runs batched into them, the chunks their tables split
        into and how often a faulted chunk fell back to run-granular
        execution.
        """
        u = self.updater
        return PlanReport(
            plans_built=u.plans_built.value,
            runs_batched=u.runs_batched.value,
            stages_coalesced=u.stages_coalesced.value,
            plan_chunks=u.plan_chunks.value,
            backend_fallbacks=u.backend_fallbacks.value,
            updates_planned=u.updates_planned.value,
            run_retries=u.run_retries.value,
        )

    def statistics(self) -> Dict[str, object]:
        """Counters describing the simulator's current incremental state:
        the partition-graph shape (``num_edges`` counted from the stage covers
        on every call; ``num_frontiers``, the stages carrying pending dirt),
        the knobs (:data:`DURABLE_KNOBS`, the worker count), the last
        update's outcome, the plan-pipeline counters and the passes over
        the state every update so far made (``amps_swept``, the amplitudes
        the kernels read, and ``sweeps``, that over ``2**n``), in one
        dict."""
        stats = self.graph.stats().as_dict()
        stats.update((name, getattr(self, name)) for name in DURABLE_KNOBS)
        stats.update(
            {
                "num_updates": self.num_updates,
                "num_workers": self.num_workers,
                "num_dynamic_stages": self.num_dynamic_stages,
                "cached_observable_partials": (
                    self._observables.cached_partials
                    if self._observables is not None
                    else 0
                ),
                "last_affected_partitions": self.last_update.affected_partitions,
                "amps_swept": self.updater.amps_swept.value,
                "sweeps": self.updater.amps_swept.value / self.dim,
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
        """Mirror point-in-time statistics (graph shape, last update) into
        the registry as gauges, refreshed here rather than on the hot path."""
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

        The update report; the ``modify`` span's numbers ("wired G inserted
        gates as S stages in N nets, R removed, T retuned"); the
        ``plan.build`` span's ("swept stages k..S, planned N" stage plans;
        "coalesced N stages (C collapses) into R runs (K reused from their
        records, M recomposed by G gathers, ...), X closed by a superposition
        stage", where a run holding collapses composes after its draws, so
        only this report counts it in M and G); the amplitudes the kernels
        read ("swept A amplitudes, W passes over the state"); the plan
        pipeline's view; and -- what no counter answers --
        the time-ordered recovery events (injected faults, chunk fallbacks,
        run retries).
        """
        report, u = self.last_update, self.updater
        (
            coalesced, collapses, runs, largest, widest, recomposed, reused, gathers,
            closed,
        ) = u.last_coalesced
        inserted, wired, nets, removed, retuned = u.last_wired
        first, swept, planned = u.last_sweep
        lines = [
            f"update #{self.num_updates - 1}"
            if self.num_updates else "no update yet",
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
            f"  swept stages {first}..{first + swept}, planned {planned}",
            f"  coalesced {coalesced} stages ({collapses} collapses) into {runs} runs"
            + (
                f" ({reused} reused, {recomposed} recomposed by {gathers} gathers,"
                f" largest {largest},"
                f" union <= {widest} qubits),"
                f" {closed} closed by a superposition stage"
                if runs
                else ""
            ),
            (
                f"  swept {report.amps_swept} amplitudes,"
                f" {report.sweeps:g} passes over the state"
            ),
            f"  {u.plan_chunks.value} chunks total",
        ]
        events = self.telemetry.events.events(since=u.event_mark)
        if events:
            lines.append(f"  recovery events ({len(events)}):")
            base = events[0].time
            for e in events:
                detail = ", ".join(f"{k}={v}" for k, v in e.fields.items())
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
