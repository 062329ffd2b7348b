"""Update orchestration: what one ``update_state`` call does.

An :class:`Updater` sweeps a session's pending dirt into stage plans in seq
order (the partition graph's frontier sweep, §III.E), coalesces swept runs
of diagonal / monomial stages into one plan each and resolves every
recomputed block's source store in one pass (``PartitionGraph.plan_sources``)
as ``(store, mask)`` pairs, all from earlier plans or unplanned stages.  The
plans then run one after another on the calling thread; a plan's run table
splits into at most ``num_workers`` chunks, the only fan-out, which run
inline at width 1 (the default) and above it over the session's stdlib
thread pool of ``num_workers - 1`` threads plus the caller -- the paper's
intra-gate parallelism (§III.F.1).  Inter-gate concurrency is not
reproduced: timed at the default block size, no pool running independent
stages at once beat inline by 10 % on any qft / qaoa / ising row of 12-18
qubits (CHANGES.md, the executor verdict).

Every run table executes on one kernel path, the slab backend
(:data:`BACKEND`).  Fault recovery is one loop on the same kernels: a chunk
that raises an injected fault (``repro.core.faults``) re-executes run by
run, each run a one-row table retried in place up to ``_RUN_FAULT_RETRIES``
times; past that the fault surfaces from ``update_state``, which keeps its
dirt for the next call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from ..telemetry import session as tsession
from ..telemetry.tracing import NULL_SPAN
from . import faults
from .blocks import MAX_RUN_BLOCKS, MAX_RUN_QUBITS, MAX_RUN_STAGES
from .cow import IndexReader
from .exec_plan import ExecutionPlan, StagePlan
from .faults import FaultInjected
from .graph import StageRun
from .kernels import NumpyBatchBackend
from .stage import (
    MatVecStage, MeasureStage, ResetStage, Stage, UnitaryStage, draw_collapses,
)

__all__ = ["UpdateReport", "Updater"]

#: bounded in-place re-executions of one run inside the run-granular
#: fallback, the only fault recovery: 16 attempts per run, past which the
#: fault surfaces from ``update_state`` (which keeps its dirt)
_RUN_FAULT_RETRIES = 15

#: what executes every run table of every session; stateless, so shared
BACKEND = NumpyBatchBackend()


def _coalescable(sp: StagePlan) -> bool:
    """Whether a stage plan may be a run member: a recorded run's plan, a
    collapse, or a unitary stage swept whole."""
    stage = sp.stage
    return (
        sp.run is not None
        or isinstance(stage, (MeasureStage, ResetStage))
        or (isinstance(stage, UnitaryStage) and sp.mask == stage.partition_layout().cover)
    )


def _closes(sp: StagePlan) -> bool:
    """Whether a stage plan may close a run as its tail: a superposition
    stage swept whole, on a state of at most ``MAX_RUN_BLOCKS`` blocks (so
    the run's table is one run of the whole state)."""
    stage = sp.stage
    return (
        isinstance(stage, MatVecStage)
        and stage.n_blocks <= MAX_RUN_BLOCKS
        and sp.mask == stage.partition_layout().cover
    )


def _joins(
    first: int, last: int, size: int, qubits, stage: Stage, prefix: int,
    synced: bool,
) -> bool:
    """Whether an open run of ``size`` members at seqs ``first..last`` on
    ``qubits`` takes in ``stage`` (a member or tail candidate) next: the
    stage is adjacent and the member cap not passed; a tail (which closes
    the run) joins no run holding a collapse (``synced``), a member keeps
    the qubit cap, and no collapse joins a run starting before the first
    dynamic stage (``prefix``)."""
    if stage.seq != last + 1 or size >= MAX_RUN_STAGES:
        return False
    if isinstance(stage, MatVecStage):
        return not synced
    return len(qubits.union(stage.qubits)) <= MAX_RUN_QUBITS and not (
        first < prefix and isinstance(stage, (MeasureStage, ResetStage))
    )


@dataclass
class UpdateReport:
    """What one ``update_state`` call did."""

    affected_partitions: int = 0
    total_partitions: int = 0
    executed_block_writes: int = 0
    elapsed_seconds: float = 0.0
    was_incremental: bool = False
    #: amplitudes the kernels read, and that over the state's size: the
    #: passes over the state the update made
    amps_swept: int = 0
    sweeps: float = 0.0

    @property
    def affected_fraction(self) -> float:
        if self.total_partitions == 0:
            return 0.0
        return self.affected_partitions / self.total_partitions


class Updater:
    """Runs the updates of one session; its plan-pipeline counters live in
    the session's metrics registry, which ``plan_report()`` reads."""

    def __init__(self, sim) -> None:
        self.sim = sim
        m = sim.telemetry.metrics
        self.plans_built = m.counter("plan.plans_built", help="stage plans compiled")
        self.runs_batched = m.counter("plan.runs_batched", help="block runs batched into plans")
        self.plan_chunks = m.counter("plan.chunks", help="plan chunks a table split into")
        self.stages_coalesced = m.counter(
            "plan.stages_coalesced",
            help="stages executed as members of a coalesced run",
        )
        self.updates_planned = m.counter(
            "plan.updates_planned", help="updates through the plan pipeline"
        )
        self.backend_fallbacks = m.counter(
            "recovery.backend_fallbacks",
            help="chunk executions that fell back run-granular",
        )
        self.run_retries = m.counter("recovery.run_retries", help="per-run fault retries")
        self.amps_swept = m.counter(
            "update.amps_swept", help="amplitudes the kernels read"
        )
        self.seconds = m.histogram("update.seconds", unit="s", help="update_state wall time")
        #: event-log high-water mark when the last update began, so
        #: ``explain_last_update`` can scope "what recovery did" exactly
        self.event_mark = 0
        #: ``(gates, stages, nets, removed, retuned)`` the last update's
        #: ``modify`` span recorded before planning
        self.last_wired = (0, 0, 0, 0, 0)
        #: ``(first seq, stages swept, stage plans)`` of the last update's
        #: frontier sweep, and what it coalesced (:meth:`ExecutionPlan.coalesced`)
        self.last_sweep = (0, 0, 0)
        self.last_coalesced = (0, 0, 0, 0, 0, 0, 0, 0, 0)

    def run(self) -> UpdateReport:
        """Re-simulate every partition affected by modifiers since last call."""
        tel = self.sim.telemetry
        self.event_mark = tel.events.last_seq
        prev = tsession.activate(tel)
        try:
            if tel.tracer.enabled:
                with tel.tracer.span("update", root=True) as span:
                    report = self._run()
                    span.set("affected", report.affected_partitions)
                    span.set("block_writes", report.executed_block_writes)
                    span.set("amps_swept", report.amps_swept)
                    span.set("sweeps", report.sweeps)
                    span.set("update", self.sim.num_updates - 1)
            else:
                report = self._run()
            self.seconds.observe(report.elapsed_seconds)
            return report
        finally:
            tsession.deactivate(prev)

    def _run(self) -> UpdateReport:
        start = time.perf_counter()
        sim = self.sim
        graph = sim._graph
        settled, graph.runs_settled = graph.runs_settled, False
        plan = self.build_plan()
        report = UpdateReport(
            affected_partitions=plan.affected_partitions,
            total_partitions=graph.num_nodes(),
            was_incremental=sim.num_updates > 0,
        )
        if plan.stage_plans:
            # an installed FaultPlan fires inside this scope and nowhere else
            with faults.armed():
                self.execute(plan)
            report.executed_block_writes = writes = plan.block_writes
            # a plan reads exactly the blocks it writes: a table's runs are
            # whole partitions, closed under its permutation or made of
            # whole dense windows
            report.amps_swept = writes * min(sim.dim, sim.block_size)
            report.sweeps = report.amps_swept / sim.dim
            self.amps_swept.inc(report.amps_swept)
            sim.invalidate_blocks(plan.written)
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
        sim.last_update = report
        self.last_sweep = (plan.first_seq, plan.stages_swept, plan.num_stages)
        self.last_coalesced = plan.coalesced()
        sim.num_updates += 1
        return report

    def build_plan(self) -> ExecutionPlan:
        """Sweep the pending dirt into stage plans and resolve their inputs.

        One pass, inside the ``plan.build`` span: the partition graph's
        frontier sweep emits the affected stages in seq order, swept runs
        of static stages coalesce into one plan each, one pass over the
        covers gives every recomputed block's source store, and static
        stages freeze their run tables.  Queued inserts are wired first,
        in the ``modify`` span before it.
        """
        self.last_wired = self.sim.stages.wire()
        tracer = self.sim.telemetry.tracer
        if not tracer.enabled:
            return self._build_plan()
        with tracer.span("plan.build") as span:
            plan = self._build_plan()
            coalesced, collapses, runs, _, _, recomposed, reused, gathers, _ = (
                plan.coalesced()
            )
            span.set("first_seq", plan.first_seq)
            span.set("stages_swept", plan.stages_swept)
            span.set("stages", plan.num_stages)
            span.set("runs", runs)
            span.set("coalesced_stages", coalesced)
            span.set("collapses", collapses)
            span.set("runs_recomposed", recomposed)
            span.set("gathers", gathers)
            span.set("runs_reused", reused)
            span.set("kernel_runs", plan.static_runs())
        return plan

    def _build_plan(self) -> ExecutionPlan:
        graph, initial = self.sim._graph, self.sim._initial
        plan = graph.sweep()
        self.coalesce(plan)
        stage_plans = plan.stage_plans
        tables = graph.plan_sources(stage_plans, initial)
        for sp, sources in zip(stage_plans, tables):
            sp.reader = IndexReader(graph, initial, sp.stage.seq, sources)
            sp.freeze_static()
        return plan

    def coalesce(self, plan: ExecutionPlan) -> None:
        """Turn every swept run of diagonal / monomial stages into one plan.

        A run is a maximal sequence of seq-adjacent stage plans whose stages
        are unitary stages or collapses (a measure / reset is a projector
        once drawn) and swept whole, cut where the union of the members'
        qubits would pass ``MAX_RUN_QUBITS`` or the member count
        ``MAX_RUN_STAGES``.  It executes as one table -- the members'
        composed action over the union of their covers, read as of the
        first member -- and each block is published to the last member
        declaring it (``RoutedStore``); what that costs later is the
        sweep's widening, see ``PartitionGraph.sweep``.  A run holding
        collapses draws them all in one sync step first
        (:func:`draw_collapses`).

        A superposition stage right after a run without collapses joins it
        as its last member, its *tail*, and the run closes -- when the tail
        is swept whole and the state has at most ``MAX_RUN_BLOCKS`` blocks
        (the default geometry has 8).  The run then reads every block once,
        applies the composite and the tail's dense steps to the one buffer
        and publishes it once, all to the tail, which declares every block.
        The tail counts toward ``MAX_RUN_STAGES``, not toward the qubit
        cap.  Any other dense stage, and a ``c_if`` stage, plans alone.

        A re-armed collapse re-runs its run from the head, and the members
        before it hold nothing of its blocks: so no collapse joins a run
        that starts before the first dynamic stage, and the unitary prefix
        every trajectory shares stays cached.

        The sweep emits a recorded run as its record's one plan.  That plan
        is kept (reused) exactly where this greedy pass would form the same
        run again: no open group takes its head in, its follower would not
        join it (nothing joins a closed run), and it still meets the
        collapse rule (a record meets the caps for as long as it lives).
        Otherwise the record is expanded into its members' plans and
        regrouped.
        """
        graph = self.sim._graph
        merged: List[StagePlan] = []
        group: List[StagePlan] = []
        qubits: set = set()
        synced = False  # the open group holds a collapse
        prefix = min((s.seq for s in self.sim._dynamic_stages.values()), default=0)

        def takes(stage: Stage) -> bool:
            return bool(group) and _joins(
                group[0].stage.seq, group[-1].stage.seq, len(group), qubits,
                stage, prefix, synced,
            )

        def close() -> None:
            nonlocal synced
            synced = False
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

        def place(sp: StagePlan) -> None:
            """Group one single-stage plan."""
            nonlocal synced
            if _coalescable(sp):
                if group and not takes(sp.stage):
                    close()
                group.append(sp)
                qubits.update(sp.stage.qubits)
                synced = synced or sp.has_sync
            elif _closes(sp) and takes(sp.stage):
                group.append(sp)
                close()
            else:
                if group:
                    close()
                merged.append(sp)

        plans = plan.stage_plans
        for k, sp in enumerate(plans):
            run = sp.run
            if run is None:
                place(sp)
                continue
            head, size = run.members[0], len(run.members)
            follower = plans[k + 1] if k + 1 < len(plans) else None
            if not (
                takes(head)
                or (run.has_sync and head.seq < prefix)
                or (
                    run.tail is None
                    and follower is not None
                    and (_coalescable(follower) or _closes(follower))
                    and _joins(head.seq, run.members[-1].seq, size, run.qubits,
                               follower.stage, prefix, run.has_sync)
                )
            ):
                if group:
                    close()
                sp.reused = True
                merged.append(sp)
                continue
            for member in graph.member_plans(run):
                place(member)
        if group:
            close()
        plan.stage_plans = merged

    def execute(self, plan: ExecutionPlan) -> None:
        """Batch-execute the plan, one stage plan -- an affected *stage*, or
        a coalesced run of them -- after another, in plan order.

        Plan order is seq order, which every block source respects: a plan
        reads only what earlier plans (or unplanned stages) wrote.  A
        failing plan stops the update; its exception carries the plan's
        label as ``task_label`` (the first failure wins) and, on Python >=
        3.11, a note naming it.
        """
        for sp in plan.stage_plans:
            try:
                self._run_plan(sp, plan.redraw_from)
            except BaseException as exc:
                if getattr(exc, "task_label", None) is None:
                    exc.task_label = label = sp.label()
                    if hasattr(exc, "add_note"):
                        exc.add_note(f"raised by stage plan {label!r}")
                raise

        self.plans_built.inc(plan.num_stages)
        self.stages_coalesced.inc(sum(len(sp.members) for sp in plan.runs()))
        self.runs_batched.inc(plan.total_runs())
        self.plan_chunks.inc(plan.total_chunks())
        self.updates_planned.inc()

    def _run_plan(self, sp: StagePlan, redraw_from: int) -> None:
        """Run one stage plan on the calling thread: its sync step (the
        draws) when its barrier is affected, then its run table, split into
        at most ``num_workers`` chunks, on the slab backend."""
        tracer = self.sim.telemetry.tracer
        if sp.has_sync:
            with (
                tracer.span("stage.prepare", {"stage": sp.label()})
                if tracer.enabled else NULL_SPAN
            ):
                draw_collapses(sp.members, sp.reader, redraw_from)
        table = sp.build_table()
        if table.num_runs == 0:
            return
        chunks = table.split(self.sim.num_workers)
        sp.num_chunks = len(chunks)
        if len(chunks) == 1:
            self._run_chunk(sp, chunks[0])
        else:
            self._fan_out(sp, chunks)

    def _fan_out(self, sp: StagePlan, chunks) -> None:
        """Run ``chunks`` over the session's pool; the first error raises
        after every started chunk has stopped.

        Every chunk but the first is submitted; the caller runs the first,
        then runs each submitted chunk no pool thread has started yet (a
        successful ``cancel()``), and only then waits on the rest.  After a
        failure no further chunk starts, but the running ones finish before
        the error raises, so nothing writes behind the caller's back.  The
        numpy kernels release the GIL during the heavy array work, which is
        where the chunks overlap.
        """
        tel = self.sim.telemetry
        parent = tel.tracer.current_span_id()

        def pooled(chunk) -> None:
            # a pool thread has no ambient context: re-activate the
            # session's telemetry and parent its spans to the caller's
            prev_tel = tsession.activate(tel)
            prev_span = tel.tracer.attach(parent)
            try:
                self._run_chunk(sp, chunk)
            finally:
                tel.tracer.detach(prev_span)
                tsession.deactivate(prev_tel)

        futures = [self.sim.pool.submit(pooled, c) for c in chunks[1:]]
        error = None
        for chunk, future in zip(chunks, [None, *futures]):
            if future is not None and not future.cancel():
                continue  # a pool thread has it
            if error is None:
                try:
                    self._run_chunk(sp, chunk)
                except BaseException as exc:
                    error = exc
        for future in futures:
            if not future.cancelled():
                exc = future.exception()  # waits for a running chunk
                error = error or exc
        if error is not None:
            raise error

    def _run_chunk(self, sp: StagePlan, chunk) -> None:
        tracer = self.sim.telemetry.tracer
        if tracer.enabled:
            amps = int((chunk.his - chunk.los + 1).sum()) if chunk.num_runs else 0
            attrs = {"stage": sp.label(), "runs": chunk.num_runs, "amps": amps}
            with tracer.span("run.chunk", attrs):
                self._execute_chunk(sp, chunk)
        else:
            self._execute_chunk(sp, chunk)

    def _execute_chunk(self, sp: StagePlan, chunk) -> None:
        try:
            BACKEND.execute_plan(sp.reader, sp.store, chunk)
        except FaultInjected as exc:
            # The one fault recovery.  Both fault sites (``kernel.run``,
            # ``cow.publish``) fire inside the chunk, and its writes are
            # deterministic overwrites, so re-executing it run by run is
            # always safe.  Anything else is a programming error.
            self.backend_fallbacks.inc()
            tsession.emit_event(
                "chunk.fallback",
                stage=sp.label(),
                reason=f"{type(exc).__name__}: {exc}",
            )
            self._run_chunk_fallback(sp, chunk)

    def _run_chunk_fallback(self, sp: StagePlan, chunk) -> None:
        """Run-granular chunk execution with bounded per-run fault retries.

        Each run is a one-row table on the same slab kernels, retried in
        place on an injected fault (it redraws the site streams, so retries
        converge); past ``_RUN_FAULT_RETRIES`` the fault propagates out of
        ``update_state``, whose dirt stays for the caller's next call.  No
        draw re-runs: the plan's draws happened before its chunks, so no
        classical state needs rolling back.
        """
        for row in chunk.split(chunk.num_runs):
            attempt = 0
            while True:
                try:
                    BACKEND.execute_plan(sp.reader, sp.store, row)
                    break
                except FaultInjected:
                    attempt += 1
                    if attempt > _RUN_FAULT_RETRIES:
                        raise
                    self.run_retries.inc()
                    tsession.emit_event("run.retry", stage=sp.label(), attempt=attempt)
