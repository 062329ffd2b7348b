"""Unit tests for the plan layer: run tables and the swept frontier as a plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.exec_plan import RUN_ACTION, RUN_COPY, PlanOp, PlanReport, RunTable
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator

from ..conftest import (
    RunSpec, assert_sources_come_from_earlier_plans, emit_runs, plan_nodes,
    table_from_runs,
)


def _spec(lo, hi, op, qubits=(0,), kind=RUN_ACTION):
    return RunSpec(kind, lo, hi, qubits, op)


# ---------------------------------------------------------------------------
# RunTable
# ---------------------------------------------------------------------------


class TestRunTable:
    def test_from_runs_packs_bounds(self):
        op = object()
        table = table_from_runs([_spec(0, 3, op), _spec(8, 11, op)])
        np.testing.assert_array_equal(table.los, [0, 8])
        np.testing.assert_array_equal(table.his, [3, 11])
        assert table.num_runs == 2
        assert RunTable.__slots__ == ("op", "los", "his")

    def test_from_runs_dedupes_shared_ops(self):
        op = object()
        table = table_from_runs([_spec(4 * i, 4 * i + 3, op) for i in range(4)])
        assert table.op == PlanOp(RUN_ACTION, (0,), op) and table.op.op is op
        with pytest.raises(ValueError, match="one operation"):
            table_from_runs([_spec(0, 3, op), _spec(4, 7, object())])

    def test_same_payload_different_qubits_not_merged(self):
        op = object()
        with pytest.raises(ValueError, match="one operation"):
            table_from_runs([_spec(0, 3, op, (0,)), _spec(4, 7, op, (1,))])

    def test_same_payload_different_kind_not_merged(self):
        op = object()
        with pytest.raises(ValueError, match="one operation"):
            table_from_runs(
                [_spec(0, 3, op, (), RUN_ACTION), _spec(4, 7, op, (), RUN_COPY)]
            )

    @pytest.mark.parametrize("parts", [1, 2, 3, 5, 100])
    def test_split_covers_every_run_once(self, parts):
        op = object()
        table = table_from_runs([_spec(4 * i, 4 * i + 3, op) for i in range(5)])
        chunks = table.split(parts)
        assert len(chunks) <= max(1, parts)
        los = np.concatenate([c.los for c in chunks])
        his = np.concatenate([c.his for c in chunks])
        np.testing.assert_array_equal(los, table.los)
        np.testing.assert_array_equal(his, table.his)
        # the operation is shared by reference, not copied per chunk
        assert all(c.op is table.op for c in chunks)

    def test_split_empty_table(self):
        empty = np.empty(0, dtype=np.int64)
        table = RunTable(PlanOp(RUN_COPY, (), None), empty, empty)
        assert table.num_runs == 0
        assert table.split(4) == [table]


# ---------------------------------------------------------------------------
# the execution plan of a real partition graph (sweep + sources + freeze)
# ---------------------------------------------------------------------------


def _simulator(levels, num_qubits=4, **kwargs):
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    kwargs.setdefault("block_size", 4)
    kwargs.setdefault("num_workers", 1)  # no worker pool to leave behind
    return QTaskSimulator(circuit, **kwargs)


def _plan_for(sim):
    """The plan ``update_state`` would build, and the nodes it covers."""
    plan = sim.updater.build_plan()
    return plan, plan_nodes(sim.graph, plan)


class TestBuildExecutionPlan:
    def test_one_plan_per_stage(self):
        # ... or per coalesced run of stages: every affected stage is a
        # member of exactly one plan, and the four adjacent rz stages --
        # static, swept whole -- share one
        sim = _simulator([[Gate("h", (q,)) for q in range(4)],
                          [Gate("rz", (q,), (0.3,)) for q in range(4)]])
        plan, affected = _plan_for(sim)
        stage_uids = {node.stage.uid for node in affected}
        members = [s.uid for sp in plan.stage_plans for s in sp.members]
        assert sorted(members) == sorted(stage_uids) and len(stage_uids) == 5
        assert [len(sp.members) for sp in plan.stage_plans] == [1, 4]
        assert all(sp.stage is sp.members[0] for sp in plan.stage_plans)

    def test_stage_plans_in_topological_stage_order(self):
        # plans by seq, and within a run the members by seq, no gaps (the
        # second H closes the x / z run)
        sim = _simulator([[Gate("h", (0,))], [Gate("x", (0,))], [Gate("z", (0,))],
                          [Gate("h", (1,))], [Gate("s", (1,))]])
        plan, _ = _plan_for(sim)
        seqs = [s.seq for sp in plan.stage_plans for s in sp.members]
        assert seqs == [0, 1, 2, 3, 4]
        assert [len(sp.members) for sp in plan.stage_plans] == [1, 3, 1]

    def test_edges_point_forward_and_are_unique(self):
        # plan order is the run order: every source store is the initial
        # state, an unplanned stage's or a member's of an earlier plan
        sim = _simulator(
            [[Gate("h", (q,)) for q in range(4)], [Gate("cx", (0, 1))],
             [Gate("cx", (2, 3))], [Gate("rz", (0,), (0.5,))]]
        )
        plan, _ = _plan_for(sim)
        assert [len(sp.members) for sp in plan.stage_plans] == [1, 3]
        plans = plan.stage_plans
        assert_sources_come_from_earlier_plans(
            plans, [sp.reader.sources for sp in plans]
        )
        # ... and the run does read the plan before it
        first = {m.store for m in plans[0].members}
        assert first & {store for store, _ in plans[1].reader.sources}

    def test_static_stage_runs_frozen_at_build_time(self):
        # z is diagonal -> UnitaryStage, whose emission is input-independent
        sim = _simulator([[Gate("z", (0,))]])
        plan, _ = _plan_for(sim)
        (sp,) = plan.stage_plans
        assert sp.stage.plan_static
        assert sp._static_table is not None
        table = sp.build_table()
        assert table is sp._static_table
        assert sp.emitted_runs == table.num_runs

    def test_static_table_equals_the_packed_emit_runs(self):
        # the packed-bounds fast path and the RunSpec path describe one table
        sim = _simulator(
            [[Gate("h", (q,)) for q in range(6)], [Gate("cx", (1, 4))]],
            num_qubits=6,
            block_size=4,
        )
        plan, _ = _plan_for(sim)
        sp = next(sp for sp in plan.stage_plans if sp.stage.plan_static)
        table = sp.build_table()
        runs = [r for br in sp.block_ranges for r in emit_runs(sp.stage, br)]
        reference = table_from_runs(runs)
        assert list(table.los) == list(reference.los)
        assert list(table.his) == list(reference.his)
        assert table.op == reference.op

    def test_block_writes_match_affected_blocks(self):
        sim = _simulator([[Gate("h", (q,)) for q in range(4)]])
        plan, affected = _plan_for(sim)
        expected = sum(
            len(node.block_range) for node in affected if not node.is_sync
        )
        assert plan.block_writes == expected
        assert plan.block_writes == sum(sp.block_writes for sp in plan.stage_plans)

    def test_low_qubit_stage_folds_many_partitions_into_one_plan(self):
        # A q0-diagonal gate on tiny blocks shatters into many partitions;
        # the plan pipeline's whole point is that they become ONE stage plan.
        sim = _simulator(
            [[Gate("h", (q,)) for q in range(6)], [Gate("rz", (0,), (0.7,))]],
            num_qubits=6,
            block_size=4,
        )
        plan, affected = _plan_for(sim)
        rz_nodes = [n for n in affected if n.stage.seq == 1 and not n.is_sync]
        assert len(rz_nodes) > 1
        rz_plans = [sp for sp in plan.stage_plans if sp.stage.seq == 1]
        assert len(rz_plans) == 1
        assert len(rz_plans[0].block_ranges) == len(rz_nodes)


def test_untraced_update_formats_no_stage_label(monkeypatch, no_plan):
    """Stage tasks are named lazily; only tracing or a failure needs text.

    (Chaos mode parked: a fallback event names its stage.)
    """
    from repro.core.stage import UnitaryStage

    calls = []
    label = UnitaryStage.label
    monkeypatch.setattr(
        UnitaryStage, "label", lambda self: calls.append(1) or label(self)
    )
    levels = [[Gate("x", (q,)) for q in range(4)], [Gate("h", (0,))],
              [Gate("cz", (0, 3))]]
    for tracing in (False, True):
        with _simulator(levels, num_workers=1, tracing=tracing) as sim:
            del calls[:]
            sim.update_state()
            named = {
                r.attrs["stage"] for r in sim.telemetry.tracer.spans()
                if r.name == "run.chunk"
            }
            if tracing:
                # one chunk per stage plan: a coalesced run (the H closes
                # it) is named after its first member, a stage that ran
                # alone after itself
                x0, cz = (sim.graph.stages[i] for i in (0, 5))
                assert named == {f"{label(x0)} (+4 coalesced)", label(cz)}
            else:
                assert not calls and not named


# ---------------------------------------------------------------------------
# PlanReport
# ---------------------------------------------------------------------------


class TestPlanReport:
    def test_runs_per_plan(self):
        report = PlanReport(
            plans_built=4,
            runs_batched=40,
            plan_chunks=4,
            backend_fallbacks=0,
            updates_planned=2,
        )
        assert report.runs_per_plan == 10.0
        assert report.as_dict()["runs_per_plan"] == 10.0

    def test_zero_plans_zero_ratio(self):
        report = PlanReport(0, 0, 0, 0, 0)
        assert report.runs_per_plan == 0.0
