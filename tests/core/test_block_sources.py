"""Block sources come from the stage covers, and equal a newest-holder scan.

An update resolves, at plan time, the store every recomputed block is read
from (``PartitionGraph.plan_sources``); reads outside an update walk the
same covers back from a stage seq.  Both are checked here against the
brute-force answer -- the newest stage store
holding the block (``conftest.newest_holder``, a scan over the stores) --
after every update of the state machine in ``tests/machine.py``, whose
sessions must also match the dense reference.

The second half pins the fallback: a stage that declares a block but holds
nothing is stepped over, and the read lands on the next older holder.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import QTask
from repro.core.cow import IndexReader
from repro.core.faults import FaultPlan
from repro.core.update import _RUN_FAULT_RETRIES

from ..conftest import (
    assert_held_blocks_declared, dense_state, failing_update, newest_holder, resolve_store,
)
from ..machine import (
    MODIFIERS,
    MODIFIERS_BUDGET,
    assert_reads_equal_the_scan,
    run_machine,
    update_and_check_planned_sources,
)

# ---------------------------------------------------------------------------
# the property: the state machine, whose update rule checks both
# ---------------------------------------------------------------------------


def test_planned_and_asof_sources_equal_the_newest_holder_scan(tmp_path):
    # injected faults: a recovery re-plans, and the plan it runs is checked
    run_machine(tmp_path, rules=MODIFIERS | {"inject_fault"}, num_workers=1,
                **MODIFIERS_BUDGET)


def test_plan_memory_is_the_affected_blocks_not_the_register(no_plan):
    """A retune deep in a circuit plans only its cone's blocks.

    Built one update per stage nothing coalesces and the cone is the
    paper's; built in one update the static stages are one run, the retune
    re-plans all of it -- and still holds each block of the union cover
    once, not once per member.
    """
    def build(session, stepwise):
        net = session.insert_net()
        for q in range(6):
            session.insert_gate("h", net, q)
        handle = None
        for q in range(6):
            if stepwise:
                session.update_state()
            handle = session.insert_gate(
                "rz", session.insert_net(), q, params=[0.1 * (q + 1)]
            )
        if stepwise:
            session.update_state()
        session.insert_gate("cx", session.insert_net(), 4, 5)
        session.update_state()
        return handle

    with QTask(6, block_size=4, num_workers=1) as session:
        handle = build(session, stepwise=True)
        sim = session.simulator
        assert sim.graph.runs() == []
        session.update_gate(handle, 1.3)  # the last rz, on qubit 5
        plan = update_and_check_planned_sources(session)
        planned = sum(
            bin(mask).count("1") for sp in plan.stage_plans for _, mask in sp.reader.sources
        )
        assert planned == plan.block_writes
        # the retuned stage and the cx behind it, nothing upstream: less
        # than a register per affected stage, let alone per stage
        affected = [m.seq for sp in plan.stage_plans for m in sp.members]
        assert affected == [6, 7]
        assert 0 < planned < sim.n_blocks * len(affected)

    with QTask(6, block_size=4, num_workers=1) as session:
        handle = build(session, stepwise=False)
        sim = session.simulator
        assert [len(run.members) for run in sim.graph.runs()] == [7]
        session.update_gate(handle, 1.3)
        plan = update_and_check_planned_sources(session)
        (sp,) = plan.stage_plans
        assert len(sp.members) == 7
        planned = sum(bin(mask).count("1") for _, mask in sp.reader.sources)
        assert planned == plan.block_writes == sim.n_blocks


# ---------------------------------------------------------------------------
# the fallback: a declaring stage that holds nothing
# ---------------------------------------------------------------------------


def _declared(sim, stage):
    return {b for n in sim.graph.partition_nodes(stage) for b in n.block_range}


def test_c_if_not_taken_reads_land_on_the_older_holder(no_plan):
    """A ``c_if`` declares its blocks whether or not it will be taken.

    Until it ran it holds nothing and reads step over it; a branch not
    taken then publishes identity copies of its input, so downstream
    sources stay exactly the planned ones.
    """
    with QTask(3, num_clbits=1, block_size=2, num_workers=1, seed=3) as session:
        net = session.insert_net()
        for q in range(3):
            session.insert_gate("h", net, q)
        session.measure(session.insert_net(), 0, 0)
        session.update_state()
        sim = session.simulator
        sim.outcomes.force_outcomes(sim.outcomes.recorded_outcomes())
        outcome = sim.outcomes.value_of((0,))
        before = session.state().copy()

        # condition on the value the bit does not have: never taken
        handle = session.c_if(
            "x", session.insert_net(), 2, condition=((0,), 1 - outcome)
        )
        session.insert_gate("z", session.insert_net(), 2)
        c_if_stage = sim.stages.stage_of(handle)
        declared = _declared(sim, c_if_stage)
        assert declared and not c_if_stage.store.stored_blocks()
        # declared, empty: the final-state read lands on the older holder
        final = sim.state_reader()
        for block in declared:
            assert resolve_store(final, block) is newest_holder(
                sim._initial, sim.graph.stages, block, sys.maxsize
            )
            assert resolve_store(final, block) is not c_if_stage.store
        assert np.array_equal(session.state(), before)

        update_and_check_planned_sources(session)
        assert not c_if_stage.condition_met()
        assert set(c_if_stage.store.stored_blocks()) == declared
        for block in declared:  # identity copies of the stage's input
            assert np.array_equal(
                c_if_stage.store.get_block(block),
                IndexReader(sim.graph, sim._initial, c_if_stage.seq)
                .read_blocks([block]),
            )
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_failed_publish_leaves_a_hole_the_retry_reads_around(no_plan):
    """A ``cow.publish`` storm one past the per-run bound fails the update.

    When the caller's next update starts, the stage whose publish kept
    failing declares blocks it does not hold; reads of those land on the
    next older holder, and the re-execution fills the hole.
    """
    with QTask(4, block_size=4, num_workers=1) as session:
        net = session.insert_net()
        for q in range(4):
            session.insert_gate("h", net, q)
        session.update_state()
        for q in range(4):
            session.insert_gate("rz", session.insert_net(), q, params=[0.3 + q])
        sim = session.simulator

        # one failing slab publish, then every attempt the bound gives the
        # first run: the update raises and keeps its dirt
        storm = [("cow.publish", i) for i in range(1, _RUN_FAULT_RETRIES + 3)]
        failing_update(session, FaultPlan(script=storm))
        assert sim.graph.has_pending

        holes = []
        execute = sim.updater.execute

        def spy(affected):
            final = sim.state_reader()
            for stage in sim.graph.stages:
                for block in _declared(sim, stage) - set(stage.store.stored_blocks()):
                    store = resolve_store(final, block)
                    want = newest_holder(
                        sim._initial, sim.graph.stages, block, sys.maxsize
                    )
                    holes.append((stage.seq, block, store is want))
            return execute(affected)

        sim.updater.execute = spy
        session.update_state()
        assert not sim.graph.has_pending
        first_try = [h for h in holes if h[0] >= 1]
        assert first_try and all(ok for _, _, ok in holes)
        assert_held_blocks_declared(session)
        assert_reads_equal_the_scan(sim)
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
