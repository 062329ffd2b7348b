"""Block sources come from the writer index, and equal a newest-holder scan.

An update resolves, at plan time, the store every recomputed block is read
from (``PartitionGraph.plan_sources``); reads outside an update search the
same index as of a stage seq.  Neither consults the stores, so both are
checked here against the brute-force answer -- walk the stage stores
backwards until one holds the block (:class:`StoreChain`) -- after every
step of a random session, whose state must also match the dense reference.

The second half pins the fallback: a stage that declares a block but holds
nothing is stepped over, and the read lands on the next older holder.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core import faults
from repro.core.cow import IndexReader
from repro.core.faults import FaultPlan

from ..conftest import (
    NUM_CLBITS,
    StoreChain,
    apply_op,
    assert_held_blocks_declared,
    draw_op,
    newest_holder,
    open_session,
)
from ..conftest import dense_state as _dense_state

HAVE_FORK = hasattr(os, "fork")

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# the brute-force answers
# ---------------------------------------------------------------------------


def assert_same_source(sim, store, block, before_seq, context):
    """``store`` is where a newest-holder scan finds ``block``.

    With copy-on-write that is an identity; a dense-mode stage also holds
    copies of blocks it never declared, so there the newest holder is a
    later store with the same amplitudes.
    """
    want = newest_holder(sim._initial, sim.graph.stages, block, before_seq)
    if sim.copy_on_write:
        assert store is want, (context, block)
    else:
        assert np.array_equal(store.get_block(block), want.get_block(block)), (
            context, block,
        )


def assert_asof_reads_equal_the_scan(sim):
    """Every stage view, and the final state, block by block."""
    stages = sim.graph.stages
    stores = [sim._initial] + [s.store for s in stages]
    for before_seq in list(range(len(stages) + 1)) + [sys.maxsize]:
        reader = IndexReader(sim.graph, sim._initial, before_seq)
        chain = StoreChain(stores[: min(before_seq, len(stages)) + 1])
        for block, store in enumerate(reader.resolve_stores(range(sim.n_blocks))):
            assert_same_source(sim, store, block, before_seq, "as-of")
        assert np.array_equal(reader.full_vector(), chain.full_vector())


def update_and_check_planned_sources(session):
    """Run the pending update, look at the plan it executed (the last one it
    built: a recovery re-plans), and compare every planned source with the
    scan over the updated stores."""
    sim = session.simulator
    built = []
    build = sim._build_plan
    sim._build_plan = lambda: built.append(build()) or built[-1]
    try:
        session.update_state()
    finally:
        del sim._build_plan  # the instance attribute shadowing the method
    plan = built[-1]
    member_stores = [{m.store for m in sp.members} for sp in plan.stage_plans]
    for succ, sp in enumerate(plan.stage_plans):
        declared = {b for r in sp.block_ranges for b in r}
        # O(affected blocks): exactly the recomputed ranges are planned -- of
        # a coalesced run, the union of its members' covers, once
        assert set(sp.reader.sources) == declared
        for block, store in sp.reader.sources.items():
            # ... read as of the plan's first stage: a source inside an
            # earlier run is that run's last declarer, the one that holds it
            assert_same_source(sim, store, block, sp.stage.seq, sp.stage)
        # the task edges are the planned stages among those sources
        sources = set(sp.reader.sources.values())
        preds = {pred for pred, s in plan.edges if s == succ}
        assert preds == {
            k for k, stores in enumerate(member_stores) if sources & stores
        }
        assert not sources & member_stores[succ]
    return plan


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------


@settings(max_examples=25, **SETTINGS)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(3, 5),
    block_size=st.sampled_from([2, 4, 8]),
    stepwise=st.booleans(),
    copy_on_write=st.booleans(),
    sharded=st.booleans(),
)
def test_planned_and_asof_sources_equal_the_newest_holder_scan(
    seed, num_qubits, block_size, stepwise, copy_on_write, sharded,
    tmp_path_factory,
):
    # Chaos mode is parked: hypothesis draws differ from run to run, so an
    # armed plan would hand every later test a different stretch of the
    # seeded fault streams (and dense mode's block-by-block publishes
    # exhaust the update retries at chaos rates anyway).  The fallback
    # under faults is pinned by the scripted cases below.
    parked = faults.install(None)
    rng = random.Random(seed)
    knobs = dict(
        num_clbits=NUM_CLBITS, block_size=block_size, num_workers=1,
        stepwise=stepwise, copy_on_write=copy_on_write, seed=seed % 1000,
    )
    if sharded and HAVE_FORK:
        knobs["store_transport"] = "sharded"
    indexed = open_session(num_qubits, **knobs)
    opened = [indexed]
    try:
        for _ in range(30):
            op = draw_op(rng, indexed)
            if op[0] in ("update", "fork", "restore"):
                # fork and checkpoint flush pending modifiers themselves:
                # do it here, where the plan can be looked at
                update_and_check_planned_sources(indexed)
            if op[0] == "restore":
                path = str(tmp_path_factory.mktemp("block_sources") / "s.ckpt")
                indexed.checkpoint(path)
                indexed = QTask.restore(path, num_workers=1)
                opened.append(indexed)
            else:
                indexed = apply_op(indexed, op)
                if op[0] == "fork":
                    opened.append(indexed)
            if op[0] in ("update", "fork", "restore"):
                assert_asof_reads_equal_the_scan(indexed.simulator)
                np.testing.assert_allclose(
                    indexed.state(), _dense_state(indexed), atol=1e-10,
                    err_msg=str(op),
                )
                if copy_on_write:
                    assert_held_blocks_declared(indexed)
            else:
                # modifiers pending: declared-but-empty stages are stepped
                # over, removed ones are gone -- still the scan's answer
                sim = indexed.simulator
                final = sim.state_reader()
                if copy_on_write:
                    for block, store in enumerate(
                        final.resolve_stores(range(sim.n_blocks))
                    ):
                        assert_same_source(sim, store, block, sys.maxsize, op)
        update_and_check_planned_sources(indexed)
        assert_asof_reads_equal_the_scan(indexed.simulator)
        np.testing.assert_allclose(
            indexed.state(), _dense_state(indexed), atol=1e-10
        )
    finally:
        for session in opened:
            session.close()
        faults.install(parked)


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
        planned = sum(len(sp.reader.sources) for sp in plan.stage_plans)
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
        assert len(sp.reader.sources) == plan.block_writes == sim.n_blocks


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
    session = QTask(3, num_clbits=1, block_size=2, num_workers=1, seed=3)
    try:
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
        c_if_stage = sim._gate_stage[handle.uid]
        declared = _declared(sim, c_if_stage)
        assert declared and not c_if_stage.store.stored_blocks()
        # declared, empty: the final-state read lands on the older holder
        final = sim.state_reader()
        for block in declared:
            assert final.resolve_store(block) is newest_holder(
                sim._initial, sim.graph.stages, block, sys.maxsize
            )
            assert final.resolve_store(block) is not c_if_stage.store
        assert np.array_equal(session.state(), before)

        update_and_check_planned_sources(session)
        assert not c_if_stage.condition_met()
        assert set(c_if_stage.store.stored_blocks()) == declared
        for block in declared:  # identity copies of the stage's input
            assert np.array_equal(
                c_if_stage.store.get_block(block),
                IndexReader(sim.graph, sim._initial, c_if_stage.seq)
                .resolve_block(block),
            )
        np.testing.assert_allclose(session.state(), _dense_state(session), atol=1e-10)
    finally:
        session.close()


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_forsaken_stores_after_shard_loss_read_from_older_holders(no_plan):
    """Sharded -> local breaker leg: every store is forsaken mid-update.

    Right after the forsaking no declarer holds anything, so every read
    lands on the oldest holder there is, the initial state; the
    re-execution then rebuilds every source before it is read.
    """
    session = QTask(
        5, block_size=4, num_workers=1, store_transport="sharded", seed=1
    )
    try:
        net = session.insert_net()
        for q in range(5):
            session.insert_gate("h", net, q)
        for q in range(0, 4, 2):
            session.insert_gate("cx", session.insert_net(), q, q + 1)
        session.update_state()
        sim = session.simulator
        session.insert_gate("rz", session.insert_net(), 4, params=[0.4])

        seen = []
        recover = sim._recover_store_transport

        def spy(reason):
            recover(reason)
            held = [s.store.num_stored_blocks for s in sim.graph.stages]
            resolved = sim.state_reader().resolve_stores(range(sim.n_blocks))
            seen.append((held, resolved))

        sim._recover_store_transport = spy
        # 5 consecutive store.shard faults make one TransportFailure; two
        # failures reach the store breaker threshold
        faults.install(FaultPlan(script=[("store.shard", i) for i in range(1, 11)]))
        try:
            update_and_check_planned_sources(session)
        finally:
            faults.install(None)
        assert len(seen) == 2
        for held, resolved in seen:
            assert not any(held)
            assert all(store is sim._initial for store in resolved)
        stats = session.statistics()
        assert stats["store_transport"] == "local"
        assert stats["store_transitions"] == 1
        assert_asof_reads_equal_the_scan(sim)
        np.testing.assert_allclose(session.state(), _dense_state(session), atol=1e-10)
    finally:
        session.close()


def test_failed_publish_leaves_a_hole_the_retry_reads_around(no_plan):
    """A ``cow.publish`` storm deep enough to reach the update-level retry.

    When the retry starts, the stage whose publish kept failing declares
    blocks it does not hold; reads of those land on the next older holder,
    and the re-execution fills the hole.
    """
    session = QTask(4, block_size=4, num_workers=1, kernel_backend="numpy")
    try:
        net = session.insert_net()
        for q in range(4):
            session.insert_gate("h", net, q)
        session.update_state()
        for q in range(4):
            session.insert_gate("rz", session.insert_net(), q, params=[0.3 + q])
        sim = session.simulator

        holes = []
        execute = sim._execute

        def spy(affected):
            final = sim.state_reader()
            for stage in sim.graph.stages:
                for block in _declared(sim, stage) - set(stage.store.stored_blocks()):
                    store = final.resolve_store(block)
                    want = newest_holder(
                        sim._initial, sim.graph.stages, block, sys.maxsize
                    )
                    holes.append((stage.seq, block, store is want))
            return execute(affected)

        sim._execute = spy
        # one failing slab publish, then the per-run fallback's 6 attempts:
        # 7 fires per task-body attempt, 4 body attempts -> update retry
        faults.install(FaultPlan(script=[("cow.publish", i) for i in range(1, 29)]))
        try:
            session.update_state()
        finally:
            faults.install(None)
        stats = session.statistics()
        assert stats["update_retries"] == 1
        first_try = [h for h in holes if h[0] >= 1]
        assert first_try and all(ok for _, _, ok in holes)
        assert_held_blocks_declared(session)
        assert_asof_reads_equal_the_scan(sim)
        np.testing.assert_allclose(session.state(), _dense_state(session), atol=1e-10)
    finally:
        session.close()
