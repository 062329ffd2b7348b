"""Superposition stages on the slab engine, against the dense oracle.

A net's dense gates are one stage whose layout comes from their own qubits
(``partition.dense_layout``: whole aligned windows of the highest qubit) and
whose runs apply the members' steps on gathered windows
(``kernels.apply_dense``).  Every case here lands on ``dense_state`` at
1e-10 over block sizes 2, 4, 16 and 256, on the slab backend and on the
run-by-run loop alike; the graph files each stage's current layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QTask
from repro.core.blocks import MAX_RUN_BLOCKS
from repro.core.kernels import NumpyBatchBackend
from repro.core.stage import MatVecStage

from ..conftest import (
    FrontierOracle,
    ReferenceLoop,
    assert_held_blocks_are_prefix_states,
    assert_held_blocks_declared,
    dense_state,
    running_on,
    swept_nodes,
)

BLOCK_SIZES = [2, 4, 16, 256]
BACKENDS = [NumpyBatchBackend(), ReferenceLoop()]


def session_of(levels, num_qubits=7, **knobs):
    """``levels`` of ``(name, qubits, params)``, one net each, updated once."""
    knobs.setdefault("num_workers", 1)
    session = QTask(num_qubits, **knobs)
    handles = []
    for level in levels:
        net = session.insert_net()
        for name, qubits, params in level:
            handles.append(session.insert_gate(name, net, *qubits, params=params))
    session.update_state()
    return session, handles


def assert_oracle(session):
    np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
    graph = session.simulator.graph
    for stage in graph.stages:
        # the graph files the layout the stage has now
        assert graph._layouts[stage.uid].specs == stage.partition_layout().specs
    assert_held_blocks_declared(session)
    assert_held_blocks_are_prefix_states(session)


#: two nets putting every qubit in a distinct, entangled state
PREP = [[("ry", (q,), (0.3 + 0.2 * q,)) for q in range(7)], [("cx", (0, 6), ())]]

NETS = {
    "low": [[("h", (0,), ()), ("rx", (1,), (0.4,)), ("sx", (3,), ())]],
    "high": [[("h", (6,), ()), ("ry", (5,), (1.3,))]],
    "mixed": [[("h", (0,), ()), ("rx", (2,), (0.9,)), ("u3", (4,), (0.1, 0.2, 0.3)),
               ("h", (5,), ()), ("ry", (6,), (0.7,))]],
    "every-qubit": [[("rx", (q,), (0.2 * q + 0.1,)) for q in range(7)]],
    "two-qubit": [[("ch", (4, 1), ()), ("crx", (0, 5), (0.8,)),
                   ("rxx", (2, 3), (0.6,)), ("h", (6,), ())]],
    "apart": [[("rxx", (6, 0), (1.1,)), ("cry", (2, 5), (0.5,))]],
}


@pytest.mark.parametrize("backend", BACKENDS, ids=["slab", "loop"])
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(NETS))
def test_dense_nets_match_the_oracle(case, block_size, backend):
    levels = PREP + NETS[case] + [[("cz", (1, 6), ())]] + NETS[case]
    with running_on(backend):
        session, _ = session_of(levels, block_size=block_size)
    with session:
        assert_oracle(session)
        assert not any(node.is_sync for node in session.simulator.graph.all_nodes())


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("taken", [True, False])
def test_superposition_c_if_taken_and_not(block_size, taken):
    session = QTask(5, block_size=block_size, num_workers=1, seed=3)
    with session:
        c = session.add_classical_register("c", 1)
        nets = [session.insert_net() for _ in range(5)]
        session.insert_gate("x" if taken else "id", nets[0], 2)
        session.insert_gate("ry", nets[0], 4, params=(0.8,))
        session.measure(nets[1], 2, c[0])
        session.c_if("h", nets[2], 0, condition=(c, 1))
        session.c_if("rxx", nets[3], 4, 1, params=(0.4,), condition=(c, 1))
        session.insert_gate("crx", nets[4], 0, 3, params=(1.2,))
        session.update_state()
        assert session.outcomes.get_bit(0) == int(taken)
        assert_oracle(session)
        # the conditioned stages read their own windows: only the collapse
        # reads everything
        graph = session.simulator.graph
        assert [s.kind for s in graph.stages if graph.sync_node(s)] == ["measure"]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_member_retune_add_and_remove_refile_the_layout(block_size):
    levels = PREP + [[("h", (1,), ()), ("rx", (3,), (0.5,))], [("cz", (0, 6), ())]]
    session, handles = session_of(levels, block_size=block_size)
    with session:
        sim = session.simulator
        net = handles[-2].net
        stage = sim.stages.stage_of(handles[-2])
        assert isinstance(stage, MatVecStage)
        oracle = FrontierOracle(session)
        before = sim.graph._layouts[stage.uid]

        # a retune keeps the qubits: same layout record, the stage re-runs
        session.update_gate(handles[-2], 1.7)
        assert sim.graph._layouts[stage.uid] is before
        assert swept_nodes(session) == oracle.expected()
        session.update_state()
        assert_oracle(session)
        oracle.expected()  # (reads the runs the update formed)

        # a member on a higher qubit widens every window: filed again
        added = session.insert_gate("h", net, 5)
        assert sim.stages.stage_of(added) is stage
        assert swept_nodes(session) == oracle.expected()
        assert sim.graph._layouts[stage.uid] is not before
        assert stage.qubits == (1, 3, 5)
        session.update_state()
        assert_oracle(session)
        oracle.expected()

        # and removing it narrows them back
        session.remove_gate(added)
        assert swept_nodes(session) == oracle.expected()
        session.update_state()
        assert_oracle(session)
        assert sim.graph._layouts[stage.uid].specs == before.specs

        # the last member leaves with the stage
        session.remove_gate(handles[-2])
        session.remove_gate(handles[-3])
        assert stage not in sim.graph.stages
        session.update_state()
        assert_oracle(session)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_dense_mode_matches_the_oracle(block_size):
    """An update re-running every stage -- what the deleted dense storage
    mode did on every update -- lands on the oracle."""
    levels = PREP + NETS["mixed"] + NETS["two-qubit"]
    session, handles = session_of(levels, block_size=block_size)
    with session:
        assert_oracle(session)
        session.update_gate(handles[0], 1.4)  # the first ry: re-runs everything
        session.insert_gate("ry", session.nets()[1], 1, params=(0.2,))
        report = session.update_state()
        assert report.affected_partitions == report.total_partitions
        assert_oracle(session)


@pytest.mark.parametrize("backend", BACKENDS, ids=["slab", "loop"])
def test_window_wider_than_a_run(backend):
    """``h`` on qubit 7 at B=2 mixes 256 amplitudes, 128 blocks: more than
    ``MAX_RUN_BLOCKS``.  Each run gathers its window, publishes its own
    blocks, and no surviving block pins more than a run."""
    levels = PREP[:1] + [[("h", (7,), ()), ("rx", (0,), (0.3,))], [("cx", (7, 2), ())]]
    with running_on(backend):
        session, _ = session_of(levels, num_qubits=9, block_size=2)
    with session:
        assert_oracle(session)
        (stage,) = [
            s for s in session.simulator.graph.stages
            if isinstance(s, MatVecStage) and 7 in s.qubits
        ]
        widths = [len(spec.block_range) for spec in stage.partition_specs()]
        assert widths == [128, 128] and widths[0] > MAX_RUN_BLOCKS
        for block in stage.store.stored_blocks():
            owner = stage.store.get_block(block)
            while owner.base is not None:
                owner = owner.base
            assert owner.size <= MAX_RUN_BLOCKS * 2


def test_dirt_on_one_block_reruns_one_window_of_an_h():
    """The paper's MxV stage re-runs every partition (behind its barrier)
    whatever its input's dirt; an ``h`` on qubit 0 here re-runs the one
    two-block window the dirt lands in."""
    session, _ = session_of(PREP, block_size=16)
    with session:
        # one update per net: no coalesced run to widen the sweep
        ccz = session.insert_gate("ccz", session.insert_net(), 6, 5, 4)
        session.update_state()
        session.insert_gate("h", session.insert_net(), 0)
        session.update_state()
        graph = session.simulator.graph
        h_stage = graph.stages[-1]
        assert len(graph.partition_nodes(h_stage)) == 4  # 8 blocks, in pairs
        oracle = FrontierOracle(session)
        session.remove_gate(ccz)  # the ccz declared block 7 only
        swept = swept_nodes(session)
        assert swept == oracle.expected()
        assert swept == {(h_stage.seq, (6, 7), False)}
        report = session.update_state()
        assert report.affected_partitions == 1
        assert report.executed_block_writes == 2
        assert_oracle(session)
