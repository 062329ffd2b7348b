"""A build is one batch: queued inserts, wired at the next graph read, give
exactly what wiring them one by one gives.

``StageTable.on_gate_inserted`` builds a gate's stage and queues it;
whatever reads the partition graph next wires the whole queue in one pass.
Each circuit below is built twice -- every insert queued and wired by one
``update_state()``, and stepwise (``open_session(stepwise=True)``: an update
after every gate, so every batch holds one gate) -- and the two sessions
must agree on each net's stage order, the global order, the derived edges
and the graph statistics, with each state equal to the dense reference's.
The nets are created out of order (``insert_net(after=)``,
``prepend_net``) and filled back to front, so every insert lands
mid-circuit.  The interleavings then put each kind of graph read behind a
queued batch and compare it with a session that updated explicitly first.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import QTask
from repro.circuits import build_levels
from repro.core.gates import Gate
from repro.core.ops import CGate, MeasureOp, ResetOp
from repro.core.stage import MatVecStage, UnitaryStage

from ..conftest import (
    FrontierOracle,
    assert_held_blocks_are_prefix_states,
    assert_runs_are_consistent,
    dense_state,
    open_session,
    swept_nodes,
)

# ---------------------------------------------------------------------------
# the circuits
# ---------------------------------------------------------------------------


def qft_levels():
    return build_levels("qft", num_qubits=5)[1]


def ring_qaoa_levels(n=6, rounds=2):
    edges = [(q, q + 1) for q in range(0, n - 1, 2)], [
        (q, (q + 1) % n) for q in range(1, n, 2)
    ]
    levels = [[Gate("h", (q,)) for q in range(n)]]
    for r in range(rounds):
        for group in edges:
            levels.append([Gate("cx", e) for e in group])
            levels.append([Gate("rz", (b,), (0.4 + 0.3 * r,)) for _, b in group])
            levels.append([Gate("cx", e) for e in group])
        levels.append([Gate("rx", (q,), (0.9 - 0.3 * r,)) for q in range(n)])
    return levels


def dynamic_levels():
    """Measure / ``c_if`` / reset sharing nets with unitary gates."""
    return [
        [Gate("h", (q,)) for q in range(4)],
        [MeasureOp(0, 0), Gate("rz", (1,), (0.3,)), Gate("cx", (2, 3))],
        [CGate(Gate("x", (1,)), (0,), 1), ResetOp(0), Gate("t", (2,))],
        [Gate("h", (0,)), MeasureOp(2, 1), Gate("cp", (1, 3), (0.4,))],
        [CGate(Gate("ry", (3,), (0.7,)), (1,), 1), Gate("z", (0,)),
         Gate("swap", (1, 2))],
    ]


CIRCUITS = {
    "qft": (5, qft_levels),
    "ring_qaoa": (6, ring_qaoa_levels),
    "dynamic": (4, dynamic_levels),
}


def fresh(op):
    """A gate, or a new copy of a dynamic op (each insert numbers its own)."""
    if isinstance(op, MeasureOp):
        return MeasureOp(op.qubit, op.clbit)
    if isinstance(op, ResetOp):
        return ResetOp(op.qubit)
    if isinstance(op, CGate):
        return CGate(op.gate, op.condition_bits, op.condition_value)
    return op


def build(session, levels):
    """Create the nets middle first, then ``insert_net(after=)`` behind it
    and ``prepend_net`` in front; fill them last net first, each net's
    gates in reverse.  Returns the nets in circuit order."""
    circuit = session.circuit
    nets = [None] * len(levels)
    mid = len(levels) // 2
    nets[mid] = session.insert_net()
    for i in range(mid + 1, len(levels)):
        nets[i] = session.insert_net(after=nets[i - 1])
    for i in range(mid - 1, -1, -1):
        nets[i] = circuit.prepend_net()
    assert circuit.nets() == nets
    for net, level in reversed(list(zip(nets, levels))):
        for op in reversed(level):
            circuit.insert_operation(fresh(op), net)
    return nets


def open_built(name, *, stepwise=False, **knobs):
    num_qubits, levels = CIRCUITS[name]
    knobs = {"block_size": 4, "num_workers": 1, "seed": 3, **knobs}
    session = open_session(num_qubits, stepwise=stepwise, num_clbits=2, **knobs)
    build(session, levels())
    return session


# ---------------------------------------------------------------------------
# what two sessions must agree on
# ---------------------------------------------------------------------------


def net_labels(session):
    sim = session.simulator
    sim.graph  # wire the queue: the per-net lists hold wired stages
    return [[s.label() for s in sim.stages.net_stages(net)] for net in session.nets()]


def global_labels(session):
    return [s.label() for s in session.simulator.graph.stages]


def edge_names(session):
    return sorted((a.name(), b.name()) for a, b in session.simulator.graph.edges())


def shape(session):
    stats = session.simulator.graph.stats().as_dict()
    return net_labels(session), global_labels(session), edge_names(session), stats


def assert_paper_net_order(session):
    """Every net: its matvec stage first, then the non-superposition stages
    by ascending block count (§III.D)."""
    sim = session.simulator
    sim.graph
    for net in session.nets():
        stages = sim.stages.net_stages(net)
        assert not any(isinstance(s, MatVecStage) for s in stages[1:])
        counts = [s.total_block_count() for s in stages if isinstance(s, UnitaryStage)]
        assert counts == sorted(counts)


def assert_computed(session):
    np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
    assert_held_blocks_are_prefix_states(session)
    assert_runs_are_consistent(session)


# ---------------------------------------------------------------------------
# batched == stepwise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_batched_build_equals_stepwise_build(name):
    with open_built(name) as batched, open_built(name, stepwise=True) as stepwise:
        # nothing is wired until something reads the graph
        assert batched.simulator._graph.num_stages() == 0
        batched.update_state()
        assert not batched.simulator.stages.queued
        assert shape(batched) == shape(stepwise)
        assert batched.simulator.graph.stats().num_frontiers == 0
        assert_paper_net_order(batched)
        for session in (batched, stepwise):
            assert_computed(session)
        if name != "dynamic":  # re-executed collapses redraw, stepwise
            np.testing.assert_allclose(batched.state(), stepwise.state(), atol=1e-10)


def test_one_net_follows_the_block_count_rule_not_the_insert_order():
    """x[q0] spans all 8 blocks, cz[q3,q4] two, a measurement stays behind
    what was there before it: inserted x, measure, cz, the net reads
    cz, x, measure -- batched and stepwise."""
    orders = []
    for stepwise in (False, True):
        with open_session(5, stepwise=stepwise, num_clbits=1, block_size=4,
                          num_workers=1) as session:
            net = session.insert_net()
            for q in range(5):
                session.insert_gate("h", session.circuit.prepend_net(), q)
            session.insert_gate("x", net, 0)
            session.measure(net, 1, 0)
            session.insert_gate("cz", net, 3, 4)
            session.update_state()
            orders.append(net_labels(session)[-1])
            assert_computed(session)
    assert orders[0] == orders[1] == ["cz[q3, q4]", "x[q0]", "measure[q1->c0]"]


# ---------------------------------------------------------------------------
# a queued batch behind every kind of graph read
# ---------------------------------------------------------------------------


def built_pair(**knobs):
    """Two computed copies of the QFT: ``queued`` reads with a batch
    pending, ``explicit`` updates first."""
    queued, explicit = open_built("qft", **knobs), open_built("qft", **knobs)
    for session in (queued, explicit):
        session.update_state()
    return queued, explicit


def assert_same(queued, explicit):
    for session in (queued, explicit):
        session.update_state()
        assert_computed(session)
    assert shape(queued) == shape(explicit)
    np.testing.assert_allclose(queued.state(), explicit.state(), atol=1e-10)


def test_insert_then_remove_the_same_gate():
    queued, explicit = built_pair()
    with queued, explicit:
        for session in (queued, explicit):
            net = session.insert_net(after=session.nets()[2])
            handle = session.insert_gate("x", net, 4)
            if session is explicit:
                session.update_state()
            session.remove_gate(handle)
        assert_same(queued, explicit)


@pytest.mark.parametrize("name, first, then", [
    ("rz", 0.3, 0.9),                  # the stage survives, retuned
    ("rx", math.pi / 2, math.pi),      # superposition -> permutation
    ("rx", math.pi, math.pi / 2),      # and back
], ids=["retune", "to_permutation", "to_superposition"])
def test_insert_then_update_gate(name, first, then):
    queued, explicit = built_pair()
    with queued, explicit:
        for session in (queued, explicit):
            net = session.insert_net(after=session.nets()[1])
            session.insert_gate("h", net, 0)  # a matvec stage to join or leave
            handle = session.insert_gate(name, net, 3, params=[first])
            if session is explicit:
                session.update_state()
            session.update_gate(handle, then)
        assert_same(queued, explicit)


def test_insert_then_remove_net():
    queued, explicit = built_pair()
    with queued, explicit:
        for session in (queued, explicit):
            net = session.insert_net(after=session.nets()[0])
            session.insert_gate("h", net, 2)
            session.insert_gate("cz", net, 0, 4)
            session.insert_gate("x", session.insert_net(), 4)  # stays
            if session is explicit:
                session.update_state()
            session.remove_net(net)
        assert_same(queued, explicit)


def test_insert_then_fork():
    queued, explicit = built_pair()
    with queued, explicit:
        for session in (queued, explicit):
            session.insert_gate("cp", session.insert_net(after=session.nets()[3]),
                                1, 4, params=[0.6])
        explicit.update_state()
        with queued.fork() as child, explicit.fork() as twin:
            assert not queued.simulator.stages.queued
            assert shape(child) == shape(twin) == shape(queued)
            np.testing.assert_allclose(child.state(), twin.state(), atol=1e-10)
            for fork in (child, twin):
                fork.insert_gate("y", fork.circuit.prepend_net(), 2)
            assert_same(child, twin)
        assert_same(queued, explicit)


def test_insert_then_checkpoint_and_restore(tmp_path):
    queued, explicit = built_pair()
    with queued, explicit:
        for session in (queued, explicit):
            session.insert_gate("swap", session.circuit.prepend_net(), 0, 3)
        explicit.update_state()
        paths = [str(tmp_path / f"{k}.qtckpt") for k in ("queued", "explicit")]
        queued.checkpoint(paths[0])
        explicit.checkpoint(paths[1])
        with QTask.restore(paths[0], num_workers=1) as a, \
                QTask.restore(paths[1], num_workers=1) as b:
            assert shape(a) == shape(b) == shape(explicit)
            np.testing.assert_allclose(a.state(), b.state(), atol=1e-10)
            assert_same(a, b)


def test_insert_then_statistics_and_state_epoch():
    """Reads behind a queued batch see it wired: the epoch reports pending
    edits, ``statistics()`` the graph shape an explicit update leaves (with
    frontiers still pending) and ``memory_report()`` no new bytes."""
    queued, explicit = built_pair()
    with queued, explicit:
        before = queued.memory_report()
        for session in (queued, explicit):
            session.insert_gate("t", session.insert_net(after=session.nets()[2]), 1)
        assert queued.simulator.state_epoch == (1, True)
        stats = queued.statistics()
        report = queued.memory_report()  # the new stage: a store, no bytes
        assert report.num_stores == before.num_stores + 1
        assert report.allocated_bytes == before.allocated_bytes
        explicit.update_state()
        want = explicit.statistics()
        for key in ("num_stages", "num_nodes", "num_edges"):
            assert stats[key] == want[key]
        assert stats["num_frontiers"] > 0 == want["num_frontiers"]
        assert_same(queued, explicit)
        assert queued.simulator.state_epoch == (2, False)


def test_batched_insert_inside_a_run_dissolves_it():
    """Three rz stages behind the H net form one coalesced run; a batch
    lands an x between two members and a z behind the last.  The run is
    dissolved (every member recomputes) -- the sweep the frontier oracle
    expects -- and the state is the dense one."""
    with QTask(4, block_size=4, num_workers=1) as session:
        nets = [session.insert_net() for _ in range(4)]
        for q in range(4):
            session.insert_gate("h", nets[0], q)
        for net, q in zip(nets[1:], (0, 3, 1)):
            session.insert_gate("rz", net, q, params=[0.2 + q])
        session.update_state()
        assert [len(run.members) for run in session.simulator.graph.runs()] == [3]
        oracle = FrontierOracle(session)
        session.insert_gate("x", session.insert_net(after=nets[1]), 2)
        session.insert_gate("z", nets[3], 2)
        assert session.simulator.stages.queued
        assert swept_nodes(session) == oracle.expected()
        assert session.simulator.graph.runs() == []
        session.update_state()
        assert_computed(session)
