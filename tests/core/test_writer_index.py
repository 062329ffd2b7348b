"""Insertion does no state-sized work -- and wires exactly what the scans did.

Three things are pinned here:

* **Writer index == linear scans.**  ``ScanWiredGraph`` below is the wiring
  the partition graph used before the per-block writer index: a reversed
  scan over every earlier stage and a forward scan over every later one,
  subtracting covered blocks from an ``IntervalSet``.  It lives on as the
  brute-force oracle.  Two sessions, one on each graph, are driven through
  the same random modifier sequence -- mid-circuit nets, inserts, removals,
  retunes, matvec stages, measure/reset/``c_if``, fusion on and off, forks,
  checkpoint/restore -- and must agree on every node's pred/succ set after
  every step.
* **Cached derivation == enumerator.**  ``derive_partitions`` shares results
  under the ``(unit layout, qubits, geometry)`` key; the enumerator behind
  the cache must give the same layout for any drawn action.
* **Held blocks lie inside declared ranges** (``copy_on_write=True``): the
  invariant block resolution rests on -- reads resolve through the writer
  index, which lists *declared* writers (``test_block_sources.py`` pins the
  resolution itself).
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core import simulator as simulator_module
from repro.core import snapshot as snapshot_module
from repro.core import stage as stage_module
from repro.core.blocks import BlockRange, IntervalSet
from repro.core.gates import DiagonalAction, Gate, MonomialAction
from repro.core.graph import PartitionGraph
from repro.core.partition import (
    _enumerate_partitions,
    _unit_layout,
    derive_partitions,
    unit_layout_of,
)

from ..conftest import random_gate

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# the oracle: pre-index wiring by linear scans
# ---------------------------------------------------------------------------


class ScanWiredGraph(PartitionGraph):
    """``PartitionGraph`` wired by scanning all stages (the old algorithm)."""

    def _connect_backward(self, node, scan_range):
        """Find and connect the closest preceding writers covering ``scan_range``."""
        remaining = IntervalSet.from_range(scan_range)
        preds = []
        pos = node.stage.seq
        for stage in reversed(self._stages[:pos]):
            if not remaining:
                break
            for q in self._nodes_by_stage.get(stage.uid, []):
                if remaining and remaining.intersects(q.block_range):
                    q.succs.add(node)
                    node.preds.add(q)
                    preds.append(q)
                    remaining.subtract(q.block_range)
            if stage.writes_all_blocks():
                # a matvec stage rewrites everything: nothing older can be the
                # closest writer of any still-remaining block
                break
        return preds

    def _connect_forward(self, node, scan_range):
        """Find and connect the closest following readers of ``scan_range``."""
        remaining = IntervalSet.from_range(scan_range)
        succs = []
        pos = node.stage.seq
        for stage in self._stages[pos + 1 :]:
            if not remaining:
                break
            sync = self._sync_by_stage.get(stage.uid)
            if sync is not None:
                # the stage reads everything: connect and stop (it also
                # rewrites every block, shadowing all remaining ones)
                node.succs.add(sync)
                sync.preds.add(node)
                succs.append(sync)
                break
            for q in self._nodes_by_stage.get(stage.uid, []):
                if remaining and remaining.intersects(q.block_range):
                    node.succs.add(q)
                    q.preds.add(node)
                    succs.append(q)
                    remaining.subtract(q.block_range)
        return succs

    def _connect_partition(self, node):
        preds = self._connect_backward(node, node.block_range)
        succs = self._connect_forward(node, node.block_range)
        self._prune_transitive(node, preds, set(succs))

    def _connect_sync(self, node):
        self._connect_backward(node, self._full_range)

    def _unregister(self, stage):
        pass  # the scans keep no index


@contextmanager
def scan_wired():
    """Sessions built, forked or restored in this scope get the oracle graph."""
    modules = (simulator_module, snapshot_module)
    for module in modules:
        module.PartitionGraph = ScanWiredGraph
    try:
        yield
    finally:
        for module in modules:
            module.PartitionGraph = PartitionGraph


def node_key(node):
    return (node.stage.seq, node.is_sync, node.block_range.to_tuple())


def wiring(graph):
    """Every node's pred and succ set, in position-based (session-free) keys."""
    return {
        node_key(n): (
            frozenset(map(node_key, n.preds)),
            frozenset(map(node_key, n.succs)),
        )
        for n in graph.all_nodes()
    }


def assert_index_matches_stage_order(graph):
    """Each block's entry lists exactly its declaring partitions, by seq."""
    expected = [[] for _ in graph._writers]
    for stage in graph.stages:
        for node in graph.partition_nodes(stage):
            for block in node.block_range:
                expected[block].append(node)
    assert graph._writers == expected


def assert_held_blocks_declared(session):
    graph = session.simulator.graph
    for stage in graph.stages:
        declared = {
            b for node in graph.partition_nodes(stage) for b in node.block_range
        }
        held = set(stage.store.stored_blocks())
        assert held <= declared, (stage, sorted(held - declared))


# ---------------------------------------------------------------------------
# a pair of sessions driven through one modifier sequence
# ---------------------------------------------------------------------------

NUM_CLBITS = 2


def session_handles(session):
    return [h for net in session.nets() for h in net.gates]


def draw_op(rng, session):
    """One modifier, as indices into the session's current structure."""
    nets = session.nets()
    handles = session_handles(session)
    n = session.num_qubits
    kind = rng.choices(
        ["net", "gate", "remove", "retune", "measure", "reset", "c_if",
         "update", "fork", "restore"],
        weights=[4, 12, 4, 2, 1, 1, 1, 3, 1, 1],
    )[0]
    if kind == "net" or not nets:
        # None appends; an index inserts mid-circuit, after that net
        after = rng.choice([None] + list(range(len(nets)))) if nets else None
        return ("net", after)
    if kind == "remove":
        return ("remove", rng.randrange(len(handles))) if handles else ("update",)
    if kind == "retune":
        tunable = [
            i for i, h in enumerate(handles)
            if isinstance(h.gate, Gate) and h.gate.params
        ]
        if not tunable:
            return ("update",)
        i = rng.choice(tunable)
        params = tuple(
            rng.choice([0.0, np.pi, rng.uniform(0, 2 * np.pi)])
            for _ in handles[i].gate.params
        )
        return ("retune", i, params)
    if kind in ("update", "fork", "restore"):
        return (kind,)
    net_index = rng.randrange(len(nets))
    net = nets[net_index]
    free = sorted(set(range(n)) - net.qubits_in_use())
    free_clbits = sorted(set(range(NUM_CLBITS)) - net.clbits_in_use())
    if not free:
        return ("net", None)
    if kind == "measure" and free_clbits:
        return ("measure", net_index, rng.choice(free), rng.choice(free_clbits))
    if kind == "reset":
        return ("reset", net_index, rng.choice(free))
    if kind == "c_if" and free_clbits:
        bit = rng.choice(free_clbits)
        return ("c_if", net_index, random_gate(rng, free), (bit,), rng.randrange(2))
    return ("gate", net_index, random_gate(rng, free))


def apply_op(session, op):
    """Apply ``op`` to ``session``; returns the session to continue on."""
    kind = op[0]
    nets = session.nets()
    if kind == "net":
        session.insert_net(None if op[1] is None else nets[op[1]])
    elif kind == "gate":
        session.insert_gate(op[2], nets[op[1]])
    elif kind == "remove":
        session.remove_gate(session_handles(session)[op[1]])
    elif kind == "retune":
        session.update_gate(session_handles(session)[op[1]], *op[2])
    elif kind == "measure":
        session.measure(nets[op[1]], op[2], op[3])
    elif kind == "reset":
        session.reset(nets[op[1]], op[2])
    elif kind == "c_if":
        session.c_if(op[2], nets[op[1]], condition=(op[3], op[4]))
    elif kind == "update":
        session.update_state()
    elif kind == "fork":
        return session.fork()
    return session


@settings(max_examples=30, **COMMON_SETTINGS)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(3, 5),
    block_size=st.sampled_from([2, 4, 8]),
    fusion=st.booleans(),
)
def test_indexed_wiring_equals_scan_wiring(
    seed, num_qubits, block_size, fusion, tmp_path_factory
):
    rng = random.Random(seed)
    knobs = dict(
        num_clbits=NUM_CLBITS, block_size=block_size, num_workers=1,
        fusion=fusion, seed=seed % 1000,
    )
    indexed = QTask(num_qubits, **knobs)
    with scan_wired():
        # the scans keep no index to resolve reads through: chain walk
        oracle = QTask(num_qubits, block_directory=False, **knobs)
    assert type(indexed.simulator.graph) is PartitionGraph
    assert type(oracle.simulator.graph) is ScanWiredGraph
    opened = [indexed, oracle]
    try:
        for _ in range(30):
            op = draw_op(rng, indexed)
            if op[0] == "restore":
                path = str(tmp_path_factory.mktemp("writer_index") / "s.ckpt")
                indexed.checkpoint(path)
                indexed = QTask.restore(path, num_workers=1)
                oracle.checkpoint(path)
                with scan_wired():
                    oracle = QTask.restore(path, num_workers=1)
                opened += [indexed, oracle]
            else:
                indexed = apply_op(indexed, op)
                with scan_wired():
                    oracle = apply_op(oracle, op)
                if op[0] == "fork":
                    opened += [indexed, oracle]
            graph = indexed.simulator.graph
            assert wiring(graph) == wiring(oracle.simulator.graph), op
            assert set(map(node_key, graph.frontiers)) == set(
                map(node_key, oracle.simulator.graph.frontiers)
            ), op
            assert_index_matches_stage_order(graph)
            if op[0] in ("update", "fork", "restore"):
                assert_held_blocks_declared(indexed)
        indexed.update_state()
        oracle.update_state()
        assert_held_blocks_declared(indexed)
        np.testing.assert_array_equal(indexed.state(), oracle.state())
    finally:
        for session in opened:
            session.close()


def test_forked_graph_owns_its_index():
    """Edits on a fork touch neither the parent's index nor its edges."""
    with QTask(4, block_size=2, num_workers=1) as parent:
        net = parent.insert_net()
        for q in range(4):
            parent.insert_gate("h", net, q)
        net = parent.insert_net()
        parent.insert_gate("cx", net, 0, 3)
        parent.update_state()
        before = wiring(parent.simulator.graph)
        entries = [list(w) for w in parent.simulator.graph._writers]
        with parent.fork() as child:
            child.insert_gate("cz", child.insert_net(), 1, 2)
            child.remove_gate(session_handles(child)[0])
            assert_index_matches_stage_order(child.simulator.graph)
        assert wiring(parent.simulator.graph) == before
        assert parent.simulator.graph._writers == entries


def test_removing_an_unknown_stage_is_a_key_error():
    with QTask(3, block_size=2, num_workers=1) as session:
        handle = session.insert_gate("x", session.insert_net(), 0)
        stage = session.simulator._gate_stage[handle.uid]
        session.remove_gate(handle)
        with pytest.raises(KeyError):
            session.simulator.graph.remove_stage(stage)


# ---------------------------------------------------------------------------
# layout-keyed partition derivation
# ---------------------------------------------------------------------------


@st.composite
def placed_actions(draw):
    """(non-superposition action, qubits, qubit_count, block_size)."""
    qubit_count = draw(st.integers(1, 10))
    arity = draw(st.integers(1, min(3, qubit_count)))
    qubits = tuple(
        draw(st.permutations(range(qubit_count)))[:arity]
    )
    block_size = 1 << draw(st.integers(0, qubit_count))
    dim = 1 << arity
    phase = st.sampled_from([1.0, -1.0, 1j, np.exp(0.3j)])
    factors = tuple(draw(st.lists(phase, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        action = DiagonalAction(num_qubits=arity, phases=factors)
    else:
        perm = tuple(draw(st.permutations(range(dim))))
        action = MonomialAction(num_qubits=arity, perm=perm, factors=factors)
    return action, qubits, qubit_count, block_size


@settings(max_examples=150, **COMMON_SETTINGS)
@given(placed=placed_actions())
def test_cached_derivation_equals_enumerator(placed):
    action, qubits, qubit_count, block_size = placed
    enumerated = list(
        _enumerate_partitions.__wrapped__(
            unit_layout_of(action).unit_locals, qubits, qubit_count, block_size
        )
    )
    # first call may miss, second must hit: both equal the bare enumerator
    assert derive_partitions(action, qubits, qubit_count, block_size) == enumerated
    assert derive_partitions(action, qubits, qubit_count, block_size) == enumerated


def test_same_layout_shares_one_derivation():
    """Different angles, same unit layout: one enumeration, shared specs."""
    _enumerate_partitions.cache_clear()
    a = derive_partitions(Gate("rz", (3,), (0.3,)).action(), (3,), 8, 16)
    b = derive_partitions(Gate("rz", (3,), (0.7,)).action(), (3,), 8, 16)
    assert a == b and all(x is y for x, y in zip(a, b))
    info = _enumerate_partitions.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # callers get their own list: mutating one must not leak into the cache
    a.clear()
    assert derive_partitions(Gate("rz", (3,), (0.3,)).action(), (3,), 8, 16) == b


def test_layout_preserving_retune_derives_nothing():
    with QTask(8, block_size=16, num_workers=1) as session:
        handle = session.insert_gate("rz", session.insert_net(), 3, params=[0.3])
        stage = session.simulator._gate_stage[handle.uid]
        specs = stage.partition_specs()
        misses = _enumerate_partitions.cache_info().misses
        session.update_gate(handle, 0.9)
        assert session.simulator._gate_stage[handle.uid] is stage
        assert stage.partition_specs() == specs
        assert _enumerate_partitions.cache_info().misses == misses


# ---------------------------------------------------------------------------
# classify once
# ---------------------------------------------------------------------------


def test_engine_classifies_each_gate_shape_once(monkeypatch):
    calls = []
    classify = stage_module.classify_matrix

    def counting(matrix):
        calls.append(1)
        return classify(matrix)

    monkeypatch.setattr(stage_module, "classify_matrix", counting)
    stage_module._classified.cache_clear()
    _unit_layout.cache_clear()
    with QTask(6, block_size=4, num_workers=1) as session:
        net = session.insert_net()
        for q in range(6):
            session.insert_gate("h", net, q)
        for q in range(5):
            session.insert_gate("cp", session.insert_net(), q, q + 1, params=[0.5])
        session.insert_gate("cp", session.insert_net(), 0, 5, params=[0.25])
    assert len(calls) == 3  # h, cp(0.5), cp(0.25)
    # ... and one unit-layout derivation per distinct non-superposition
    # action: the other four cp(0.5) inserts look theirs up
    layouts = _unit_layout.cache_info()
    assert (layouts.misses, layouts.hits) == (2, 4)
    # The cache is the engine's: the dense baselines replay circuits through
    # Gate.action(), which must keep classifying afresh.
    gate = Gate("cp", (0, 1), (0.5,))
    assert gate.action() is not gate.action()
    assert stage_module.gate_action(gate) is stage_module.gate_action(gate)
