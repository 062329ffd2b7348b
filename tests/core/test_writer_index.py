"""The partition graph's recorded covers -- and sweeping them finds exactly
what the paper's frontier DFS finds.

Four things are pinned here:

* **Sweep == closest-writer reachability.**  ``conftest.FrontierOracle``
  keeps the paper's frontier list by watching a session's stage list from
  outside and answers with ``closest_writer_reachability`` -- nodes and
  closest-overlap edges built from scratch from ``graph.stages``,
  ``partition_specs()`` and ``reads_all_blocks()``, then a DFS.  The state
  machine (``tests/machine.py``, its ``MODIFIERS`` rules on one worker)
  drives sessions through mid-circuit nets, inserts, runs of removals, net
  removals, retunes (classification crossovers included), matvec stages,
  measure/reset/``c_if``, one modifier per update and batches of them,
  forks and checkpoint/restore, and after every step the
  frontier sweep must name the same ``(stage seq, block range, is_sync)``
  set.  The oracle widens the paper's closure to the coalesced runs it
  meets (by its own reading of which runs the modifiers left intact).
  Whenever nothing is pending the state must equal the dense reference,
  every block any stage *holds* must equal the dense prefix state after
  that stage, and the run records must agree with the stores
  (``conftest.assert_held_blocks_are_prefix_states`` /
  ``assert_runs_are_consistent``).
* **The covers declare exactly the declaring stages' blocks**: the
  per-block declarer view derived from them lists each block's declaring
  stages by seq, after every step.
* **Cached derivation == enumerator.**  ``derive_partitions`` shares results
  under the ``(unit layout, qubits, geometry)`` key; the enumerator behind
  the cache must give the same layout (block masks included) for any drawn
  action.
* **Held blocks lie inside declared ranges**: the invariant block
  resolution rests on -- reads resolve through the covers, which list
  *declared* blocks (``test_block_sources.py`` pins the resolution itself).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core import stage as stage_module
from repro.core.faults import FaultPlan
from repro.core.gates import DiagonalAction, Gate, MonomialAction
from repro.core.partition import (
    _enumerate_partitions,
    _unit_layout,
    derive_layout,
    derive_partitions,
    layout_of,
    unit_layout_of,
)

from ..conftest import (
    FrontierOracle,
    closest_writer_reachability,
    declarers,
    dense_state,
    failing_update,
    session_handles,
    swept_nodes,
)
from ..machine import (
    MODIFIERS,
    MODIFIERS_BUDGET,
    assert_index_matches_stage_order,
    run_machine,
)

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def node_key(node):
    return (node.stage.seq, node.block_range.to_tuple(), node.is_sync)


def wiring(graph):
    """The derived edge set, in position-based (session-free) keys."""
    return {(node_key(pred), node_key(succ)) for pred, succ in graph.edges()}


# ---------------------------------------------------------------------------
# the machine: every modifier, fork and restore, on the sequential executor
# ---------------------------------------------------------------------------


def test_sweep_equals_closest_writer_reachability(tmp_path):
    # "writer": the per-block writer index the covers replaced; the sweep is
    # checked against the closest-writer oracle all the same
    run_machine(tmp_path, rules=MODIFIERS, num_workers=1, **MODIFIERS_BUDGET)


def test_failed_update_keeps_its_pending_dirt(no_plan):
    """Dirt is cleared by a *successful* execute only."""
    with QTask(4, block_size=4, num_workers=1) as session:
        net = session.insert_net()
        for q in range(4):
            session.insert_gate("h", net, q)
        session.update_state()
        oracle = FrontierOracle(session)
        session.insert_gate("rz", session.insert_net(), 3, params=[0.4])
        pending = swept_nodes(session)
        assert pending and pending == oracle.expected()
        # every publish fails: all four update attempts raise
        failing_update(session, FaultPlan(probabilities={"cow.publish": 1.0}))
        assert session.simulator.state_epoch == (1, True)
        assert swept_nodes(session) == pending == oracle.expected()
        session.update_state()
        assert not swept_nodes(session) and not oracle.expected()
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_a_partly_hit_stage_dirties_its_whole_partitions(no_plan):
    """3 qubits in blocks of 2 (block bits q1, q2), one update per stage so
    nothing coalesces.  Retuning p[q1] dirties blocks 1 and 3; x[q1] pairs
    blocks (0, 1) and (2, 3), so both its partitions re-run and blocks 0
    and 2 change too; z[q2]'s block-2 partition is reached only through
    that rewrite."""
    with QTask(3, block_size=2, num_workers=1) as session:
        net = session.insert_net()
        for q in range(3):
            session.insert_gate("h", net, q)
        session.update_state()
        phase = session.insert_gate("p", session.insert_net(), 1, params=[0.3])
        for name, qubit in (("x", 1), ("z", 2)):
            session.update_state()
            session.insert_gate(name, session.insert_net(), qubit)
        session.update_state()
        oracle = FrontierOracle(session)
        session.update_gate(phase, 1.1)
        swept = swept_nodes(session)
        assert swept == oracle.expected() and (3, (2, 2), False) in swept
        session.update_state()
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_removed_anchor_hands_its_inherited_dirt_on():
    """Remove a stage, then the stage its dirt was anchored on.

    Built one update per stage, so no two stages share a coalesced run and
    the swept set is the paper's exactly; built in one update, the three
    diagonal stages are one run and the same removals sweep its survivor
    whole.
    """
    def build(session, stepwise):
        nets = [session.insert_net() for _ in range(4)]
        for q in range(4):
            session.insert_gate("h", nets[0], q)
        handles = []
        for net, (name, qubit, params) in zip(
            nets[1:], [("z", 1, ()), ("z", 3, ()), ("rz", 0, [0.3])]
        ):
            if stepwise:
                session.update_state()
            # z[q1]: odd blocks; z[q3]: upper half; rz[q0]: every block
            handles.append(session.insert_gate(name, net, qubit, params=params))
        session.update_state()
        return handles

    with QTask(4, block_size=2, num_workers=1) as session:
        low, high, last = build(session, stepwise=True)
        oracle = FrontierOracle(session)
        graph = session.simulator.graph
        assert graph.runs() == []
        session.remove_gate(low)    # blocks 1 and 3 land on `high`, not its own
        session.remove_gate(high)   # ... and must travel on with high's blocks
        assert graph.stats().num_frontiers == 1
        assert swept_nodes(session) == oracle.expected() == {
            (1, (block, block), False) for block in (1, 3, 4, 5, 6, 7)
        }
        session.update_state()
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
        # a removed last stage leaves nothing pending, whatever it carried
        session.update_gate(last, 0.8)
        assert graph.has_pending
        session.remove_gate(last)
        assert not graph.has_pending and not oracle.expected()

    with QTask(4, block_size=2, num_workers=1) as session:
        low, high, last = build(session, stepwise=False)
        oracle = FrontierOracle(session)
        graph = session.simulator.graph
        assert [len(run.members) for run in graph.runs()] == [3]
        session.remove_gate(low)
        session.remove_gate(high)
        # the survivor of the dissolved run recomputes whole: it holds the
        # run's answer, not the state after the two stages before it
        assert graph.stats().num_frontiers == 1 and graph.runs() == []
        assert swept_nodes(session) == oracle.expected() == {
            (1, (block, block), False) for block in range(8)
        }
        session.update_state()
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_mid_circuit_edits_do_not_move_pending_dirt():
    """Dirt is anchored on the stage, not on its (renumbered) seq."""
    with QTask(4, block_size=2, num_workers=1) as session:
        nets = [session.insert_net() for _ in range(3)]
        for q in range(4):
            session.insert_gate("h", nets[0], q)
        early = session.insert_gate("z", nets[1], 3)                    # blocks 4-7
        tuned = session.insert_gate("cp", nets[2], 0, 1, params=[0.3])  # [1,3], [5,7]
        session.update_state()
        oracle = FrontierOracle(session)
        stage = session.simulator.stages.stage_of(tuned)
        session.update_gate(tuned, 0.9)
        assert stage.seq == 2
        session.remove_gate(early)  # renumbers `stage`; stales [5,7], not [1,3]
        assert stage.seq == 1
        assert swept_nodes(session) == oracle.expected() == {
            (1, (1, 3), False), (1, (5, 7), False)
        }
        session.insert_gate("z", nets[1], 3)  # ... and back
        session.simulator.graph  # an insert is queued until a graph read
        assert stage.seq == 2
        assert swept_nodes(session) == oracle.expected()
        assert {(2, (1, 3), False), (2, (5, 7), False)} <= swept_nodes(session)
        session.update_state()
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_forked_graph_owns_its_index():
    """Edits on a fork touch neither the parent's index nor its dirt."""
    with QTask(4, block_size=2, num_workers=1) as parent:
        net = parent.insert_net()
        for q in range(4):
            parent.insert_gate("h", net, q)
        net = parent.insert_net()
        parent.insert_gate("cx", net, 0, 3)
        parent.update_state()
        before = wiring(parent.simulator.graph)
        entries = declarers(parent.simulator.graph)
        with parent.fork() as child:
            assert wiring(child.simulator.graph) == before
            assert not child.simulator.graph.has_pending
            child.insert_gate("cz", child.insert_net(), 1, 2)
            child.remove_gate(session_handles(child)[0])
            assert_index_matches_stage_order(child.simulator.graph)
            assert child.simulator.graph.has_pending
        assert wiring(parent.simulator.graph) == before
        assert declarers(parent.simulator.graph) == entries
        assert not parent.simulator.graph.has_pending


def test_derived_edges_do_not_depend_on_the_edit_history():
    """Build a circuit two ways: same closest-writer pairs, same count."""
    def build(order):
        session = QTask(5, block_size=4, num_workers=1)
        nets = [session.insert_net() for _ in range(4)]
        gates = [
            ("h", nets[0], (0,)), ("h", nets[0], (4,)), ("cx", nets[1], (4, 3)),
            ("cx", nets[2], (3, 2)), ("rz", nets[3], (4,)), ("cz", nets[3], (0, 2)),
        ]
        for i in order:
            name, net, qubits = gates[i]
            params = [0.3] if name == "rz" else ()
            session.insert_gate(name, net, *qubits, params=params)
        return session

    with build(range(6)) as forward, build([5, 3, 4, 0, 2, 1]) as shuffled:
        extra = shuffled.insert_gate("x", shuffled.nets()[1], 0)
        shuffled.remove_gate(extra)
        assert wiring(forward.simulator.graph) == wiring(shuffled.simulator.graph)
        stats = forward.statistics()
        assert stats["num_edges"] == len(wiring(forward.simulator.graph))
        assert stats["num_edges"] == shuffled.statistics()["num_edges"]
        # the view is what the oracle builds from public pieces
        stages = forward.simulator.graph.stages
        for pred, succ in wiring(forward.simulator.graph):
            assert succ in closest_writer_reachability(stages, {pred})


def test_removing_an_unknown_stage_is_a_key_error():
    with QTask(3, block_size=2, num_workers=1) as session:
        handle = session.insert_gate("x", session.insert_net(), 0)
        stage = session.simulator.stages.stage_of(handle)
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
    enumerated = _enumerate_partitions.__wrapped__(
        unit_layout_of(action).unit_locals, qubits, qubit_count, block_size
    )
    # first call may miss, second must hit: both equal the bare enumerator
    specs = list(enumerated.specs)
    assert derive_partitions(action, qubits, qubit_count, block_size) == specs
    assert derive_partitions(action, qubits, qubit_count, block_size) == specs
    # ... block masks included: bit b of a mask <=> the partition spans b
    layout = derive_layout(action, qubits, qubit_count, block_size)
    assert layout == enumerated == layout_of(specs)
    for spec, mask in zip(layout.specs, layout.masks):
        assert mask == sum(1 << block for block in spec.block_range)
    assert layout.cover == sum(layout.masks)  # partitions are disjoint


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
        stage = session.simulator.stages.stage_of(handle)
        specs = stage.partition_specs()
        misses = _enumerate_partitions.cache_info().misses
        session.update_gate(handle, 0.9)
        assert session.simulator.stages.stage_of(handle) is stage
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
    stage_module.gate_shape.cache_clear()  # the per-gate cache in front
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
