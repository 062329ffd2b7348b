"""Tests for the stage-fusion engine: action composition, fused stages,
strided kernels and the simulator's greedy fusion / dissolution machinery."""

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.cow import InitialStateStore
from repro.core.gates import (
    DiagonalAction,
    Gate,
    MonomialAction,
    compose_actions,
    compose_run,
    embed_gate_matrix,
    fuse_gate_actions,
)
from repro.core.kernels import ArrayReader, apply_action_range, execute_run
from repro.core.simulator import QTaskSimulator
from repro.core.stage import FusedUnitaryStage

from ..conftest import StoreChain, assert_states_close, reference_state


def dense_op(gates, n):
    m = np.eye(1 << n, dtype=complex)
    for g in gates:
        m = embed_gate_matrix(g, n) @ m
    return m


def action_as_matrix(action, qubits, n):
    """Dense operator of a classified action via a synthetic gate application."""
    dim = 1 << n
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        out[:, col] = apply_action_range(ArrayReader(e), 0, dim - 1, qubits, action)
    return out


# ---------------------------------------------------------------------------
# compose_actions: the fusion algebra
# ---------------------------------------------------------------------------


def test_diagonal_diagonal_composes_to_diagonal():
    a, b = Gate("s", (0,)), Gate("t", (1,))
    action, qubits = compose_actions(a.action(), a.qubits, b.action(), b.qubits)
    assert isinstance(action, DiagonalAction)
    assert qubits == (0, 1)
    np.testing.assert_allclose(
        action_as_matrix(action, qubits, 2), dense_op([a, b], 2), atol=1e-12
    )


def test_monomial_monomial_composes_to_monomial():
    a, b = Gate("cx", (0, 1)), Gate("swap", (1, 2))
    action, qubits = compose_actions(a.action(), a.qubits, b.action(), b.qubits)
    assert isinstance(action, MonomialAction)
    assert qubits == (0, 1, 2)
    np.testing.assert_allclose(
        action_as_matrix(action, qubits, 3), dense_op([a, b], 3), atol=1e-12
    )


def test_diagonal_absorbs_into_monomial_factors():
    a, b = Gate("x", (0,)), Gate("rz", (0,), (0.7,))
    action, qubits = compose_actions(a.action(), a.qubits, b.action(), b.qubits)
    assert isinstance(action, MonomialAction)
    np.testing.assert_allclose(
        action_as_matrix(action, qubits, 1), dense_op([a, b], 1), atol=1e-12
    )


def test_involution_collapses_to_identity_diagonal():
    a = Gate("x", (1,))
    action, qubits = compose_actions(a.action(), a.qubits, a.action(), a.qubits)
    # x . x == identity: permutation vanishes, classified back to diagonal
    assert isinstance(action, DiagonalAction)
    assert action.touched_locals() == ()


def test_composition_is_order_sensitive():
    a, b = Gate("x", (0,)), Gate("s", (0,))
    ab, q = compose_actions(a.action(), a.qubits, b.action(), b.qubits)
    ba, _ = compose_actions(b.action(), b.qubits, a.action(), a.qubits)
    assert not np.allclose(
        action_as_matrix(ab, q, 1), action_as_matrix(ba, q, 1), atol=1e-12
    )


def test_fuse_gate_actions_rejects_superposition():
    with pytest.raises(ValueError):
        fuse_gate_actions([Gate("h", (0,))])
    with pytest.raises(ValueError):
        fuse_gate_actions([Gate("z", (0,)), Gate("h", (0,))])
    with pytest.raises(ValueError):
        fuse_gate_actions([])


def test_fuse_gate_actions_random_runs(rng):
    pool = [
        Gate("z", (0,)), Gate("s", (1,)), Gate("t", (2,)), Gate("x", (0,)),
        Gate("y", (2,)), Gate("cx", (0, 2)), Gate("cz", (1, 2)),
        Gate("swap", (0, 1)), Gate("rz", (1,), (0.3,)),
        Gate("cp", (2, 0), (1.1,)), Gate("ccx", (0, 1, 2)),
    ]
    for _ in range(25):
        gates = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        action, qubits = fuse_gate_actions(gates)
        np.testing.assert_allclose(
            action_as_matrix(action, qubits, 3), dense_op(gates, 3), atol=1e-10
        )


def test_compose_run_is_the_one_algebra(rng):
    """Any number of parts in one call == the dense product == pairwise
    ``compose_actions``; the array forms it seeds equal the tuple fields."""
    pool = [
        Gate("z", (0,)), Gate("s", (4,)), Gate("x", (3,)), Gate("y", (1,)),
        Gate("cx", (0, 4)), Gate("cz", (1, 2)), Gate("swap", (2, 3)),
        Gate("rz", (1,), (0.3,)), Gate("cp", (4, 0), (1.1,)), Gate("ccx", (3, 1, 2)),
    ]
    for length in (1, 2, 7, 40):
        gates = [rng.choice(pool) for _ in range(length)]
        parts = [(g.action(), g.qubits) for g in gates]
        action, qubits = compose_run(parts)
        assert qubits == tuple(sorted({q for g in gates for q in g.qubits}))
        np.testing.assert_allclose(
            action_as_matrix(action, qubits, 5), dense_op(gates, 5), atol=1e-10
        )
        pairwise, pair_qubits = parts[0]
        for nxt, nxt_qubits in parts[1:]:
            pairwise, pair_qubits = compose_actions(
                pairwise, pair_qubits, nxt, nxt_qubits
            )
        np.testing.assert_allclose(
            action_as_matrix(pairwise, pair_qubits, 5),
            action_as_matrix(action, qubits, 5), atol=1e-10,
        )
        if isinstance(action, DiagonalAction):
            assert action.phase_array.tolist() == list(action.phases)
        else:
            assert action.factor_array.tolist() == list(action.factors)
            assert sorted(action.perm) == list(range(1 << len(qubits)))
        assert not (action.phase_array if isinstance(action, DiagonalAction)
                    else action.factor_array).flags.writeable
    # x then x: the permutation collapses, the result is classified back
    undone, _ = compose_run([(Gate("x", (2,)).action(), (2,))] * 2)
    assert isinstance(undone, DiagonalAction) and undone.touched_locals() == ()
    with pytest.raises(TypeError):
        compose_run([(Gate("z", (0,)).action(), (0,)), (Gate("h", (0,)).action(), (0,))])


# ---------------------------------------------------------------------------
# FusedUnitaryStage
# ---------------------------------------------------------------------------


def run_stage(stage, reader):
    stage.prepare(reader)
    for spec in stage.partition_specs():
        for run in stage.emit_runs(spec.block_range):
            execute_run(reader, stage.store, run)


def test_fused_stage_matches_dense(np_rng):
    n = 4
    gates = [Gate("z", (3,)), Gate("cx", (3, 1)), Gate("s", (1,))]
    stage = FusedUnitaryStage(gates, n, 4)
    psi = np_rng.normal(size=16) + 1j * np_rng.normal(size=16)
    init = InitialStateStore(16, 4)
    for b in range(4):
        init._blocks[b] = psi[b * 4 : (b + 1) * 4].copy()
    chain = StoreChain([init])
    run_stage(stage, chain)
    out = StoreChain([init, stage.store]).full_vector()
    np.testing.assert_allclose(out, dense_op(gates, n) @ psi, atol=1e-10)


def test_fused_stage_label_and_gate_list():
    gates = [Gate("z", (0,)), Gate("x", (1,))]
    stage = FusedUnitaryStage(gates, 3, 4)
    assert stage.gate_list() == tuple(gates)
    assert stage.label().startswith("fused{")
    assert stage.kind == "fused"


# ---------------------------------------------------------------------------
# strided kernels agree with the general gather path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,qubits", [
    ("z", (0,)), ("z", (5,)), ("x", (0,)), ("x", (5,)), ("y", (3,)),
    ("cz", (1, 4)), ("cx", (4, 1)), ("cx", (1, 4)), ("swap", (0, 5)),
    ("ccx", (0, 3, 5)), ("cp", (5, 4)),
])
def test_strided_kernels_match_dense_per_block(name, qubits, np_rng):
    n = 6
    params = (0.9,) if name == "cp" else ()
    gate = Gate(name, qubits, params)
    action = gate.action()
    psi = np_rng.normal(size=64) + 1j * np_rng.normal(size=64)
    ref = embed_gate_matrix(gate, n) @ psi
    for block in (4, 8, 32, 64):
        out = np.concatenate([
            apply_action_range(
                ArrayReader(psi), b * block, (b + 1) * block - 1, qubits, action
            )
            for b in range(64 // block)
        ])
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_unaligned_range_falls_back_to_gather(np_rng):
    gate = Gate("cz", (0, 3))
    psi = np_rng.normal(size=64) + 1j * np_rng.normal(size=64)
    ref = embed_gate_matrix(gate, 6) @ psi
    out = apply_action_range(ArrayReader(psi), 5, 41, gate.qubits, gate.action())
    np.testing.assert_allclose(out, ref[5:42], atol=1e-12)


# ---------------------------------------------------------------------------
# simulator-level fusion
# ---------------------------------------------------------------------------


def make_fused_sim(n, levels, **kwargs):
    ckt = Circuit(n)
    sim = QTaskSimulator(ckt, fusion=True, **kwargs)
    ckt.from_levels(levels)
    return ckt, sim


def test_consecutive_diagonal_run_fuses_into_one_stage():
    levels = [[Gate("z", (0,))], [Gate("s", (0,))], [Gate("cp", (0, 1), (0.4,))]]
    ckt, sim = make_fused_sim(3, levels, block_size=4)
    stats = sim.statistics()
    assert stats["num_stages"] == 1
    assert stats["num_fused_stages"] == 1
    sim.update_state()
    assert_states_close(sim.state(), reference_state(3, levels), atol=1e-10)
    sim.close()


def test_fusion_respects_max_fused_qubits():
    levels = [[Gate("cz", (0, 1))], [Gate("cz", (2, 3))], [Gate("cz", (4, 5))]]
    ckt, sim = make_fused_sim(6, levels, block_size=4, max_fused_qubits=4)
    # the third cz would push the union to 6 qubits: a new stage must start
    assert sim.statistics()["num_stages"] == 2
    sim.close()


def test_superposition_gate_breaks_the_run():
    levels = [[Gate("z", (0,))], [Gate("h", (1,))], [Gate("s", (0,))]]
    ckt, sim = make_fused_sim(3, levels, block_size=4)
    stats = sim.statistics()
    assert stats["num_fused_stages"] == 0
    assert stats["num_stages"] == 3
    sim.update_state()
    assert_states_close(sim.state(), reference_state(3, levels), atol=1e-10)
    sim.close()


def test_removing_a_member_dissolves_the_fused_stage():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=4, fusion=True)
    n1, n2, n3 = ckt.insert_net(), ckt.insert_net(), ckt.insert_net()
    g1 = ckt.insert_gate("z", n1, 0)
    g2 = ckt.insert_gate("cx", n2, 0, 1)
    g3 = ckt.insert_gate("s", n3, 1)
    assert sim.statistics()["num_fused_stages"] == 1
    sim.update_state()
    ckt.remove_gate(g2)
    assert sim.statistics()["num_fused_stages"] == 0
    assert sim.statistics()["num_stages"] == 2
    sim.update_state()
    assert_states_close(
        sim.state(),
        reference_state(3, [[g1.gate], [g3.gate]]),
        atol=1e-10,
    )
    sim.close()


def test_mid_circuit_insert_dissolves_conflicting_fusion():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=4, fusion=True)
    n1 = ckt.insert_net()
    n2 = ckt.insert_net()
    n3 = ckt.insert_net()
    ckt.insert_gate("z", n1, 0)
    ckt.insert_gate("cx", n3, 0, 1)  # fuses with the z across the empty net
    assert sim.statistics()["num_fused_stages"] == 1
    sim.update_state()
    # a gate on qubit 0 lands between the fused members: the run must split
    ckt.insert_gate("x", n2, 0)
    sim.update_state()
    expected = reference_state(
        3, [[Gate("z", (0,))], [Gate("x", (0,))], [Gate("cx", (0, 1))]]
    )
    assert_states_close(sim.state(), expected, atol=1e-10)
    sim.close()


def test_fusion_disabled_for_dependent_nets():
    ckt = Circuit(2, allow_net_dependencies=True)
    sim = QTaskSimulator(ckt, fusion=True)
    assert sim.fusion is False
    sim.close()


def test_fusion_knob_in_statistics_and_facade():
    from repro import QTask

    with QTask(3, fusion=True, max_fused_qubits=5) as ckt:
        stats = ckt.statistics()
        assert stats["fusion"] is True
        assert ckt.simulator.max_fused_qubits == 5
    with QTask(3) as ckt:
        assert ckt.statistics()["fusion"] is False
