"""Tests for the baseline simulators and cross-simulator equivalence."""

import numpy as np
import pytest

from repro.baselines import DenseReferenceSimulator, QulacsLikeSimulator
from repro.core.circuit import Circuit
from repro.core.exceptions import CircuitError
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator

from ..conftest import assert_states_close, random_levels, reference_state


def build_circuit(n, levels):
    ckt = Circuit(n)
    ckt.from_levels(levels)
    return ckt


BELL = [[Gate("h", (1,))], [Gate("cx", (1, 0))]]


@pytest.mark.parametrize("cls", [QulacsLikeSimulator, DenseReferenceSimulator])
def test_baseline_bell_state(cls):
    sim = cls(build_circuit(2, BELL))
    sim.update_state()
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert_states_close(sim.state(), expected)
    sim.close()


@pytest.mark.parametrize("cls", [QulacsLikeSimulator])
def test_baseline_matches_dense_reference_on_random_circuits(cls, rng):
    for trial in range(3):
        n = 5
        levels = random_levels(rng, n, 6)
        ckt = build_circuit(n, levels)
        sim = cls(ckt)
        sim.update_state()
        assert_states_close(sim.state(), reference_state(n, levels))
        sim.close()


def test_qulacs_like_multithreaded_matches_single_threaded(rng):
    """Historical id: one thread, so ``num_workers`` is None or 1, no ``chunk_size``."""
    n = 6
    levels = random_levels(rng, n, 6)
    ckt = build_circuit(n, levels)
    for bad in (2, 4, 0, True, 1.0):
        with pytest.raises(ValueError, match="num_workers"):
            QulacsLikeSimulator(ckt, num_workers=bad)
    with pytest.raises(TypeError, match="chunk_size"):
        QulacsLikeSimulator(ckt, chunk_size=8)
    s1, default = QulacsLikeSimulator(ckt, num_workers=1), QulacsLikeSimulator(ckt)
    s1.update_state()
    default.update_state()
    assert np.array_equal(s1.state(), default.state())


def test_all_simulators_agree_including_qtask(rng):
    n = 5
    levels = random_levels(rng, n, 7)
    ckt = build_circuit(n, levels)
    qulacs = QulacsLikeSimulator(ckt)
    qtask = QTaskSimulator(ckt, block_size=8, num_workers=1)
    qulacs.update_state()
    qtask.update_state()
    assert_states_close(qulacs.state(), reference_state(n, levels))
    assert_states_close(qulacs.state(), qtask.state())
    qulacs.close()
    qtask.close()


def test_baseline_resimulates_after_modification(rng):
    """Baselines have no incrementality: they replay the whole circuit."""
    n = 4
    levels = random_levels(rng, n, 5)
    ckt = build_circuit(n, levels)
    sim = QulacsLikeSimulator(ckt)
    r1 = sim.update_state()
    net = ckt.insert_net()
    ckt.insert_gate("x", net, 0)
    r2 = sim.update_state()
    assert not r2.was_incremental
    assert r2.gates_applied == r1.gates_applied + 1
    new_levels = [[h.gate for h in n_.gates] for n_ in ckt.nets() if n_.gates]
    assert_states_close(sim.state(), reference_state(n, new_levels))
    sim.close()


def test_baseline_queries():
    sim = QulacsLikeSimulator(build_circuit(2, BELL))
    sim.update_state()
    assert abs(sim.norm() - 1) < 1e-12
    assert abs(sim.probabilities().sum() - 1) < 1e-12
    assert abs(sim.amplitude(0)) > 0.5
    assert sim.allocated_bytes() == 2 * 4 * 16
    sim.close()


def test_baseline_state_returns_copy():
    sim = QulacsLikeSimulator(build_circuit(2, BELL))
    sim.update_state()
    out = sim.state()
    out[:] = 0
    assert abs(sim.amplitude(0)) > 0.5
    sim.close()


def test_baseline_empty_circuit_is_initial_state():
    sim = QulacsLikeSimulator(Circuit(3))
    sim.update_state()
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1
    assert_states_close(sim.state(), expected)
    sim.close()


def test_dense_reference_rejects_large_circuits():
    with pytest.raises(CircuitError):
        DenseReferenceSimulator(Circuit(13))


def test_dense_reference_unitary_matches_composition():
    ckt = build_circuit(2, BELL)
    ref = DenseReferenceSimulator(ckt)
    u = ref.unitary()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    ref.update_state()
    assert_states_close(ref.state(), psi)
    ref.close()


def test_qulacs_like_diagonal_fast_path_matches_dense(rng):
    """Diagonal gates take the in-place fast path; verify against the oracle."""
    n = 4
    levels = [[Gate("h", (q,)) for q in range(n)],
              [Gate("rz", (1,), (0.37,))],
              [Gate("cz", (0, 3))],
              [Gate("t", (2,))]]
    ckt = build_circuit(n, levels)
    sim = QulacsLikeSimulator(ckt)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(n, levels))
    sim.close()


def test_qulacs_like_monomial_fast_path_matches_dense(rng):
    n = 4
    levels = [[Gate("h", (q,)) for q in range(n)],
              [Gate("x", (0,))],
              [Gate("cx", (3, 1))],
              [Gate("swap", (0, 2))],
              [Gate("ccx", (0, 1, 3))]]
    ckt = build_circuit(n, levels)
    sim = QulacsLikeSimulator(ckt)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(n, levels))
    sim.close()
