"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core import faults
from repro.core.blocks import BlockRange
from repro.core.circuit import Circuit
from repro.core.cow import StoreChain
from repro.core.gates import Gate, embed_gate_matrix
from repro.core.graph import PartitionGraph
from repro.core.partition import PartitionSpec
from repro.core.stage import Stage

# ---------------------------------------------------------------------------
# chaos mode: QTASK_FAULT_P=<p> runs the whole suite under an armed fault
# plan (see repro.core.faults.plan_from_env).  Faults only fire inside the
# simulator's armed scopes, and every recovery layer must absorb them, so
# the suite is expected to stay green -- that expectation *is* the test.
# ---------------------------------------------------------------------------


_chaos_plan = None


def pytest_configure(config):
    global _chaos_plan
    _chaos_plan = faults.plan_from_env()
    if _chaos_plan is not None:
        faults.install(_chaos_plan)


def pytest_unconfigure(config):
    if _chaos_plan is not None and faults.active_plan() is _chaos_plan:
        faults.uninstall()


# ---------------------------------------------------------------------------
# reference simulation helpers (independent of the library's fast kernels)
# ---------------------------------------------------------------------------


def reference_state(num_qubits: int, levels: Sequence[Sequence[Gate]]) -> np.ndarray:
    """Ground-truth state via dense operator embedding (small circuits only)."""
    psi = np.zeros(1 << num_qubits, dtype=complex)
    psi[0] = 1.0
    for level in levels:
        for gate in level:
            psi = embed_gate_matrix(gate, num_qubits) @ psi
    return psi


def replay_trajectories(session, shots: int, seed: int):
    """``run_shots`` the slow way: one fork, one whole replay per shot.

    Yields ``(bitstring, recorded outcomes)`` per shot.  Built from the
    public primitives only, so it stays an independent oracle for however
    ``run_shots`` shares work between shots.
    """
    clbits = range(session.num_clbits)
    child = session.fork()
    try:
        for shot in range(shots):
            child.simulator.reset_trajectory((seed, shot))
            child.update_state()
            yield (
                child.outcomes.bitstring(clbits),
                child.outcomes.recorded_outcomes(),
            )
    finally:
        child.close()


def replay_shots(session, shots: int, seed: int) -> dict:
    """The histogram :func:`replay_trajectories` adds up to."""
    counts: dict = {}
    for bits, _ in replay_trajectories(session, shots, seed):
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def circuit_levels(circuit: Circuit) -> List[List[Gate]]:
    """Extract the (non-empty) gate levels currently in a circuit."""
    return [[h.gate for h in net.gates] for net in circuit.nets() if net.gates]


def assert_states_close(actual: np.ndarray, expected: np.ndarray, *, atol: float = 1e-9):
    __tracebackhide__ = True
    np.testing.assert_allclose(actual, expected, atol=atol, rtol=1e-7)


# ---------------------------------------------------------------------------
# random circuit generation used across many tests
# ---------------------------------------------------------------------------

SINGLE_QUBIT_GATES = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"]
PARAM_SINGLE_GATES = ["rx", "ry", "rz", "p", "u3"]
TWO_QUBIT_GATES = ["cx", "cz", "swap", "cy", "ch"]
PARAM_TWO_GATES = ["cp", "crz", "crx", "rzz"]


def random_gate(rng: random.Random, qubits: Sequence[int]) -> Gate:
    """A random gate on a subset of the given (free) qubits."""
    if len(qubits) >= 2 and rng.random() < 0.45:
        q = rng.sample(list(qubits), 2)
        if rng.random() < 0.5:
            return Gate(rng.choice(TWO_QUBIT_GATES), tuple(q))
        name = rng.choice(PARAM_TWO_GATES)
        return Gate(name, tuple(q), (rng.uniform(0, 2 * np.pi),))
    q = (rng.choice(list(qubits)),)
    if rng.random() < 0.5:
        return Gate(rng.choice(SINGLE_QUBIT_GATES), q)
    name = rng.choice(PARAM_SINGLE_GATES)
    nparams = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 3}[name]
    return Gate(name, q, tuple(rng.uniform(0, 2 * np.pi) for _ in range(nparams)))


def random_level(rng: random.Random, num_qubits: int, *, density: float = 0.7) -> List[Gate]:
    """A random net: gates on pairwise-disjoint qubits."""
    free = list(range(num_qubits))
    rng.shuffle(free)
    gates: List[Gate] = []
    while free and rng.random() < density:
        gate = random_gate(rng, free)
        for q in gate.qubits:
            free.remove(q)
        gates.append(gate)
    return gates


def random_levels(rng: random.Random, num_qubits: int, num_levels: int) -> List[List[Gate]]:
    levels = [random_level(rng, num_qubits) for _ in range(num_levels)]
    return [lvl for lvl in levels if lvl] or [[Gate("h", (0,))]]


@pytest.fixture()
def no_plan():
    """Park whatever plan (chaos-mode or none) surrounds the test."""
    previous = faults.install(None)
    yield
    faults.install(previous)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# a writer index over bare stores (block-resolution tests below the session)
# ---------------------------------------------------------------------------


class DeclaringStage(Stage):
    """A stage that only declares block ranges; its store is written by hand."""

    def __init__(self, qubit_count, block_size, ranges, store=None) -> None:
        super().__init__(qubit_count, block_size)
        self.ranges = [BlockRange(first, last) for first, last in ranges]
        if store is not None:
            self.store = store

    def partition_specs(self):
        return [PartitionSpec(r, 1, 0) for r in self.ranges]

    def label(self) -> str:
        return f"declares{[r.to_tuple() for r in self.ranges]}"


def index_over(stages: Sequence[Stage]) -> PartitionGraph:
    """A partition graph (the writer index) holding ``stages`` in order."""
    graph = PartitionGraph(BlockRange(0, stages[0].n_blocks - 1))
    for position, stage in enumerate(stages):
        graph.insert_stage(stage, position)
    return graph


def newest_holder(initial, stages: Sequence[Stage], block: int, before_seq: int):
    """Brute force: the newest store before ``before_seq`` holding ``block``."""
    stores = [initial] + [s.store for s in stages[:before_seq]]
    return StoreChain(stores).resolve_store(block)
