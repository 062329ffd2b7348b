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
from repro.core.partition import PartitionSpec, layout_of
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


def dense_state(session) -> np.ndarray:
    """The session's circuit on the dense reference, replaying its outcomes."""
    from repro.baselines.dense import DenseReferenceSimulator

    dense = DenseReferenceSimulator(
        session.circuit,
        forced_outcomes=session.simulator.outcomes.recorded_outcomes(),
    )
    dense.update_state()
    return dense.state()


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

    def partition_layout(self):
        return layout_of([PartitionSpec(r, 1, 0) for r in self.ranges])

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


# ---------------------------------------------------------------------------
# the frontier oracle: closest-writer reachability, built from scratch
# ---------------------------------------------------------------------------


def plan_nodes(graph, plan) -> list:
    """The graph's nodes an execution plan covers, in execution order."""
    nodes = []
    for sp in plan.stage_plans:
        wanted = set(sp.block_ranges)
        nodes += [
            node for node in graph.stage_nodes(sp.stage)
            if (sp.has_sync if node.is_sync else node.block_range in wanted)
        ]
    assert plan.affected_partitions == len(nodes)
    return nodes


def swept_nodes(session) -> set:
    """What the next update would re-simulate, as ``(seq, range, is_sync)``."""
    sim = session.simulator
    dense = not sim.copy_on_write and (
        sim.graph.has_pending or sim.state_epoch[0] == 0
    )
    return {
        (node.stage.seq, node.block_range.to_tuple(), node.is_sync)
        for node in plan_nodes(sim.graph, sim.graph.sweep(everything=dense))
    }


def closest_writer_reachability(stages: Sequence[Stage], seeds) -> set:
    """Every node reachable from ``seeds`` over closest-writer edges (§III.E).

    The paper's definition, built from scratch from public pieces only:
    ``stages`` in execution order, each stage's ``partition_specs()`` and
    ``reads_all_blocks()``.  A partition is connected to the closest later
    declarer of each of its blocks; a stage that reads everything is entered
    through its sync barrier, which every block's closest earlier declarer
    precedes and which precedes the stage's own partitions; such a stage is
    affected whole.  Nodes (and ``seeds``) are ``(seq, (first, last),
    is_sync)``.
    """
    if not stages:
        return set()
    n_blocks = stages[0].n_blocks
    succs: dict = {}
    sync_of: dict = {}
    last_declarer: dict = {}
    for stage in stages:
        parts = [
            (stage.seq, spec.block_range.to_tuple(), False)
            for spec in stage.partition_specs()
        ]
        sync = None
        if parts and stage.reads_all_blocks():
            sync = (stage.seq, (0, n_blocks - 1), True)
            succs[sync] = set(parts)
            for node in last_declarer.values():
                succs[node].add(sync)
        for node in parts:
            succs[node] = set()
            sync_of[node] = sync
            if sync is None:
                for block in range(node[1][0], node[1][1] + 1):
                    if block in last_declarer:
                        succs[last_declarer[block]].add(node)
        for node in parts:
            for block in range(node[1][0], node[1][1] + 1):
                last_declarer[block] = node
    reached: set = set()
    stack = list(seeds)
    while stack:
        node = stack.pop()
        if node in reached:
            continue
        reached.add(node)
        stack.extend(succs[node])
        if sync_of.get(node) is not None:
            stack.append(sync_of[node])
    return reached


class FrontierOracle:
    """The paper's frontier list for one session, kept by watching it.

    Knows nothing of the partition graph's bookkeeping: every call to
    :meth:`expected` compares the session's stage list (identities, bound
    gate objects, declared ranges) with the one it saw last and seeds

    * every partition of a stage that is new or whose gates were rebound
      (insert, retune, a matvec stage gaining or losing a member),
    * for every stage that disappeared, the closest surviving later declarer
      of each block it declared *when it was first seen* (entered through
      the sync barrier where there is one),

    then answers with :func:`closest_writer_reachability` from those seeds.
    A completed update (``state_epoch``) empties the list.  Create it on a
    session with nothing pending, or on one that has never updated.
    """

    def __init__(self, session) -> None:
        self.sim = session.simulator
        self.epoch = self.sim.state_epoch[0]
        #: (stage, gates, declared ranges, has a sync barrier), last seen order
        self.known: list = self._look() if self.epoch else []
        #: (stage, (first, last), is_sync)
        self.seeds: set = set()

    def _look(self) -> list:
        return [
            (
                stage,
                stage.gate_list(),
                [spec.block_range.to_tuple() for spec in stage.partition_specs()],
                stage.reads_all_blocks(),
            )
            for stage in self.sim.graph.stages
        ]

    def expected(self) -> set:
        sim = self.sim
        if sim.state_epoch[0] != self.epoch:
            self.epoch = sim.state_epoch[0]
            self.seeds.clear()
        now = self._look()
        before = {entry[0]: entry for entry in self.known}
        alive = {entry[0]: i for i, entry in enumerate(now)}
        full = (0, sim.n_blocks - 1)
        # removed stages: the successors of the removed partitions
        follower = len(now)
        for stage, _, ranges, _ in reversed(self.known):
            if stage in alive:
                follower = alive[stage]
                continue
            self.seeds = {seed for seed in self.seeds if seed[0] is not stage}
            for first, last in ranges:
                for block in range(first, last + 1):
                    for later, _, later_ranges, later_full in now[follower:]:
                        hit = [r for r in later_ranges if r[0] <= block <= r[1]]
                        if hit:
                            self.seeds.add(
                                (later, full, True) if later_full
                                else (later, hit[0], False)
                            )
                            break
        # new stages, and stages whose gates were rebound
        for stage, gates, ranges, _ in now:
            seen = before.get(stage)
            if seen is None or len(seen[1]) != len(gates) or any(
                a is not b for a, b in zip(seen[1], gates)
            ):
                self.seeds.update((stage, r, False) for r in ranges)
        self.known = now
        seeds = {(stage.seq, r, is_sync) for stage, r, is_sync in self.seeds}
        if not sim.copy_on_write and (sim.graph.has_pending or self.epoch == 0):
            # dense mode re-simulates every partition of every stage
            seeds = {(stage.seq, r, False) for stage, _, ranges, _ in now for r in ranges}
        return closest_writer_reachability([entry[0] for entry in now], seeds)
