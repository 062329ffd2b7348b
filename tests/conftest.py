"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import random
import threading
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
import pytest

from repro import QTask
from repro.core import faults, update
from repro.core.blocks import MAX_RUN_BLOCKS, MAX_RUN_QUBITS, MAX_RUN_STAGES, BlockRange
from repro.core.circuit import Circuit, CircuitObserver
from repro.core.cow import BlockStore, _ResolvingReader
from repro.core.exec_plan import RUN_ACTION, RUN_COPY, RUN_DENSE, PlanOp, RunTable
from repro.core.compose import union_sources
from repro.core.gates import (DiagonalAction, Gate, embed_gate_matrix, extract_local,
                              replace_local)
from repro.core.graph import PartitionGraph
from repro.core.kernels import NumpyBatchBackend, apply_dense, dense_window
from repro.core.partition import PartitionSpec, layout_of
from repro.core.simulator import QTaskSimulator
from repro.core.stage import (
    DynamicStage, MatVecStage, MeasureStage, ResetStage, Stage, UnitaryStage,
    _aligned_runs,
)

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


def coefficients(action) -> np.ndarray:
    """A diagonal's phases / a monomial's factors, as the kernels read them."""
    return action.phase_array if isinstance(action, DiagonalAction) else action.factor_array


def reference_compose(parts):
    """``compose_run``'s oracle, the pull-form loop it replaced: ``(factors,
    perm or None, union)`` of the composite in push form (index ``l`` moves
    to ``perm[l]`` and picks up ``factors[l]``), built from the tuples."""
    union = tuple(sorted({q for _, qubits in parts for q in qubits}))
    k = len(union)
    source, factors = None, np.ones(1 << k, dtype=complex)
    for action, qubits in parts:
        bits = tuple(union.index(q) for q in qubits)
        local = extract_local(np.arange(1 << k), bits)
        if isinstance(action, DiagonalAction):
            factors *= np.asarray(action.phases).take(local)
            continue
        pull = union_sources(k, bits, action.perm)
        factors = (factors * np.asarray(action.factors).take(local)).take(pull)
        source = pull if source is None else source.take(pull)
    if source is None or np.array_equal(source, np.arange(1 << k)):
        return factors, None, union
    perm = np.argsort(source)
    return factors.take(perm), perm, union


def failing_update(session, plan) -> None:
    """``update_state()`` under the fault ``plan``, which must make it raise."""
    faults.install(plan)
    try:
        with pytest.raises(faults.FaultInjected):
            session.update_state()
    finally:
        faults.install(None)


def dense_state(session) -> np.ndarray:
    """The circuit of a session (or any simulator) on the dense reference,
    replaying its outcomes."""
    from repro.baselines.dense import DenseReferenceSimulator

    dense = DenseReferenceSimulator(
        session.circuit, forced_outcomes=session.outcomes.recorded_outcomes()
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
    with session.fork() as child:
        for shot in range(shots):
            child.simulator.reset_trajectory((seed, shot))
            child.update_state()
            yield (
                child.outcomes.bitstring(clbits),
                child.outcomes.recorded_outcomes(),
            )


def replay_shots(session, shots: int, seed: int) -> dict:
    """The histogram :func:`replay_trajectories` adds up to."""
    counts: dict = {}
    for bits, _ in replay_trajectories(session, shots, seed):
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def walked_paths(session, trajectories) -> int:
    """How many paths ``run_shots`` simulates for these replayed shots.

    One per distinct outcome record of the measures and resets executing
    before the last measurement (a shot that differs only there is a tally),
    and one when nothing is measured.  ``trajectories`` is the list
    :func:`replay_trajectories` yields.
    """
    collapses = [
        s for s in session.simulator.graph.stages
        if isinstance(s, (MeasureStage, ResetStage))
    ]
    measured = [i for i, s in enumerate(collapses) if isinstance(s, MeasureStage)]
    if not measured:
        return 1
    early = [s.op.op_index for s in collapses[: measured[-1]]]
    return len({tuple(outcomes[op] for op in early) for _, outcomes in trajectories})


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


# ---------------------------------------------------------------------------
# the run-granular reference loop: what the slab backend must equal, bit for
# bit (swap it in for a session with ``running_on(ReferenceLoop())``)
# ---------------------------------------------------------------------------


class RunSpec(NamedTuple):
    """One aligned kernel run: a row of a run table (``op`` and ``dense`` as
    in ``PlanOp``)."""

    kind: int
    lo: int
    hi: int
    qubits: Tuple[int, ...]
    op: object
    dense: object = None


def iter_table_runs(table: RunTable):
    """The rows of a run table as :class:`RunSpec` values, in table order."""
    kind, qubits, op, dense = table.op
    for lo, hi in zip(table.los.tolist(), table.his.tolist()):
        yield RunSpec(kind, lo, hi, qubits, op, dense)


def put_blocks(store, first: int, values) -> None:
    """Publish ``values`` -- whole blocks -- as blocks ``first, first + 1,
    ...`` with the store's one write; the rows are views of ``values``."""
    block_len = min(store.dim, store.block_size)
    rows = list(np.asarray(values, dtype=np.complex128).reshape(-1, block_len))
    store.write_blocks(range(first, first + len(rows)), rows)


def execute_run(reader, store, spec: RunSpec) -> None:
    """One run by index arithmetic, published with ``write_blocks``; an action
    makes one multiply per amplitude, of the slab backend's two operands,
    then applies the dense steps of a run's closing stage to its output."""
    if faults.ACTIVE is not None:
        faults.fire("kernel.run")
    lo, hi = spec.lo, spec.hi
    if spec.kind == RUN_ACTION:
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        local = extract_local(idx, spec.qubits)
        if isinstance(spec.op, DiagonalAction):
            coeffs = spec.op.phase_array
        else:
            local = np.argsort(spec.op.perm_array)[local]
            idx = replace_local(idx, spec.qubits, local)
            coeffs = spec.op.factor_array
        first = int(idx.min())
        out = reader.read_range(first, int(idx.max()))[idx - first] * coeffs[local]
        if spec.dense is not None:
            out = apply_dense(out, *spec.dense)
    elif spec.kind == RUN_DENSE:
        wlo, whi = dense_window(lo, hi, spec.qubits)
        window = np.array(reader.read_range(wlo, whi), dtype=np.complex128)
        out = apply_dense(window, spec.op, whi - wlo + 1)[lo - wlo : hi - wlo + 1]
        if whi - wlo > hi - lo:
            out = out.copy()  # a view would pin the whole window
    else:
        assert spec.kind == RUN_COPY, spec.kind
        out = reader.read_range(lo, hi)
    put_blocks(store, lo // store.block_size, out)


def emit_runs(stage, block_range) -> List[RunSpec]:
    """One partition's runs, one by one (``Stage.emit_table``'s reference)."""
    kind, qubits, op, _ = stage.plan_op()
    return [RunSpec(kind, lo, hi, qubits, op)
            for lo, hi in _aligned_runs(block_range, stage.block_size, stage.dim)]


class ReferenceLoop:
    """Executes a run table run by run through :func:`execute_run`."""

    def execute_plan(self, reader, store, table: RunTable) -> None:
        for spec in iter_table_runs(table):
            execute_run(reader, store, spec)


class FaultingBackend:
    """Faults on the first chunk of every table operation it meets -- the
    update then re-executes that chunk run by run -- and runs everything
    else on the slab backend."""

    def __init__(self):
        self.attempts = 0
        self.faulted: list = []  # (held, so no two ops share an id)

    def execute_plan(self, reader, store, table):
        if not any(op is table.op for op in self.faulted):
            self.faulted.append(table.op)
            self.attempts += 1
            raise faults.FaultInjected("kernel.run", self.attempts)
        NumpyBatchBackend().execute_plan(reader, store, table)


@contextlib.contextmanager
def running_on(backend):
    """Every update inside the block executes its tables on ``backend``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(update, "BACKEND", backend)
        yield backend


# ---------------------------------------------------------------------------
# the one build axis the property files cross: batched or stepwise
# ---------------------------------------------------------------------------


class _UpdateAfterEachGate(CircuitObserver):
    def __init__(self, sim) -> None:
        self.sim = sim

    def on_gate_inserted(self, circuit, handle) -> None:
        self.sim.update_state()


#: the (stepwise, restored) corners the equivalence files cross: built in one
#: update or one per gate, used live or round-tripped through a checkpoint
BUILD_CORNERS = [(False, False), (True, False), (False, True), (True, True)]


def open_session(target, *, stepwise: bool = False, **knobs):
    """``QTask(target, **knobs)`` for a qubit count, ``QTaskSimulator(target,
    **knobs)`` for an (empty) circuit -- built stepwise on request.

    A circuit inserted whole and updated once is swept whole: its adjacent
    diagonal / monomial stages execute as coalesced runs.  ``stepwise``
    updates after every gate inserted from here on, so a stage is planned
    by itself -- the paper's per-stage path, no run on record.  Both must
    land on the dense oracle's state.  The corners' ``fusion`` / ``fused``
    ids are historical: the boolean used to select insert-time fusion.
    """
    if isinstance(target, Circuit):
        session = sim = QTaskSimulator(target, **knobs)
    else:
        session = QTask(target, **knobs)
        sim = session.simulator
    if stepwise:
        sim.circuit.register_observer(_UpdateAfterEachGate(sim))
    return session


def worker_threads() -> set:
    """The sessions' pool threads alive now."""
    return {t for t in threading.enumerate() if t.name.startswith("qtask-worker")}


def shm_entries() -> set:
    """The names in ``/dev/shm`` (none on a platform without it)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - platform without /dev/shm
        return set()


def _leaks(threads_before, children_before, shm_before) -> list:
    """Worker threads, child processes and shared-memory entries created
    since the snapshot."""
    children = [
        p for p in multiprocessing.active_children() if p not in children_before
    ]
    return (
        sorted(worker_threads() - threads_before, key=str)
        + children
        + sorted(shm_entries() - shm_before)
    )


@pytest.fixture(autouse=True)
def leak_audit():
    """Fail a test that leaves a pool thread, a child process or a
    ``/dev/shm`` entry behind."""
    before = worker_threads(), set(multiprocessing.active_children()), shm_entries()
    yield
    if _leaks(*before):
        gc.collect()  # finalizers first: only what outlives them is a leak
        leaked = _leaks(*before)
        if leaked:
            pytest.fail(f"left behind: {leaked}", pytrace=False)


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
# a partition graph over bare stores (block-resolution tests below the session)
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
    """A partition graph holding ``stages`` in order."""
    graph = PartitionGraph(BlockRange(0, stages[0].n_blocks - 1))
    for position, stage in enumerate(stages):
        graph.insert_stage(stage, position)
    return graph


def declarers(graph) -> List[List[Stage]]:
    """Per block id, the stages whose recorded cover declares it, by seq:
    the per-block view of the graph's covers."""
    covers = [(stage, graph._layouts[stage.uid].cover) for stage in graph.stages]
    return [
        [stage for stage, cover in covers if cover >> block & 1]
        for block in range(graph._full_range.last + 1)
    ]


def resolve_store(reader, block: int):
    """The store ``reader`` reads ``block`` from."""
    return reader.resolve_masks(1 << block)[0][0]


def block_mask(blocks) -> int:
    """The bitmask of block ids ``blocks``."""
    mask = 0
    for block in blocks:
        mask |= 1 << block
    return mask


class StoreChain(_ResolvingReader):
    """The naive block resolver: walk the stores backwards.

    ``stores[0]`` is the oldest (usually an ``InitialStateStore``) and
    ``stores[-1]`` the most recent stage.  Reading block ``b`` walks the
    chain backwards until a store holds ``b`` -- O(S) per read, the ground
    truth the graph's resolution is checked against.  The simulator never builds
    one.
    """

    def __init__(self, stores: Sequence[BlockStore]) -> None:
        if not stores:
            raise ValueError("StoreChain needs at least one store")
        dims = {s.dim for s in stores}
        sizes = {s.block_size for s in stores}
        if len(dims) != 1 or len(sizes) != 1:
            raise ValueError("all stores in a chain must share dim and block size")
        self._stores: List[BlockStore] = list(stores)
        self.dim = stores[0].dim
        self.block_size = stores[0].block_size
        self.n_blocks = stores[0].n_blocks

    def resolve_masks(self, mask: int):
        found = []
        for store in reversed(self._stores):
            hit = store.held & mask
            if hit:
                found.append((store, hit))
                mask &= ~hit
        if mask:
            raise LookupError(f"blocks {mask:#x} resolved by no store in the chain")
        return found


def on_slabs(psi, kind, qubits, op, runs, block_size=None) -> np.ndarray:
    """``psi`` after the table of ``runs`` (``(lo, hi)`` pairs) under one
    operation ran on the slab backend; blocks it does not write keep ``psi``."""
    held, out = (BlockStore(psi.size, block_size or psi.size) for _ in range(2))
    put_blocks(held, 0, psi)
    table = table_from_runs([RunSpec(kind, lo, hi, tuple(qubits), op) for lo, hi in runs])
    NumpyBatchBackend().execute_plan(StoreChain([held]), out, table)
    return StoreChain([held, out]).full_vector()


def table_from_runs(runs: Sequence[RunSpec]) -> RunTable:
    """Pack runs of one operation -- one ``(kind, qubits)`` and one payload
    by identity -- into a run table, ``Stage.emit_table``'s shape."""
    kind, _, _, qubits, op, dense = runs[0]
    if any(
        (r.kind, r.qubits) != (kind, qubits) or r.op is not op or r.dense is not dense
        for r in runs
    ):
        raise ValueError("a run table applies one operation")
    return RunTable(
        PlanOp(kind, qubits, op, dense),
        np.array([r.lo for r in runs], dtype=np.int64),
        np.array([r.hi for r in runs], dtype=np.int64),
    )


def newest_holder(initial, stages: Sequence[Stage], block: int, before_seq: int):
    """Brute force: the newest store before ``before_seq`` holding ``block``."""
    stores = [initial] + [s.store for s in stages[:before_seq]]
    return resolve_store(StoreChain(stores), block)


def assert_sources_come_from_earlier_plans(plans, tables) -> None:
    """Plan order is a valid run order: no source store of plan k is a
    member store of a plan at position >= k (``tables`` lists each plan's
    ``(store, mask)`` sources)."""
    later: set = set()
    for sp, sources in reversed(list(zip(plans, tables))):
        later |= {m.store for m in sp.members}
        assert not {store for store, _ in sources} & later, sp.stage


# ---------------------------------------------------------------------------
# the frontier oracle: closest-writer reachability, built from scratch
# ---------------------------------------------------------------------------


def plan_nodes(graph, plan) -> list:
    """The graph's nodes an execution plan covers, in execution order.

    A coalesced run covers every node of every member: only stages swept
    whole coalesce.
    """
    nodes = []
    for sp in plan.stage_plans:
        if len(sp.members) > 1:
            for stage in sp.members:
                nodes += graph.stage_nodes(stage)
            continue
        wanted = set(sp.block_ranges)
        nodes += [
            node for node in graph.stage_nodes(sp.stage)
            if (sp.has_sync if node.is_sync else node.block_range in wanted)
        ]
    assert plan.affected_partitions == len(nodes)
    return nodes


def swept_nodes(session) -> set:
    """What the next update would re-simulate, as ``(seq, range, is_sync)``."""
    graph = session.simulator.graph
    return {
        (node.stage.seq, node.block_range.to_tuple(), node.is_sync)
        for node in plan_nodes(graph, graph.sweep())
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
      the sync barrier where there is one) -- a stage that now declares
      other ranges (a matvec stage whose members changed its qubits) counts
      as gone with its old partitions and new with its new ones,

    then answers with :func:`closest_writer_reachability` from those seeds
    -- widened to coalesced runs.  The runs the last completed update
    executed are read off the public ``graph.runs()`` view (a measure /
    reset is a member like any diagonal / monomial stage: its sync barrier
    belongs to the run with its partitions); the widening rule itself is
    applied from outside:

    * a run a modifier landed in (a member removed or laid out anew, a new
      stage strictly between two members) is dissolved, and every surviving
      member is seeded whole; a rebound member (a retune) keeps its run;
    * a run the closure reaches at all (any member partition) is affected
      whole: every member partition is seeded and the closure taken again,
      until nothing grows.

    A completed update (``state_epoch``) empties the list and is when the
    runs are read: call :meth:`expected` after every update, before the next
    modifier.  Create it on a session with nothing pending, or on one that
    has never updated.
    """

    def __init__(self, session) -> None:
        self.sim = session.simulator
        self.epoch = self.sim.state_epoch[0]
        #: (stage, gates, declared ranges, has a sync barrier), last seen order
        self.known: list = self._look() if self.epoch else []
        #: member tuples of the runs believed intact
        self.runs: list = self._runs() if self.epoch else []
        #: (stage, (first, last), is_sync)
        self.seeds: set = set()

    def _runs(self) -> list:
        return [run.members for run in self.sim.graph.runs()]

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
            self.runs = self._runs()
        now = self._look()
        before = {entry[0]: entry for entry in self.known}
        relaid = {
            stage for stage, _, ranges, _ in now
            if stage in before and before[stage][2] != ranges
        }
        alive = {entry[0]: i for i, entry in enumerate(now) if entry[0] not in relaid}
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
        # runs a modifier landed in: every surviving member, whole
        ranges_of = {stage: ranges for stage, _, ranges, _ in now}
        synced = {stage for stage, _, _, is_full in now if is_full}

        def run_nodes(stage):
            """A member's nodes: its partitions, and a collapse's barrier."""
            nodes = [(stage, r, False) for r in ranges_of[stage]]
            if stage in synced:
                nodes.append((stage, full, True))
            return nodes
        intact = []
        for members in self.runs:
            at = [alive.get(stage) for stage in members]
            if None in at or at != list(range(at[0], at[0] + len(at))):
                self.seeds.update(
                    node
                    for stage in members if stage in alive
                    for node in run_nodes(stage)
                )
            else:
                intact.append(members)
        self.runs = intact
        self.known = now
        seeds = {(stage.seq, r, is_sync) for stage, r, is_sync in self.seeds}
        stages = [entry[0] for entry in now]
        reached = closest_writer_reachability(stages, seeds)
        # runs the closure meets: whole or not at all
        grown = True
        while grown:
            grown = False
            for members in intact:
                nodes = {
                    (stage.seq, r, is_sync)
                    for stage in members
                    for _, r, is_sync in run_nodes(stage)
                }
                if nodes & reached and not nodes <= reached:
                    seeds |= nodes
                    grown = True
            if grown:
                reached = closest_writer_reachability(stages, seeds)
        return reached


def greedy_runs(session, nodes) -> list:
    """The member tuples an update executing ``nodes`` plans, by the
    coalescing rule applied from scratch.

    ``nodes`` are the affected ``(seq, range, is_sync)`` (a
    :class:`FrontierOracle`'s answer).  Walking the affected stages in seq
    order, a measure / reset or a unitary stage with every node affected
    joins the open group when it is the next seq, the group has fewer than
    ``MAX_RUN_STAGES`` members, the union of their qubits stays within
    ``MAX_RUN_QUBITS``, and -- for a collapse -- the group does not start
    before the first dynamic stage; otherwise it opens a new group.  A
    superposition stage with every node affected, on at most
    ``MAX_RUN_BLOCKS`` blocks, closes the open group as its last member when
    it is the next seq, the group has fewer than ``MAX_RUN_STAGES`` members
    and no collapse.  Any other stage plans alone.
    """
    stages = session.simulator.graph.stages
    affected: dict = {}
    for seq, _, _ in nodes:
        affected[seq] = affected.get(seq, 0) + 1
    prefix = min(
        (s.seq for s in stages if isinstance(s, DynamicStage)), default=0
    )
    groups: list = []
    open_group: list = []
    qubits: set = set()
    for seq in sorted(affected):
        stage = stages[seq]
        collapse = isinstance(stage, (MeasureStage, ResetStage))
        whole = affected[seq] == len(stage.partition_specs()) + collapse
        if isinstance(stage, MatVecStage) and whole and (
            stage.n_blocks <= MAX_RUN_BLOCKS and open_group
            and seq == open_group[-1].seq + 1 and len(open_group) < MAX_RUN_STAGES
            and not any(isinstance(s, (MeasureStage, ResetStage)) for s in open_group)
        ):
            open_group.append(stage)  # a tail: the group closes
            open_group = []
            continue
        if not (collapse or (isinstance(stage, UnitaryStage) and whole)):
            open_group = []
            groups.append((stage,))
            continue
        if not (
            open_group
            and seq == open_group[-1].seq + 1
            and len(open_group) < MAX_RUN_STAGES
            and len(qubits.union(stage.qubits)) <= MAX_RUN_QUBITS
            and not (collapse and open_group[0].seq < prefix)
        ):
            open_group = []
            qubits = set()
            groups.append(open_group)
        open_group.append(stage)
        qubits.update(stage.qubits)
    return [tuple(group) for group in groups]


def session_handles(session):
    """Every gate handle of a session, in circuit order."""
    return [h for net in session.nets() for h in net.gates]


# ---------------------------------------------------------------------------
# from-outside invariants of a computed session (nothing pending)
# ---------------------------------------------------------------------------


def _declared_blocks(graph, stage) -> set:
    return {b for node in graph.partition_nodes(stage) for b in node.block_range}


def assert_held_blocks_declared(session):
    """``held <= declared``: what resolving reads through the index rests on."""
    graph = session.simulator.graph
    for stage in graph.stages:
        held = set(stage.store.stored_blocks())
        assert held <= _declared_blocks(graph, stage), (
            stage, sorted(held - _declared_blocks(graph, stage))
        )


def assert_held_blocks_are_prefix_states(session, *, atol: float = 1e-10):
    """Every block a stage holds is the state just after that stage.

    The dense oracle is stepped through the stages in execution order
    (replaying the recorded outcomes) and each held block compared with the
    prefix state's slice.  ``state() == dense`` only looks at the newest
    holder of each block; this also catches a stale copy left behind in an
    earlier stage and a block published to the wrong stage.
    """
    from repro.baselines.dense import DenseReferenceSimulator

    sim = session.simulator
    dense = DenseReferenceSimulator(
        session.circuit, forced_outcomes=sim.outcomes.recorded_outcomes()
    )
    dense.outcomes.begin_pass()
    state = dense._fresh_state()
    size = min(sim.dim, sim.block_size)
    for stage in sim.graph.stages:
        ops = [stage.op] if hasattr(stage, "op") else stage.gate_list()
        for op in ops:
            state = dense._apply_operation(state, op)
        held = stage.store.stored_blocks()
        if not held:
            continue
        got = np.concatenate([stage.store.get_block(b) for b in held])
        want = np.concatenate([state[b * size : (b + 1) * size] for b in held])
        # (numpy's assert costs more than the whole comparison: on a miss only)
        if not np.abs(got - want).max() <= atol:
            np.testing.assert_allclose(
                got, want, atol=atol, rtol=0,
                err_msg=f"blocks {held} held by {stage!r}",
            )


def assert_runs_are_consistent(session):
    """The run records agree with the stage order and with the stores.

    Members are seq-adjacent unitary stages and collapses (a drawn measure /
    reset is a projector), the last one possibly a superposition stage
    closing a run without collapses; each holds exactly the blocks it owns
    (declares, with no later member declaring them too); and whatever the
    runs elide, every block's newest declarer holds it.
    """
    sim = session.simulator
    graph = sim.graph
    stages = graph.stages
    declared = {stage: _declared_blocks(graph, stage) for stage in stages}
    seen: set = set()
    for run in graph.runs():
        members = run.members
        assert len(members) >= 2 and not seen.intersection(members), members
        seen.update(members)
        first = members[0].seq
        assert list(members) == stages[first : first + len(members)], members
        kinds = (UnitaryStage, MeasureStage, ResetStage)
        if isinstance(members[-1], MatVecStage):  # a tail closes no collapse
            assert all(isinstance(s, UnitaryStage) for s in members[:-1]), members
        else:
            assert all(isinstance(s, kinds) for s in members), members
        later: set = set()
        for stage in reversed(members):
            held = set(stage.store.stored_blocks())
            assert held == declared[stage] - later, (
                stage, sorted(held), sorted(declared[stage] - later)
            )
            later |= declared[stage]
        assert later == {
            b for b in range(sim.n_blocks) if run.cover >> b & 1
        }, members
    newest: dict = {}
    for stage in stages:
        newest.update((block, stage) for block in declared[stage])
    for block, stage in newest.items():
        assert stage.store.held >> block & 1, (block, stage)
