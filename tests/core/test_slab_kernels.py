"""Slab execution equals the per-run reference, bit for bit.

``NumpyBatchBackend.execute_plan`` runs a run table -- runs under one
operation -- as one gather and one multiply per slab and one publish; ``conftest.ReferenceLoop`` is
the run-by-run loop it replaced, kept as its oracle.  Every
amplitude is the product of the same two operands on both paths, so the
comparison here is ``np.array_equal``, never ``allclose`` -- over drawn
tables at the backend boundary, and over drawn circuits at the session
boundary (where worker threads and chaos-mode fault injection come into
play).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import faults
from repro.core.blocks import MAX_RUN_BLOCKS, BlockRange, aligned_block_runs
from repro.core.cow import BlockStore, IndexReader, InitialStateStore
from repro.core.exec_plan import RUN_ACTION, RUN_COPY, RUN_DENSE, StagePlan
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.compose import scale_action
from repro.core.gates import DiagonalAction, Gate, MonomialAction
from repro.baselines.statevector import apply_matrix_dense
from repro.core.kernels import NumpyBatchBackend, _slab_table, dense_steps
from repro.core.simulator import QTaskSimulator
from repro.core.stage import MatVecStage, MeasureStage, ResetStage, UnitaryStage, coalesced_table

from ..conftest import (
    DeclaringStage,
    ReferenceLoop,
    RunSpec,
    StoreChain,
    index_over,
    open_session,
    put_blocks,
    random_levels,
    running_on,
    table_from_runs,
)
from ..test_trajectory_properties import build_dynamic_circuit

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# drawing a stage input, a run table and the two executions of it
# ---------------------------------------------------------------------------


def _amps(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _stage_input(rng, dim, block_size, indexed):
    """Two earlier stages holding random blocks over the initial state.

    The indexed reader is the one an update hands a kernel: both stages
    declare every block and hold ~60% of them, so the planned source of a
    block is the newer stage and the reads that find it empty fall back to
    the older holder.
    """
    initial = InitialStateStore(dim, block_size)
    block_len = min(dim, block_size)
    stores = []
    for _ in range(2):
        store = BlockStore(dim, block_size)
        for b in np.flatnonzero(rng.random(store.n_blocks) < 0.6):
            put_blocks(store, int(b), _amps(rng, block_len))
        stores.append(store)
    if not indexed:
        return StoreChain([initial] + stores)
    everything = [(0, initial.n_blocks - 1)]
    stages = [
        DeclaringStage(dim.bit_length() - 1, block_size, everything, store)
        for store in stores + [None]
    ]
    graph = index_over(stages)
    plan = StagePlan(stages[2], stages[2].ranges, mask=(1 << initial.n_blocks) - 1)
    (sources,) = graph.plan_sources([plan], initial)
    return IndexReader(graph, initial, 2, sources)


def _unitary(rng, k):
    q, r = np.linalg.qr(_amps(rng, (1 << k) * (1 << k)).reshape(1 << k, 1 << k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dense_op(rng, n):
    """A drawn dense operation: 1-qubit members (mostly) and at most one
    2-qubit member, on disjoint qubits anywhere in the register."""
    free = [int(q) for q in rng.permutation(n)]
    members = []
    while free and (not members or rng.random() < 0.6):
        k = 2 if len(free) >= 2 and rng.random() < 0.25 else 1
        qubits, free = tuple(free[:k]), free[k:]
        members.append((qubits, _unitary(rng, k)))
    qubits = tuple(sorted(q for m, _ in members for q in m))
    return RUN_DENSE, qubits, dense_steps(members)


def _random_op(rng, kind, n, dim):
    """``(run kind, qubits, payload)`` of one drawn operation."""
    if kind == "copy":
        return RUN_COPY, (), None
    if kind == "dense":
        return _dense_op(rng, n)
    if kind in ("measure", "reset"):
        # a drawn collapse: its outcome's action on one qubit, times a scale
        actions = (ResetStage if kind == "reset" else MeasureStage)._actions
        action = actions[int(rng.integers(2))]
        return RUN_ACTION, (int(rng.integers(n)),), scale_action(action, 1.25)
    k = int(rng.integers(1, min(4, n) + 1))
    # anywhere in the register, in any order: most draws put a qubit at or
    # above the alignment of the short runs
    qubits = tuple(int(q) for q in rng.permutation(n)[:k])
    coeffs = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << k)))
    if kind == "diagonal":
        return RUN_ACTION, qubits, DiagonalAction(num_qubits=k, phases=coeffs)
    perm = tuple(int(p) for p in rng.permutation(1 << k))
    return (
        RUN_ACTION,
        qubits,
        MonomialAction(num_qubits=k, perm=perm, factors=coeffs),
    )


def _random_tables(rng, kinds, n, block_size):
    """One table per drawn op: aligned runs over random disjoint block
    ranges, one range set per op."""
    dim = 1 << n
    n_blocks = max(1, dim // block_size)
    owner = rng.integers(-1, len(kinds), size=n_blocks)  # -1: not written
    if not np.any(owner >= 0):
        owner[int(rng.integers(n_blocks))] = 0
    tables = []
    for op_id, kind in enumerate(kinds):
        run_kind, qubits, payload = _random_op(rng, kind, n, dim)
        runs = []
        mine = np.flatnonzero(owner == op_id)
        # maximal block ranges -> aligned power-of-two runs of mixed lengths
        for piece in np.split(mine, np.flatnonzero(np.diff(mine) > 1) + 1):
            if piece.size == 0:
                continue
            for fb, lb in aligned_block_runs(
                int(piece[0]), int(piece[-1]), MAX_RUN_BLOCKS
            ):
                runs.append(
                    RunSpec(
                        run_kind,
                        fb * block_size,
                        min(dim, (lb + 1) * block_size) - 1,
                        qubits,
                        payload,
                    )
                )
        if runs:
            tables.append(table_from_runs(runs))
    return tables


def _execute(backend, reader, tables, parts):
    out = BlockStore(reader.dim, reader.block_size)
    for table in tables:
        for chunk in table.split(parts):
            backend.execute_plan(reader, out, chunk)
    return out


def _assert_same_blocks(got, want):
    assert got.stored_blocks() == want.stored_blocks()
    for b in want.stored_blocks():
        assert np.array_equal(got.get_block(b), want.get_block(b)), b


KINDS = st.lists(
    st.sampled_from(
        ["diagonal", "monomial", "diagonal", "monomial",
         "measure", "reset", "copy", "dense", "dense"]
    ),
    min_size=1,
    max_size=3,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 11),
    log_block=st.integers(1, 8),
    kinds=KINDS,
    parts=st.integers(1, 5),
    indexed=st.booleans(),
)
@settings(max_examples=150, **SETTINGS)
def test_slab_plan_equals_per_run_plan(seed, n, log_block, kinds, parts, indexed):
    rng = np.random.default_rng(seed)
    block_size = 1 << log_block  # n < log_block: one short block
    reader = _stage_input(rng, 1 << n, block_size, indexed)
    tables = _random_tables(rng, kinds, n, block_size)
    want = _execute(ReferenceLoop(), reader, tables, parts)
    got = _execute(NumpyBatchBackend(), reader, tables, parts)
    _assert_same_blocks(got, want)
    # never-written inputs are served densely, not materialised
    assert not _initial_of(reader)._blocks


def _initial_of(reader):
    if isinstance(reader, StoreChain):
        return reader._stores[0]
    return reader.initial


# ---------------------------------------------------------------------------
# named corners of the same property
# ---------------------------------------------------------------------------


def _chain_over(state, block_size):
    store = BlockStore(state.shape[0], block_size)
    put_blocks(store, 0, state)
    return StoreChain([InitialStateStore(state.shape[0], block_size), store])


def test_split_chunk_reads_sources_outside_its_own_runs():
    """cx(control 0, target 4): every run's sources sit 16 amplitudes away,
    i.e. in a block the other chunk writes."""
    n, block_size = 5, 4
    rng = np.random.default_rng(3)
    reader = _chain_over(_amps(rng, 1 << n), block_size)
    cx = MonomialAction(
        num_qubits=2, perm=(0, 3, 2, 1), factors=(1.0, 1.0, 1.0, 1.0)
    )
    table = table_from_runs(
        [RunSpec(RUN_ACTION, 4 * b, 4 * b + 3, (0, 4), cx) for b in range(8)]
    )
    head, tail = table.split(2)
    assert int(head.his.max()) < 16 <= int(tail.los.min())
    want = _execute(ReferenceLoop(), reader, [table], 2)
    got = _execute(NumpyBatchBackend(), reader, [table], 2)
    _assert_same_blocks(got, want)


def test_single_short_block_when_dim_is_below_block_size():
    rng = np.random.default_rng(4)
    held = BlockStore(8, 256)
    put_blocks(held, 0, _amps(rng, 8))
    reader = StoreChain([InitialStateStore(8, 256), held])
    swap = MonomialAction(
        num_qubits=2, perm=(0, 2, 1, 3), factors=(1.0, 1j, -1j, 1.0)
    )
    table = table_from_runs([RunSpec(RUN_ACTION, 0, 7, (2, 0), swap)])
    want = _execute(ReferenceLoop(), reader, [table], 1)
    got = _execute(NumpyBatchBackend(), reader, [table], 1)
    assert got.get_block(0).shape == (8,)
    _assert_same_blocks(got, want)


def test_output_arrays_span_at_most_max_run_blocks():
    """One table of 512 blocks publishes zero-copy out of >= 8 arrays."""
    n, block_size = 10, 2
    rng = np.random.default_rng(5)
    reader = _chain_over(_amps(rng, 1 << n), block_size)
    rz = DiagonalAction(num_qubits=1, phases=(np.exp(-0.4j), np.exp(0.4j)))
    table = table_from_runs(
        [
            RunSpec(RUN_ACTION, fb * block_size, (lb + 1) * block_size - 1, (9,), rz)
            for fb, lb in aligned_block_runs(0, 511, MAX_RUN_BLOCKS)
        ]
    )
    got = _execute(NumpyBatchBackend(), reader, [table], 1)
    want = _execute(ReferenceLoop(), reader, [table], 1)
    _assert_same_blocks(got, want)
    backing = set()
    for b in got.stored_blocks():
        owner = got.get_block(b)
        while owner.base is not None:
            owner = owner.base
        assert owner.size <= MAX_RUN_BLOCKS * block_size
        backing.add(id(owner))
    assert len(backing) >= 512 // MAX_RUN_BLOCKS


def _dense_table(members, ranges, block_size, dim):
    qubits = tuple(sorted(q for m, _ in members for q in m))
    steps = dense_steps(members)
    return table_from_runs([
        RunSpec(RUN_DENSE, fb * block_size, min(dim, (lb + 1) * block_size) - 1,
                qubits, steps)
        for first, last in ranges
        for fb, lb in aligned_block_runs(first, last, MAX_RUN_BLOCKS)
    ])


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize(
    "members",
    [
        [((0,), "h"), ((1,), "rx"), ((2,), "ry"), ((5,), "h")],  # kron + 2x2
        [((1,), "h"), ((3,), "h"), ((4,), "rx"), ((5,), "x")],   # two windows
        [((4, 1), "u2"), ((0,), "h")],                           # contraction
        [((2, 3), "u2"), ((5,), "ry")],                          # matmul at lo=2
        [((0,), "h"), ((3,), "rx")],                             # 16-amp windows
    ],
)
def test_dense_slab_equals_the_run_loop(members, parts):
    """Whatever steps the members make and however the runs are chunked,
    the slab backend's dense table -- runs of one window each, several in
    one slab -- is the run loop's bit for bit."""
    n, block_size = 8, 4
    rng = np.random.default_rng(7)
    reader = _chain_over(_amps(rng, 1 << n), block_size)
    drawn = [(q, _unitary(rng, len(q))) for q, _ in members]
    window = 1 << (max(q for m, _ in members for q in m) + 1)
    per_run = window // block_size
    ranges = [(b, b + per_run - 1) for b in range(0, 64, per_run)]
    table = _dense_table(drawn, ranges, block_size, 1 << n)
    assert table.num_runs == len(ranges) > 1
    want = _execute(ReferenceLoop(), reader, [table], parts)
    got = _execute(NumpyBatchBackend(), reader, [table], parts)
    _assert_same_blocks(got, want)
    state = reader.full_vector()
    for qubits, matrix in drawn:
        state = apply_matrix_dense(state, matrix, qubits, n)
    np.testing.assert_allclose(_execute(ReferenceLoop(), reader, [table], 1).get_block(5),
                               state[20:24], atol=1e-12)


def test_dense_window_wider_than_a_run():
    """A dense gate on qubit 7 at B=2 mixes 256 amplitudes, wider than the
    64-block cap on a run: each run gathers the whole window and publishes
    its own blocks, from arrays that pin no more than a run."""
    n, block_size = 9, 2
    rng = np.random.default_rng(8)
    reader = _chain_over(_amps(rng, 1 << n), block_size)
    members = [((7,), _unitary(rng, 1)), ((0,), _unitary(rng, 1))]
    table = _dense_table(members, [(0, 255)], block_size, 1 << n)
    assert table.num_runs == 4  # two windows of two runs each
    want = _execute(ReferenceLoop(), reader, [table], 1)
    for parts in (1, 2, 4):
        _assert_same_blocks(_execute(NumpyBatchBackend(), reader, [table], parts), want)
    got = _execute(NumpyBatchBackend(), reader, [table], 1)
    for b in got.stored_blocks():
        owner = got.get_block(b)
        while owner.base is not None:
            owner = owner.base
        assert owner.size <= MAX_RUN_BLOCKS * block_size
    state = reader.full_vector()
    for qubits, matrix in members:
        state = apply_matrix_dense(state, matrix, qubits, n)
    assert np.allclose(np.concatenate([want.get_block(b) for b in range(256)]),
                       state[:512], atol=1e-12)


@pytest.mark.parametrize("gates", [
    [Gate("rz", (1,), (0.3,)), Gate("cp", (0, 5), (0.7,)), Gate("t", (3,))],
    [Gate("cx", (0, 3)), Gate("y", (2,)), Gate("rz", (5,), (1.1,))],
], ids=["diagonal", "monomial"])
def test_a_closed_run_is_its_table_then_its_tails(gates):
    """A run closed by a superposition stage -- one read, the composite and
    the stage's steps on one buffer, one publish -- is bit for bit the run
    loop running the run's table, then the stage's own table on that."""
    n, block_size = 6, 4
    members = [UnitaryStage(g, n, block_size) for g in gates]
    tail = MatVecStage([Gate("h", (0,)), Gate("rx", (4,), (0.9,))], n, block_size)
    reader = _chain_over(_amps(np.random.default_rng(3), 1 << n), block_size)
    whole = [BlockRange(0, 15)]
    closed, _ = coalesced_table(members + [tail], whole)
    assert closed.num_runs == 1 and closed.op.dense is not None
    got = _execute(NumpyBatchBackend(), reader, [closed], 1)
    _assert_same_blocks(_execute(ReferenceLoop(), reader, [closed], 1), got)
    mid = _execute(ReferenceLoop(), reader, [coalesced_table(members, whole)[0]], 1)
    own = tail.emit_table([spec.block_range for spec in tail.partition_layout().specs])
    after = StoreChain([_initial_of(reader), mid])
    _assert_same_blocks(got, _execute(ReferenceLoop(), after, [own], 1))


@pytest.mark.parametrize("block_size, plans, runs", [(4, 1, [2]), (2, 2, [])])
def test_a_tail_closes_runs_of_states_of_at_most_max_run_blocks(block_size, plans, runs):
    """8 qubits: 64 blocks of 4 take the H as the z's tail, 128 of 2 do not."""
    with _sim([[Gate("z", (0,))], [Gate("h", (1,))]], 8, block_size=block_size) as sim:
        sim.update_state()
        assert sim.statistics()["plans_built"] == plans
        assert [len(run.members) for run in sim.graph.runs()] == runs


# ---------------------------------------------------------------------------
# fault sites: fire before anything happened, re-execution converges
# ---------------------------------------------------------------------------


class _CountingReader(StoreChain):
    reads = 0

    def read_blocks(self, blocks):
        self.reads += 1
        return super().read_blocks(blocks)


def _fault_case():
    rng = np.random.default_rng(6)
    state = _amps(rng, 64)
    held = BlockStore(64, 4)
    put_blocks(held, 0, state)
    reader = _CountingReader([InitialStateStore(64, 4), held])
    rz = DiagonalAction(num_qubits=1, phases=(np.exp(-0.3j), np.exp(0.3j)))
    table = table_from_runs(
        [RunSpec(RUN_ACTION, 0, 15, (5,), rz), RunSpec(RUN_ACTION, 32, 47, (5,), rz)]
    )
    # the output store already holds an older result
    out = BlockStore(64, 4)
    put_blocks(out, 0, _amps(rng, 16))
    return reader, table, out


def _snapshot(out):
    return {b: id(arr) for b, arr in out._blocks.items()}


@pytest.mark.parametrize("site", ["kernel.run", "cow.publish"])
def test_injected_fault_leaves_the_store_untouched_and_retry_converges(site):
    reader, table, out = _fault_case()
    before = _snapshot(out)
    previous = faults.install(FaultPlan(script=[(site, 1)]))
    try:
        with faults.armed():
            with pytest.raises(FaultInjected):
                NumpyBatchBackend().execute_plan(reader, out, table)
            assert _snapshot(out) == before
            # kernel.run fires once per table, before any read
            assert reader.reads == (0 if site == "kernel.run" else 1)
            NumpyBatchBackend().execute_plan(reader, out, table)
    finally:
        faults.install(previous)
    want = _execute(ReferenceLoop(), reader, [table], 1)
    for b in want.stored_blocks():
        assert np.array_equal(out.get_block(b), want.get_block(b))
    assert out.held >> 8 & 1


def test_session_recovers_from_a_failed_slab_publish(no_plan):
    levels = random_levels(random.Random(21), 5, 4)

    def run(script):
        sim = _sim(levels)
        faults.install(FaultPlan(script=script) if script else None)
        try:
            sim.update_state()
            return sim.state().copy(), sim.statistics()
        finally:
            faults.install(None)
            sim.close()

    clean, _ = run(None)
    recovered, stats = run([("cow.publish", 1)])
    assert stats["backend_fallbacks"] == 1
    assert np.array_equal(recovered, clean)


def _sim(levels, num_qubits=5, **knobs):
    from repro.core.circuit import Circuit

    circuit = Circuit(num_qubits)
    knobs.setdefault("block_size", 4)
    knobs.setdefault("num_workers", 1)
    sim = open_session(circuit, **knobs)
    circuit.from_levels(levels)
    return sim


# ---------------------------------------------------------------------------
# the shared table cache
# ---------------------------------------------------------------------------


def test_stages_with_one_layout_share_one_table():
    _slab_table.cache_clear()
    rng = np.random.default_rng(8)
    reader = _chain_over(_amps(rng, 64), 4)
    backend = NumpyBatchBackend()

    def stage_table(theta, qubit=4):
        rz = DiagonalAction(
            num_qubits=1, phases=(np.exp(-1j * theta), np.exp(1j * theta))
        )
        return table_from_runs(
            [RunSpec(RUN_ACTION, 0, 31, (qubit,), rz),
             RunSpec(RUN_ACTION, 48, 63, (qubit,), rz)]
        )

    backend.execute_plan(reader, BlockStore(64, 4), stage_table(0.3))
    assert _slab_table.cache_info().currsize == 1
    # another stage, other angle, other backend instance: same index table
    NumpyBatchBackend().execute_plan(reader, BlockStore(64, 4), stage_table(0.9))
    info = _slab_table.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    # another qubit (or other blocks) is another table
    backend.execute_plan(reader, BlockStore(64, 4), stage_table(0.3, qubit=3))
    assert _slab_table.cache_info().currsize == 2


def test_tables_are_compact_read_only_and_the_cache_is_bounded():
    _slab_table.cache_clear()
    cx = (0, 3, 2, 1)
    bound = _slab_table.cache_info().maxsize
    for b in range(bound + 40):
        lo = np.array([64 * b], dtype=np.int64)
        table = _slab_table(
            RUN_ACTION, ((0, 5), cx), lo.tobytes(), (lo + 63).tobytes(), 16, 1 << 15
        )
        assert _slab_table.cache_info().currsize <= bound
    assert _slab_table.cache_info().currsize == bound
    assert table.local.dtype == np.uint8 and table.srcpos.dtype == np.int32
    assert not table.local.flags.writeable and not table.srcpos.flags.writeable
    # a slab is at most MAX_RUN_BLOCKS blocks, so an entry is at most
    # 10 bytes per amplitude of that many blocks
    assert table.local.nbytes + table.srcpos.nbytes <= 10 * 64
    rz = _slab_table(RUN_ACTION, ((5,), None), lo.tobytes(), (lo + 63).tobytes(), 16, 1 << 15)
    assert rz.srcpos is None  # a diagonal gathers nothing
    assert rz.in_ids == rz.out_ids == table.out_ids


# ---------------------------------------------------------------------------
# session boundary: workers, chaos
# ---------------------------------------------------------------------------


def _check_sessions_agree(seed, **knobs):
    """A build and an incremental edit (a subset of the partitions re-planned)
    leave identical states on the slab backend and the reference loop."""
    levels = random_levels(random.Random(seed), 6, 5)
    states = []
    for backend in (NumpyBatchBackend(), ReferenceLoop()):
        with running_on(backend), _sim(levels, 6, **knobs) as sim:
            sim.update_state()
            states.append(sim.state())
            net = sim.circuit.insert_net()
            sim.circuit.insert_gate("cx", net, 0, 5)
            sim.circuit.insert_gate("rz", net, 3, params=(0.77,))
            sim.update_state()
            states.append(sim.state())
    assert all(np.array_equal(a, b) for a, b in zip(states[:2], states[2:]))


@given(
    seed=st.integers(0, 10**6),
    block_size=st.sampled_from([2, 4, 16]),
    num_workers=st.sampled_from([1, 4]),
    stepwise=st.booleans(),
)
@settings(max_examples=25, **SETTINGS)
def test_sessions_agree_with_the_per_run_reference_backend(
    seed, block_size, num_workers, stepwise
):
    """Runs under whatever fault plan the environment set
    (``QTASK_FAULT_P``): recovery re-executes run by run, on the backend
    that faulted, so even then the states are identical."""
    _check_sessions_agree(
        seed,
        block_size=block_size,
        num_workers=num_workers,
        stepwise=stepwise,
    )


@pytest.mark.parametrize("stepwise", [True, False])
@pytest.mark.parametrize("num_workers", [1, 4])
def test_dense_mode_sessions_agree_with_the_reference_backend(stepwise, num_workers):
    """One block holds the whole 6-qubit state, so every stage that runs
    stores a full vector -- what the deleted dense storage mode kept."""
    _check_sessions_agree(
        20260927,
        block_size=64,
        num_workers=num_workers,
        stepwise=stepwise,
    )


@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
@pytest.mark.parametrize("num_workers", [1, 4])
def test_dynamic_trajectories_agree_with_the_reference_backend(
    circuit_seed, num_workers
):
    ckt = build_dynamic_circuit(circuit_seed)
    states = []
    for backend in (NumpyBatchBackend(), ReferenceLoop()):
        with running_on(backend), QTaskSimulator(
            ckt, seed=5, block_size=4, num_workers=num_workers
        ) as sim:
            sim.update_state()
            states.append((sim.state(), sim.outcomes.recorded_outcomes()))
    assert states[0][1] == states[1][1]
    assert np.array_equal(states[0][0], states[1][0])
