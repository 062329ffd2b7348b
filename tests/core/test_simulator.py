"""End-to-end correctness tests for the incremental simulator."""

import random
import sys
import threading

import numpy as np
import pytest

from repro import QTask
from repro.core.circuit import Circuit
from repro.core.exceptions import CheckpointError
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.service import Backend

from ..conftest import (
    assert_states_close,
    circuit_levels,
    random_levels,
    reference_state,
    worker_threads,
)
from .test_snapshot import DENSE_FIXTURE, build_dense_fixture_circuit


def make_sim(n, levels, **kwargs):
    ckt = Circuit(n)
    sim = QTaskSimulator(ckt, **kwargs)
    ckt.from_levels(levels)
    return ckt, sim


BELL_LEVELS = [[Gate("h", (1,))], [Gate("cx", (1, 0))]]


# ---------------------------------------------------------------------------
# full simulation
# ---------------------------------------------------------------------------


def test_bell_state(rng):
    ckt, sim = make_sim(2, BELL_LEVELS, block_size=2, num_workers=1)
    sim.update_state()
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
    assert_states_close(sim.state(), expected)
    sim.close()


def test_empty_circuit_is_initial_state():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=4, num_workers=1)
    sim.update_state()
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1
    assert_states_close(sim.state(), expected)
    sim.close()


@pytest.mark.parametrize("block_size", [1, 2, 8, 64, 1024])
def test_full_simulation_matches_reference_across_block_sizes(rng, block_size):
    levels = random_levels(rng, 5, 6)
    ckt, sim = make_sim(5, levels, block_size=block_size, num_workers=1)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(5, levels))
    sim.close()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_full_simulation_matches_reference_across_workers(rng, workers):
    levels = random_levels(rng, 6, 5)
    ckt, sim = make_sim(6, levels, block_size=8, num_workers=workers)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(6, levels))
    sim.close()


def test_external_executor_is_not_closed():
    """Historical id: a fork shares its parent's pool.  Closing the fork
    leaves it running -- the parent still fans its chunks out two wide --
    and closing the parent stops its threads."""
    before = worker_threads()
    ckt = Circuit(4)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=2)
    ckt.from_levels(BELL_LEVELS)
    sim.update_state()
    child = sim.fork()
    assert child.pool is sim.pool and child.num_workers == 2
    child.close()
    # h on qubit 0: eight two-block windows, a table of many runs
    ckt.from_levels([[Gate("h", (0,))]])
    sim.update_state()
    report = sim.plan_report()
    assert report.plan_chunks > report.plans_built
    assert worker_threads() - before
    assert_states_close(sim.state(), reference_state(4, circuit_levels(ckt)))
    with pytest.raises(TypeError, match="executor"):
        sim.fork(executor=None)
    sim.close()
    assert worker_threads() == before


def test_concurrent_runs_from_external_threads():
    """Forks of a four-wide session, updated from several threads at once
    over the one pool they share, each land on the dense oracle."""
    levels = [[Gate("h", (q,)) for q in range(6)]]
    ckt, sim = make_sim(6, levels, block_size=2, num_workers=4)
    sim.update_state()
    forks = [sim.fork() for _ in range(4)]
    errors = []

    def edit(k, fork):
        try:
            rng = random.Random(k)
            for _ in range(3):
                fork.circuit.from_levels(random_levels(rng, 6, 2))
                fork.update_state()
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=edit, args=kf) for kf in enumerate(forks)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' Python finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for fork in forks:
        assert fork.plan_report().plan_chunks > fork.plan_report().plans_built
        assert_states_close(fork.state(), reference_state(6, circuit_levels(fork.circuit)))
        fork.close()
    sim.close()


def test_norm_preserved_on_random_circuits(rng):
    levels = random_levels(rng, 6, 8)
    ckt, sim = make_sim(6, levels, block_size=16, num_workers=1)
    sim.update_state()
    assert abs(sim.norm() - 1.0) < 1e-9
    sim.close()


def test_attach_simulator_to_prebuilt_circuit(rng):
    """The simulator adopts gates already present at attach time."""
    levels = random_levels(rng, 4, 4)
    ckt = Circuit(4)
    ckt.from_levels(levels)
    sim = QTaskSimulator(ckt, block_size=4, num_workers=1)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(4, levels))
    sim.close()


# ---------------------------------------------------------------------------
# incremental simulation
# ---------------------------------------------------------------------------


def test_incremental_insert_gate_matches_full(rng):
    levels = random_levels(rng, 4, 4)
    ckt, sim = make_sim(4, levels, block_size=4, num_workers=1)
    sim.update_state()
    # append a new net
    net = ckt.insert_net()
    ckt.insert_gate("cx", net, 0, 3)
    report = sim.update_state()
    assert report.was_incremental
    new_levels = circuit_levels(ckt)
    assert_states_close(sim.state(), reference_state(4, new_levels))
    sim.close()


def test_incremental_remove_gate_matches_full(rng):
    levels = random_levels(rng, 4, 5)
    ckt, sim = make_sim(4, levels, block_size=4, num_workers=1)
    sim.update_state()
    victim = ckt.gates()[len(ckt.gates()) // 2]
    ckt.remove_gate(victim)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(4, circuit_levels(ckt)))
    sim.close()


def test_incremental_insert_into_middle_net(rng):
    levels = random_levels(rng, 5, 5)
    ckt, sim = make_sim(5, levels, block_size=8, num_workers=1)
    sim.update_state()
    # insert a gate into an existing middle net on a free qubit
    for net in ckt.nets():
        used = net.qubits_in_use()
        free = [q for q in range(5) if q not in used]
        if free:
            ckt.insert_gate("x", net, free[0])
            break
    sim.update_state()
    assert_states_close(sim.state(), reference_state(5, circuit_levels(ckt)))
    sim.close()


def test_incremental_remove_whole_net(rng):
    levels = random_levels(rng, 4, 5)
    ckt, sim = make_sim(4, levels, block_size=4, num_workers=1)
    sim.update_state()
    ckt.remove_net(ckt.nets()[1])
    sim.update_state()
    assert_states_close(sim.state(), reference_state(4, circuit_levels(ckt)))
    sim.close()


def test_incremental_update_touches_fewer_partitions_than_full():
    """Modifying the tail of a deep circuit must not re-simulate everything."""
    n = 5
    levels = [[Gate("h", (q,)) for q in range(n)]] + [
        [Gate("cx", (q, (q + 1) % n))] for q in range(n)
    ] * 3
    ckt, sim = make_sim(n, levels, block_size=4, num_workers=1)
    full_report = sim.update_state()
    last_net = ckt.nets()[-1]
    victim = last_net.gates[0]
    ckt.remove_gate(victim)
    inc_report = sim.update_state()
    assert inc_report.affected_partitions < full_report.affected_partitions
    assert_states_close(sim.state(), reference_state(n, circuit_levels(ckt)))
    sim.close()


def test_multiple_modifiers_between_updates(rng):
    levels = random_levels(rng, 5, 6)
    ckt, sim = make_sim(5, levels, block_size=8, num_workers=1)
    sim.update_state()
    # batch: remove two gates, add a net with two gates, then one update call
    gates = ckt.gates()
    ckt.remove_gate(gates[0])
    ckt.remove_gate(gates[-1])
    net = ckt.insert_net()
    ckt.insert_gate("h", net, 0)
    ckt.insert_gate("cz", net, 1, 2)
    sim.update_state()
    assert_states_close(sim.state(), reference_state(5, circuit_levels(ckt)))
    sim.close()


def test_update_with_no_modifiers_is_a_noop():
    ckt, sim = make_sim(3, BELL_LEVELS + [[Gate("x", (2,))]], block_size=2, num_workers=1)
    sim.update_state()
    before = sim.state()
    report = sim.update_state()
    assert report.affected_partitions == 0
    assert_states_close(sim.state(), before)
    sim.close()


def test_incremental_sequence_of_many_iterations(rng):
    """A long randomized modifier/update sequence stays consistent."""
    n = 4
    levels = random_levels(rng, n, 6)
    ckt, sim = make_sim(n, levels, block_size=4, num_workers=1)
    sim.update_state()
    net_handles = ckt.nets()
    for it in range(12):
        gates = ckt.gates()
        if gates and rng.random() < 0.6:
            ckt.remove_gate(rng.choice(gates))
        target_net = rng.choice(net_handles)
        used = target_net.qubits_in_use()
        free = [q for q in range(n) if q not in used]
        if free:
            name = rng.choice(["h", "x", "t", "z"])
            ckt.insert_gate(name, target_net, rng.choice(free))
        sim.update_state()
        assert_states_close(sim.state(), reference_state(n, circuit_levels(ckt)))
    sim.close()


def test_rebuild_from_empty_to_full_level_by_level(rng):
    """The paper's incremental protocol: one update per net."""
    n = 5
    levels = random_levels(rng, n, 8)
    ckt = Circuit(n)
    sim = QTaskSimulator(ckt, block_size=8, num_workers=1)
    built = []
    for level in levels:
        net = ckt.insert_net()
        for g in level:
            ckt.insert_gate(g, net)
        built.append(level)
        sim.update_state()
        assert_states_close(sim.state(), reference_state(n, built))
    sim.close()


# ---------------------------------------------------------------------------
# copy-on-write (§IV.F): what one dense vector per stage would cost is the
# memory report's ``dense_bytes``
# ---------------------------------------------------------------------------


def test_copy_on_write_disabled_gives_same_state():
    """A session the deleted dense storage mode checkpointed restores to the
    state a copy-on-write session of the same circuit computes."""
    with QTask.restore(DENSE_FIXTURE, num_workers=1) as dense, QTask(
        5, num_clbits=2, block_size=4, num_workers=1, seed=11
    ) as cow:
        build_dense_fixture_circuit(cow)
        cow.update_state()
        assert_states_close(cow.state(), dense.state())
        assert cow.outcomes.recorded_outcomes() == dense.outcomes.recorded_outcomes()


def test_copy_on_write_uses_less_memory():
    n = 6
    levels = [[Gate("h", (5,))]] + [[Gate("cz", (5, q))] for q in range(4)]
    _, cow = make_sim(n, levels, block_size=4, num_workers=1)
    cow.update_state()
    report = cow.memory_report()
    assert report.dense_bytes == 5 * 16 * 2**n  # one vector per stage
    assert report.allocated_bytes < report.dense_bytes
    cow.close()


# ---------------------------------------------------------------------------
# queries and reports
# ---------------------------------------------------------------------------


def test_amplitude_probability_queries():
    ckt, sim = make_sim(2, BELL_LEVELS, block_size=2, num_workers=1)
    sim.update_state()
    assert abs(sim.amplitude(0) - 1 / np.sqrt(2)) < 1e-9
    assert abs(sim.probability(3) - 0.5) < 1e-9
    assert abs(sim.probabilities().sum() - 1.0) < 1e-9
    with pytest.raises(IndexError):
        sim.amplitude(4)
    sim.close()


def test_statistics_and_memory_report_keys():
    ckt, sim = make_sim(3, BELL_LEVELS, block_size=2, num_workers=1)
    report = sim.update_state()
    stats = sim.statistics()
    for key in ("num_stages", "num_nodes", "block_size", "num_updates", "num_workers"):
        assert key in stats
    assert report.total_partitions >= report.affected_partitions
    assert 0.0 <= report.affected_fraction <= 1.0
    mem = sim.memory_report()
    assert mem.allocated_bytes > 0
    sim.close()


def test_update_report_elapsed_positive():
    ckt, sim = make_sim(3, BELL_LEVELS, block_size=2, num_workers=1)
    report = sim.update_state()
    assert report.elapsed_seconds > 0
    sim.close()


# ---------------------------------------------------------------------------
# close() releases the state
# ---------------------------------------------------------------------------


def test_close_frees_the_blocks_without_a_collection(no_plan):
    """A closed session's blocks go by reference count: the simulator sits
    in a reference cycle with its stages, so without the explicit release
    they would live until the next gen-2 cyclic collection."""
    import gc
    import weakref

    from repro import QTask

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parent = QTask(6, block_size=4, num_workers=1)
        net = parent.insert_net()
        for q in range(6):
            parent.insert_gate("h", net, q)
        net = parent.insert_net()
        angles = [
            parent.insert_gate("ry", net, q, params=[0.2 + 0.1 * q])
            for q in range(6)
        ]
        parent.update_state()
        child = parent.fork()  # adopts every parent block by reference
        child.update_gate(child.handle_for(angles[0]), 1.7)
        child.update_state()   # rebinds the last stage's blocks on the child
        child_state = child.state()

        last_stage = parent.simulator.graph.stages[-1]
        owned = weakref.ref(last_stage.store.get_block(0))   # parent-only now
        adopted = weakref.ref(parent.simulator.graph.stages[0].store.get_block(0))
        assert parent.memory_report().allocated_bytes > 0

        parent.close()
        assert parent.memory_report().allocated_bytes == 0
        assert owned() is None           # freed here, no gc.collect()
        assert adopted() is not None     # the fork's reference keeps it
        np.testing.assert_array_equal(child.state(), child_state)
        assert child.memory_report().shared_bytes > 0

        child.close()
        assert child.memory_report().allocated_bytes == 0
        assert adopted() is None
    finally:
        if was_enabled:
            gc.enable()


def test_reads_of_a_closed_session_raise(no_plan):
    from repro.core.exceptions import QTaskError

    ckt, sim = make_sim(3, BELL_LEVELS, block_size=2, num_workers=1)
    sim.update_state()
    sim.expectation("ZZI")  # even a fully cached answer is refused afterwards
    sim.close()
    for read in (
        sim.state,
        lambda: sim.amplitude(0),
        sim.norm,
        lambda: sim.expectation("ZZI"),
        lambda: sim.counts(8, seed=1),
        lambda: sim.marginal_probabilities((0,)),
    ):
        with pytest.raises(QTaskError, match="session is closed"):
            read()


#: a width no session takes, with the error it raises: before any thread exists
BAD_WIDTHS = [(0, ValueError), (-1, ValueError), (True, TypeError),
              (1.5, TypeError), ("2", TypeError)]
#: every entry point taking ``num_workers`` (a backend refuses it at
#: construction, before its dispatcher threads start)
WIDTH_OPENERS = {
    "QTaskSimulator": lambda path, w: QTaskSimulator(Circuit(3), num_workers=w),
    "QTask": lambda path, w: QTask(3, num_workers=w),
    "Backend": lambda path, w: Backend(num_workers=w),
    "restore": lambda path, w: QTask.restore(path, num_workers=w),
}


@pytest.mark.parametrize(
    "open_rejected, error",
    [
        pytest.param(lambda path: QTask(3, kernel_backend="numba"), TypeError,
                     id="kernel_backend"),
        pytest.param(lambda path: QTask(3, store_transport="bogus"), TypeError,
                     id="store_transport"),
        pytest.param(lambda path: QTask.restore(path + ".bad"), CheckpointError,
                     id="corrupt_checkpoint"),
        *(
            pytest.param(lambda path, o=opener, w=width: o(path, w), error,
                         id=f"{name}-num_workers={width!r}")
            for name, opener in WIDTH_OPENERS.items()
            for width, error in BAD_WIDTHS
        ),
    ],
)
def test_a_rejected_session_leaves_no_worker_running(open_rejected, error, tmp_path):
    """A knob or a file refused after the pool would have started."""
    path = tmp_path / "s.qtckpt"
    with QTask(3, block_size=2, num_workers=1) as session:
        session.insert_gate("h", session.insert_net(), 0)
        session.checkpoint(str(path))
    payload = bytearray(path.read_bytes())
    payload[-1] ^= 0xFF  # a checksum mismatch in the last block
    (tmp_path / "s.qtckpt.bad").write_bytes(bytes(payload))
    def ours():  # session pools' (qtask-worker) and backend dispatchers'
        return {t for t in threading.enumerate() if t.name.startswith("qtask-")}

    before = ours()
    with pytest.raises(error):
        open_rejected(str(path))
    assert ours() == before
