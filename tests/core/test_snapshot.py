"""Durable session checkpoints: save, restore, resume, reject corruption.

The checkpoint contract (``repro.core.snapshot``):

* a restored session holds the exact checkpointed state without
  re-simulating anything (``num_updates`` > 0, blocks loaded from disk),
* it is immediately editable, and subsequent updates are *incremental*
  from the loaded blocks,
* a restored session is observationally a fork taken at checkpoint time:
  under identical edits it evolves identically to such a fork (keyed
  trajectory streams restart, exactly like ``QTask.fork``),
* damaged files -- bad magic, truncation, flipped payload bytes, wrong
  version -- raise :class:`CheckpointError` instead of resuming garbage,
* saving is atomic: a crash mid-save can never clobber a good checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import struct

import numpy as np
import pytest

from repro import CheckpointError, QTask
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import DURABLE_KNOBS, QTaskSimulator
from repro.core.snapshot import (
    CHECKPOINT_MAGIC,
    _read_file,
    decode_block,
    encode_block,
    restore_simulator,
    save_checkpoint,
)

from ..conftest import (
    ReferenceLoop,
    assert_held_blocks_are_prefix_states,
    assert_held_blocks_declared,
    assert_runs_are_consistent,
    assert_states_close,
    circuit_levels,
    dense_state,
    open_session,
    random_levels,
    reference_state,
    running_on,
)

ATOL = 1e-12


def _fill_session(session: QTask, levels) -> None:
    """Insert conftest-style levels through the facade circuit."""
    session.circuit.from_levels(levels)


DENSE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "data", "dense_pr34.qtckpt"
)


def build_dense_fixture_circuit(session: QTask) -> None:
    """The circuit of ``dense_pr34.qtckpt`` (see
    :func:`test_checkpoint_written_in_dense_mode_restores_trimmed`)."""
    s = session
    n = [s.insert_net() for _ in range(8)]
    for q in (0, 1, 3, 4):
        s.insert_gate("h", n[0], q)
    s.insert_gate("t", n[1], 4)
    s.insert_gate("cp", n[2], 3, 4, params=(0.7,))
    s.insert_gate("cx", n[2], 0, 1)
    s.measure(n[3], 4, 0)
    s.c_if("x", n[4], 2, condition=([0], 0))
    s.reset(n[5], 1)
    s.insert_gate("rz", n[6], 3, params=(0.3,))
    s.measure(n[7], 3, 1)


# the ids are the ones the test floor pins: "fusion" marks the corners built
# one update per gate (``conftest.open_session``; it used to select
# insert-time fusion), "chain" marked the corners that also turned the
# since-deleted store-chain knob off, and "dense" is a session restored
# from a file the deleted dense storage mode wrote
KNOB_COMBOS = [
    pytest.param(dict(block_size=4), id="defaults-bs4"),
    pytest.param(dict(block_size=4, stepwise=True), id="fusion-bs4"),
    pytest.param(dict(block_size=8), id="chain-bs8"),
    pytest.param(dict(restore=DENSE_FIXTURE), id="dense-bs4"),
    pytest.param(dict(block_size=16, stepwise=True), id="fusion-chain-bs16"),
]


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOB_COMBOS)
def test_round_trip_preserves_state_and_structure(tmp_path, knobs):
    knobs = dict(knobs)
    fixture = knobs.pop("restore", None)
    rng = random.Random(20260807)
    path = str(tmp_path / "session.qtckpt")
    with (
        QTask.restore(fixture, num_workers=1)
        if fixture is not None
        else open_session(6, num_workers=1, **knobs)
    ) as session:
        _fill_session(session, random_levels(rng, session.num_qubits, 6))
        session.update_state()
        original_state = session.state().copy()
        original_stats = session.statistics()
        assert session.checkpoint(path) == path
    headers = []
    _rewrite_header(path, headers.append)  # an edit that only looks
    assert set(headers[0]["knobs"]) == set(DURABLE_KNOBS)
    assert "fused" not in {entry["kind"] for entry in headers[0]["stages"]}

    with QTask.restore(path, num_workers=1) as restored:
        # the checkpointed amplitudes load bit-exactly, without simulating
        np.testing.assert_array_equal(restored.state(), original_state)
        assert_held_blocks_declared(restored)
        stats = restored.statistics()
        for key in ("num_stages", "num_nodes", "block_size"):
            assert stats[key] == original_stats[key], key
        assert stats["num_updates"] >= 1
        assert stats["plans_built"] == 0  # nothing was re-simulated


def test_restore_resumes_incrementally(tmp_path):
    """Edits after restore re-simulate only the dirty cone."""
    num_qubits = 6
    rng = random.Random(31)
    levels = random_levels(rng, num_qubits, 6)
    path = str(tmp_path / "session.qtckpt")
    with QTask(num_qubits, block_size=4, num_workers=1) as session:
        _fill_session(session, levels)
        session.update_state()
        session.checkpoint(path)

    with QTask.restore(path, num_workers=1) as restored:
        net = restored.insert_net()
        restored.insert_gate("rz", net, 0, params=[0.5])
        report = restored.update_state()
        assert report.was_incremental
        assert report.affected_partitions < report.total_partitions
        expected = reference_state(num_qubits, circuit_levels(restored.circuit))
        assert_states_close(restored.state(), expected, atol=1e-10)


def test_checkpoint_flushes_pending_modifiers(tmp_path):
    """Checkpointing an un-simulated session first brings it up to date."""
    num_qubits = 5
    rng = random.Random(32)
    levels = random_levels(rng, num_qubits, 4)
    path = str(tmp_path / "session.qtckpt")
    with QTask(num_qubits, block_size=4, num_workers=1) as session:
        _fill_session(session, levels)
        session.checkpoint(path)  # no update_state() before this

    with QTask.restore(path, num_workers=1) as restored:
        expected = reference_state(num_qubits, levels)
        assert_states_close(restored.state(), expected, atol=1e-10)


def test_dynamic_circuit_round_trip(tmp_path):
    """Measure/reset/c_if stages, classical registers and recorded
    outcomes all survive the round trip."""
    path = str(tmp_path / "dynamic.qtckpt")
    with QTask(3, block_size=4, num_workers=1, seed=7) as session:
        c = session.add_classical_register("c", 2)
        net1 = session.insert_net()
        session.insert_gate("h", net1, 0)
        session.insert_gate("h", net1, 1)
        net2 = session.insert_net()
        session.measure(net2, 0, c[0])
        net3 = session.insert_net()
        session.c_if("x", net3, 2, condition=(c, 1))
        net4 = session.insert_net()
        session.measure(net4, 2, c[1])
        session.update_state()
        original_state = session.state().copy()
        original_value = session.classical_value(c)
        session.checkpoint(path)

    with QTask.restore(path, num_workers=1) as restored:
        np.testing.assert_array_equal(restored.state(), original_state)
        assert restored.classical_value(restored.creg("c")) == original_value
        assert restored.outcomes.seed == 7


def test_restored_session_equals_fork_under_identical_edits(tmp_path):
    """A restored session is a fork taken at checkpoint time: identical
    edits (including new measurements drawing fresh keyed randomness)
    produce identical trajectories."""
    path = str(tmp_path / "forkeq.qtckpt")
    session = QTask(3, block_size=4, num_workers=1, seed=21)
    c = session.add_classical_register("c", 2)
    net1 = session.insert_net()
    for q in range(3):
        session.insert_gate("h", net1, q)
    net2 = session.insert_net()
    session.measure(net2, 0, c[0])
    session.update_state()
    session.checkpoint(path)
    fork = session.fork()
    restored = QTask.restore(path, num_workers=1)
    try:
        for twin in (fork, restored):
            net = twin.insert_net()
            twin.measure(net, 1, twin.creg("c")[1])
            net = twin.insert_net()
            twin.c_if("x", net, 2, condition=(twin.creg("c"), 3))
            twin.update_state()
        np.testing.assert_array_equal(restored.state(), fork.state())
        assert restored.classical_value(restored.creg("c")) == fork.classical_value(
            fork.creg("c")
        )
    finally:
        restored.close()
        fork.close()
        session.close()


def test_restore_kernel_backend_override(tmp_path):
    """Historical id: a restore takes no ``kernel_backend`` keyword; a
    restored session updates on whatever backend the updates run on (here
    the reference loop) and still computes the same states."""
    num_qubits = 5
    rng = random.Random(33)
    levels = random_levels(rng, num_qubits, 4)
    path = str(tmp_path / "session.qtckpt")
    with QTask(num_qubits, block_size=4, num_workers=1) as s:
        _fill_session(s, levels)
        s.update_state()
        s.checkpoint(path)

    with pytest.raises(TypeError, match="kernel_backend"):
        QTask.restore(path, num_workers=1, kernel_backend=None)
    with QTask.restore(path, num_workers=1) as restored:
        net = restored.insert_net()
        restored.insert_gate("cx", net, 0, num_qubits - 1)
        with running_on(ReferenceLoop()):
            restored.update_state()
        expected = reference_state(num_qubits, circuit_levels(restored.circuit))
        assert_states_close(restored.state(), expected, atol=1e-10)


def test_direct_simulator_round_trip(tmp_path):
    """The core API works without the facade."""
    num_qubits = 5
    rng = random.Random(34)
    levels = random_levels(rng, num_qubits, 4)
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    sim = QTaskSimulator(circuit, block_size=4, num_workers=1)
    path = str(tmp_path / "sim.qtckpt")
    try:
        sim.update_state()
        save_checkpoint(sim, path)
        expected = sim.state().copy()
    finally:
        sim.close()
    with restore_simulator(path, num_workers=1) as restored:
        np.testing.assert_array_equal(restored.state(), expected)


def test_new_forked_and_restored_sessions_are_assembled_alike(tmp_path):
    """One assembler: a fresh session, its fork and its restore carry the same
    instance attributes and the same durable-knob values."""
    knobs = dict(block_size=4)
    circuit = Circuit(5)
    circuit.from_levels(random_levels(random.Random(36), 5, 4))
    fresh = QTaskSimulator(circuit, num_workers=1, **knobs)
    fresh.update_state()
    fork = fresh.fork()
    restored = restore_simulator(
        save_checkpoint(fresh, str(tmp_path / "sim.qtckpt")), num_workers=1
    )
    try:
        assert set(vars(fork)) - {"forked_gate_map"} == set(vars(fresh))
        assert set(vars(restored)) == set(vars(fresh))
        for sim in (fresh, fork, restored):
            assert {name: getattr(sim, name) for name in DURABLE_KNOBS} == knobs
            # a stage's net is its handle's net: nobody keeps a second record
            assert not hasattr(sim, "_stage_net")
    finally:
        for sim in (fork, restored, fresh):
            sim.close()


# ---------------------------------------------------------------------------
# durability: atomic writes, loud rejection of damaged files
# ---------------------------------------------------------------------------


def _checkpointed_session(tmp_path):
    rng = random.Random(35)
    levels = random_levels(rng, 5, 4)
    path = str(tmp_path / "victim.qtckpt")
    with QTask(5, block_size=4, num_workers=1) as session:
        _fill_session(session, levels)
        session.update_state()
        session.checkpoint(path)
        state = session.state().copy()
    return path, state


def test_save_leaves_no_temp_files(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert not leftovers
    assert os.path.exists(path)


def test_checkpoint_overwrite_is_atomic(tmp_path):
    """Re-checkpointing onto an existing file replaces it wholesale."""
    path, _ = _checkpointed_session(tmp_path)
    first_size = os.path.getsize(path)
    with QTask.restore(path, num_workers=1) as restored:
        net = restored.insert_net()
        restored.insert_gate("h", net, 0)
        restored.update_state()
        restored.checkpoint(path)
        state = restored.state().copy()
    assert os.path.getsize(path) >= first_size
    with QTask.restore(path, num_workers=1) as second:
        np.testing.assert_array_equal(second.state(), state)


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        QTask.restore(str(tmp_path / "nope.qtckpt"))


def test_bad_magic_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[:4] = b"XXXX"
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="magic|not a qTask checkpoint"):
        QTask.restore(path)


def test_flipped_payload_byte_raises_checksum_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 0xFF  # corrupt an amplitude byte
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="checksum"):
        QTask.restore(path)


def test_truncated_payload_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) - 16])
    with pytest.raises(CheckpointError):
        QTask.restore(path)


def test_truncated_header_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    open(path, "wb").write(open(path, "rb").read()[:10])
    with pytest.raises(CheckpointError):
        QTask.restore(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of a checkpoint file, in place."""
    raw = open(path, "rb").read()
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    header = json.loads(raw[offset + 8 : offset + 8 + header_len].decode("utf-8"))
    edit(header)
    new_header = json.dumps(header).encode("utf-8")
    patched = (
        raw[:offset]
        + struct.pack("<Q", len(new_header))
        + new_header
        + raw[offset + 8 + header_len :]
    )
    open(path, "wb").write(patched)


def test_unknown_version_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    _rewrite_header(path, lambda header: header.update(version=999))
    with pytest.raises(CheckpointError, match="version"):
        QTask.restore(path)


def test_unknown_stage_kind_raises_checkpoint_error(tmp_path):
    # the stage table's factory knows every kind; anything else is damage
    path, _ = _checkpointed_session(tmp_path)
    _rewrite_header(path, lambda header: header["stages"][0].update(kind="bogus"))
    with pytest.raises(CheckpointError, match="unknown stage kind 'bogus'"):
        QTask.restore(path, num_workers=1)

def test_block_id_out_of_range_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)

    def move_a_block(header):
        next(e for e in header["stages"] if e["blocks"])["blocks"][0][0] = 999

    _rewrite_header(path, move_a_block)
    with pytest.raises(CheckpointError, match="out of range"):
        QTask.restore(path, num_workers=1)


def test_checkpoint_naming_deleted_knobs_still_restores(tmp_path):
    """A version-1 file written when ``block_directory``, ``fusion`` /
    ``max_fused_qubits`` and the ``legacy`` / ``numba`` / ``process``
    backends existed (until the field left the header every file named a
    backend or ``None``): the keys are ignored, the backend is the default,
    nothing is re-simulated."""
    path, state = _checkpointed_session(tmp_path)
    for backend in ("legacy", "numba", "process", "numpy", None):
        _rewrite_header(
            path,
            lambda header: header["knobs"].update(
                block_directory=False, kernel_backend=backend,
                fusion=True, max_fused_qubits=4,
            ),
        )
        with QTask.restore(path, num_workers=1) as restored:
            np.testing.assert_array_equal(restored.state(), state)
            np.testing.assert_array_equal(restored.state(), dense_state(restored))
            assert restored.statistics()["plans_built"] == 0
            net = restored.insert_net()
            restored.insert_gate("cx", net, 0, 4)
            restored.update_state()
            expected = reference_state(5, circuit_levels(restored.circuit))
            assert_states_close(restored.state(), expected, atol=1e-10)


def test_header_without_a_backend_name_restores(tmp_path):
    """What this version writes: the header's knobs name no kernel backend."""
    path, state = _checkpointed_session(tmp_path)
    headers = []
    _rewrite_header(path, headers.append)  # an edit that only looks
    assert "kernel_backend" not in headers[0]["knobs"]
    with QTask.restore(path, num_workers=1) as restored:
        np.testing.assert_array_equal(restored.state(), state)
        np.testing.assert_array_equal(restored.state(), dense_state(restored))
        assert "backend" not in restored.statistics()


FUSED_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "data", "fused_pr21.qtckpt"
)


def test_checkpoint_with_fused_stages_restores_and_survives_edits():
    """A file written at PR 21 (``316896e``) with ``fusion=True``: header
    names both deleted knobs, stage table ``matvec, unitary(t), fused(z, s,
    cp), measure, fused(x, cx)``, the measurement on its second draw.
    Written there by::

        with QTask(4, num_clbits=1, block_size=4, num_workers=1, seed=6,
                   fusion=True, max_fused_qubits=4) as s:
            n = [s.insert_net() for _ in range(8)]
            s.insert_gate("h", n[0], 0); s.insert_gate("h", n[0], 2)
            s.insert_gate("z", n[1], 0)
            s.insert_gate("s", n[3], 0)   # fuses with z across the empty net
            s.insert_gate("cp", n[4], 0, 1, params=(0.4,))  # diagonal run
            s.measure(n[5], 2, 0)
            s.insert_gate("x", n[6], 1)
            s.insert_gate("cx", n[7], 1, 3)                 # permuting run
            s.update_state()              # the measurement draws 1
            s.insert_gate("t", n[2], 3)   # lands ahead of the run holding z
            s.update_state()              # ... and it draws again: 0
            s.checkpoint("tests/data/fused_pr21.qtckpt")

    The members come back as single stages in net order, the recorded
    trajectory is replayed, and an edit where a fused stage used to be --
    between ``z`` (an earlier net) and the run it sat in -- lands in order.
    """
    def check(session):
        np.testing.assert_array_equal(session.state(), dense_state(session))
        assert_held_blocks_declared(session)
        assert_held_blocks_are_prefix_states(session)
        assert_runs_are_consistent(session)

    header, _ = _read_file(FUSED_FIXTURE)
    assert header["stages"][0]["combine_limit"] == 0  # a deleted MxV path
    with QTask.restore(FUSED_FIXTURE, num_workers=1) as session:
        assert [s.label() for s in session.simulator.graph.stages] == [
            "MxV{h[q0],h[q2]}", "z[q0]", "t[q3]", "s[q0]", "cp(0.4)[q0, q1]",
            "measure[q2->c0]", "x[q1]", "cx[q1, q3]",
        ]
        assert session.outcomes.recorded_outcomes() == {0: 0}
        assert session.statistics()["num_updates"] == 2
        check(session)
        nets = session.nets()
        s, cp = nets[3].gates[0], nets[4].gates[0]
        session.insert_gate("y", nets[2], 0)  # after z, before s
        session.update_gate(cp, 1.3)
        session.remove_gate(s)
        session.update_state()
        assert session.simulator.last_update.was_incremental
        check(session)
        session.remove_gate(nets[7].gates[0])  # half of the permuting run
        session.update_state()
        check(session)


SHARDED_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "data", "sharded_pr26.qtckpt"
)


def test_checkpoint_written_on_the_sharded_transport_restores_bit_identically():
    """A file written at ``848d36d``, the last version with a store
    transport, with ``store_transport="sharded"`` (its header names the
    knob).  Written there by::

        with QTask(4, num_clbits=2, block_size=4, num_workers=1, seed=4,
                   store_transport="sharded") as s:
            n = [s.insert_net() for _ in range(8)]
            for q in (0, 1, 3):
                s.insert_gate("h", n[0], q)
            s.insert_gate("t", n[1], 0)
            s.insert_gate("cp", n[2], 0, 3, params=(0.7,))  # a run with t, cx
            s.insert_gate("cx", n[2], 1, 2)
            s.measure(n[3], 0, 0)                           # draws 1
            s.c_if("x", n[4], 2, condition=([0], 1))        # ... so x fires
            s.reset(n[5], 1)
            s.insert_gate("rz", n[6], 2, params=(0.3,))
            s.measure(n[7], 3, 1)
            s.update_state()
            s.update_gate(n[6].gates[0], 1.1)
            s.update_state()
            s.checkpoint("tests/data/sharded_pr26.qtckpt")

    The state restores to the bit, with nothing re-simulated (the digest is
    the parent's ``state().tobytes()``), and stays editable.
    """
    header, _ = _read_file(SHARDED_FIXTURE)
    assert header["stages"][0]["combine_limit"] == 0  # a deleted MxV path
    with QTask.restore(SHARDED_FIXTURE, num_workers=1) as session:
        # the file carries no masses: the collapses have none until they run
        assert session.simulator.collapse_path() == []
        assert hashlib.sha256(session.state().tobytes()).hexdigest() == (
            "bd81651cdc43d5b45b6288256ab2fd8a5b58f1666cd1ef8367efd568047e217e"
        )
        np.testing.assert_array_equal(session.state(), dense_state(session))
        stats = session.statistics()
        assert (stats["plans_built"], stats["num_updates"]) == (0, 2)
        assert session.outcomes.recorded_outcomes() == {0: 1, 2: 1, 3: 0}
        assert [(run.members[0].seq, len(run.members))
                for run in session.simulator.graph.runs()] == [(1, 3)]
        assert_held_blocks_declared(session)
        assert_held_blocks_are_prefix_states(session)
        assert_runs_are_consistent(session)
        nets = session.nets()
        session.update_gate(nets[2].gates[0], 0.0)  # cp(0): the identity
        session.remove_gate(nets[1].gates[0])  # t, the head of the run
        session.update_state()
        assert session.simulator.last_update.was_incremental
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


def test_checkpoint_written_in_dense_mode_restores_trimmed(tmp_path):
    """A file written at ``366f28f``, the last version with the dense storage
    mode, with ``copy_on_write=False`` (its header names the knob, and every
    stage lists every block).  Written there by::

        with QTask(5, num_clbits=2, block_size=4, num_workers=1, seed=11,
                   copy_on_write=False) as s:
            n = [s.insert_net() for _ in range(8)]
            for q in (0, 1, 3, 4):
                s.insert_gate("h", n[0], q)
            s.insert_gate("t", n[1], 4)                     # half the blocks
            s.insert_gate("cp", n[2], 3, 4, params=(0.7,))  # a quarter of them
            s.insert_gate("cx", n[2], 0, 1)
            s.measure(n[3], 4, 0)                           # draws 0
            s.c_if("x", n[4], 2, condition=([0], 0))        # ... so x fires
            s.reset(n[5], 1)
            s.insert_gate("rz", n[6], 3, params=(0.3,))
            s.measure(n[7], 3, 1)
            s.update_state()
            s.checkpoint("tests/data/dense_pr34.qtckpt")

    The state restores to the bit (the digest is the parent's
    ``state().tobytes()``), each stage keeps only the blocks it declares --
    as many bytes as a copy-on-write checkpoint of the same session, built
    one update per gate so that no run elides a block -- and it stays
    editable.
    """
    header, _ = _read_file(DENSE_FIXTURE)
    assert header["knobs"]["copy_on_write"] is False
    assert all(len(entry["blocks"]) == 8 for entry in header["stages"])
    path = str(tmp_path / "cow.qtckpt")
    with open_session(5, num_clbits=2, block_size=4, num_workers=1, seed=11,
                      stepwise=True) as cow:
        build_dense_fixture_circuit(cow)
        cow.checkpoint(path)
    with QTask.restore(path, num_workers=1) as cow:
        cow_bytes = cow.memory_report().allocated_bytes
    with QTask.restore(DENSE_FIXTURE, num_workers=1) as session:
        assert hashlib.sha256(session.state().tobytes()).hexdigest() == (
            "1a0bb99a4aa77669eec68cca5e4166cfef02af18ce14be9cb8262baf757cd1bc"
        )
        np.testing.assert_array_equal(session.state(), dense_state(session))
        assert session.outcomes.recorded_outcomes() == {0: 0, 2: 1, 3: 1}
        assert session.simulator.graph.runs() == []
        assert_held_blocks_declared(session)
        assert_held_blocks_are_prefix_states(session)
        report = session.memory_report()
        assert report.allocated_bytes == cow_bytes < report.dense_bytes
        nets = session.nets()
        session.update_gate(nets[6].gates[0], 1.1)  # rz, between the measures
        session.insert_gate("s", nets[1], 0)
        session.update_state()
        assert session.simulator.last_update.was_incremental
        np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
        assert_held_blocks_declared(session)
        assert_runs_are_consistent(session)


def test_restored_session_keeps_its_collapse_path(tmp_path):
    """Each collapse's masses and outcome travel in the file: a restored
    session reports the saved one's ``collapse_path()``, to the bit, and an
    edit downstream of every collapse leaves it alone."""
    from ..test_trajectory_properties import build_rus_branch

    path = str(tmp_path / "rus.qtckpt")
    with build_rus_branch(seed=9, block_size=2) as session:
        session.update_state()
        saved = session.simulator.collapse_path()
        assert len(saved) == 4
        session.checkpoint(path)
    with QTask.restore(path, num_workers=1) as restored:
        assert restored.simulator.collapse_path() == saved
        restored.insert_gate("z", restored.insert_net(), 0)
        restored.update_state()
        assert restored.simulator.collapse_path() == saved
        np.testing.assert_allclose(restored.state(), dense_state(restored), atol=1e-10)

    def drop_outcome(header):
        next(e for e in header["stages"] if "masses" in e).pop("outcome")

    _rewrite_header(path, drop_outcome)
    with pytest.raises(CheckpointError, match="cannot reconstruct"):
        QTask.restore(path, num_workers=1)


def test_store_transport_is_gone_from_every_entry_point(tmp_path):
    path = str(tmp_path / "s.qtckpt")
    with QTask(3, num_workers=1) as session:
        session.insert_gate("h", session.insert_net(), 0)
        session.checkpoint(path)
    for spec in ("local", "sharded", None):
        with pytest.raises(TypeError, match="store_transport"):
            QTask(3, store_transport=spec)
        with pytest.raises(TypeError, match="store_transport"):
            QTaskSimulator(Circuit(3), store_transport=spec)
        with pytest.raises(TypeError, match="store_transport"):
            QTask.restore(path, store_transport=spec)


class TestCodec:
    """The checkpoint block codec: raw complex128 bytes plus a CRC32."""

    def test_roundtrip(self):
        arr = np.arange(8, dtype=np.complex128) * (1 + 2j)
        raw, crc = encode_block(arr)
        np.testing.assert_array_equal(decode_block(raw, crc, 8), arr)

    def test_decoded_view_is_read_only(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        assert not decode_block(raw, crc).flags.writeable

    def test_crc_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(CheckpointError, match="CRC"):
            decode_block(raw, crc ^ 1)

    def test_corrupt_payload_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(CheckpointError, match="CRC"):
            decode_block(bytes([raw[0] ^ 0xFF]) + raw[1:], crc)

    def test_length_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(CheckpointError, match="expected 8"):
            decode_block(raw, crc, expect_len=8)


@pytest.mark.parametrize("gates", [[], [2, 99], [-1]])
def test_fused_stage_naming_no_such_gates_is_a_checkpoint_error(tmp_path, gates):
    path = shutil.copy(FUSED_FIXTURE, tmp_path / "fused.qtckpt")
    _rewrite_header(path, lambda header: header["stages"][2].update(gates=gates))
    with pytest.raises(CheckpointError, match="fused"):
        QTask.restore(path)


def test_garbage_json_header_raises_checkpoint_error(tmp_path):
    path, _ = _checkpointed_session(tmp_path)
    raw = open(path, "rb").read()
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    patched = (
        raw[: offset + 8]
        + b"\xff" * header_len
        + raw[offset + 8 + header_len :]
    )
    open(path, "wb").write(patched)
    with pytest.raises(CheckpointError):
        QTask.restore(path)
