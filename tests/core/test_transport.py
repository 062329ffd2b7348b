"""Unit tests for the storage transport seam (``repro.core.transport``).

Covers the wire codec, the local transport's identity semantics (what the
``BlockStore`` hot-path short-circuit assumes), transport selection, the
sharded transport's placement/accounting/publish-batching, and the two
recovery layers: shard respawn after a SIGKILL and the store circuit
breaker falling back to the local transport under a scripted fault storm.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core import faults
from repro.core.circuit import Circuit
from repro.core.cow import BlockStore, MemoryReport
from repro.core.faults import FaultPlan
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.core.transport import (
    LOCAL_TRANSPORT,
    LocalTransport,
    ShardedTransport,
    StorageTransport,
    TransportFailure,
    decode_block,
    encode_block,
    make_transport,
)

from ..conftest import circuit_levels, reference_state

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="sharded transport needs fork"
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Restore whatever plan (chaos-mode or none) surrounded each test."""
    previous = faults.install(None)
    yield
    faults.install(previous)


# ---------------------------------------------------------------------------
# wire codec (shared with the checkpoint block format)
# ---------------------------------------------------------------------------


class TestCodec:
    def test_roundtrip(self):
        arr = np.arange(8, dtype=np.complex128) * (1 + 2j)
        raw, crc = encode_block(arr)
        out = decode_block(raw, crc, 8)
        np.testing.assert_array_equal(out, arr)

    def test_decoded_view_is_read_only(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        out = decode_block(raw, crc)
        assert not out.flags.writeable

    def test_crc_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(TransportFailure):
            decode_block(raw, crc ^ 1)

    def test_corrupt_payload_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        bad = bytes([raw[0] ^ 0xFF]) + raw[1:]
        with pytest.raises(TransportFailure):
            decode_block(bad, crc)

    def test_length_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(TransportFailure):
            decode_block(raw, crc, expect_len=8)


# ---------------------------------------------------------------------------
# local transport: identity semantics
# ---------------------------------------------------------------------------


class TestLocalTransport:
    def test_write_range_returns_the_arrays_themselves(self):
        t = LocalTransport()
        arrays = [np.ones(4, dtype=np.complex128) for _ in range(3)]
        handles = t.write_range(None, 0, arrays)
        assert all(h is a for h, a in zip(handles, arrays))

    def test_read_range_returns_stored_arrays(self):
        store = BlockStore(16, 4)
        arr = np.arange(4, dtype=np.complex128)
        store.write_block(1, arr, copy=False)
        (got,) = LOCAL_TRANSPORT.read_range(store, 1, 1)
        assert got is store._blocks[1]

    def test_seal_marks_blocks_read_only(self):
        store = BlockStore(16, 4)
        store.write_block(0, np.ones(4, dtype=np.complex128))
        LOCAL_TRANSPORT.seal(store, (0,))
        assert not store._blocks[0].flags.writeable

    def test_local_store_is_not_remote_backed(self):
        assert not BlockStore(16, 4).is_remote_backed


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


class TestMakeTransport:
    def test_local(self):
        transport, fell_back = make_transport("local")
        assert transport is LOCAL_TRANSPORT
        assert not fell_back

    def test_instance_passes_through(self):
        t = LocalTransport()
        transport, fell_back = make_transport(t)
        assert transport is t
        assert not fell_back

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_transport("s3")

    def test_env_drives_default(self, monkeypatch):
        monkeypatch.setenv("QTASK_STORE_TRANSPORT", "local")
        transport, _ = make_transport(None)
        assert transport.name == "local"

    @needs_fork
    def test_sharded(self):
        transport, fell_back = make_transport("sharded")
        assert isinstance(transport, ShardedTransport)
        assert transport.is_remote
        assert not fell_back

    @needs_fork
    def test_shard_count_env(self, monkeypatch):
        monkeypatch.setenv("QTASK_STORE_SHARDS", "3")
        assert ShardedTransport().num_shards == 3


# ---------------------------------------------------------------------------
# sharded transport: placement, store round-trips, accounting
# ---------------------------------------------------------------------------


@needs_fork
class TestShardedStore:
    def _store(self, dim=64, block_size=4, shards=2):
        return BlockStore(dim, block_size, transport=ShardedTransport(shards))

    def test_placement_is_contiguous_and_covers_all_shards(self):
        t = ShardedTransport(3)
        store = BlockStore(64, 4)  # 16 blocks
        owners = [t._shard_of(store, b) for b in range(store.n_blocks)]
        assert owners == sorted(owners)
        assert set(owners) == {0, 1, 2}

    def test_roundtrip_and_remote_handles(self):
        store = self._store()
        rng = np.random.default_rng(7)
        expect = {}
        for b in (0, 3, 9, 15):
            arr = rng.normal(size=4) + 1j * rng.normal(size=4)
            store.write_block(b, arr)
            expect[b] = arr
        assert store.is_remote_backed
        # dict entries are opaque handles, payloads live shard-side
        assert not any(
            isinstance(h, np.ndarray) for h in store._blocks.values()
        )
        for b, arr in expect.items():
            np.testing.assert_array_equal(store.get_block(b), arr)
        np.testing.assert_array_equal(
            np.concatenate(store.get_block_many(0, 0)), expect[0]
        )

    def test_counters_accumulate(self):
        t = ShardedTransport(2)
        store = BlockStore(64, 4, transport=t)
        shipped0, reads0 = t.bytes_shipped, t.remote_reads
        store.write_block(2, np.ones(4, dtype=np.complex128))
        assert t.bytes_shipped == shipped0 + 4 * 16
        store._read_cache.clear()
        store.get_block(2)
        assert t.remote_reads == reads0 + 1

    def test_share_accounting_matches_local_totals(self):
        t = ShardedTransport(2)
        # shard processes are module-shared: start empty so the report
        # reflects only this test's payloads
        t._runtime.ensure_started()
        t.purge()
        a = BlockStore(64, 4, transport=t)
        rng = np.random.default_rng(3)
        for b in range(16):
            a.write_block(b, rng.normal(size=4) + 0j)
        b_store = BlockStore(64, 4, transport=t)
        adopted = b_store.share_from(a)
        assert adopted == 16
        assert b_store.shared_bytes() == a.allocated_bytes()
        report = MemoryReport.from_stores([a, b_store], transport=t)
        assert report.transport == "sharded"
        assert len(report.shards) == 2
        # shard-side owned bytes sum to the one real copy; the share shows
        # up as shard-side shared bytes, mirroring the parent-side split
        assert (
            sum(s["owned_bytes"] for s in report.shards) == a.allocated_bytes()
        )
        assert (
            sum(s["shared_bytes"] for s in report.shards)
            == b_store.shared_bytes()
        )
        a.release_remote()
        b_store.release_remote()

    def test_release_frees_shard_payloads(self):
        t = ShardedTransport(2)
        store = BlockStore(64, 4, transport=t)
        for b in range(16):
            store.write_block(b, np.ones(4, dtype=np.complex128))
        held = sum(s["blocks"] for s in t.shard_report())
        store.release_remote()
        assert sum(s["blocks"] for s in t.shard_report()) <= held - 16


@needs_fork
class TestPublishBatch:
    def test_batch_defers_the_ship_and_reads_see_pending(self):
        t = ShardedTransport(2)
        store = BlockStore(64, 4, transport=t)
        arr = np.arange(4, dtype=np.complex128)
        shipped0 = t.bytes_shipped
        with store.publish_batch():
            store.write_block(5, arr)
            # nothing crossed the wire yet; the read is served locally
            assert t.bytes_shipped == shipped0
            np.testing.assert_array_equal(store.get_block(5), arr)
            assert isinstance(store._blocks[5], np.ndarray)
        # the batch close shipped it and swapped in the remote handle
        assert t.bytes_shipped == shipped0 + arr.nbytes
        assert not isinstance(store._blocks[5], np.ndarray)
        np.testing.assert_array_equal(store.get_block(5), arr)
        store.release_remote()

    def test_contiguous_runs_ship_together(self):
        t = ShardedTransport(1)
        store = BlockStore(64, 4, transport=t)
        reads0 = t.remote_reads
        with store.publish_batch():
            for b in (3, 4, 5, 9):
                store.write_block(b, np.full(4, b, dtype=np.complex128))
        store._read_cache.clear()
        for b in (3, 4, 5, 9):
            np.testing.assert_array_equal(
                store.get_block(b), np.full(4, b, dtype=np.complex128)
            )
        assert t.remote_reads > reads0
        store.release_remote()

    def test_nested_batches_flush_once_at_the_outermost_exit(self):
        t = ShardedTransport(2)
        store = BlockStore(64, 4, transport=t)
        shipped0 = t.bytes_shipped
        with store.publish_batch():
            with store.publish_batch():
                store.write_block(0, np.ones(4, dtype=np.complex128))
            assert t.bytes_shipped == shipped0
        assert t.bytes_shipped > shipped0
        store.release_remote()

    def test_write_blocks_ships_one_range_per_contiguous_run(self):
        t = ShardedTransport(1)
        calls = []
        ship = t.write_range
        t.write_range = lambda store, first, arrays: (
            calls.append((first, len(arrays))) or ship(store, first, arrays)
        )
        store = BlockStore(64, 4, transport=t)
        rows = list(np.arange(20, dtype=np.complex128).reshape(5, 4))
        store.write_blocks([3, 4, 5, 9, 10], rows)
        assert calls == [(3, 3), (9, 2)]
        assert not any(isinstance(h, np.ndarray) for h in store._blocks.values())
        # inside a batch nothing ships until the close, then one run each
        del calls[:]
        with store.publish_batch():
            store.write_blocks([12, 0, 13], rows[:3])
            assert calls == []
            np.testing.assert_array_equal(store.get_block(0), rows[1])
        assert calls == [(0, 1), (12, 2)]
        store._read_cache.clear()
        np.testing.assert_array_equal(store.get_block(13), rows[2])
        np.testing.assert_array_equal(store.get_block(10), rows[4])
        store.release_remote()

    def test_batch_is_a_no_op_on_local_stores(self):
        store = BlockStore(16, 4)
        with store.publish_batch():
            store.write_block(0, np.ones(4, dtype=np.complex128))
        assert isinstance(store._blocks[0], np.ndarray)


# ---------------------------------------------------------------------------
# recovery: shard death and the store circuit breaker
# ---------------------------------------------------------------------------


def _build_sharded_sim(num_qubits=5, **knobs):
    circuit = Circuit(num_qubits)
    levels = [[Gate("h", (q,)) for q in range(num_qubits)]]
    levels.append([Gate("cx", (q, q + 1)) for q in range(0, num_qubits - 1, 2)])
    levels.append([Gate("rz", (q,), (0.2 + 0.1 * q,)) for q in range(num_qubits)])
    circuit.from_levels(levels)
    knobs.setdefault("block_size", 4)
    knobs.setdefault("num_workers", 2)
    return QTaskSimulator(circuit, store_transport="sharded", **knobs)


@needs_fork
class TestShardRecovery:
    def test_sigkilled_shard_respawns_and_update_completes(self):
        sim = _build_sharded_sim()
        try:
            sim.update_state()
            victim = sim._store_transport.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while sim._store_transport.healthy():
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("killed shard still reported alive")
                time.sleep(0.01)
            net = sim.circuit.insert_net()
            sim.circuit.insert_gate("x", net, 0)
            sim.update_state()
            stats = sim.statistics()
            assert stats["store_transport"] == "sharded"
            assert stats["store_shard_restarts"] >= 1
            assert stats["store_transitions"] == 0
            expected = reference_state(
                sim.circuit.num_qubits, circuit_levels(sim.circuit)
            )
            np.testing.assert_allclose(sim.state(), expected, atol=1e-10)
        finally:
            sim.close()

    def test_scripted_fault_storm_trips_breaker_to_local(self):
        # 5 consecutive store.shard faults make one TransportFailure;
        # 10 span two failures, which is the breaker threshold: the second
        # recovery swaps the session onto the local transport.  One worker
        # keeps the site-evaluation order (and so the failure count)
        # deterministic -- concurrent threads would split the fault run.
        sim = _build_sharded_sim(num_workers=1)
        try:
            faults.install(
                FaultPlan(script=[("store.shard", i) for i in range(1, 11)])
            )
            sim.update_state()
            faults.uninstall()
            stats = sim.statistics()
            assert stats["store_transport"] == "local"
            assert stats["store_transitions"] == 1
            transitions = sim.telemetry.events.events(kind="breaker.transition")
            assert transitions
            assert transitions[-1].fields["from"] == "sharded"
            assert transitions[-1].fields["to"] == "local"
            assert sim.telemetry.events.events(kind="store.recovery")
            expected = reference_state(
                sim.circuit.num_qubits, circuit_levels(sim.circuit)
            )
            np.testing.assert_allclose(sim.state(), expected, atol=1e-10)
        finally:
            sim.close()

    def test_single_failure_respawns_and_stays_sharded(self):
        sim = _build_sharded_sim(num_workers=1)
        try:
            faults.install(
                FaultPlan(script=[("store.shard", i) for i in range(1, 6)])
            )
            sim.update_state()
            faults.uninstall()
            stats = sim.statistics()
            assert stats["store_transport"] == "sharded"
            assert stats["store_transitions"] == 0
            assert sim.telemetry.events.events(kind="store.recovery")
            expected = reference_state(
                sim.circuit.num_qubits, circuit_levels(sim.circuit)
            )
            np.testing.assert_allclose(sim.state(), expected, atol=1e-10)
        finally:
            sim.close()

    def test_sharded_unavailable_falls_back_cleanly(self, monkeypatch):
        # simulate a platform without fork: selection degrades to local and
        # records the transition, instead of crashing at first write
        monkeypatch.delattr(os, "fork")
        transport, fell_back = make_transport("sharded")
        assert transport is LOCAL_TRANSPORT
        assert fell_back


class TestTransportInterfaceDefaults:
    def test_abstract_bytes_owned_uses_store_accounting(self):
        store = BlockStore(16, 4)
        store.write_block(0, np.ones(4, dtype=np.complex128))
        assert StorageTransport().bytes_owned(store) == store.allocated_bytes()

    def test_abstract_write_read_unimplemented(self):
        t = StorageTransport()
        with pytest.raises(NotImplementedError):
            t.write_range(None, 0, [])
        with pytest.raises(NotImplementedError):
            t.read_range(None, 0, 0)
