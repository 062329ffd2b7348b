"""Tests for the copy-on-write block stores and store chains."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cow import BlockStore, InitialStateStore, MemoryReport, RoutedStore

from ..conftest import StoreChain, put_blocks


def _store(dim=32, block=4):
    return BlockStore(dim, block)


def test_write_and_get_block_roundtrip():
    s = _store()
    data = np.arange(4, dtype=complex)
    s.write_blocks([2], [data])
    np.testing.assert_allclose(s.get_block(2), data)
    assert s.held >> 2 & 1
    assert not s.held >> 3 & 1


def test_write_block_wrong_size_raises():
    s = _store()
    with pytest.raises(ValueError):
        s.write_blocks([0], [np.zeros(3, dtype=complex)])


def test_write_range_spans_blocks():
    s = _store()
    s.write_blocks(range(1, 3), list(np.arange(8, dtype=complex).reshape(2, 4)))
    np.testing.assert_allclose(s.get_block(1), np.arange(4))
    np.testing.assert_allclose(s.get_block(2), np.arange(4, 8))


def test_write_range_unaligned_raises():
    s = _store()
    with pytest.raises(ValueError):
        s.write_blocks([-1], [np.zeros(4, dtype=complex)])
    assert s.held == 0


def test_drop_and_clear():
    s = _store()
    put_blocks(s, 1, np.zeros(4, dtype=complex))
    s.drop_blocks([1])
    assert not s.held >> 1 & 1
    put_blocks(s, 1, np.zeros(4, dtype=complex))
    s.clear()
    assert s.num_stored_blocks == 0


def test_allocated_bytes_counts_only_stored_blocks():
    s = _store()
    assert s.allocated_bytes() == 0
    put_blocks(s, 0, np.zeros(4, dtype=complex))
    assert s.allocated_bytes() == 4 * 16


# ---------------------------------------------------------------------------
# InitialStateStore
# ---------------------------------------------------------------------------


def test_initial_state_store_block0_has_unit_amplitude():
    init = InitialStateStore(32, 4)
    blk = init.get_block(0)
    assert blk[0] == 1.0
    assert np.all(blk[1:] == 0)


def test_initial_state_store_other_blocks_zero():
    init = InitialStateStore(32, 4)
    for b in range(1, 8):
        assert np.all(init.get_block(b) == 0)


def test_initial_state_store_every_block_defined():
    init = InitialStateStore(32, 4)
    assert init.held == 0xFF  # every block, and only those


def test_initial_state_store_out_of_range_raises():
    init = InitialStateStore(32, 4)
    with pytest.raises(IndexError):
        init.get_block(9)


def test_initial_state_store_excluded_from_accounting():
    init = InitialStateStore(32, 4)
    init.get_block(0)
    assert init.allocated_bytes() == 0


# ---------------------------------------------------------------------------
# StoreChain
# ---------------------------------------------------------------------------


def _chain_with_layers():
    """initial |0..0>, layer A writes blocks 1-2, layer B overwrites block 2."""
    init = InitialStateStore(32, 4)
    a = BlockStore(32, 4)
    put_blocks(a, 1, np.full(4, 10.0, dtype=complex))
    put_blocks(a, 2, np.full(4, 20.0, dtype=complex))
    b = BlockStore(32, 4)
    put_blocks(b, 2, np.full(4, 99.0, dtype=complex))
    return init, a, b, StoreChain([init, a, b])


def test_chain_resolves_most_recent_writer():
    _, _, _, chain = _chain_with_layers()
    assert chain.read_blocks([2])[0] == 99.0
    assert chain.read_blocks([1])[0] == 10.0
    assert chain.read_blocks([0])[0] == 1.0   # initial state
    assert chain.read_blocks([5])[0] == 0.0


def test_chain_read_range_across_blocks():
    _, _, _, chain = _chain_with_layers()
    out = chain.read_range(4, 11)  # blocks 1 and 2
    np.testing.assert_allclose(out[:4], 10.0)
    np.testing.assert_allclose(out[4:], 99.0)


def test_chain_read_range_partial_block():
    _, _, _, chain = _chain_with_layers()
    out = chain.read_range(5, 6)
    np.testing.assert_allclose(out, [10.0, 10.0])


def test_chain_read_range_invalid_bounds():
    _, _, _, chain = _chain_with_layers()
    with pytest.raises(ValueError):
        chain.read_range(-1, 3)
    with pytest.raises(ValueError):
        chain.read_range(3, 2)
    with pytest.raises(ValueError):
        chain.read_range(0, 32)


def test_chain_full_vector():
    _, _, _, chain = _chain_with_layers()
    vec = chain.full_vector()
    assert vec.shape == (32,)
    assert vec[0] == 1.0 and vec[4] == 10.0 and vec[8] == 99.0


def test_chain_gather_matches_full_vector():
    """Historical id (``gather`` is gone): single-amplitude reads agree."""
    _, _, _, chain = _chain_with_layers()
    idx = [0, 31, 8, 5, 8, 1]
    assert [chain.read_range(i, i)[0] for i in idx] == list(chain.full_vector()[idx])


def test_chain_requires_consistent_stores():
    with pytest.raises(ValueError):
        StoreChain([BlockStore(32, 4), BlockStore(64, 4)])
    with pytest.raises(ValueError):
        StoreChain([])


def test_chain_read_range_returns_copy():
    _, _, b, chain = _chain_with_layers()
    out = chain.read_range(8, 11)
    out[:] = -1
    assert b.get_block(2)[0] == 99.0


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 7), st.floats(-5, 5)),
        max_size=12,
    ),
    idx=st.lists(st.integers(0, 31), min_size=1, max_size=10),
)
def test_chain_gather_property(writes, idx):
    """Reads always agree with resolving block by block."""
    init = InitialStateStore(32, 4)
    layers = [BlockStore(32, 4) for _ in range(3)]
    dense = np.zeros(32, dtype=complex)
    dense[0] = 1.0
    # apply writes in layer order so the chain semantics match the dense model
    for layer_order in range(3):
        for layer, block, value in writes:
            if layer != layer_order:
                continue
            data = np.full(4, value, dtype=complex)
            put_blocks(layers[layer], block, data)
            dense[block * 4 : block * 4 + 4] = value
    chain = StoreChain([init] + layers)
    np.testing.assert_allclose(chain.full_vector()[idx], dense[idx])


def test_reads_of_never_written_blocks_cache_nothing_in_the_initial_store():
    """Regression: a read used to resolve never-written blocks through
    ``InitialStateStore.get_block``, which allocates *and keeps* one zero
    block per block touched -- memory ``allocated_bytes()`` reports as 0."""
    init, _, _, chain = _chain_with_layers()
    idx = np.array([0, 1, 13, 31, 20], dtype=np.int64)
    np.testing.assert_array_equal(chain.full_vector()[idx], [1.0, 0.0, 0.0, 0.0, 0.0])
    out = chain.read_blocks([7, 0, 3])
    assert out.shape == (12,)
    assert out[4] == 1.0 and np.count_nonzero(out) == 1
    np.testing.assert_array_equal(chain.read_range(12, 19), np.zeros(8))
    assert init._blocks == {}


def test_read_blocks_follows_list_order_and_returns_owned_memory():
    _, a, b, chain = _chain_with_layers()
    out = chain.read_blocks([2, 0, 1])
    np.testing.assert_array_equal(out[:4], 99.0)
    assert out[4] == 1.0
    np.testing.assert_array_equal(out[8:], 10.0)
    single = chain.read_blocks([1])
    single[:] = -1  # a fresh array even for a single held block
    assert a.get_block(1)[0] == 10.0
    # consecutive same-owner blocks are one run, a gap or another owner cuts
    runs = chain.owner_runs([1, 2, 3, 4, 6])
    assert [(first, last) for _, first, last in runs] == [(1, 1), (2, 2), (3, 4), (6, 6)]
    assert runs[0][0] is a and runs[1][0] is b


def test_write_blocks_publishes_scattered_blocks_zero_copy():
    s = _store()
    out = np.arange(12, dtype=complex)
    rows = list(out.reshape(3, 4))
    s.write_blocks([5, 0, 6], rows)
    assert s.stored_blocks() == (0, 5, 6)
    assert s.get_block(5) is rows[0]  # adopted, not copied
    np.testing.assert_array_equal(s.get_block(6), [8, 9, 10, 11])
    with pytest.raises(ValueError):
        s.write_blocks([1, 2], rows)
    with pytest.raises(ValueError):
        s.write_blocks([1], [np.zeros(3, dtype=complex)])
    with pytest.raises(ValueError):
        s.write_blocks([1], [np.zeros(4, dtype=float)])
    with pytest.raises(ValueError):
        s.write_blocks([8], [np.zeros(4, dtype=complex)])
    assert s.stored_blocks() == (0, 5, 6)


def test_write_blocks_returns_the_arrays_themselves():
    """No copy on the way in: ``write_blocks`` keeps the rows it is given."""
    s = _store()
    rows = [np.full(4, float(b), dtype=complex) for b in range(3)]
    s.write_blocks([2, 3, 4], rows)
    assert all(s.get_block(b) is row for b, row in zip((2, 3, 4), rows))


def test_read_blocks_returns_stored_arrays():
    """No copy on the way out: ``get_block`` / ``get_block_many`` hand the
    stored arrays back as they are."""
    s = _store()
    arr = np.arange(4, dtype=complex)
    s.write_blocks([1], [arr])
    (got,) = s.get_block_many(1, 1)
    assert got is arr
    assert s.get_block(1) is arr


# ---------------------------------------------------------------------------
# MemoryReport
# ---------------------------------------------------------------------------


def test_memory_report_accounting():
    a = BlockStore(32, 4)
    put_blocks(a, 0, np.zeros(4, dtype=complex))
    b = BlockStore(32, 4)
    report = MemoryReport.from_stores([a, b])
    assert report.num_stores == 2
    assert report.stored_blocks == 1
    assert report.total_blocks == 16
    assert report.allocated_bytes == 64
    assert report.dense_bytes == 2 * 32 * 16
    assert 0.9 < report.savings_fraction <= 1.0


def test_memory_report_empty():
    report = MemoryReport.from_stores([])
    assert report.allocated_bytes == 0
    assert report.savings_fraction == 0.0


# ---------------------------------------------------------------------------
# cross-store sharing (session forking)
# ---------------------------------------------------------------------------


def test_share_from_adopts_blocks_by_reference():
    parent = BlockStore(32, 4)
    put_blocks(parent, 0, np.full(4, 1.0, dtype=complex))
    put_blocks(parent, 3, np.full(4, 2.0, dtype=complex))
    child = BlockStore(32, 4)
    adopted = child.share_from(parent)
    assert adopted == 2
    assert child.stored_blocks() == (0, 3)
    assert child.get_block(0) is parent.get_block(0)  # same memory
    assert child.shared_block_count == 2
    assert child.shared_bytes() == child.allocated_bytes()
    assert (child.shared, parent.shared) == (0b1001, 0)
    # adopted blocks are sealed read-only (published blocks are immutable)
    with pytest.raises(ValueError):
        child.get_block(0)[0] = 9.0


def test_share_from_copy_on_first_write_releases_refs():
    parent = BlockStore(32, 4)
    for b in range(3):
        put_blocks(parent, b, np.full(4, b + 1.0, dtype=complex))
    child = BlockStore(32, 4)
    child.share_from(parent)
    put_blocks(child, 1, np.full(4, -1.0, dtype=complex))
    # the child rebound its entry; the parent's block is untouched
    np.testing.assert_allclose(parent.get_block(1), np.full(4, 2.0))
    np.testing.assert_allclose(child.get_block(1), np.full(4, -1.0))
    assert child.get_block(1) is not parent.get_block(1)
    assert (child.shared, child.shared_block_count) == (0b101, 2)
    # drop and clear unmark the remaining blocks
    child.drop_blocks([0])
    assert (child.shared, child.shared_bytes()) == (0b100, child.allocated_bytes() // 2)
    child.clear()
    assert child.shared == child.shared_bytes() == 0


def test_share_from_multiple_children_refcounts():
    parent = BlockStore(16, 4)
    put_blocks(parent, 2, np.full(4, 5.0, dtype=complex))
    children = [BlockStore(16, 4) for _ in range(3)]
    for c in children:
        c.share_from(parent)
    assert [c.shared for c in children] == [0b100] * 3
    put_blocks(children[0], 2, np.zeros(4, dtype=complex))
    assert [c.shared for c in children] == [0, 0b100, 0b100]
    # chained sharing: the grandchild's mask is its own, the child's stays
    grandchild = BlockStore(16, 4)
    grandchild.share_from(children[1])
    assert grandchild.shared == children[1].shared == 0b100
    assert grandchild.get_block(2) is parent.get_block(2)
    assert children[0].shared_bytes() == parent.shared_bytes() == 0


def test_share_from_rejects_mismatched_geometry():
    a = BlockStore(32, 4)
    b = BlockStore(32, 8)
    with pytest.raises(ValueError, match="identical dim"):
        b.share_from(a)


def test_share_from_seals_the_origins_blocks():
    """The seal is on the arrays themselves: the origin's own references
    turn read-only too, so neither side can write what the other reads."""
    parent = BlockStore(32, 4)
    parent.write_blocks([0, 1], list(np.arange(8, dtype=complex).reshape(2, 4)))
    assert parent.get_block(0).flags.writeable
    BlockStore(32, 4).share_from(parent)
    assert not any(parent.get_block(b).flags.writeable for b in (0, 1))


def test_memory_report_accounts_shared_bytes():
    parent = BlockStore(32, 4)
    put_blocks(parent, 0, np.zeros(4, dtype=complex))
    put_blocks(parent, 1, np.zeros(4, dtype=complex))
    child = BlockStore(32, 4)
    child.share_from(parent)
    put_blocks(child, 2, np.zeros(4, dtype=complex))  # owned outright
    report = MemoryReport.from_stores([child])
    assert report.stored_blocks == 3
    assert report.shared_blocks == 2
    assert report.shared_bytes == 2 * 64
    assert report.owned_bytes == 64
    both = MemoryReport.from_stores([parent, child])
    assert both.allocated_bytes == 5 * 64
    assert both.owned_bytes == 3 * 64  # de-duplicated fleet footprint


def test_concurrent_publishes_keep_every_held_bit():
    """The chunks of one plan publish into one store from worker threads: no
    ``held`` update may be lost, or a read would step over a held block."""
    store = BlockStore(4 * 4096, 4)
    row = np.zeros(4, dtype=complex)
    threads = 8

    def publish(k):
        for b in range(k, store.n_blocks, threads):
            store.write_blocks([b], [row])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            store.clear()
            workers = [
                threading.Thread(target=publish, args=(k,)) for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert store.held == (1 << store.n_blocks) - 1
    finally:
        sys.setswitchinterval(old_interval)
    assert store.stored_blocks() == tuple(range(store.n_blocks))


# ---------------------------------------------------------------------------
# RoutedStore: the write surface of a coalesced run
# ---------------------------------------------------------------------------


def _routed():
    """Three member stores over 8 blocks: a owns 0-1, b nothing, c 2-3 and 6."""
    a, b, c = _store(), _store(), _store()
    return (a, b, c), RoutedStore([a, b, c], [0b11, 0, 0b1001100])


def test_routed_store_hands_each_block_to_its_owner():
    (a, b, c), routed = _routed()
    assert (routed.dim, routed.block_size) == (32, 4)
    rows = [np.full(4, float(blk), dtype=complex) for blk in (6, 0, 3)]
    routed.write_blocks([6, 0, 3], rows)
    assert a.stored_blocks() == (0,) and c.stored_blocks() == (3, 6)
    assert b.stored_blocks() == ()
    assert c.get_block(6) is rows[0]  # adopted zero-copy, like write_blocks
    # a stretch is cut per block, whoever owns which: blocks 0-3 in one call
    values = np.arange(16, dtype=complex)
    routed.write_blocks(range(4), list(values.reshape(4, 4)))
    assert a.stored_blocks() == (0, 1) and c.stored_blocks() == (2, 3, 6)
    np.testing.assert_array_equal(c.get_block(2), values[8:12])
    assert np.shares_memory(c.get_block(2), values)


def test_routed_store_rejects_what_a_store_rejects():
    _, routed = _routed()
    with pytest.raises(ValueError, match="complex128"):
        routed.write_blocks([0], [np.zeros(6, dtype=complex)])  # not a whole block
    with pytest.raises(KeyError):
        routed.write_blocks([4], [np.zeros(4, dtype=complex)])  # nobody owns 4


def test_routed_store_settle_drops_what_members_do_not_own():
    (a, b, c), routed = _routed()
    for store in (a, b, c):  # copies from when each stage ran alone
        for blk in range(4):
            put_blocks(store, blk, np.full(4, 9.0, dtype=complex))
    routed.settle()
    assert a.stored_blocks() == (0, 1)
    assert b.stored_blocks() == ()
    assert c.stored_blocks() == (2, 3)
    a.keep_only(0)
    assert a.stored_blocks() == ()
