"""Unit tests for the block directory, directory readers and store writes."""

import numpy as np
import pytest

from repro.core.blocks import aligned_block_runs
from repro.core.cow import (
    BlockDirectory,
    BlockStore,
    DirectoryReader,
    InitialStateStore,
    StoreChain,
)


class _Owner:
    """Minimal stage stand-in: a store plus a global sequence index."""

    def __init__(self, seq, dim=32, block=4):
        self.seq = seq
        self.store = BlockStore(dim, block)


def _directory_with_layers():
    """initial |0..0>, seq0 writes blocks 1-2, seq1 overwrites block 2."""
    init = InitialStateStore(32, 4)
    directory = BlockDirectory(init)
    a, b = _Owner(0), _Owner(1)
    directory.attach(a)
    directory.attach(b)
    a.store.write_block(1, np.full(4, 10.0, dtype=complex))
    a.store.write_block(2, np.full(4, 20.0, dtype=complex))
    b.store.write_block(2, np.full(4, 99.0, dtype=complex))
    return init, a, b, directory


# ---------------------------------------------------------------------------
# directory maintenance + resolution
# ---------------------------------------------------------------------------


def test_resolve_store_picks_most_recent_writer():
    init, a, b, d = _directory_with_layers()
    assert d.resolve_store(2, 2) is b.store
    assert d.resolve_store(2, 1) is a.store   # "as of" seq 1: b excluded
    assert d.resolve_store(1, 2) is a.store
    assert d.resolve_store(0, 2) is init      # nobody wrote block 0
    assert d.resolve_store(2, 0) is init      # before any writer


def test_resolve_block_values():
    _, _, _, d = _directory_with_layers()
    assert d.resolve_block(2, 2)[0] == 99.0
    assert d.resolve_block(2, 1)[0] == 20.0
    assert d.resolve_block(0, 2)[0] == 1.0


def test_drop_and_clear_update_directory():
    _, a, b, d = _directory_with_layers()
    b.store.drop_block(2)
    assert d.resolve_store(2, 2) is a.store
    a.store.clear()
    assert d.resolve_store(2, 2) is d.initial
    assert d.writers_of(1) == ()


def test_detach_purges_entries():
    _, a, b, d = _directory_with_layers()
    d.detach(a)
    assert d.resolve_store(1, 2) is d.initial
    assert d.resolve_store(2, 2) is b.store
    # a detached store no longer reports writes
    a.store.write_block(3, np.zeros(4, dtype=complex))
    assert d.writers_of(3) == ()


def test_attach_adopts_existing_blocks():
    init = InitialStateStore(32, 4)
    d = BlockDirectory(init)
    o = _Owner(0)
    o.store.write_block(5, np.full(4, 7.0, dtype=complex))
    d.attach(o)
    assert d.resolve_store(5, 1) is o.store


def test_writers_sorted_by_seq_regardless_of_write_order():
    init = InitialStateStore(32, 4)
    d = BlockDirectory(init)
    owners = [_Owner(s) for s in (3, 0, 2, 1)]
    for o in owners:
        d.attach(o)
        o.store.write_block(0, np.full(4, float(o.seq), dtype=complex))
    assert [o.seq for o in d.writers_of(0)] == [0, 1, 2, 3]
    for k in range(5):
        expect = init if k == 0 else d.resolve_store(0, k)
        if k:
            assert expect.get_block(0)[0] == k - 1


def test_owner_runs_groups_consecutive_blocks():
    _, a, b, d = _directory_with_layers()
    runs = DirectoryReader(d, 2).owner_runs(range(8))
    assert runs == [(d.initial, 0, 0), (a.store, 1, 1), (b.store, 2, 2),
                    (d.initial, 3, 7)]


# ---------------------------------------------------------------------------
# DirectoryReader == StoreChain
# ---------------------------------------------------------------------------


def test_directory_reader_matches_chain():
    init, a, b, d = _directory_with_layers()
    chain = StoreChain([init, a.store, b.store])
    reader = DirectoryReader(d, 2)
    np.testing.assert_array_equal(reader.full_vector(), chain.full_vector())
    np.testing.assert_array_equal(reader.read_range(5, 11), chain.read_range(5, 11))
    idx = np.array([0, 31, 8, 5, 8, 1], dtype=np.int64)
    np.testing.assert_array_equal(reader.gather(idx), chain.gather(idx))


def test_directory_reader_invalid_range():
    _, _, _, d = _directory_with_layers()
    reader = DirectoryReader(d, 2)
    with pytest.raises(ValueError):
        reader.read_range(-1, 3)
    with pytest.raises(ValueError):
        reader.read_range(3, 2)
    with pytest.raises(ValueError):
        reader.read_range(0, 32)


def test_directory_reader_returns_copy():
    _, _, b, d = _directory_with_layers()
    out = DirectoryReader(d, 2).read_range(8, 11)
    out[:] = -1
    assert b.store.get_block(2)[0] == 99.0


# ---------------------------------------------------------------------------
# single-copy / zero-copy writes
# ---------------------------------------------------------------------------


def test_write_block_default_still_copies():
    s = BlockStore(32, 4)
    data = np.zeros(4, dtype=complex)
    s.write_block(0, data)
    data[0] = 99
    assert s.get_block(0)[0] == 0


def test_write_block_nocopy_adopts_array():
    s = BlockStore(32, 4)
    data = np.zeros(4, dtype=complex)
    s.write_block(0, data, copy=False)
    assert s.get_block(0) is data


def test_write_block_dtype_conversion_is_single_copy():
    s = BlockStore(32, 4)
    data = np.arange(4, dtype=np.float64)
    s.write_block(0, data)
    got = s.get_block(0)
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, data)


def test_write_block_out_of_range_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_block(8, np.zeros(4, dtype=complex))


def test_write_range_nocopy_stores_views():
    s = BlockStore(32, 4)
    data = np.arange(8, dtype=complex)
    s.write_range(4, data, copy=False)
    assert s.get_block(1).base is data
    assert s.get_block(2).base is data
    np.testing.assert_array_equal(s.get_block(2), np.arange(4, 8))


def test_write_range_copy_detaches_from_caller():
    s = BlockStore(32, 4)
    data = np.arange(8, dtype=complex)
    s.write_range(4, data)
    data[:] = -1
    np.testing.assert_array_equal(s.get_block(1), np.arange(4))


def test_write_range_partial_block_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_range(4, np.zeros(6, dtype=complex))


def test_write_range_past_end_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_range(28, np.zeros(8, dtype=complex))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_initial_read_dense_matches_blocks():
    init = InitialStateStore(32, 4)
    dense = init.read_dense(0, 31)
    assert not init._blocks  # read_dense must not cache zero blocks
    np.testing.assert_array_equal(dense, StoreChain([init]).full_vector())
    np.testing.assert_array_equal(init.read_dense(5, 11), dense[5:12])
    assert init.allocated_bytes() == 0


@pytest.mark.parametrize("first,last,cap", [
    (0, 63, 64), (3, 17, 8), (5, 5, 64), (1, 62, 16), (7, 8, 4),
])
def test_aligned_block_runs_cover_exactly(first, last, cap):
    runs = aligned_block_runs(first, last, cap)
    covered = []
    for lo, hi in runs:
        size = hi - lo + 1
        assert size & (size - 1) == 0, "run length must be a power of two"
        assert lo % size == 0, "run must be aligned to its length"
        assert size <= cap
        covered.extend(range(lo, hi + 1))
    assert covered == list(range(first, last + 1))


def test_aligned_block_runs_bad_cap():
    with pytest.raises(ValueError):
        aligned_block_runs(0, 7, 3)
