"""Unit tests for block resolution over the partition graph, and store writes.

The graph records each stage's cover: ``holders`` answers "which stores
hold these blocks as of stage k" in one backward walk, ``plan_sources``
resolves an update's reads once as ``(store, mask)`` pairs, and
:class:`IndexReader` serves amplitudes through either.  Stores know nothing
of the graph, so every case here writes stores by hand.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockRange, aligned_block_runs
from repro.core.cow import BlockStore, IndexReader, InitialStateStore
from repro.core.exec_plan import StagePlan

from ..conftest import (
    DeclaringStage, StoreChain, assert_sources_come_from_earlier_plans,
    block_mask, index_over, newest_holder, put_blocks, resolve_store,
)


def _stage(*ranges, qubits=5, block=4):
    return DeclaringStage(qubits, block, ranges)


def _index_with_layers():
    """initial |0..0>, seq0 declares+writes blocks 1-2, seq1 overwrites block 2."""
    init = InitialStateStore(32, 4)
    a, b = _stage((1, 2)), _stage((2, 2))
    graph = index_over([a, b])
    put_blocks(a.store, 1, np.full(4, 10.0, dtype=complex))
    put_blocks(a.store, 2, np.full(4, 20.0, dtype=complex))
    put_blocks(b.store, 2, np.full(4, 99.0, dtype=complex))
    return init, a, b, graph


def _resolve(graph, init, block, before_seq):
    return resolve_store(IndexReader(graph, init, before_seq), block)


def _plan(stage, ranges):
    """The plan recomputing ``ranges`` (``(first, last)`` pairs or block
    ranges) of ``stage``, with its mask."""
    ranges = [r if isinstance(r, BlockRange) else BlockRange(*r) for r in ranges]
    return StagePlan(stage, ranges, mask=block_mask(b for r in ranges for b in r))


# ---------------------------------------------------------------------------
# as-of resolution over the index
# ---------------------------------------------------------------------------


def test_resolve_store_picks_most_recent_writer():
    init, a, b, g = _index_with_layers()
    assert _resolve(g, init, 2, 2) is b.store
    assert _resolve(g, init, 2, 1) is a.store   # "as of" seq 1: b excluded
    assert _resolve(g, init, 1, 2) is a.store
    assert _resolve(g, init, 0, 2) is init      # nobody declares block 0
    assert _resolve(g, init, 2, 0) is init      # before any writer
    assert g.holders(0b001, 2) == [] and g.holders(0b100, 0) == []
    # one walk resolves every block of a mask
    assert g.holders(0b111, 2) == [(b.store, 0b100), (a.store, 0b010)]


def test_resolve_block_values():
    init, _, _, g = _index_with_layers()
    assert IndexReader(g, init, 2).read_blocks([2])[0] == 99.0
    assert IndexReader(g, init, 1).read_blocks([2])[0] == 20.0
    assert IndexReader(g, init, 2).read_blocks([0])[0] == 1.0


def test_a_declarer_holding_nothing_is_stepped_over():
    """No store callbacks: drop/clear/release simply stop holding."""
    init, a, b, g = _index_with_layers()
    b.store.drop_blocks([2])
    assert _resolve(g, init, 2, 2) is a.store
    a.store.clear()
    assert _resolve(g, init, 2, 2) is init
    assert g.holders(0b10, 2) == []
    put_blocks(b.store, 2, np.full(4, 5.0, dtype=complex))
    b.store.release()
    assert _resolve(g, init, 2, 2) is init


def test_removed_stage_leaves_the_index():
    init, a, b, g = _index_with_layers()
    g.remove_stage(a)
    assert _resolve(g, init, 1, 2) is init
    assert _resolve(g, init, 2, 2) is b.store
    # a removed stage's store is out of every later resolution
    put_blocks(a.store, 3, np.zeros(4, dtype=complex))
    assert g.holders(1 << 3, 2) == []


def test_stage_entering_with_held_blocks_resolves():
    init = InitialStateStore(32, 4)
    o = _stage((5, 5))
    put_blocks(o.store, 5, np.full(4, 7.0, dtype=complex))
    g = index_over([o])
    assert _resolve(g, init, 5, 1) is o.store


def test_resolution_follows_stage_order_not_write_order():
    init = InitialStateStore(32, 4)
    stages = [_stage((0, 0)) for _ in range(4)]
    g = index_over(stages[:1])
    # enter out of order (positions 1, 1, 1 push earlier arrivals back) ...
    for stage in stages[1:]:
        g.insert_stage(stage, 1)
    order = g.stages
    assert [s.seq for s in order] == [0, 1, 2, 3]
    # ... and write in yet another order
    for stage in (order[3], order[0], order[2], order[1]):
        put_blocks(stage.store, 0, np.full(4, float(stage.seq), dtype=complex))
    assert _resolve(g, init, 0, 0) is init
    for k in range(1, 5):
        assert _resolve(g, init, 0, k).get_block(0)[0] == k - 1


def test_owner_runs_groups_consecutive_blocks():
    init, a, b, g = _index_with_layers()
    runs = IndexReader(g, init, 2).owner_runs(range(8))
    assert runs == [(init, 0, 0), (a.store, 1, 1), (b.store, 2, 2), (init, 3, 7)]


# ---------------------------------------------------------------------------
# planned sources: resolved once, looked up per read
# ---------------------------------------------------------------------------


class _CountingIndex:
    """Forwards to a graph and records the masks it is walked for."""

    def __init__(self, graph):
        self.graph = graph
        self.searches = []

    def holders(self, mask, before_seq):
        self.searches.append(mask)
        return self.graph.holders(mask, before_seq)


def _planned_case():
    """Three stages rewriting blocks 0-3; the last two are the update."""
    init = InitialStateStore(32, 4)
    stages = [_stage((0, 3)), _stage((0, 1), (3, 3)), _stage((0, 3))]
    g = index_over(stages)
    for stage in stages:
        for r in stage.ranges:
            for blk in r:
                put_blocks(stage.store, blk, np.full(4, 10.0 * stage.seq + blk))
    return init, stages, g


def test_plan_sources_lists_the_closest_earlier_declarer():
    init, (s0, s1, s2), g = _planned_case()
    plans = [_plan(s1, s1.ranges), _plan(s2, s2.ranges)]
    t1, t2 = tables = g.plan_sources(plans, init)
    assert dict(t1) == {s0.store: 0b1011}
    assert dict(t2) == {s1.store: 0b1011, s0.store: 0b0100}
    # s2 reads the planned s1 before it, never a plan at or after its own
    assert_sources_come_from_earlier_plans(plans, tables)
    # the first stage of a circuit reads the initial state
    assert g.plan_sources([_plan(s0, s0.ranges)], init) == [[(init, 0b1111)]]
    # only the recomputed ranges are planned: memory is O(affected blocks)
    (part,) = g.plan_sources([_plan(s2, [(2, 3)])], init)
    assert dict(part) == {s0.store: 0b0100, s1.store: 0b1000}
    # with every stage planned, each reads only plans listed before it
    plans = [_plan(s, s.ranges) for s in (s0, s1, s2)]
    assert_sources_come_from_earlier_plans(plans, g.plan_sources(plans, init))


def test_planned_sources_equal_the_newest_holder_scan():
    init, stages, g = _planned_case()
    tables = g.plan_sources([_plan(s, s.ranges) for s in stages], init)
    for stage, table in zip(stages, tables):
        assert sum(mask for _, mask in table) == block_mask(
            b for r in stage.ranges for b in r
        )
        for store, mask in table:
            for blk in range(mask.bit_length()):
                if mask >> blk & 1:
                    assert store is newest_holder(init, stages, blk, stage.seq)


def test_planned_read_never_searches_the_index():
    init, (s0, s1, s2), g = _planned_case()
    (table,) = g.plan_sources([_plan(s2, s2.ranges)], init)
    index = _CountingIndex(g)
    reader = IndexReader(index, init, s2.seq, table)
    np.testing.assert_array_equal(
        reader.read_blocks([0, 1, 2, 3]),
        StoreChain([init, s0.store, s1.store]).read_blocks([0, 1, 2, 3]),
    )
    assert index.searches == []
    # a block outside the table is searched for, as of the stage
    assert resolve_store(reader, 5) is init
    assert index.searches == [1 << 5]


def test_planned_source_holding_nothing_falls_back_to_the_older_holder():
    init, (s0, s1, s2), g = _planned_case()
    (table,) = g.plan_sources([_plan(s2, s2.ranges)], init)
    s1.store.drop_blocks([1])     # e.g. a failed publish left s1 half-written
    index = _CountingIndex(g)
    reader = IndexReader(index, init, s2.seq, table)
    assert reader.owner_runs([0, 1, 2]) == [
        (s1.store, 0, 0), (s0.store, 1, 2),
    ]
    assert index.searches == [0b10]   # only the block whose source held nothing
    s0.store.clear()
    assert resolve_store(reader, 1) is init


# ---------------------------------------------------------------------------
# IndexReader == StoreChain
# ---------------------------------------------------------------------------


def test_index_reader_matches_chain():
    init, a, b, g = _index_with_layers()
    chain = StoreChain([init, a.store, b.store])
    reader = IndexReader(g, init, 2)
    np.testing.assert_array_equal(reader.full_vector(), chain.full_vector())
    np.testing.assert_array_equal(reader.read_range(5, 11), chain.read_range(5, 11))


def test_index_reader_invalid_range():
    init, _, _, g = _index_with_layers()
    reader = IndexReader(g, init, 2)
    with pytest.raises(ValueError):
        reader.read_range(-1, 3)
    with pytest.raises(ValueError):
        reader.read_range(3, 2)
    with pytest.raises(ValueError):
        reader.read_range(0, 32)


def test_index_reader_returns_copy():
    init, _, b, g = _index_with_layers()
    out = IndexReader(g, init, 2).read_range(8, 11)
    out[:] = -1
    assert b.store.get_block(2)[0] == 99.0


# ---------------------------------------------------------------------------
# single-copy / zero-copy writes
# ---------------------------------------------------------------------------


def test_write_block_nocopy_adopts_array():
    s = BlockStore(32, 4)
    data = np.zeros(4, dtype=complex)
    s.write_blocks([0], [data])
    assert s.get_block(0) is data


def test_write_block_dtype_conversion_is_single_copy():
    """No conversion on the way in: a row that is not complex128 is refused
    (kernels publish complex128 outputs as they are)."""
    s = BlockStore(32, 4)
    with pytest.raises(ValueError, match="complex128"):
        s.write_blocks([0], [np.arange(4, dtype=np.float64)])
    assert s.held == 0


def test_write_block_out_of_range_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_blocks([8], [np.zeros(4, dtype=complex)])


def test_write_range_nocopy_stores_views():
    s = BlockStore(32, 4)
    data = np.arange(8, dtype=complex)
    s.write_blocks([1, 2], list(data.reshape(2, 4)))
    assert s.get_block(1).base is data
    assert s.get_block(2).base is data
    np.testing.assert_array_equal(s.get_block(2), np.arange(4, 8))


def test_write_range_partial_block_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_blocks([1, 2], [np.zeros(4, dtype=complex), np.zeros(2, dtype=complex)])
    assert s.held == 0


def test_write_range_past_end_raises():
    s = BlockStore(32, 4)
    with pytest.raises(ValueError):
        s.write_blocks([7, 8], list(np.zeros((2, 4), dtype=complex)))
    assert s.held == 0


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
