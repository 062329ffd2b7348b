"""Tests for block arithmetic, block ranges and block sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core.blocks import (
    BlockRange,
    DEFAULT_BLOCK_SIZE,
    block_bounds,
    block_of,
    default_block_size,
    mask_blocks,
    mask_ranges,
    merge_overlapping,
    num_blocks,
    validate_block_size,
)


def test_default_block_size_matches_paper():
    assert DEFAULT_BLOCK_SIZE == 256


@pytest.mark.parametrize("value", [1, 2, 4, 256, 1 << 20])
def test_validate_block_size_accepts_powers_of_two(value):
    assert validate_block_size(value) == value


@pytest.mark.parametrize("value", [0, -1, 3, 5, 100, 257])
def test_validate_block_size_rejects_non_powers(value):
    with pytest.raises(ValueError):
        validate_block_size(value)


def test_num_blocks_basic():
    assert num_blocks(32, 4) == 8
    assert num_blocks(4, 4) == 1
    assert num_blocks(2, 4) == 1  # short single block


def test_num_blocks_rejects_nonpositive():
    with pytest.raises(ValueError):
        num_blocks(0, 4)


def test_block_of_and_bounds():
    assert block_of(0, 4) == 0
    assert block_of(17, 4) == 4
    assert block_bounds(4, 4, 32) == (16, 19)
    assert block_bounds(0, 8, 4) == (0, 3)  # clipped short block


# ---------------------------------------------------------------------------
# BlockRange
# ---------------------------------------------------------------------------


def test_block_range_validation():
    with pytest.raises(ValueError):
        BlockRange(3, 2)
    with pytest.raises(ValueError):
        BlockRange(-1, 2)


def test_block_range_len_contains_iter():
    r = BlockRange(2, 5)
    assert len(r) == 4
    assert 3 in r and 6 not in r
    assert list(r) == [2, 3, 4, 5]


def test_block_range_intersects():
    assert BlockRange(0, 3).intersects(BlockRange(3, 5))
    assert not BlockRange(0, 2).intersects(BlockRange(3, 5))


def test_block_range_intersection_value():
    assert BlockRange(0, 4).intersection(BlockRange(2, 8)) == BlockRange(2, 4)
    assert BlockRange(0, 1).intersection(BlockRange(2, 3)) is None


def test_block_range_union_span():
    assert BlockRange(0, 1).union_span(BlockRange(5, 6)) == BlockRange(0, 6)


def test_block_range_index_bounds():
    assert BlockRange(2, 3).index_bounds(4, 32) == (8, 15)
    # clipped by dim
    assert BlockRange(0, 0).index_bounds(8, 4) == (0, 3)


def test_merge_overlapping():
    merged = merge_overlapping([BlockRange(4, 6), BlockRange(0, 2), BlockRange(2, 4)])
    assert merged == [BlockRange(0, 6)]
    merged = merge_overlapping([BlockRange(0, 1), BlockRange(3, 4)])
    assert merged == [BlockRange(0, 1), BlockRange(3, 4)]


def test_merge_overlapping_adjacent_ranges_coalesce():
    assert merge_overlapping([BlockRange(0, 1), BlockRange(2, 3)]) == [BlockRange(0, 3)]


def test_merge_overlapping_empty():
    assert merge_overlapping([]) == []


# ---------------------------------------------------------------------------
# block sets: ranges merged, intersected, and as bitmasks (the ids are
# historical: they named a range-list set class the engine no longer uses)
# ---------------------------------------------------------------------------


def mask_of(r: BlockRange) -> int:
    return ((1 << len(r)) - 1) << r.first


def test_interval_set_basic_membership():
    merged = merge_overlapping([BlockRange(6, 8), BlockRange(0, 3)])
    assert sum(len(r) for r in merged) == 7
    assert [b for r in merged for b in r] == [0, 1, 2, 3, 6, 7, 8]


def test_interval_set_subtract_middle_splits():
    mask = mask_of(BlockRange(0, 9)) & ~mask_of(BlockRange(3, 5))
    assert mask_ranges(mask) == [BlockRange(0, 2), BlockRange(6, 9)]


def test_interval_set_subtract_everything_empties():
    mask = mask_of(BlockRange(2, 4)) & ~mask_of(BlockRange(0, 10))
    assert mask == 0 and mask_ranges(mask) == [] and mask_blocks(mask) == []


def test_interval_set_subtract_disjoint_is_noop():
    mask = mask_of(BlockRange(2, 4)) & ~mask_of(BlockRange(6, 9))
    assert mask_ranges(mask) == [BlockRange(2, 4)]


def test_interval_set_intersects_and_intersection():
    ranges = [BlockRange(0, 2), BlockRange(5, 7)]
    hits = [r.intersection(BlockRange(2, 5)) for r in ranges]
    assert hits == [BlockRange(2, 2), BlockRange(5, 5)]
    assert all(r.intersection(BlockRange(3, 4)) is None for r in ranges)


def test_interval_set_add_merges():
    mask = mask_of(BlockRange(0, 1)) | mask_of(BlockRange(2, 3))
    assert mask_ranges(mask) == [BlockRange(0, 3)]


def test_interval_set_copy_is_independent():
    ranges = [BlockRange(2, 5), BlockRange(0, 3)]
    merged = merge_overlapping(ranges)
    merged.clear()
    assert ranges == [BlockRange(2, 5), BlockRange(0, 3)]
    assert merge_overlapping(ranges) == [BlockRange(0, 5)]


# ---------------------------------------------------------------------------
# property-based: block-set arithmetic behaves like Python sets
# ---------------------------------------------------------------------------

range_strategy = st.tuples(
    st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)
).map(lambda t: BlockRange(min(t), max(t)))


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(range_strategy, max_size=5), removals=st.lists(range_strategy, max_size=5))
def test_interval_set_subtract_matches_python_sets(initial, removals):
    mask = 0
    expected = set()
    for r in initial:
        mask |= mask_of(r)
        expected.update(r.blocks())
    assert mask_ranges(mask) == merge_overlapping(initial)
    for r in removals:
        mask &= ~mask_of(r)
        expected.difference_update(r.blocks())
    assert mask_blocks(mask) == sorted(expected)
    assert {b for r in mask_ranges(mask) for b in r} == expected


@settings(max_examples=60, deadline=None)
@given(ranges=st.lists(range_strategy, min_size=1, max_size=6))
def test_merge_overlapping_preserves_membership_and_disjointness(ranges):
    merged = merge_overlapping(ranges)
    original = set()
    for r in ranges:
        original.update(r.blocks())
    covered = set()
    for r in merged:
        covered.update(r.blocks())
    assert covered == original
    # merged ranges are sorted and non-adjacent
    for a, b in zip(merged, merged[1:]):
        assert a.last + 1 < b.first


@given(st.sets(st.integers(0, 200)))
def test_mask_blocks_and_ranges_read_a_bitmask_back(blocks):
    mask = sum(1 << b for b in blocks)
    assert mask_blocks(mask) == sorted(blocks)
    ranges = mask_ranges(mask)
    assert [b for r in ranges for b in r] == sorted(blocks)
    # maximal: consecutive ranges never touch
    assert all(a.last + 1 < b.first for a, b in zip(ranges, ranges[1:]))


def test_default_block_size_is_eight_blocks_per_state_floored_at_256(tmp_path):
    """``block_size=None`` resolves once, to ``max(256, 2**n // 8)``; the
    session holds the value, so forks, checkpoints and statistics carry it."""
    assert [default_block_size(n) for n in range(1, 25)] == [256] * 11 + [
        1 << (n - 3) for n in range(12, 25)
    ]
    for n, expected in ((11, 256), (12, 512), (14, 2048), (18, 32768)):
        with QTask(n, num_workers=1) as session:
            assert session.simulator.block_size == expected
            assert session.simulator.n_blocks == 8
    with QTask(14, num_workers=1, block_size=64) as session:
        assert session.simulator.block_size == 64

    for knobs in ({}, {"block_size": 256}):
        with QTask(14, num_workers=1, **knobs) as session:
            resolved = session.simulator.block_size
            assert resolved == knobs.get("block_size", 2048)
            net = session.insert_net()
            for q in range(14):
                session.insert_gate("h", net, q)
            session.insert_gate("rz", session.insert_net(), 13, params=[0.3])
            session.update_state()
            assert session.statistics()["block_size"] == resolved
            with session.fork() as child:
                assert child.simulator.block_size == resolved
            path = session.checkpoint(str(tmp_path / f"{resolved}.qtckpt"))
            with QTask.restore(path, num_workers=1) as restored:
                assert restored.simulator.block_size == resolved
                assert restored.statistics()["block_size"] == resolved
                np.testing.assert_array_equal(restored.state(), session.state())
