"""Block arithmetic and block-range utilities.

qTask divides every state vector into disjoint, equal-size *blocks* whose size
``B`` is a power of two (§III.C).  Partitions are runs of consecutive blocks,
and the incremental machinery reasons exclusively in terms of inclusive block
ranges ``[first, last]``.  This module provides the small but heavily used
vocabulary for that reasoning: :class:`BlockRange` (with its intersection
helpers, used by the circuit modifiers, §III.D) and block bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "default_block_size",
    "validate_block_size",
    "num_blocks",
    "block_of",
    "block_bounds",
    "MAX_RUN_BLOCKS",
    "MAX_RUN_QUBITS",
    "MAX_RUN_STAGES",
    "aligned_block_runs",
    "BlockRange",
    "mask_blocks",
    "mask_spans",
    "mask_ranges",
    "span_mask",
    "merge_overlapping",
]

#: The paper's default block size (§IV: "The default block size of qTask is
#: 256"): the floor of :func:`default_block_size`, so up to 11 qubits.
DEFAULT_BLOCK_SIZE = 256


def default_block_size(num_qubits: int) -> int:
    """The block size a session on ``num_qubits`` takes when none is given.

    Eight blocks per state, floored at the paper's 256: in this engine a
    block costs more Python than the memory traffic finer blocks save (Fig.
    19's axis), so the block count stays fixed as the state grows.
    """
    return max(DEFAULT_BLOCK_SIZE, (1 << num_qubits) // 8)


def validate_block_size(block_size: int) -> int:
    """Check that ``block_size`` is a positive power of two and return it."""
    b = int(block_size)
    if b <= 0 or (b & (b - 1)) != 0:
        raise ValueError(f"block size must be a positive power of two, got {block_size}")
    return b


def num_blocks(dim: int, block_size: int) -> int:
    """Number of blocks needed to cover a state vector of length ``dim``.

    When ``dim < block_size`` there is a single (short) block; otherwise
    ``dim`` is always a multiple of the (power-of-two) block size.
    """
    if dim <= 0:
        raise ValueError(f"state dimension must be positive, got {dim}")
    return max(1, dim // block_size) if dim >= block_size else 1


def block_of(index: int, block_size: int) -> int:
    """Block id containing amplitude ``index``."""
    return index // block_size


def block_bounds(block: int, block_size: int, dim: int) -> Tuple[int, int]:
    """Inclusive index bounds ``(lo, hi)`` of ``block`` clipped to ``dim``."""
    lo = block * block_size
    hi = min(dim, lo + block_size) - 1
    return lo, hi


#: Cap (in blocks, a power of two) on one kernel run.  Partition block ranges
#: are decomposed into aligned power-of-two runs of at most this many blocks,
#: and it is also the most blocks one zero-copy published output array may
#: span -- the granularity at which rewritten blocks release their memory.
MAX_RUN_BLOCKS = 64

#: Caps on one coalesced run of swept diagonal / monomial stages (the plan
#: executes it as a single composed action).  The union of the members'
#: qubits stays at or below ``MAX_RUN_QUBITS`` so the composed phase /
#: permutation table (``2**12`` entries, 64 KB of factors) fits in cache and
#: the slab tables' compact local-index dtypes hold; a run takes at most
#: ``MAX_RUN_STAGES`` members so that an edit inside it recomposes a bounded
#: number of actions.  A superposition stage closing a run counts as a
#: member but adds no qubit to the union (it is applied, not composed), and
#: closes runs only on states of at most ``MAX_RUN_BLOCKS`` blocks, where
#: the run's table is one whole-state run.
MAX_RUN_QUBITS = 12
MAX_RUN_STAGES = 64


def aligned_block_runs(first: int, last: int, max_blocks: int) -> List[Tuple[int, int]]:
    """Split ``[first, last]`` into maximal aligned power-of-two runs.

    Each returned inclusive run ``(lo, hi)`` has a power-of-two length no
    larger than ``max_blocks`` (itself a power of two) and starts at a
    multiple of its length -- the buddy decomposition.  Blocks are a power of
    two amplitudes, so an aligned run of blocks is an aligned power-of-two
    amplitude range.  A run of ``n`` blocks yields at most
    ``2*log2(n)`` chunks, so batched execution stays run-granular instead of
    block-granular.
    """
    if max_blocks <= 0 or max_blocks & (max_blocks - 1):
        raise ValueError(f"max_blocks must be a positive power of two, got {max_blocks}")
    runs: List[Tuple[int, int]] = []
    b = first
    remaining = last - first + 1
    while remaining > 0:
        align = (b & -b) if b else max_blocks
        size = min(align, 1 << (remaining.bit_length() - 1), max_blocks)
        runs.append((b, b + size - 1))
        b += size
        remaining -= size
    return runs


@dataclass(frozen=True, order=True)
class BlockRange:
    """An inclusive range of consecutive block ids ``[first, last]``."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise ValueError(f"invalid block range [{self.first}, {self.last}]")

    def __len__(self) -> int:
        return self.last - self.first + 1

    def __contains__(self, block: int) -> bool:
        return self.first <= block <= self.last

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.first, self.last + 1))

    def blocks(self) -> range:
        """The block ids covered by this range."""
        return range(self.first, self.last + 1)

    def intersects(self, other: "BlockRange") -> bool:
        return self.first <= other.last and other.first <= self.last

    def intersection(self, other: "BlockRange") -> Optional["BlockRange"]:
        lo, hi = max(self.first, other.first), min(self.last, other.last)
        return BlockRange(lo, hi) if lo <= hi else None

    def union_span(self, other: "BlockRange") -> "BlockRange":
        """Smallest range covering both (used when merging partitions)."""
        return BlockRange(min(self.first, other.first), max(self.last, other.last))

    def index_bounds(self, block_size: int, dim: int) -> Tuple[int, int]:
        """Inclusive amplitude-index bounds covered by the range."""
        lo = self.first * block_size
        hi = min(dim, (self.last + 1) * block_size) - 1
        return lo, hi

    def to_tuple(self) -> Tuple[int, int]:
        return (self.first, self.last)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.first}, {self.last}]"


def mask_blocks(mask: int) -> List[int]:
    """The block ids whose bits are set in ``mask``, ascending."""
    blocks: List[int] = []
    while mask:
        low = mask & -mask
        blocks.append(low.bit_length() - 1)
        mask ^= low
    return blocks


def mask_spans(mask: int) -> List[Tuple[int, int]]:
    """The maximal runs of set bits of ``mask`` as inclusive ``(first,
    last)`` block pairs, ascending."""
    spans: List[Tuple[int, int]] = []
    base = 0
    while mask:
        zeros = (mask & -mask).bit_length() - 1
        mask >>= zeros
        ones = (~mask & (mask + 1)).bit_length() - 1
        spans.append((base + zeros, base + zeros + ones - 1))
        mask >>= ones
        base += zeros + ones
    return spans


def span_mask(first: int, last: int) -> int:
    """The bitmask of blocks ``first`` to ``last`` inclusive."""
    return ((1 << (last - first + 1)) - 1) << first


def mask_ranges(mask: int) -> List[BlockRange]:
    """The maximal runs of set bits of ``mask`` as block ranges, ascending."""
    return [BlockRange(first, last) for first, last in mask_spans(mask)]


def merge_overlapping(ranges: Sequence[BlockRange]) -> List[BlockRange]:
    """Merge a set of block ranges into maximal disjoint ranges."""
    if not ranges:
        return []
    srt = sorted(ranges, key=lambda r: (r.first, r.last))
    out: List[BlockRange] = [srt[0]]
    for r in srt[1:]:
        cur = out[-1]
        if r.first <= cur.last + 1:
            out[-1] = BlockRange(cur.first, max(cur.last, r.last))
        else:
            out.append(r)
    return out
