"""Copy-on-write (COW) block storage for per-stage state vectors.

qTask keeps one state vector per gate stage (the paper's *per-net state
vector management*, §III.F.2) so that incremental update can restart from
any intermediate result.  Each stage only materialises the blocks its
partitions write; every other block is inherited from the closest preceding
stage that wrote it (ultimately the |0...0> initial state): the
*copy-on-write data optimization* of §III.F.3.

Ownership is bitmasks, never a per-block table: the partition graph
(:mod:`repro.core.graph`) records each stage's *cover* -- the blocks its
partitions declare -- and each store keeps :attr:`BlockStore.held`.  A
store holds only blocks its stage declares, so "which stores hold blocks B
as of stage k?" is the closest earlier declarer of each: an update's plan
resolves it in one pass as ``(store, mask)`` pairs for the stage's
:class:`IndexReader`, which takes ``mask & held`` from each and resolves
what is left -- a declarer holding nothing: not executed yet, half-written
by a failed update, or a coalesced-run member whose later run-mate
declares the block too -- by one backward walk over ``cover & held``.
Stores carry no back-reference and report no writes.  (The naive
reference is ``tests/conftest.py::StoreChain``.)

A coalesced run of stages (:mod:`repro.core.exec_plan`) publishes through a
:class:`RoutedStore`: each block lands in the store of the *last* member
that declares it, and earlier members keep nothing for it.

Every write is one publish, :meth:`BlockStore.write_blocks`: it adopts
freshly computed kernel outputs (or a restore's decoded blocks) zero-copy,
keeping views of the output array, with one fault check and one dict update
however many blocks land.

Session forking extends copy-on-write *across* simulators:
:meth:`BlockStore.share_from` adopts every block of another store by
reference (sealed read-only; published blocks are immutable by contract).
The sharing store marks the adopted blocks in its :attr:`BlockStore.shared`
mask, its first write to a block rebinds the entry and clears the bit, and
:class:`MemoryReport` splits the accounting into owned and shared bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import faults
from .blocks import (
    block_bounds,
    mask_blocks,
    mask_spans,
    num_blocks,
    span_mask,
    validate_block_size,
)

__all__ = [
    "BlockStore",
    "InitialStateStore",
    "RoutedStore",
    "IndexReader",
    "MemoryReport",
]

_DTYPE = np.complex128
_ITEMSIZE = np.dtype(_DTYPE).itemsize

#: guards the read-modify-writes of every store's ``held`` and ``shared``
#: masks: the chunks of one plan publish into one store from worker threads
_HELD_LOCK = threading.Lock()


class BlockStore:
    """Sparse per-stage storage of state-vector blocks.

    Only blocks written by this stage's partitions are present; everything
    else resolves to an earlier store through :class:`IndexReader`.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        self.dim = int(dim)
        self.block_size = validate_block_size(block_size)
        self.n_blocks = num_blocks(self.dim, self.block_size)
        #: block id -> the block's amplitudes
        self._blocks: Dict[int, np.ndarray] = {}
        #: bitmask of the blocks held (the keys of ``_blocks``)
        self.held = 0
        # dim is a power of two: every block has the same length
        self._block_len = min(self.dim, self.block_size)
        self._block_bytes = self._block_len * _ITEMSIZE
        #: bitmask of the held blocks adopted from another store and not
        #: rewritten since (a subset of ``held``)
        self.shared = 0

    def release(self) -> None:
        """Session teardown: drop every block reference, no per-block work.
        Arrays another store adopted live on through its own references."""
        self._blocks.clear()
        self.held = self.shared = 0

    # -- cross-store sharing (session forking) ----------------------------

    def share_from(self, other: "BlockStore") -> int:
        """Adopt every block of ``other`` as a shared copy-on-write reference.

        The arrays are shared, not copied: both stores reference the same
        (read-only) memory until this store's first write to a block rebinds
        its entry; :attr:`shared` marks them until then, so memory
        attribution stays honest while forks diverge.  Returns the number of
        blocks adopted.
        """
        if other.dim != self.dim or other.block_size != self.block_size:
            raise ValueError(
                "can only share blocks between stores of identical dim "
                f"and block size, got ({other.dim}, {other.block_size}) "
                f"vs ({self.dim}, {self.block_size})"
            )
        for arr in other._blocks.values():
            # Published blocks are immutable by contract (kernels allocate
            # fresh outputs and stores rebind); sealing enforces it for
            # memory two stores now share.
            arr.setflags(write=False)
        self._blocks.update(other._blocks)
        with _HELD_LOCK:
            self.held |= other.held
            self.shared |= other.held
        return len(other._blocks)

    @property
    def shared_block_count(self) -> int:
        """Blocks currently referencing another store's memory."""
        return self.shared.bit_count()

    def shared_bytes(self) -> int:
        """Bytes of :meth:`allocated_bytes` that are shared, not owned."""
        return self.shared.bit_count() * self._block_bytes

    # -- write side -------------------------------------------------------

    def write_blocks(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """Publish ``rows[i]`` as the contents of ``blocks[i]``, zero-copy.

        The store's one write: any set of distinct blocks lands with one
        fault check and one dict update.  The rows are adopted as they are:
        whole-block ``complex128`` rows of fresh arrays the caller never
        touches again (kernels cut their outputs at
        :data:`~repro.core.blocks.MAX_RUN_BLOCKS` blocks, so a surviving
        row pins no more than that).
        """
        if len(rows) != len(blocks):
            raise ValueError(f"{len(blocks)} blocks but {len(rows)} rows")
        shape = (self._block_len,)
        if any(r.shape != shape or r.dtype != _DTYPE for r in rows):
            raise ValueError(
                f"every row must be {self._block_len} complex128 amplitudes"
            )
        mask = 0
        for b in blocks:
            mask |= 1 << b  # a negative id raises here
        if mask >> self.n_blocks:
            raise ValueError(f"block ids out of range [0, {self.n_blocks})")
        self._publish(blocks, rows, mask)

    def _publish(
        self, blocks: Sequence[int], rows: Sequence[np.ndarray], mask: int
    ) -> None:
        """Bind ``rows[i]`` as the contents of ``blocks[i]`` (``mask`` is
        their bitmask): the one mutation path behind :meth:`write_blocks`.

        The publish fault site fires before any store mutation, so a failed
        publish leaves the store exactly as it was and the run that produced
        the rows can simply re-execute.
        """
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        with _HELD_LOCK:
            self._blocks.update(zip(blocks, rows))
            self.held |= mask
            if self.shared:
                self.shared &= ~mask

    def drop_blocks(self, blocks: Iterable[int]) -> None:
        """Forget ``blocks`` (those held)."""
        for b in blocks:
            if self._blocks.pop(b, None) is not None:
                with _HELD_LOCK:
                    self.held &= ~(1 << b)
                    self.shared &= ~(1 << b)

    def keep_only(self, owned: int) -> None:
        """Drop every held block whose bit is not set in ``owned``.

        A stage coalesced into a run keeps only the blocks it is the run's
        last declarer of; a copy from before it joined the run goes here.
        """
        if self.held & ~owned:
            self.drop_blocks(mask_blocks(self.held & ~owned))

    def clear(self) -> None:
        self._blocks.clear()
        self.held = self.shared = 0

    # -- read side --------------------------------------------------------

    def get_block(self, block: int) -> Optional[np.ndarray]:
        return self._blocks.get(block)

    def get_block_many(self, first: int, last: int) -> List[np.ndarray]:
        """The contiguous held blocks ``[first, last]`` (one owner run of the
        unified reader)."""
        blocks = self._blocks
        return [blocks[b] for b in range(first, last + 1)]

    def stored_blocks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._blocks))

    # -- accounting -------------------------------------------------------

    @property
    def num_stored_blocks(self) -> int:
        return len(self._blocks)

    def allocated_bytes(self) -> int:
        # every held block is one block's worth of complex128
        return len(self._blocks) * self._block_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockStore(dim={self.dim}, B={self.block_size}, "
            f"stored={self.num_stored_blocks}/{self.n_blocks})"
        )


class InitialStateStore(BlockStore):
    """The |0...0> initial state, materialised lazily block by block.

    Block 0 holds amplitude 1 at index 0; all other blocks are zero.  The
    store never allocates memory unless a block is explicitly requested, so an
    empty circuit costs (almost) nothing.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        super().__init__(dim, block_size)
        self.held = span_mask(0, self.n_blocks - 1)  # every block is defined here

    def get_block(self, block: int) -> np.ndarray:
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range [0, {self.n_blocks})")
        cached = self._blocks.get(block)
        if cached is not None:
            return cached
        lo, hi = block_bounds(block, self.block_size, self.dim)
        arr = np.zeros(hi - lo + 1, dtype=_DTYPE)
        if block == 0:
            arr[0] = 1.0
        self._blocks[block] = arr
        return arr

    def read_dense(self, lo: int, hi: int) -> np.ndarray:
        """Amplitudes of ``[lo, hi]`` in one allocation, caching no block
        (a run of never-written blocks read at once).  Blocks already in
        the cache (tests preload custom initial states there) overlay the
        implicit |0...0>."""
        out = np.zeros(hi - lo + 1, dtype=_DTYPE)
        if lo == 0:
            out[0] = 1.0
        for b, arr in self._blocks.items():
            blo, bhi = block_bounds(b, self.block_size, self.dim)
            if bhi < lo or blo > hi:
                continue
            s = max(lo, blo)
            e = min(hi, bhi)
            out[s - lo : e - lo + 1] = arr[s - blo : e - blo + 1]
        return out

    def allocated_bytes(self) -> int:
        # The initial state is conceptually free; cached zero blocks are an
        # implementation detail and excluded from the accounting.
        return 0


class RoutedStore:
    """The write surface of a coalesced run: blocks land in their owners.

    ``stores`` are the member stages' stores in seq order and ``owned[i]``
    the bitmask of the blocks ``stores[i]`` owns -- those its stage is the
    run's last declarer of.  Kernels see the :meth:`BlockStore.write_blocks`
    of a store; each published block goes to its owner, so every read
    resolves as if the members had run one by one.
    """

    def __init__(self, stores: Sequence[BlockStore], owned: Sequence[int]) -> None:
        self._members = list(zip(stores, owned))
        #: ``(store, owned mask)`` of the members owning anything, seq order
        self.routes = [(store, mask) for store, mask in self._members if mask]
        self.dim = stores[0].dim
        self.block_size = stores[0].block_size

    def write_blocks(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """``BlockStore.write_blocks``, one call per owning store: each
        stretch of consecutive ids is cut by the owned masks."""
        routed: Dict[BlockStore, Tuple[List[int], List[np.ndarray]]] = {}
        at = 0
        for first, last in _stretches(blocks):
            stretch = whole = span_mask(first, last)
            for store, owned in self.routes:
                part = owned & stretch
                if part:
                    ids, held = routed.setdefault(store, ([], []))
                    for lo, hi in [(first, last)] if part == whole else mask_spans(part):
                        ids.extend(range(lo, hi + 1))
                        held.extend(rows[at + lo - first : at + hi - first + 1])
                    stretch &= ~owned
            if stretch:
                raise KeyError(mask_spans(stretch)[0][0])
            at += last - first + 1
        for store, (ids, held) in routed.items():
            store.write_blocks(ids, held)

    def settle(self) -> None:
        """Drop what members hold of blocks a later run-mate now owns."""
        for store, mask in self._members:
            store.keep_only(mask)


def _stretches(blocks: Sequence[int]) -> List[Tuple[int, int]]:
    """``blocks`` cut into maximal stretches of consecutive ascending ids,
    as inclusive ``(first, last)`` pairs in list order."""
    n = len(blocks)
    if not n:
        return []
    first, last = blocks[0], blocks[-1]
    if last - first == n - 1 and (  # the common case, without a loop
        n < 3 or isinstance(blocks, range) or list(blocks) == list(range(first, last + 1))
    ):
        return [(first, last)]
    out: List[Tuple[int, int]] = []
    ids = iter(blocks)
    first = last = next(ids)
    for b in ids:
        if b != last + 1:
            out.append((first, last))
            first = b
        last = b
    out.append((first, last))
    return out


class _ResolvingReader:
    """The one read-side implementation behind every block resolver.

    Subclasses provide ``dim``/``block_size``/``n_blocks`` and
    ``resolve_masks``; every read derives from them through one loop,
    :meth:`read_blocks`, which batches maximal same-owner runs of
    consecutive blocks (never-written ones in one
    :meth:`InitialStateStore.read_dense`).
    """

    __slots__ = ()

    def resolve_masks(self, mask: int) -> List[Tuple[BlockStore, int]]:
        """``mask`` split into disjoint ``(store, bits)`` pairs: each store
        holds the current contents of its bits."""
        raise NotImplementedError

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 0 or hi >= self.dim or lo > hi:
            raise ValueError(f"invalid index range [{lo}, {hi}] for dim {self.dim}")

    def owner_runs(
        self, blocks: Sequence[int]
    ) -> List[Tuple[BlockStore, int, int]]:
        """``blocks`` cut into maximal ``(store, first_block, last_block)``
        runs: the list's stretches of consecutive ids, each cut by the
        owners' masks (resolved once, for all of them)."""
        stretches = _stretches(blocks)
        want = 0
        for first, last in stretches:
            want |= ((1 << (last - first + 1)) - 1) << first
        resolved = self.resolve_masks(want)
        if len(resolved) == 1:  # one owner: the stretches are the runs
            store = resolved[0][0]
            if len(stretches) == 1:
                return [(store, first, last)]
            return [(store, lo, hi) for lo, hi in stretches]
        owners: Dict[BlockStore, int] = {}
        for store, bits in resolved:
            owners[store] = owners.get(store, 0) | bits
        stores = list(owners)
        runs: List[Tuple[BlockStore, int, int]] = []
        for first, last in stretches:
            stretch = span_mask(first, last)
            cut = sorted(
                (lo, hi, k)
                for k, bits in enumerate(owners.values())
                if bits & stretch
                for lo, hi in mask_spans(bits & stretch)
            )
            runs.extend((stores[k], lo, hi) for lo, hi, k in cut)
        return runs

    def read_blocks(self, blocks: Sequence[int]) -> np.ndarray:
        """Whole blocks ``blocks``, concatenated in list order.

        The result is always a fresh array the caller owns (kernels compute
        in it and publish it zero-copy).
        """
        block_size = self.block_size
        parts: List[np.ndarray] = []
        for store, first, last in self.owner_runs(blocks):
            if isinstance(store, InitialStateStore):
                # whole run in one allocation, no per-block zero caching
                parts.append(
                    store.read_dense(
                        first * block_size,
                        min(self.dim, (last + 1) * block_size) - 1,
                    )
                )
            else:
                parts.extend(store.get_block_many(first, last))
        if len(parts) == 1:
            return np.array(parts[0], copy=True)
        return np.concatenate(parts)

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Return amplitudes for the inclusive index range ``[lo, hi]``."""
        self._check_range(lo, hi)
        first = lo // self.block_size
        buf = self.read_blocks(range(first, hi // self.block_size + 1))
        base = first * self.block_size
        return buf[lo - base : hi - base + 1]

    def full_vector(self) -> np.ndarray:
        """Materialise the whole state vector (mostly for queries/tests)."""
        return self.read_range(0, self.dim - 1)


class IndexReader(_ResolvingReader):
    """A :class:`StateReader` over the partition graph "as of" one stage.

    ``index`` is the partition graph (anything with its ``holders(mask,
    before_seq)``): the stages in seq order with the block cover each
    declares.  ``before_seq`` is exclusive -- a stage reads the output of
    stages strictly before it; ``sys.maxsize`` reads the final state.

    ``sources`` are what an update's plan resolved for the stage
    (``PartitionGraph.plan_sources``): disjoint ``(store, mask)`` pairs.  A
    read takes ``mask & held`` from each; the graph is walked only for the
    bits left (outside the plan, before a first update, after a failed
    one), all at once, down to ``initial``.
    """

    __slots__ = (
        "index", "initial", "before_seq", "sources",
        "dim", "block_size", "n_blocks",
    )

    def __init__(
        self,
        index,
        initial: BlockStore,
        before_seq: int,
        sources: Sequence[Tuple[BlockStore, int]] = (),
    ) -> None:
        self.index = index
        self.initial = initial
        self.before_seq = before_seq
        self.sources = sources
        self.dim = initial.dim
        self.block_size = initial.block_size
        self.n_blocks = initial.n_blocks

    def resolve_masks(self, mask: int) -> List[Tuple[BlockStore, int]]:
        out: List[Tuple[BlockStore, int]] = []
        for store, bits in self.sources:
            hit = bits & mask & store.held
            if hit:
                out.append((store, hit))
                mask &= ~hit
        if mask:
            for store, hit in self.index.holders(mask, self.before_seq):
                out.append((store, hit))
                mask &= ~hit
            if mask:
                out.append((self.initial, mask))
        return out


@dataclass(frozen=True)
class MemoryReport:
    """Logical memory accounting of a simulator's COW stores.

    ``allocated_bytes`` counts every block the stores reference;
    ``shared_bytes`` is the part referencing another session's memory
    (blocks adopted by :meth:`BlockStore.share_from` and not yet rewritten),
    so ``owned_bytes`` is the marginal footprint of this session -- the
    number a fleet of forked sessions sums to show sublinear memory growth.
    """

    num_stores: int
    stored_blocks: int
    total_blocks: int
    allocated_bytes: int
    dense_bytes: int
    shared_blocks: int = 0
    shared_bytes: int = 0

    @property
    def owned_bytes(self) -> int:
        """Bytes owned outright (allocated minus shared-with-a-parent)."""
        return self.allocated_bytes - self.shared_bytes

    @property
    def savings_fraction(self) -> float:
        """Fraction of dense (non-COW) storage avoided, in [0, 1]."""
        if self.dense_bytes == 0:
            return 0.0
        return 1.0 - self.allocated_bytes / self.dense_bytes

    @staticmethod
    def from_stores(stores: Iterable[BlockStore]) -> "MemoryReport":
        """One pass of block counts: every held block is one block's worth
        of complex128, so bytes are counts times block bytes."""
        stores = list(stores)
        return MemoryReport(
            num_stores=len(stores),
            stored_blocks=sum(s.num_stored_blocks for s in stores),
            total_blocks=sum(s.n_blocks for s in stores),
            allocated_bytes=sum(s.allocated_bytes() for s in stores),
            dense_bytes=sum(s.dim for s in stores) * _ITEMSIZE,
            shared_blocks=sum(s.shared_block_count for s in stores),
            shared_bytes=sum(s.shared_bytes() for s in stores),
        )
