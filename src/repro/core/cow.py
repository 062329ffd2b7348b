"""Copy-on-write (COW) block storage for per-stage state vectors.

qTask keeps one state vector per gate stage (the paper calls this *per-net
state vector management*, §III.F.2) so that incremental update can restart
from any intermediate result.  Storing every vector densely would be very
expensive, so each stage only materialises the blocks its partitions actually
write; every other block is implicitly inherited from the closest preceding
stage that wrote it (ultimately the |0...0> initial state).  This is the
*copy-on-write data optimization* of §III.F.3.

Reads resolve through :class:`IndexReader`: the partition graph's writer
index (:mod:`repro.core.graph`) is the only per-block ownership structure --
for every block id, the seq-sorted partitions that *declare* it.  With
copy-on-write a stage's store holds only blocks its partitions declare, so
"which store holds block b as of stage k?" is the closest earlier declarer
of b -- which an update's plan reads off the index once per block and hands
to the stage's reader as a table.  Stores know nothing of the index: they
carry no back-reference and report no writes, and a declarer that holds
nothing (not executed yet, left half-written by a failed update,
or a member of a coalesced run whose later run-mate declares the block too)
is stepped over at read time.  (The naive reference -- walk the stores
backwards until one holds the block -- is ``tests/conftest.py::StoreChain``.)

A coalesced run of stages (:mod:`repro.core.exec_plan`) computes every block
of its members' union cover once and publishes it through a
:class:`RoutedStore`: each block lands in the store of the *last* member that
declares it, and earlier members keep nothing for it.

Writes are single-copy: ``write_block`` copies at most once (``np.asarray``'s
dtype conversion already produces owned memory), and both ``write_block`` and
``write_range`` accept ``copy=False`` for freshly allocated kernel outputs so
publishing a computed run into the store is zero-copy (the store keeps views
of the kernel's output array).

Session forking extends the copy-on-write idea *across* simulators:
:meth:`BlockStore.share_from` adopts every block of another store by
reference (the arrays are marked read-only -- published blocks are immutable
by contract, stores rebind rather than mutate).  The origin store refcounts
each exported block (:attr:`BlockStore.exported_block_refs`), and the first
write to an adopted block in the sharing store simply rebinds the dict entry
to the freshly computed array and drops the reference -- copy-on-first-write
with zero copies at fork time.  :class:`MemoryReport` splits the accounting
into owned and shared bytes so a fleet of forked sessions can demonstrate
sublinear memory growth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import faults
from .blocks import (
    BlockRange,
    block_bounds,
    mask_blocks,
    num_blocks,
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

#: guards every store's export counts; they change only when a session
#: forks or a fork rebinds an adopted block, so all stores share one lock
_EXPORT_LOCK = threading.Lock()


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
        # Every block has the same length: dim is a power of two, so it is
        # either a multiple of the block size or smaller than one block.
        # Precomputing it keeps the hot write path free of per-call
        # block_bounds arithmetic.
        self._block_len = min(self.dim, self.block_size)
        #: blocks adopted from another store (block id -> origin store);
        #: rebinding such a block on first write releases the origin's ref
        self._shared: Dict[int, "BlockStore"] = {}
        #: per-block count of live references other stores hold to blocks
        #: exported by :meth:`share_from` (mutated under ``_EXPORT_LOCK``:
        #: forked sessions release refs from worker threads)
        self._export_refs: Dict[int, int] = {}

    def release(self) -> None:
        """Session teardown: drop every block reference this store holds.

        Two dict clears -- no per-block work, a forked session is closed
        once per service job.  Arrays another store adopted live on through
        that store's own references; the origins' export counts are left as
        they are.
        """
        self._blocks.clear()
        self._shared.clear()

    # -- cross-store sharing (session forking) ----------------------------

    def share_from(self, other: "BlockStore") -> int:
        """Adopt every block of ``other`` as a shared copy-on-write reference.

        The arrays are shared, not copied: both stores reference the same
        (read-only) memory until this store's first write to a block rebinds
        its entry.  ``other`` refcounts each exported block so memory
        attribution stays honest while forks diverge.  Returns the number of
        blocks adopted.
        """
        if other.dim != self.dim or other.block_size != self.block_size:
            raise ValueError(
                "can only share blocks between stores of identical dim "
                f"and block size, got ({other.dim}, {other.block_size}) "
                f"vs ({self.dim}, {self.block_size})"
            )
        blocks = self._blocks
        shared_ids: List[int] = []
        for b, arr in other._blocks.items():
            # Published blocks are immutable by contract (kernels allocate
            # fresh outputs and stores rebind); sealing enforces it for
            # memory two stores now share.
            arr.setflags(write=False)
            self._release_shared(b)
            blocks[b] = arr
            self._shared[b] = other
            shared_ids.append(b)
        other._export_retain(shared_ids)
        return len(shared_ids)

    def _export_retain(self, blocks: Sequence[int]) -> None:
        if not blocks:
            return
        with _EXPORT_LOCK:
            refs = self._export_refs
            for b in blocks:
                refs[b] = refs.get(b, 0) + 1

    def _export_release(self, block: int) -> None:
        with _EXPORT_LOCK:
            n = self._export_refs.get(block, 0) - 1
            if n <= 0:
                self._export_refs.pop(block, None)
            else:
                self._export_refs[block] = n

    def _release_shared(self, block: int) -> None:
        """Drop the shared marker of ``block`` (it is being rebound/removed)."""
        if not self._shared:
            return
        origin = self._shared.pop(block, None)
        if origin is not None:
            origin._export_release(block)

    @property
    def shared_block_count(self) -> int:
        """Blocks currently referencing another store's memory."""
        return len(self._shared)

    def shared_bytes(self) -> int:
        """Bytes of :meth:`allocated_bytes` that are shared, not owned."""
        blocks = self._blocks
        return sum(blocks[b].nbytes for b in self._shared)

    def exported_block_refs(self) -> Dict[int, int]:
        """Live per-block reference counts held by sharing stores."""
        with _EXPORT_LOCK:
            return dict(self._export_refs)

    @property
    def num_exported_blocks(self) -> int:
        with _EXPORT_LOCK:
            return len(self._export_refs)

    # -- write side -------------------------------------------------------

    def write_block(self, block: int, values: np.ndarray, *, copy: bool = True) -> None:
        """Store the full contents of ``block``.

        By default the values are copied into store-owned memory (at most one
        copy: a dtype conversion already yields a fresh array).  Pass
        ``copy=False`` only for freshly allocated arrays the caller will never
        touch again -- the store then adopts ``values`` (or a view of it)
        without copying.
        """
        # The publish fault site fires before any store mutation, so a
        # failed publish leaves the store exactly as it was and the run
        # that produced ``values`` can simply re-execute.
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        arr = np.asarray(values, dtype=_DTYPE)
        if arr.shape != (self._block_len,):
            raise ValueError(
                f"block {block} expects {self._block_len} amplitudes, "
                f"got shape {arr.shape}"
            )
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        self._publish((block,), (self._owned(arr, values, copy),))

    def write_range(self, lo: int, values: np.ndarray, *, copy: bool = True) -> None:
        """Write a block-aligned contiguous range starting at index ``lo``.

        With ``copy=False`` the per-block entries are *views* of ``values``
        (the zero-copy publish path for kernel outputs); the caller must not
        mutate ``values`` afterwards.  With ``copy=True`` the range is copied
        once as a whole, never block by block.
        """
        # Fires before any mutation; see write_block.
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        if lo % self.block_size != 0:
            raise ValueError(f"range start {lo} is not block aligned")
        arr = np.asarray(values, dtype=_DTYPE)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D amplitude range, got shape {arr.shape}")
        size = self._block_len
        n = arr.shape[0]
        if n % size != 0:
            raise ValueError(
                f"range of {n} amplitudes is not a whole number of "
                f"{size}-amplitude blocks"
            )
        first = lo // self.block_size
        last = first + n // size - 1
        if not (0 <= first and last < self.n_blocks):
            raise ValueError(
                f"blocks [{first}, {last}] out of range [0, {self.n_blocks})"
            )
        arr = self._owned(arr, values, copy)
        self._publish(
            range(first, last + 1),
            [arr[offset : offset + size] for offset in range(0, n, size)],
        )

    def write_blocks(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """Publish ``rows[i]`` as the contents of ``blocks[i]``, zero-copy.

        The slab kernels' publish: any set of distinct blocks (a whole
        operation group's outputs, contiguous or not) lands with one fault
        check and one dict update.  The rows
        are adopted as they are -- ``write_range(copy=False)``'s contract:
        whole-block ``complex128`` rows of freshly computed arrays the
        caller never touches again.  How much memory a row pins is the
        caller's choice of backing array (kernels cut their outputs at
        :data:`~repro.core.blocks.MAX_RUN_BLOCKS` blocks).
        """
        # Fires before any mutation; see write_block.
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        if len(rows) != len(blocks):
            raise ValueError(f"{len(blocks)} blocks but {len(rows)} rows")
        shape = (self._block_len,)
        if any(r.shape != shape or r.dtype != _DTYPE for r in rows):
            raise ValueError(
                f"every row must be {self._block_len} complex128 amplitudes"
            )
        if blocks and not (0 <= min(blocks) and max(blocks) < self.n_blocks):
            raise ValueError(f"block ids out of range [0, {self.n_blocks})")
        self._publish(blocks, rows)

    @staticmethod
    def _owned(arr: np.ndarray, values, copy: bool) -> np.ndarray:
        """``arr`` detached from the caller's ``values`` when ``copy`` asks."""
        if copy and np.may_share_memory(arr, values):
            return arr.copy()
        return arr

    def _publish(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """Bind ``rows[i]`` as the contents of ``blocks[i]``: the one
        mutation path behind every ``write_*``."""
        if self._shared:
            for b in blocks:
                self._release_shared(b)
        self._blocks.update(zip(blocks, rows))

    def drop_block(self, block: int) -> None:
        self.drop_blocks((block,))

    def drop_blocks(self, blocks: Iterable[int]) -> None:
        """Forget ``blocks`` (those held)."""
        for b in blocks:
            if self._blocks.pop(b, None) is not None:
                self._release_shared(b)

    def keep_only(self, owned: int) -> None:
        """Drop every held block whose bit is not set in ``owned``.

        A stage coalesced into a run keeps only the blocks it is the run's
        last declarer of; a copy from before it joined the run goes here.
        """
        self.drop_blocks([b for b in self._blocks if not (owned >> b) & 1])

    def clear(self) -> None:
        for b in tuple(self._shared):
            self._release_shared(b)
        self._blocks.clear()

    # -- read side --------------------------------------------------------

    def has_block(self, block: int) -> bool:
        return block in self._blocks

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
        return sum(b.nbytes for b in self._blocks.values())

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

    def has_block(self, block: int) -> bool:  # every block is defined here
        return 0 <= block < self.n_blocks

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
        """Amplitudes of ``[lo, hi]`` in one allocation, without caching blocks.

        Readers that resolve a long run of never-written blocks to the
        initial state use this instead of per-block :meth:`get_block` calls,
        which would materialise (and cache) one zero array per block.
        Blocks already materialised in the cache (tests preload custom
        initial states there) overlay the implicit |0...0>.
        """
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
    run's last declarer of.  Kernels, the run-granular fallback and the
    publish fault site see the ``write_*`` surface of a
    :class:`BlockStore`; every published
    block is handed to the store that owns it, so after the run each block
    is held by the newest stage that declares it and every read through the
    writer index resolves as if the members had run one by one.
    """

    def __init__(self, stores: Sequence[BlockStore], owned: Sequence[int]) -> None:
        self._stores = list(stores)
        self._owned = list(owned)
        self._owner: Dict[int, BlockStore] = {
            block: store
            for store, mask in zip(stores, owned)
            for block in mask_blocks(mask)
        }
        self.dim = stores[0].dim
        self.block_size = stores[0].block_size

    def write_blocks(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """``BlockStore.write_blocks``, one call per owning store."""
        owner = self._owner
        routed: Dict[BlockStore, Tuple[List[int], List[np.ndarray]]] = {}
        for block, row in zip(blocks, rows):
            ids, held = routed.setdefault(owner[block], ([], []))
            ids.append(block)
            held.append(row)
        for store, (ids, held) in routed.items():
            store.write_blocks(ids, held)

    def write_range(self, lo: int, values: np.ndarray, *, copy: bool = True) -> None:
        """``BlockStore.write_range``: the range's blocks, each to its owner
        (one publish per owning store, not one per stretch of the range)."""
        if lo % self.block_size != 0:
            raise ValueError(f"range start {lo} is not block aligned")
        arr = np.asarray(values, dtype=_DTYPE)
        if copy and np.may_share_memory(arr, values):
            arr = arr.copy()
        size = min(self.dim, self.block_size)
        first = lo // self.block_size
        rows = [arr[i : i + size] for i in range(0, arr.shape[0], size)]
        self.write_blocks(range(first, first + len(rows)), rows)

    def settle(self) -> None:
        """Drop what members hold of blocks a later run-mate now owns."""
        for store, mask in zip(self._stores, self._owned):
            store.keep_only(mask)


class _ResolvingReader:
    """The one read-side implementation behind every block resolver.

    Subclasses provide ``dim``/``block_size``/``n_blocks`` attributes and a
    single ``resolve_store`` method; block-list reads, range reads, gathers
    and full-vector materialisation all derive from it through one loop,
    :meth:`read_blocks`.  Reads batch maximal same-owner runs of consecutive
    blocks: a run of never-written blocks becomes one dense zero allocation
    (:meth:`InitialStateStore.read_dense`, which caches nothing) and a run
    owned by one store becomes one :meth:`BlockStore.get_block_many` call.

    :class:`IndexReader` (and the tests' ``StoreChain`` oracle) are pure
    resolution strategies on top of it.
    """

    __slots__ = ()

    def resolve_store(self, block: int) -> BlockStore:
        """The store holding the current contents of ``block``."""
        raise NotImplementedError

    def resolve_stores(self, blocks: Sequence[int]) -> List[BlockStore]:
        """:meth:`resolve_store` for each of ``blocks``, in order."""
        return [self.resolve_store(b) for b in blocks]

    def resolve_block(self, block: int) -> np.ndarray:
        got = self.resolve_store(block).get_block(block)
        assert got is not None
        return got

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 0 or hi >= self.dim or lo > hi:
            raise ValueError(f"invalid index range [{lo}, {hi}] for dim {self.dim}")

    def owner_runs(
        self, blocks: Sequence[int]
    ) -> List[Tuple[BlockStore, int, int]]:
        """``blocks`` cut into maximal ``(store, first_block, last_block)`` runs.

        A run is a stretch of the list with consecutive ids and one owner.
        """
        stores = self.resolve_stores(blocks)
        runs: List[Tuple[BlockStore, int, int]] = []
        i, n = 0, len(stores)
        while i < n:
            store = stores[i]
            j = i
            while (
                j + 1 < n
                and stores[j + 1] is store
                and blocks[j + 1] == blocks[j] + 1
            ):
                j += 1
            runs.append((store, blocks[i], blocks[j]))
            i = j + 1
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

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Fancy-indexed read of arbitrary amplitude indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty(idx.shape, dtype=_DTYPE)
        blocks = idx // self.block_size
        held = np.unique(blocks)
        buf = self.read_blocks(held.tolist())
        return buf[
            np.searchsorted(held, blocks) * min(self.dim, self.block_size)
            + (idx - blocks * self.block_size)
        ]

    def full_vector(self) -> np.ndarray:
        """Materialise the whole state vector (mostly for queries/tests)."""
        return self.read_range(0, self.dim - 1)


class IndexReader(_ResolvingReader):
    """A :class:`StateReader` over a writer index "as of" one stage.

    ``index`` is the partition graph (anything with its ``holder(block,
    before_seq)``): the one per-block ownership structure, listing the
    stages that *declare* each block.  ``before_seq`` is exclusive -- a
    stage reads the output of stages strictly before it; ``sys.maxsize``
    reads the final state.

    ``sources`` is the table an update's plan resolved once for the stage
    (``PartitionGraph.plan_sources``): block id -> the store of the closest
    earlier declarer.  A planned block costs one dict lookup per read.  The
    index itself is searched only for a block outside the table or one
    whose planned store holds nothing -- before a first update, after a
    failed one -- and the search steps to the
    next older declarer that does hold it, ending at ``initial``.
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
        sources: Optional[Dict[int, BlockStore]] = None,
    ) -> None:
        self.index = index
        self.initial = initial
        self.before_seq = before_seq
        self.sources: Dict[int, BlockStore] = {} if sources is None else sources
        self.dim = initial.dim
        self.block_size = initial.block_size
        self.n_blocks = initial.n_blocks

    def resolve_stores(self, blocks: Sequence[int]) -> List[BlockStore]:
        planned = self.sources.get
        out: List[BlockStore] = []
        for block in blocks:
            store = planned(block)
            if store is None or not store.has_block(block):
                store = self.index.holder(block, self.before_seq) or self.initial
            out.append(store)
        return out

    def resolve_store(self, block: int) -> BlockStore:
        return self.resolve_stores((block,))[0]


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

    @property
    def allocated_gib(self) -> float:
        return self.allocated_bytes / 2**30

    @staticmethod
    def from_stores(stores: Iterable[BlockStore]) -> "MemoryReport":
        stores = list(stores)
        stored = sum(s.num_stored_blocks for s in stores)
        total = sum(s.n_blocks for s in stores)
        alloc = sum(s.allocated_bytes() for s in stores)
        dense = sum(s.dim * np.dtype(_DTYPE).itemsize for s in stores)
        shared = sum(s.shared_block_count for s in stores)
        shared_b = sum(s.shared_bytes() for s in stores)
        return MemoryReport(
            num_stores=len(stores),
            stored_blocks=stored,
            total_blocks=total,
            allocated_bytes=alloc,
            dense_bytes=dense,
            shared_blocks=shared,
            shared_bytes=shared_b,
        )
