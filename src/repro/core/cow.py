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
nothing (not executed yet, forsaken, left half-written by a failed update,
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

Where the block *payloads* live is delegated to a
:class:`~repro.core.transport.StorageTransport`: the default
:class:`~repro.core.transport.LocalTransport` keeps the numpy arrays in the
store's dict (the hot paths short-circuit around the transport entirely, so
the in-process case pays nothing), while
:class:`~repro.core.transport.ShardedTransport` places block ranges across
forked shard processes and the dict holds lightweight handles.  All the
ownership bookkeeping above -- shared markers, export refcounts -- is
transport-agnostic; remote stores additionally keep a
small bounded read cache so plan execution does not re-fetch a block per
run.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import faults
from .blocks import (
    BlockRange,
    block_bounds,
    mask_blocks,
    num_blocks,
    validate_block_size,
)
from .transport import LOCAL_TRANSPORT, StorageTransport, TransportFailure

__all__ = [
    "BlockStore",
    "InitialStateStore",
    "RoutedStore",
    "IndexReader",
    "MemoryReport",
]

_DTYPE = np.complex128

#: bounded per-store read cache for remote transports (blocks, not bytes);
#: sized to cover a full MAX_RUN_BLOCKS batch with headroom
_READ_CACHE_BLOCKS = 128


def _id_runs(ids: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Index spans ``(i, j)`` of ``ids`` that hold consecutive block ids."""
    i, n = 0, len(ids)
    while i < n:
        j = i
        while j + 1 < n and ids[j + 1] == ids[j] + 1:
            j += 1
        yield i, j
        i = j + 1


class BlockStore:
    """Sparse per-stage storage of state-vector blocks.

    Only blocks written by this stage's partitions are present; everything
    else resolves to an earlier store through :class:`IndexReader`.
    """

    def __init__(
        self,
        dim: int,
        block_size: int,
        transport: Optional[StorageTransport] = None,
    ) -> None:
        self.dim = int(dim)
        self.block_size = validate_block_size(block_size)
        self.n_blocks = num_blocks(self.dim, self.block_size)
        #: block id -> payload handle: the array itself on a local
        #: transport, an opaque remote handle otherwise
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
        #: exported by :meth:`share_from` (mutated under ``_export_lock``:
        #: forked sessions release refs from worker threads)
        self._export_refs: Dict[int, int] = {}
        self._export_lock = threading.Lock()
        #: payload placement; ``_remote`` is the single hot-path branch --
        #: ``None`` means every read/write goes straight at the dict
        self.transport: StorageTransport = LOCAL_TRANSPORT
        self._remote: Optional[StorageTransport] = None
        self._tid: Optional[int] = None
        self._read_cache: Dict[int, np.ndarray] = {}
        #: publish batching (remote only): while a batch is open, writes
        #: bind the local array into ``_blocks`` and register here; the
        #: closing of the outermost batch ships every pending block in
        #: contiguous runs -- one transport round-trip per run instead of
        #: one per kernel publish
        self._batch_lock = threading.Lock()
        self._batch_depth = 0
        self._pending_publish: set = set()
        #: bumped by :meth:`forsake_blocks` (under ``_batch_lock``).  Remote
        #: ships capture the epoch before the round-trip and discard their
        #: handle rebind when it moved: a straggler chunk racing the
        #: transport-recovery path must not resurrect remote handles in a
        #: store that was just forsaken (and possibly rebound to local).
        self._epoch = 0
        if transport is not None:
            self.bind_transport(transport)

    # -- transport binding -------------------------------------------------

    @property
    def is_remote_backed(self) -> bool:
        """True when block payloads live outside this process."""
        return self._remote is not None

    def bind_transport(self, transport: Optional[StorageTransport]) -> None:
        """Adopt ``transport`` for payload placement.

        Stores are bound when their stage enters a simulator -- before any
        block is written -- so this is normally a pure attribute swap; held
        blocks are migrated (materialise + rewrite) for the defensive case.
        """
        if transport is None or transport is self.transport:
            return
        existing: List[Tuple[int, np.ndarray]] = []
        if self._blocks:
            existing = [(b, self.get_block(b)) for b in self.stored_blocks()]
            for b in tuple(self._shared):
                self._release_shared(b)
            if self._remote is not None:
                try:
                    self._remote.release(self, tuple(self._blocks))
                except TransportFailure:  # pragma: no cover - best effort
                    pass
            self._blocks.clear()
        self.transport = transport
        self._remote = transport if transport.is_remote else None
        with self._batch_lock:
            self._pending_publish.clear()
        self._read_cache.clear()
        self._tid = transport.attach_store(self) if self._remote is not None else None
        for b, arr in existing:
            self.write_block(b, arr, copy=True)

    def forsake_blocks(
        self, transport: Optional[StorageTransport] = None
    ) -> None:
        """Forget every block without any transport round-trips.

        The recovery path after shard loss: the payloads are already gone
        (dead or respawned-empty shards), so only the local bookkeeping --
        dict entries, shared markers, export refs -- is torn down, and the
        caller re-executes from the initial state.  Optionally rebinds the
        store to ``transport``.
        """
        self._blocks.clear()
        self._shared.clear()
        with self._export_lock:
            self._export_refs.clear()
        with self._batch_lock:
            self._epoch += 1
            self._pending_publish.clear()
        self._read_cache.clear()
        if transport is not None and transport is not self.transport:
            self.transport = transport
            self._remote = transport if transport.is_remote else None
            self._tid = (
                transport.attach_store(self) if self._remote is not None else None
            )

    def release_remote(self) -> None:
        """Free shard-side payloads at store teardown; local stores no-op."""
        if self._remote is None:
            return
        with self._batch_lock:
            self._pending_publish.clear()
        self._read_cache.clear()
        try:
            self._remote.detach_store(self)
        except TransportFailure:  # pragma: no cover - teardown best effort
            pass

    def release(self) -> None:
        """Session teardown: drop every payload reference this store holds.

        Shard-side payloads are freed (:meth:`release_remote`) and the local
        bindings forgotten with two dict clears -- no per-block work, a
        forked session is closed once per service job.  Arrays another
        store adopted live on through that store's own references; the
        origins' export counts are left as they are.
        """
        self.release_remote()
        self._blocks.clear()
        self._shared.clear()

    # -- publish batching (remote transports) ------------------------------

    @contextlib.contextmanager
    def publish_batch(self):
        """Defer remote publishes until the outermost batch closes.

        Within the batch, written blocks stay as local arrays in ``_blocks``
        (reads see them directly, exactly as on a local transport); the last
        exit ships them in contiguous runs.  Concurrent chunk tasks of one
        stage nest their batches, so a whole stage wave usually ships once.
        Local stores pay a no-op.
        """
        if self._remote is None:
            yield
            return
        with self._batch_lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._batch_lock:
                self._batch_depth -= 1
                flush = self._batch_depth == 0
            if flush:
                self._flush_pending()

    def _flush_pending(self) -> None:
        """Ship every batched publish, one ``write_range`` per contiguous run.

        The shipped arrays seed the read cache: downstream stages reading a
        block this stage just published never pay a transport round-trip.
        """
        if self._remote is None:
            return
        blocks = self._blocks
        remote = self._remote
        with self._batch_lock:
            epoch = self._epoch
            pending = sorted(
                b for b in self._pending_publish
                if isinstance(blocks.get(b), np.ndarray)
            )
            self._pending_publish.clear()
        if not pending:
            return
        cache = self._read_cache
        for i, j in _id_runs(pending):
            run = pending[i : j + 1]
            arrays = [blocks[b] for b in run]
            handles = remote.write_range(self, run[0], arrays)
            with self._batch_lock:
                if self._epoch != epoch:
                    # Forsaken mid-flush (transport recovery on another
                    # thread); drop the rebinds, re-execution rewrites.
                    return
                for b, arr, handle in zip(run, arrays, handles):
                    cache[b] = arr
                    blocks[b] = handle
        while len(cache) > _READ_CACHE_BLOCKS:
            try:
                cache.pop(next(iter(cache)))
            except (StopIteration, KeyError, RuntimeError):  # pragma: no cover
                break

    def _local_payload(self, block: int) -> Optional[np.ndarray]:
        """Read-cache hit or pending (batched, unshipped) payload, if any."""
        got = self._read_cache.get(block)
        if got is not None:
            return got
        held = self._blocks.get(block)
        return held if isinstance(held, np.ndarray) else None

    # -- cross-store sharing (session forking) ----------------------------

    def share_from(self, other: "BlockStore") -> int:
        """Adopt every block of ``other`` as a shared copy-on-write reference.

        The arrays are shared, not copied: both stores reference the same
        (read-only) memory until this store's first write to a block rebinds
        its entry.  ``other`` refcounts each exported block so memory
        attribution stays honest while forks diverge.  Both stores must
        place payloads through the same transport (a fork shares its
        parent's).  Returns the number of blocks adopted.
        """
        if other.dim != self.dim or other.block_size != self.block_size:
            raise ValueError(
                "can only share blocks between stores of identical dim "
                f"and block size, got ({other.dim}, {other.block_size}) "
                f"vs ({self.dim}, {self.block_size})"
            )
        if self._remote is not other._remote:
            raise ValueError(
                "can only share blocks between stores on the same transport, "
                f"got {other.transport.name!r} vs {self.transport.name!r}"
            )
        if other._remote is not None:
            # Shard-side aliasing needs every payload shipped first.
            other._flush_pending()
        blocks = self._blocks
        shared_ids: List[int] = []
        # Published blocks are immutable by contract (kernels allocate
        # fresh outputs and stores rebind); the transport enforces it for
        # shared memory (setflags locally, a no-op for immutable shard
        # payloads).
        other.transport.seal(other, tuple(other._blocks))
        for b, arr in other._blocks.items():
            self._release_shared(b)
            blocks[b] = arr
            self._shared[b] = other
            shared_ids.append(b)
        if self._remote is not None and shared_ids:
            for b in shared_ids:
                self._read_cache.pop(b, None)
            self._remote.share(other, self, shared_ids)
        other._export_retain(shared_ids)
        return len(shared_ids)

    def _export_retain(self, blocks: Sequence[int]) -> None:
        if not blocks:
            return
        with self._export_lock:
            refs = self._export_refs
            for b in blocks:
                refs[b] = refs.get(b, 0) + 1

    def _export_release(self, block: int) -> None:
        with self._export_lock:
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
        with self._export_lock:
            return dict(self._export_refs)

    @property
    def num_exported_blocks(self) -> int:
        with self._export_lock:
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

    def _owned(self, arr: np.ndarray, values, copy: bool) -> np.ndarray:
        """``arr`` detached from the caller's ``values`` when ``copy`` asks.

        Local stores and open batches hold on to the array; an immediate
        remote ship serialises right away, so there the copy is moot.
        """
        if (
            copy
            and (self._remote is None or self._batch_depth > 0)
            and np.may_share_memory(arr, values)
        ):
            return arr.copy()
        return arr

    def _publish(self, blocks: Sequence[int], rows: Sequence[np.ndarray]) -> None:
        """Bind ``rows[i]`` as the payload of ``blocks[i]``.

        The one mutation path behind every ``write_*``: local stores and
        open batches keep the arrays (a batch also registers them for its
        closing flush), an immediate remote publish ships one
        ``write_range`` per contiguous id run and keeps the handles.
        """
        payloads: Sequence[object] = rows
        if self._remote is not None:
            if self._batch_depth > 0:
                with self._batch_lock:
                    self._pending_publish.update(blocks)
            else:
                epoch = self._epoch
                payloads = []
                for i, j in _id_runs(blocks):
                    payloads.extend(
                        self._remote.write_range(self, blocks[i], rows[i : j + 1])
                    )
                with self._batch_lock:
                    if self._epoch != epoch:
                        return  # forsaken mid-ship; discard the handles
            cache_pop = self._read_cache.pop
            for b in blocks:
                cache_pop(b, None)
        if self._shared:
            for b in blocks:
                self._release_shared(b)
        self._blocks.update(zip(blocks, payloads))

    def drop_block(self, block: int) -> None:
        self.drop_blocks((block,))

    def drop_blocks(self, blocks: Iterable[int]) -> None:
        """Forget ``blocks`` (those held), with one transport release."""
        held = [b for b in blocks if self._blocks.pop(b, None) is not None]
        if not held:
            return
        for b in held:
            self._release_shared(b)
        if self._remote is not None:
            with self._batch_lock:
                self._pending_publish.difference_update(held)
            for b in held:
                self._read_cache.pop(b, None)
            try:
                self._remote.release(self, tuple(held))
            except TransportFailure:  # pragma: no cover - best effort
                pass

    def keep_only(self, owned: int) -> None:
        """Drop every held block whose bit is not set in ``owned``.

        A stage coalesced into a run keeps only the blocks it is the run's
        last declarer of; a copy from before it joined the run goes here.
        """
        self.drop_blocks([b for b in self._blocks if not (owned >> b) & 1])

    def clear(self) -> None:
        for b in tuple(self._shared):
            self._release_shared(b)
        if self._remote is not None and self._blocks:
            with self._batch_lock:
                self._pending_publish.clear()
            self._read_cache.clear()
            try:
                self._remote.release(self, tuple(self._blocks))
            except TransportFailure:  # pragma: no cover - best effort
                pass
        self._blocks.clear()

    # -- read side --------------------------------------------------------

    def has_block(self, block: int) -> bool:
        return block in self._blocks

    def get_block(self, block: int) -> Optional[np.ndarray]:
        got = self._blocks.get(block)
        if got is None or self._remote is None:
            return got
        local = self._local_payload(block)
        if local is not None:
            return local
        return self._fetch_blocks(block, block)[0]

    def get_block_many(self, first: int, last: int) -> List[np.ndarray]:
        """Payloads of the contiguous held blocks ``[first, last]``.

        The batched read path of the unified reader: a remote store turns a
        whole same-owner run into one transport round-trip per shard
        instead of a fetch per block.
        """
        if self._remote is not None:
            return self._fetch_blocks(first, last)
        blocks = self._blocks
        return [blocks[b] for b in range(first, last + 1)]

    def prefetch(self, first: int, last: int) -> None:
        """Warm the read cache with held blocks ``[first, last]`` (remote only)."""
        if self._remote is not None:
            self._fetch_blocks(first, last)

    def _fetch_blocks(self, first: int, last: int) -> List[np.ndarray]:
        """Fetch ``[first, last]`` from the transport, via the read cache.

        Worker threads may race on the cache dict; every operation used is
        GIL-atomic, so the worst case is a duplicate fetch, never a torn
        read.
        """
        cache = self._read_cache
        out: List[np.ndarray] = []
        b = first
        while b <= last:
            cached = self._local_payload(b)
            if cached is not None:
                out.append(cached)
                b += 1
                continue
            run_end = b
            while run_end < last and self._local_payload(run_end + 1) is None:
                run_end += 1
            fetched = self._remote.read_range(self, b, run_end)
            out.extend(fetched)
            for bb, arr in zip(range(b, run_end + 1), fetched):
                cache[bb] = arr
            b = run_end + 1
        while len(cache) > _READ_CACHE_BLOCKS:
            try:
                cache.pop(next(iter(cache)))
            except (StopIteration, KeyError, RuntimeError):  # pragma: no cover
                break
        return out

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

    def __init__(self, dim: int, block_size: int) -> None:
        super().__init__(dim, block_size)

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
    run's last declarer of.  Kernels, the run-granular fallback, the publish
    fault site and remote publish batching see the ``write_*`` /
    ``publish_batch`` surface of a :class:`BlockStore`; every published
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

    @property
    def is_remote_backed(self) -> bool:
        return self._stores[0].is_remote_backed

    @contextlib.contextmanager
    def publish_batch(self):
        """One open batch on every owning store (see ``BlockStore``)."""
        with contextlib.ExitStack() as stack:
            for store, mask in zip(self._stores, self._owned):
                if mask:
                    stack.enter_context(store.publish_batch())
            yield

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
    single ``resolve_store`` method; block-list reads, range reads, gathers,
    full-vector materialisation and remote prefetching all derive from it
    through one loop, :meth:`read_blocks`.  Reads batch maximal same-owner
    runs of consecutive blocks: a run of never-written blocks becomes one
    dense zero allocation (:meth:`InitialStateStore.read_dense`, which
    caches nothing) and a run owned by one store becomes one
    :meth:`BlockStore.get_block_many` call -- which, on a remote transport,
    is one round-trip per shard instead of one per block.

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

    def prefetch_blocks(self, first: int, last: int) -> None:
        """Warm remote read caches for blocks ``[first, last]`` (best effort).

        Resolution groups the range into owner runs so each remote store
        sees one batched fetch; local stores are skipped entirely.
        """
        for store, rf, rl in self.owner_runs(range(first, last + 1)):
            if store.is_remote_backed:
                store.prefetch(rf, rl)


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
    failed one, once a store was forsaken -- and the search steps to the
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

    On a remote transport, ``transport`` names the placement and ``shards``
    holds the per-shard occupancy (``shard``/``alive``/``blocks``/
    ``owned_bytes``/``shared_bytes`` each); the shard-side owned bytes of
    one session sum to the same total the local transport reports, which
    the shard-scale benchmark gates on.
    """

    num_stores: int
    stored_blocks: int
    total_blocks: int
    allocated_bytes: int
    dense_bytes: int
    shared_blocks: int = 0
    shared_bytes: int = 0
    transport: str = "local"
    shards: Tuple[Dict[str, int], ...] = ()

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
    def from_stores(
        stores: Iterable[BlockStore],
        transport: Optional[StorageTransport] = None,
    ) -> "MemoryReport":
        stores = list(stores)
        stored = sum(s.num_stored_blocks for s in stores)
        total = sum(s.n_blocks for s in stores)
        alloc = sum(s.allocated_bytes() for s in stores)
        dense = sum(s.dim * np.dtype(_DTYPE).itemsize for s in stores)
        shared = sum(s.shared_block_count for s in stores)
        shared_b = sum(s.shared_bytes() for s in stores)
        shards: Tuple[Dict[str, int], ...] = ()
        name = "local"
        if transport is not None:
            name = transport.name
            if transport.is_remote:
                shards = tuple(transport.shard_report())
        return MemoryReport(
            num_stores=len(stores),
            stored_blocks=stored,
            total_blocks=total,
            allocated_bytes=alloc,
            dense_bytes=dense,
            shared_blocks=shared,
            shared_bytes=shared_b,
            transport=name,
            shards=shards,
        )
