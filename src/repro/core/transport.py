"""Storage transports: where a :class:`~repro.core.cow.BlockStore` keeps bytes.

The COW store tracks *which* blocks a stage owns (dict entries, share
refcounts); a :class:`StorageTransport` decides *where*
the block payloads live.  Two placements ship:

* :class:`LocalTransport` -- the handle **is** the numpy array.  Every read
  returns the stored array itself and every write binds the caller's array,
  so the in-process path keeps its zero-copy publish contract and pays no
  per-call overhead (``BlockStore`` short-circuits around the transport when
  ``is_remote`` is false; this class documents -- and unit-tests -- the
  identity semantics the short-circuit assumes).
* :class:`ShardedTransport` -- block ranges are placed contiguously across N
  forked shard processes, each holding raw ``complex128`` payloads keyed by
  ``(store id, block)``.  The wire format is the checkpoint block codec of
  ``core/snapshot`` (raw little-endian complex128 bytes + CRC32), verified on
  both sides of every hop.  ``share_from``/fork semantics survive sharding
  because a share aliases the immutable payload bytes inside the owning
  shard (per-shard refcounting falls out of CPython refcounts on the shared
  ``bytes`` objects) while the parent keeps its usual shared/owned markers.

Shard processes are module-level and shared across simulators: one fleet of
forked sessions reuses one set of shards, and ``atexit`` reaps them.  A
SIGKILLed shard surfaces as :class:`TransportFailure` on the next
round-trip; the simulator's recovery stack respawns the shard (or falls back
to local past the store breaker threshold) and re-executes from the initial
state.

The ``store.shard`` fault site fires parent-side before every shard
round-trip.  Injected faults are retried in place (each evaluation redraws
the seeded stream); only a run of consecutive fires escalates to a
:class:`TransportFailure`, which exercises the same recovery path a real
dead shard does.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import os
import threading
import zlib
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import faults
from ..telemetry import session as tsession

__all__ = [
    "StorageTransport",
    "LocalTransport",
    "ShardedTransport",
    "TransportFailure",
    "make_transport",
    "encode_block",
    "decode_block",
    "LOCAL_TRANSPORT",
]

logger = logging.getLogger(__name__)

_DTYPE = np.complex128

#: consecutive injected ``store.shard`` faults absorbed in place before the
#: failure escalates to the transport-recovery path
_SHARD_FAULT_RETRIES = 5

_NO_SPAN = nullcontext()


class TransportFailure(RuntimeError):
    """A storage transport lost a shard or a payload.

    Raised on dead shard connections, missing remote blocks and CRC
    mismatches.  The simulator treats it as "stored state is gone": it
    respawns dead shards (or falls back to the local transport) and
    re-executes the circuit from the initial state.
    """


# -- wire codec -------------------------------------------------------------
#
# The checkpoint block codec (core/snapshot) doubles as the shard wire
# format: raw little-endian complex128 payloads with a CRC32 per block,
# verified by the shard on receive and by the parent on fetch.


def encode_block(arr: np.ndarray) -> Tuple[bytes, int]:
    """Serialise one block to ``(payload, crc32)``."""
    raw = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
    return raw, zlib.crc32(raw) & 0xFFFFFFFF


def decode_block(raw: bytes, crc: int, expect_len: Optional[int] = None) -> np.ndarray:
    """Deserialise one block payload, verifying its CRC.

    Returns a read-only array viewing ``raw`` (blocks are immutable on
    publish, so nothing downstream needs write access).
    """
    if zlib.crc32(raw) & 0xFFFFFFFF != int(crc):
        raise TransportFailure("block payload failed CRC verification")
    arr = np.frombuffer(raw, dtype=_DTYPE)
    if expect_len is not None and arr.shape[0] != expect_len:
        raise TransportFailure(
            f"block payload holds {arr.shape[0]} amplitudes, expected {expect_len}"
        )
    return arr


class _RemoteBlock:
    """Parent-side handle for a block whose payload lives in a shard.

    Quacks like an array for the accounting paths (``nbytes``) so
    ``allocated_bytes``/``shared_bytes`` need no transport round-trips.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_RemoteBlock(nbytes={self.nbytes})"


# -- interface --------------------------------------------------------------


class StorageTransport:
    """Placement policy for block payloads.

    Handles returned by :meth:`write_range` are whatever the transport wants
    the store to keep in its block dict -- the array itself for the local
    case, an opaque :class:`_RemoteBlock` for remote ones.  All methods are
    block-granular; ``store`` is the owning :class:`BlockStore` (transports
    read its ``n_blocks``/``_tid`` and, locally, its block dict).
    """

    name = "abstract"
    #: remote transports pay a serialisation cost per access; stores branch
    #: on this once and keep their direct-dict hot path when it is False
    is_remote = False

    def attach_store(self, store) -> Optional[int]:
        """Register ``store`` and return its transport id (``None`` if unused)."""
        return None

    def detach_store(self, store) -> None:
        """Forget ``store`` and free every payload it still owns."""

    def write_range(
        self, store, first_block: int, arrays: Sequence[np.ndarray]
    ) -> List[object]:
        """Place consecutive block payloads; return the handles to keep."""
        raise NotImplementedError

    def read_range(self, store, first_block: int, last_block: int) -> List[np.ndarray]:
        """Fetch the payloads of blocks ``[first_block, last_block]``."""
        raise NotImplementedError

    def seal(self, store, blocks: Sequence[int]) -> None:
        """Mark published blocks immutable (export side of ``share_from``)."""

    def share(self, src_store, dst_store, blocks: Sequence[int]) -> None:
        """Alias ``src_store``'s payloads into ``dst_store`` (zero-copy fork)."""

    def release(self, store, blocks: Sequence[int]) -> None:
        """Free the payloads of dropped blocks."""

    def bytes_owned(self, store) -> int:
        """Bytes of ``store``'s payloads not shared from another store."""
        return store.allocated_bytes() - store.shared_bytes()

    def shard_report(self) -> List[Dict[str, int]]:
        """Per-shard occupancy breakdown (empty for single-process transports)."""
        return []

    def healthy(self) -> bool:
        return True

    def close(self) -> None:
        """Release transport resources (idempotent)."""


class LocalTransport(StorageTransport):
    """In-process placement: the handle is the array, reads return it as-is."""

    name = "local"
    is_remote = False

    def write_range(
        self, store, first_block: int, arrays: Sequence[np.ndarray]
    ) -> List[object]:
        return list(arrays)

    def read_range(self, store, first_block: int, last_block: int) -> List[np.ndarray]:
        blocks = store._blocks
        return [blocks[b] for b in range(first_block, last_block + 1)]

    def seal(self, store, blocks: Sequence[int]) -> None:
        store_blocks = store._blocks
        for b in blocks:
            store_blocks[b].setflags(write=False)


#: process-wide default; stores constructed without an explicit transport
#: all share this stateless instance
LOCAL_TRANSPORT = LocalTransport()


# -- sharded backend --------------------------------------------------------


def _shard_main(conn) -> None:  # pragma: no cover - runs in fork children
    """Shard process body: a dict of CRC-checked block payloads.

    Payloads are immutable ``bytes`` keyed by ``(store tid, block)``; a
    ``share`` aliases the bytes object under the destination key, so the
    per-shard refcount of a shared payload is CPython's refcount on the
    bytes itself and the ``shared`` flag only drives accounting.
    """
    payloads: Dict[Tuple[int, int], Tuple[bytes, int]] = {}
    shared: Dict[Tuple[int, int], bool] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op == "put":
                _, tid, items = msg
                for block, raw, crc in items:
                    if zlib.crc32(raw) & 0xFFFFFFFF != crc:
                        raise ValueError(f"CRC mismatch on block {block}")
                for block, raw, crc in items:
                    key = (tid, block)
                    payloads[key] = (raw, crc)
                    shared.pop(key, None)
                reply = ("ok", None)
            elif op == "get":
                _, tid, blocks = msg
                out = []
                for b in blocks:
                    entry = payloads.get((tid, b))
                    if entry is None:
                        raise KeyError(f"store {tid} holds no block {b} here")
                    out.append((b, entry[0], entry[1]))
                reply = ("ok", out)
            elif op == "share":
                _, src_tid, dst_tid, blocks = msg
                for b in blocks:
                    entry = payloads.get((src_tid, b))
                    if entry is None:
                        raise KeyError(f"store {src_tid} holds no block {b} here")
                    key = (dst_tid, b)
                    payloads[key] = entry
                    shared[key] = True
                reply = ("ok", None)
            elif op == "release":
                _, tid, blocks = msg
                for b in blocks:
                    key = (tid, b)
                    payloads.pop(key, None)
                    shared.pop(key, None)
                reply = ("ok", None)
            elif op == "drop_tid":
                _, tid = msg
                for key in [k for k in payloads if k[0] == tid]:
                    payloads.pop(key, None)
                    shared.pop(key, None)
                reply = ("ok", None)
            elif op == "purge":
                payloads.clear()
                shared.clear()
                reply = ("ok", None)
            elif op == "report":
                owned = 0
                shared_b = 0
                for key, (raw, _) in payloads.items():
                    if shared.get(key):
                        shared_b += len(raw)
                    else:
                        owned += len(raw)
                reply = (
                    "ok",
                    {
                        "blocks": len(payloads),
                        "owned_bytes": owned,
                        "shared_bytes": shared_b,
                    },
                )
            elif op == "ping":
                reply = ("ok", None)
            elif op == "stop":
                conn.send(("ok", None))
                break
            else:
                reply = ("err", f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - shard must answer, not die
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _ShardRuntime:
    """One fleet of shard processes, shared across transports.

    Every simulator (and every fork of it) selecting ``num_shards`` shards
    talks to the same processes, with per-shard locks serialising the duplex
    pipes across executor worker threads.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._procs: List[object] = []
        self._conns: List[object] = []
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._spawn_lock = threading.Lock()
        self.closed = False

    def started(self) -> bool:
        return bool(self._procs)

    def ensure_started(self) -> None:
        with self._spawn_lock:
            if self._procs or self.closed:
                return
            for _ in range(self.num_shards):
                proc, conn = self._spawn()
                self._procs.append(proc)
                self._conns.append(conn)

    @staticmethod
    def _spawn():
        import multiprocessing as mp

        if not hasattr(os, "fork"):
            raise TransportFailure("sharded transport needs the fork start method")
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_shard_main, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def alive(self, shard: int) -> bool:
        return bool(self._procs) and self._procs[shard].is_alive()

    def all_alive(self) -> bool:
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def respawn_dead(self) -> int:
        """Replace every dead shard with a fresh (empty) process."""
        respawned = 0
        with self._spawn_lock:
            for i, proc in enumerate(self._procs):
                if proc.is_alive():
                    continue
                try:
                    self._conns[i].close()
                except OSError:  # pragma: no cover - already broken
                    pass
                proc.join(timeout=0.5)
                new_proc, new_conn = self._spawn()
                self._procs[i] = new_proc
                self._conns[i] = new_conn
                # a fresh lock: the old one may be held by a thread stuck on
                # the dead pipe
                self._locks[i] = threading.Lock()
                respawned += 1
        return respawned

    def request(self, shard: int, msg: tuple):
        """One locked round-trip to ``shard``; raises on a dead connection."""
        if not self._procs:
            self.ensure_started()
        conn = self._conns[shard]
        with self._locks[shard]:
            try:
                conn.send(msg)
                status, payload = conn.recv()
            except (EOFError, OSError, ValueError) as exc:
                raise TransportFailure(
                    f"shard {shard} connection failed: {exc}"
                ) from exc
        if status != "ok":
            raise TransportFailure(f"shard {shard}: {payload}")
        return payload

    def close(self) -> None:
        with self._spawn_lock:
            self.closed = True
            for i, proc in enumerate(self._procs):
                try:
                    self._conns[i].send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                try:
                    self._conns[i].close()
                except OSError:  # pragma: no cover
                    pass
            for proc in self._procs:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._procs.clear()
            self._conns.clear()


_shard_runtimes: Dict[int, _ShardRuntime] = {}
_runtime_lock = threading.Lock()
_tid_counter = itertools.count(1)


def _get_shard_runtime(num_shards: int) -> _ShardRuntime:
    with _runtime_lock:
        rt = _shard_runtimes.get(num_shards)
        if rt is None or rt.closed:
            rt = _shard_runtimes[num_shards] = _ShardRuntime(num_shards)
        return rt


def shutdown_shard_runtimes() -> None:
    """Stop every shared shard fleet (registered atexit)."""
    with _runtime_lock:
        runtimes = list(_shard_runtimes.values())
        _shard_runtimes.clear()
    for rt in runtimes:
        rt.close()


atexit.register(shutdown_shard_runtimes)


class ShardedTransport(StorageTransport):
    """Block payloads sharded across N forked processes.

    Placement is contiguous: a store's block range is split into
    ``num_shards`` equal spans, so the owner-run batching of the unified
    reader usually touches one shard per run.  Reads and writes carry the
    checkpoint wire codec (CRC-verified both ways) and are wrapped in
    ``store.read``/``store.ship`` spans when tracing is on.
    """

    name = "sharded"
    is_remote = True

    def __init__(self, num_shards: Optional[int] = None) -> None:
        if num_shards is None:
            env = os.environ.get("QTASK_STORE_SHARDS")
            num_shards = int(env) if env else 2
        self.num_shards = max(1, int(num_shards))
        self._runtime = _get_shard_runtime(self.num_shards)
        #: informational counters (mirrored into the metrics registry by
        #: the simulator's statistics refresh; GIL-atomic increments)
        self.remote_reads = 0
        self.bytes_shipped = 0
        self.shard_restarts = 0
        self.fault_trips = 0

    # -- placement ---------------------------------------------------------

    def _shard_of(self, store, block: int) -> int:
        # Contiguous spans: blocks [k*nb/N, (k+1)*nb/N) live on shard k.
        return min(block * self.num_shards // store.n_blocks, self.num_shards - 1)

    def _group_by_shard(self, store, blocks) -> Dict[int, List[int]]:
        grouped: Dict[int, List[int]] = {}
        for b in blocks:
            grouped.setdefault(self._shard_of(store, b), []).append(b)
        return grouped

    # -- fault envelope ----------------------------------------------------

    def _guarded_request(self, shard: int, msg: tuple):
        """One shard round-trip under the ``store.shard`` fault site.

        Injected faults retry in place (the seeded stream redraws per
        evaluation); a consecutive run of them -- or a genuinely dead
        shard -- escalates to :class:`TransportFailure`.
        """
        last: Optional[BaseException] = None
        for _ in range(_SHARD_FAULT_RETRIES):
            if faults.ACTIVE is not None:
                try:
                    faults.fire("store.shard")
                except faults.FaultInjected as exc:
                    last = exc
                    self.fault_trips += 1
                    continue
            return self._runtime.request(shard, msg)
        raise TransportFailure(
            f"store.shard fault fired {_SHARD_FAULT_RETRIES} consecutive times"
        ) from last

    # -- StorageTransport interface ---------------------------------------

    def attach_store(self, store) -> int:
        self._runtime.ensure_started()
        return next(_tid_counter)

    def detach_store(self, store) -> None:
        tid = getattr(store, "_tid", None)
        if tid is None or not self._runtime.started():
            return
        for shard in range(self.num_shards):
            try:
                self._runtime.request(shard, ("drop_tid", tid))
            except TransportFailure:  # pragma: no cover - teardown best effort
                pass

    def write_range(
        self, store, first_block: int, arrays: Sequence[np.ndarray]
    ) -> List[object]:
        tid = store._tid
        handles: List[object] = []
        per_shard: Dict[int, List[Tuple[int, bytes, int]]] = {}
        total = 0
        for off, arr in enumerate(arrays):
            b = first_block + off
            raw, crc = encode_block(arr)
            per_shard.setdefault(self._shard_of(store, b), []).append((b, raw, crc))
            handles.append(_RemoteBlock(len(raw)))
            total += len(raw)
        tel = tsession.current()
        tracer = tel.tracer if tel is not None else None
        span = (
            tracer.span("store.ship", {"blocks": len(handles), "bytes": total})
            if tracer is not None and tracer.enabled
            else _NO_SPAN
        )
        with span:
            for shard, items in per_shard.items():
                self._guarded_request(shard, ("put", tid, items))
        self.bytes_shipped += total
        return handles

    def read_range(self, store, first_block: int, last_block: int) -> List[np.ndarray]:
        tid = store._tid
        n = last_block - first_block + 1
        grouped = self._group_by_shard(store, range(first_block, last_block + 1))
        tel = tsession.current()
        tracer = tel.tracer if tel is not None else None
        span = (
            tracer.span("store.read", {"blocks": n})
            if tracer is not None and tracer.enabled
            else _NO_SPAN
        )
        out: List[Optional[np.ndarray]] = [None] * n
        with span:
            for shard, blocks in grouped.items():
                for b, raw, crc in self._guarded_request(shard, ("get", tid, blocks)):
                    out[b - first_block] = decode_block(raw, crc, store._block_len)
        self.remote_reads += n
        return out  # type: ignore[return-value]

    def seal(self, store, blocks: Sequence[int]) -> None:
        # Shard payloads are immutable bytes; nothing to do.
        return None

    def share(self, src_store, dst_store, blocks: Sequence[int]) -> None:
        # src and dst have identical dim/block_size (validated by
        # share_from), hence identical placement.
        for shard, ids in self._group_by_shard(src_store, blocks).items():
            self._guarded_request(
                shard, ("share", src_store._tid, dst_store._tid, ids)
            )

    def release(self, store, blocks: Sequence[int]) -> None:
        if not self._runtime.started():
            return
        for shard, ids in self._group_by_shard(store, blocks).items():
            self._runtime.request(shard, ("release", store._tid, ids))

    def shard_report(self) -> List[Dict[str, int]]:
        report: List[Dict[str, int]] = []
        for shard in range(self.num_shards):
            entry: Dict[str, int] = {"shard": shard, "alive": False}
            if self._runtime.started() and self._runtime.alive(shard):
                try:
                    stats = self._runtime.request(shard, ("report",))
                except TransportFailure:
                    stats = {"blocks": 0, "owned_bytes": 0, "shared_bytes": 0}
                else:
                    entry["alive"] = True
                entry.update(stats)
            else:
                entry.update({"blocks": 0, "owned_bytes": 0, "shared_bytes": 0})
            report.append(entry)
        return report

    # -- health / recovery -------------------------------------------------

    def healthy(self) -> bool:
        return not self._runtime.started() or self._runtime.all_alive()

    def respawn_dead(self) -> bool:
        """Replace dead shards with fresh ones; ``True`` when all alive after.

        Freshly spawned shards are empty: the caller owns re-executing from
        the initial state.  Surviving shards are purged so every store on
        this transport restarts from one consistent (empty) placement.
        """
        restarted = self._runtime.respawn_dead()
        self.shard_restarts += restarted
        if restarted:
            tsession.emit_event("store.respawn", shards=restarted)
        self.purge()
        return self._runtime.all_alive()

    def purge(self) -> None:
        """Best-effort: drop every payload on every live shard."""
        for shard in range(self.num_shards):
            if not self._runtime.started():
                return
            try:
                self._runtime.request(shard, ("purge",))
            except TransportFailure:  # pragma: no cover - dead shard
                continue

    def shard_pids(self) -> List[int]:
        """Live shard process ids (tests kill these to exercise recovery)."""
        self._runtime.ensure_started()
        return [p.pid for p in self._runtime._procs]

    def close(self) -> None:
        # The runtime is shared across transports (and fork fleets); closing
        # one simulator must not tear it down.  shutdown_shard_runtimes()
        # reaps at exit.
        return None


# -- selection --------------------------------------------------------------


def make_transport(spec=None) -> Tuple[StorageTransport, bool]:
    """Resolve a transport spec to ``(transport, fell_back)``.

    ``None`` reads ``QTASK_STORE_TRANSPORT`` (default ``local``), the only
    place it is read.  A :class:`StorageTransport` *instance* passes through
    unchanged so callers can inject a pre-configured transport (custom shard
    count) or share one across sessions.  Requesting ``sharded`` on a host
    without ``fork`` substitutes local and reports ``fell_back=True`` -- knob
    settings stay portable.
    """
    if isinstance(spec, StorageTransport):
        return spec, False
    if spec is None:
        spec = os.environ.get("QTASK_STORE_TRANSPORT", "local")
    name = str(spec).lower()
    if name == "local":
        return LOCAL_TRANSPORT, False
    if name == "sharded":
        if not hasattr(os, "fork"):
            logger.warning(
                "sharded store transport needs fork; falling back to local"
            )
            return LOCAL_TRANSPORT, True
        return ShardedTransport(), False
    raise ValueError(
        f"unknown store transport {spec!r}: expected 'local' or 'sharded'"
    )
