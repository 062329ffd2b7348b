"""Vectorised numpy kernels: the one slab backend every update runs on.

These kernels are the computational payload of qTask's partition tasks.  A
stage's run table -- aligned block runs under one operation -- executes on
:class:`NumpyBatchBackend`, which reads the stage input from a *reader* and
publishes the output blocks.  Because output ranges of different chunks are
disjoint, chunks can run in parallel without locks; the heavy lifting is
done by numpy (which releases the GIL), matching the hpc-parallel guidance
of vectorising inner loops instead of iterating in Python.

One kernel per gate class of the paper's classification (§III.C):

* ``diagonal`` -- scale amplitudes by a phase table,
* ``monomial`` -- gather amplitudes along a generalized permutation, times
  a factor table (the two are one gather-multiply over a slab),
* ``dense``    -- a superposition stage's member gates applied to a gathered
  window of whole blocks (:func:`apply_dense`).

A coalesced run closed by a superposition stage is one table of the first
kind whose operation carries the second's steps: one gather-multiply, then
:func:`apply_dense` on the same buffer, then one publish.

:func:`qubit_marginal` is the collapse draws' mass kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from . import faults
from .blocks import MAX_RUN_BLOCKS
from .exec_plan import (
    RUN_ACTION,
    RUN_DENSE,
    PlanOp,
    RunTable,
)
from .gates import DiagonalAction, extract_local, replace_local

__all__ = [
    "StateReader",
    "DENSE_WINDOW_QUBITS",
    "dense_steps",
    "dense_window",
    "apply_dense",
    "qubit_marginal",
    "NumpyBatchBackend",
]

_DTYPE = np.complex128


class StateReader(Protocol):
    """Anything that can serve gate-input amplitudes.

    Implemented by the subclasses of :class:`~repro.core.cow._ResolvingReader`:
    :class:`~repro.core.cow.IndexReader`, which every plan and query reads
    through, and the tests' ``StoreChain`` oracle.
    """

    def read_blocks(self, blocks: Sequence[int]) -> np.ndarray:
        """Whole blocks ``blocks`` concatenated in list order, as a fresh
        array the caller owns: the slab kernels compute in it and publish it
        zero-copy, the observables engine reads its partials from it."""

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Amplitudes ``lo..hi`` inclusive (single-amplitude queries)."""

    def full_vector(self) -> np.ndarray:
        """The whole state vector (collapse draws and ``state()``)."""


# ---------------------------------------------------------------------------
# Collapse masses (dynamic circuits: measure / reset)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _marginal_index(num_qubits: int, qubits: Tuple[int, ...]) -> np.ndarray:
    """Local index on ``qubits`` of every amplitude of ``num_qubits``
    (``uint16``: a run's union is at most ``MAX_RUN_QUBITS`` = 12 qubits, so
    16 entries of a 20-qubit state hold 32 MB)."""
    local = extract_local(np.arange(1 << num_qubits, dtype=np.int64), qubits)
    local = local.astype(np.uint16)
    local.setflags(write=False)
    return local


def qubit_marginal(amps: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """``|amp|**2`` of a whole state vector summed onto ``qubits``.

    ``qubits`` ascending; entry ``l`` of the ``2**len(qubits)`` result is the
    mass of the amplitudes whose bits on ``qubits`` read ``l`` (bit ``j`` of
    ``l`` is ``qubits[j]``, the local-index convention of the actions): one
    ``bincount`` over a cached local-index table.  What a plan holding
    collapses draws every one of them from.
    """
    probs = amps.real * amps.real
    probs += amps.imag * amps.imag
    index = _marginal_index(amps.shape[0].bit_length() - 1, tuple(qubits))
    return np.bincount(index, weights=probs, minlength=1 << len(qubits))


# ---------------------------------------------------------------------------
# Dense windows: the superposition stages' kernel
# ---------------------------------------------------------------------------
#
# A dense stage applies the member gates of one net (disjoint qubits, so they
# commute) to whole aligned windows of ``2**(max qubit + 1)`` amplitudes --
# the smallest ranges its action is closed under, and the unit its partitions
# are made of (``partition.dense_layout``).  Its operation's payload is the
# members' ``(qubits, matrix)`` steps, never their 2^k x 2^k product, and
# :func:`apply_dense` is the one routine both the run-by-run loop and the
# slab backend apply them with.  Bit-identity between the two rests on
# every step computing a *tile* (one run, or one window wider than a run)
# the same way however many tiles a buffer holds: elementwise ufuncs
# (multiplies never in place: numpy's in-place complex multiply rounds a
# one-element array differently) and BLAS calls of one fixed shape per
# tile or per window -- never one gemm whose size is the buffer's, which
# OpenBLAS rounds differently by size.  No call exceeds ``_BLAS_MNK``
# multiply-adds either: OpenBLAS hands larger ones to its thread pool, whose
# wake-ups cost milliseconds on a shared host.

#: Qubits per Kronecker window: 1-qubit members are grouped by
#: ``qubit // DENSE_WINDOW_QUBITS``.  Fixed, not a knob: 4 measured best of
#: 1-5 on a 14-gate layer, 2-CPU host (a wider window spends more flops per
#: amplitude than the passes it saves).
DENSE_WINDOW_QUBITS = 4

_EYE2 = np.eye(2, dtype=_DTYPE)

#: Most ``m * n * k`` of one BLAS call of :func:`apply_dense` (below the size
#: OpenBLAS starts threading at).
_BLAS_MNK = 1 << 15


def dense_steps(
    members: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
) -> Tuple[Tuple[Tuple[int, ...], np.ndarray], ...]:
    """The ``(qubits, matrix)`` steps applying commuting ``members``.

    The 1-qubit members of one window become one step: the Kronecker
    product over the window's qubits ascending from the lowest member's
    (from qubit 0 in the first window), identity on the qubits between.  A
    window above the first holding a single member keeps it as a 2x2 step;
    a multi-qubit member is a step of its own.  A matrix's local index bit
    ``j`` is the step's ``qubits[j]``.
    """
    windows: Dict[int, Dict[int, np.ndarray]] = {}
    steps = []
    for qubits, matrix in members:
        matrix = np.asarray(matrix, dtype=_DTYPE)
        if len(qubits) == 1:
            windows.setdefault(qubits[0] // DENSE_WINDOW_QUBITS, {})[qubits[0]] = matrix
        else:
            steps.append((tuple(qubits), matrix))
    for window, mats in sorted(windows.items()):
        if window and len(mats) == 1:
            steps.extend(((q,), m) for q, m in mats.items())
            continue
        lo = min(mats) if window else 0
        kron = np.ones((1, 1), dtype=_DTYPE)
        for q in range(lo, max(mats) + 1):  # a later qubit is a slower bit
            m, n = mats.get(q, _EYE2), kron.shape[0]
            kron = (m[:, None, :, None] * kron[None, :, None, :]).reshape(2 * n, 2 * n)
        steps.append((tuple(range(lo, max(mats) + 1)), kron))
    return tuple(steps)


def dense_window(lo: int, hi: int, qubits: Sequence[int]) -> Tuple[int, int]:
    """The aligned window a dense run ``[lo, hi]`` on ``qubits`` reads.

    The run itself when it spans whole ``2**(max(qubits) + 1)``-amplitude
    windows; otherwise (a dense gate high enough for its window to exceed a
    run) the one window holding it, of which the run publishes its part.
    """
    span = max(hi - lo + 1, 1 << (max(qubits) + 1))
    first = lo - lo % span
    return first, first + span - 1


def apply_dense(buf: np.ndarray, steps, tile: int) -> np.ndarray:
    """Apply dense ``steps`` to ``buf`` and return the result.

    ``buf`` is a fresh array of whole ``tile``-amplitude tiles -- runs, or
    windows (:func:`dense_window`).  A step on qubits ``0..w-1`` is one
    matmul per tile over its ``(2**w)``-wide rows; one on adjacent ascending
    qubits from ``lo`` a matmul per ``(2**w, 2**lo)`` view; anything else --
    a lone 1-qubit member, ``ch`` / ``crx`` / ``rxx`` on qubits apart -- a
    contraction over its axes of the view.
    """
    for qubits, matrix in steps:
        lo, k = qubits[0], len(qubits)
        adjacent = qubits == tuple(range(lo, lo + k))
        if adjacent and lo == 0:
            rows = max(1, min(tile >> k, _BLAS_MNK >> (2 * k)))
            buf = np.matmul(buf.reshape(-1, rows, 1 << k), matrix.T).reshape(-1)
        elif adjacent and k > 1:
            # (2**k, cols) column slabs of the (2**k, 2**lo) views
            cols = max(1, min(1 << lo, _BLAS_MNK >> (2 * k)))
            shape = (-1, 1 << k, (1 << lo) // cols, cols)
            out = np.empty_like(buf)
            np.matmul(
                matrix,
                buf.reshape(shape).transpose(0, 2, 1, 3),
                out=out.reshape(shape).transpose(0, 2, 1, 3),
            )
            buf = out
        else:
            buf = _contract(buf, qubits, matrix)
    return buf


def _contract(buf: np.ndarray, qubits: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """A k-qubit step on a ``(..., 2, gap, ..., 2, 2**min)`` view with one
    axis per qubit: every output slice is the sum of its row's
    scalar-times-input-slice products -- a ``tensordot`` of the matrix over
    those axes, done elementwise so that no BLAS call sees the batch (for
    one qubit, the 2x2 update of a ``(..., 2, 2**q)`` view)."""
    k = len(qubits)
    shape: List[int] = [-1]
    axis = {}
    top = max(qubits) + 1
    for q in sorted(qubits, reverse=True):
        shape += [1 << (top - q - 1), 2]
        axis[q] = len(shape) - 1
        top = q
    shape.append(1 << top)
    view = buf.reshape(shape)

    def part(local: int):
        index = [slice(None)] * len(shape)
        for j, q in enumerate(qubits):
            index[axis[q]] = (local >> j) & 1
        return tuple(index)

    parts = [part(local) for local in range(1 << k)]
    inputs = [view[p] for p in parts]
    out = np.empty_like(view)
    for row, p in zip(matrix.tolist(), parts):
        acc = inputs[0] * row[0]
        for col in range(1, 1 << k):
            acc += inputs[col] * row[col]
        out[p] = acc
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# The slab backend: batch-major execution of compiled run tables
# ---------------------------------------------------------------------------
#
# The backend consumes one RunTable (the runs of one stage, or a chunk of
# them) at a time through ``execute_plan(reader, store, table)``.  Runs of
# one table write disjoint ranges, so it is free to reorder or batch them;
# a one-row table (what a faulted chunk re-executes, run by run) produces
# the same bits for its run as the whole table does.


# -- slab execution ---------------------------------------------------------
#
# The numpy backend executes a run table -- runs that share one operation
# -- as *slabs*: the input blocks gathered into one buffer, one multiply
# over it, and one publish for the table.  What makes that a single array
# op is a per-amplitude index table.  It depends only on the operation's
# index structure (qubits + local permutation), the blocks the runs cover
# and the geometry -- never on phases or factors -- so tables are shared
# process-wide under that key, the key family of
# ``partition._enumerate_partitions``.


class _SlabTable(NamedTuple):
    """Index structure of one slab (arrays read-only, compact dtypes)."""

    #: output block ids, in run order
    out_ids: List[int]
    #: input block ids, ascending.  *Not* ``out_ids`` in general: a monomial
    #: run reads the mirror range of another run of its partition,
    #: which ``RunTable.split`` may have put in another chunk.
    in_ids: List[int]
    #: ``int32`` position, in the gathered input, of the source of each
    #: written amplitude; ``None`` when the gather is the identity
    srcpos: Optional[np.ndarray]
    #: ``uint8``/``uint16`` local index whose phase / factor multiplies each
    #: output amplitude; ``None`` for an identity copy
    local: Optional[np.ndarray]


@lru_cache(maxsize=256)
def _slab_table(
    kind: int, key, los: bytes, his: bytes, block_size: int, dim: int
) -> _SlabTable:
    """The table of runs ``los``/``his`` (``int64`` bytes) under one operation.

    A slab never exceeds ``MAX_RUN_BLOCKS`` blocks nor the state, so the
    entry bound is a memory bound: an entry holds at most 6 bytes per
    amplitude of min(64 blocks, the state), the cache 256 such entries.  At
    the default eight blocks per state an entry can index a whole state.
    """
    block_len = min(dim, block_size)
    bounds = zip(
        np.frombuffer(los, np.int64).tolist(), np.frombuffer(his, np.int64).tolist()
    )
    out_ids = np.concatenate(
        [np.arange(lo // block_size, hi // block_size + 1) for lo, hi in bounds]
    )
    idx = (out_ids[:, None] * block_size + np.arange(block_len)).reshape(-1)
    src = idx
    local = None
    if kind == RUN_ACTION:
        qubits, perm = key
        local = extract_local(idx, qubits)
        if perm is not None:
            inv = np.empty(len(perm), dtype=np.int64)
            inv[list(perm)] = np.arange(len(perm))
            local = inv[local]
            src = replace_local(idx, qubits, local)
        k = len(qubits)
        local = local.astype(
            np.uint8 if k <= 8 else np.uint16 if k <= 16 else np.int64
        )
    in_blocks = src // block_size
    in_ids = np.unique(in_blocks)
    srcpos: Optional[np.ndarray] = (
        np.searchsorted(in_ids, in_blocks) * block_len + src % block_size
    ).astype(np.int32)
    if np.array_equal(srcpos, np.arange(idx.size)):
        srcpos = None
    for arr in (srcpos, local):
        if arr is not None:
            arr.setflags(write=False)
    return _SlabTable(out_ids.tolist(), in_ids.tolist(), srcpos, local)


def _slab_bounds(
    los: np.ndarray, his: np.ndarray, block_size: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Cut a table's runs into slabs of at most ``MAX_RUN_BLOCKS`` blocks.

    A slab's output is one array the store adopts zero-copy; the cap keeps
    what a surviving block view can pin where the per-run path has it (no
    run exceeds the cap, so every slab holds at least one).
    """
    counts = his // block_size - los // block_size + 1
    if int(counts.sum()) <= MAX_RUN_BLOCKS:
        yield los, his
        return
    start = held = 0
    for i, count in enumerate(counts.tolist()):
        if held + count > MAX_RUN_BLOCKS:
            yield los[start:i], his[start:i]
            start, held = i, 0
        held += count
    yield los[start:], his[start:]


class NumpyBatchBackend:
    """The one kernel path: one gather and one multiply per slab, one publish
    per table.

    The owners of all input blocks of a slab are resolved in one pass and
    gathered into one buffer (``reader.read_blocks``, so the reader must be
    a block resolver of :mod:`repro.core.cow`), a shared :class:`_SlabTable`
    turns the diagonal / monomial operation (a collapse's projector
    included) into one
    (gather-)multiply over it, and one ``store.write_blocks`` publishes
    every output block of the table.  The slab table carries no alignment,
    equal-length or qubit-position condition, so every run shape takes this
    path, and each amplitude is the product of the same two operands however
    the runs are chunked: output is bit-identical to executing the runs one
    by one.  A dense table gathers its runs' windows instead and applies
    :func:`apply_dense` to each run's window.  An action whose operation
    carries dense steps (a run closed by a superposition stage: one slab,
    the whole state in order) applies them to the multiplied slab before
    it is published, on the tile that stage's own table has.
    """

    def execute_plan(self, reader: StateReader, store, table: RunTable) -> None:
        block_size, dim = store.block_size, store.dim
        block_len = min(dim, block_size)
        op, los, his = table.op, table.los, table.his
        if faults.ACTIVE is not None:
            faults.fire("kernel.run")
        if op.kind == RUN_DENSE:
            store.write_blocks(*self._dense(reader, los, his, op, block_size, block_len))
            return
        key = coeffs = None
        if op.kind == RUN_ACTION:
            if isinstance(op.op, DiagonalAction):
                key = (op.qubits, None)
                coeffs = op.op.phase_array
            else:
                key = (op.qubits, op.op.perm)
                coeffs = op.op.factor_array
        ids = []
        rows = []
        for slab_los, slab_his in _slab_bounds(los, his, block_size):
            t = _slab_table(
                op.kind, key, slab_los.tobytes(), slab_his.tobytes(), block_size, dim
            )
            ids += t.out_ids
            rows += self._slab(reader, t, coeffs, block_len, op.dense)
        store.write_blocks(ids, rows)

    @staticmethod
    def _dense(
        reader, los: np.ndarray, his: np.ndarray, op: PlanOp,
        block_size: int, block_len: int,
    ) -> Tuple[List[int], List[np.ndarray]]:
        """Output block ids and rows of a dense table.

        Runs of one length spanning whole windows are gathered together, a
        slab of at most ``MAX_RUN_BLOCKS`` blocks at a time, each run a tile
        of :func:`apply_dense`.  A run narrower than its window shares one
        gather of the window, the tile, with the table's other runs in it;
        a window wider than ``MAX_RUN_BLOCKS`` blocks is published as
        copies, so no surviving block pins more than a slab.
        """
        width = 1 << (max(op.qubits) + 1)
        lens = his - los + 1
        ids: List[int] = []
        rows: List[np.ndarray] = []
        for n in np.unique(lens[lens >= width]).tolist():
            same = lens == n
            for slab_los, slab_his in _slab_bounds(los[same], his[same], block_size):
                blocks = [
                    b
                    for lo in slab_los.tolist()
                    for b in range(lo // block_size, (lo + n - 1) // block_size + 1)
                ]
                out = apply_dense(reader.read_blocks(blocks), op.op, n)
                ids += blocks
                rows += list(out.reshape(-1, block_len))
        windows: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for lo, hi in zip(los[lens < width].tolist(), his[lens < width].tolist()):
            windows.setdefault(dense_window(lo, hi, op.qubits), []).append((lo, hi))
        for (first, last), runs in windows.items():
            window = range(first // block_size, last // block_size + 1)
            out = apply_dense(reader.read_blocks(window), op.op, width)
            for lo, hi in runs:
                part = out[lo - first : hi - first + 1]
                if len(window) > MAX_RUN_BLOCKS:
                    part = part.copy()
                ids += range(lo // block_size, hi // block_size + 1)
                rows += list(part.reshape(-1, block_len))
        return ids, rows

    @staticmethod
    def _slab(
        reader, t: _SlabTable, coeffs, block_len: int, dense=None
    ) -> List[np.ndarray]:
        """Output rows of one slab; ``coeffs`` is a phase / factor vector,
        or ``None`` for an identity copy, and ``dense`` the ``(steps,
        tile)`` applied after it, if any."""
        vals = reader.read_blocks(t.in_ids)
        if t.srcpos is not None:
            vals = vals.take(t.srcpos)
        # ``vals`` is a fresh array either way: multiply in place
        if t.local is not None:
            np.multiply(vals, coeffs.take(t.local), out=vals)
        if dense is not None:
            vals = apply_dense(vals, *dense)
        return list(vals.reshape(-1, block_len))

