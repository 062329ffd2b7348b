"""Partition derivation: from gate actions to partitioned data blocks.

This module implements the task-decomposition strategy of §III.C.  For a
non-superposition gate the state-vector indices it touches are grouped into
*orbit units* (amplitude pairs for permutation gates, single amplitudes for
diagonal gates).  Units are ordered by their smallest index, chunked into
*tasks* of ``B`` units (``B`` = block size), and consecutive tasks whose
memory regions overlap are merged into a single *partition* spanning
consecutive data blocks -- reproducing the layouts of Fig. 4/5 of the paper
(e.g. CNOT ``G6`` gives one partition of four blocks with two intra-gate
tasks, ``G7``/``G8`` give two partitions of two blocks each, ``G9`` two
partitions of three blocks each).

A superposition (dense) action enumerates the same way: it is one orbit-unit
type spanning all of its local states, so each partition holds only the
blocks its rows mix -- the paper's MxV partitions (§III.C), each reading its
own blocks instead of the whole vector.  :func:`matvec_layout` (one
partition per block behind a synchronisation barrier) is left to the
collapses (measure / reset), which read every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .blocks import BlockRange, num_blocks, validate_block_size
from .gates import Action, DiagonalAction, MatVecAction, MonomialAction

__all__ = [
    "PartitionSpec",
    "PartitionLayout",
    "UnitLayout",
    "unit_layout_of",
    "layout_of",
    "derive_layout",
    "derive_partitions",
    "dense_layout",
    "matvec_layout",
    "matvec_partitions",
]

#: Guard against accidentally enumerating astronomically many orbit units.
MAX_ENUMERATED_UNITS = 1 << 26


@dataclass(frozen=True)
class PartitionSpec:
    """A partition: consecutive data blocks plus its intra-gate task count."""

    block_range: BlockRange
    num_unit_tasks: int
    num_units: int

    @property
    def num_blocks(self) -> int:
        return len(self.block_range)


class PartitionLayout(NamedTuple):
    """A stage's partitions plus their block sets as Python-int bitmasks.

    Bit ``b`` of ``masks[k]`` is set when partition ``k`` spans block ``b``;
    ``cover`` is their union.  The partition graph's frontier sweep tests
    "does this partition read a stale block" as one ``mask & dirty``.
    """

    specs: Tuple[PartitionSpec, ...]
    masks: Tuple[int, ...]
    cover: int


def layout_of(specs: Sequence[PartitionSpec]) -> PartitionLayout:
    """The :class:`PartitionLayout` of a list of partition specs."""
    masks = tuple(
        (1 << (s.block_range.last + 1)) - (1 << s.block_range.first)
        for s in specs
    )
    cover = 0
    for mask in masks:
        cover |= mask
    return PartitionLayout(tuple(specs), masks, cover)


@dataclass(frozen=True)
class UnitLayout:
    """Orbit-unit description of a non-superposition action.

    Each entry of ``unit_locals`` is the tuple of local indices forming one
    orbit unit *type*; instantiating it over all values of the non-gate
    ("free") qubits yields the concrete units.  ``min_local``/``max_local``
    are precomputed per type.
    """

    unit_locals: Tuple[Tuple[int, ...], ...]

    @property
    def num_types(self) -> int:
        return len(self.unit_locals)


def unit_layout_of(action: Action) -> UnitLayout:
    """Orbit units of a non-superposition action.

    Diagonal actions contribute single-amplitude units for every touched
    local state; monomial actions contribute one unit per permutation cycle
    plus single-amplitude units for phase-only fixed points.  Derived once
    per distinct action: actions are frozen values and the engine hands out
    one per gate shape (``stage.gate_action``), so a circuit's few dozen
    shapes are looked up, not re-derived on every insert.
    """
    if not isinstance(action, (DiagonalAction, MonomialAction)):
        raise TypeError(
            "unit layout is only defined for non-superposition actions, "
            f"got {type(action)!r}"
        )
    return _unit_layout(action)


@lru_cache(maxsize=1024)
def _unit_layout(action: Action) -> UnitLayout:
    if isinstance(action, DiagonalAction):
        return UnitLayout(tuple((l,) for l in action.touched_locals()))
    return UnitLayout(
        tuple(
            cyc if len(cyc) == 1 else tuple(sorted(cyc))
            for cyc in action.orbits()
        )
    )


def _free_values(qubit_count: int, qubits: Sequence[int]) -> np.ndarray:
    """All values of the non-gate qubits, deposited into their bit positions.

    The result is sorted ascending because free bit positions are visited in
    ascending order and the deposit map is therefore monotonic.
    """
    free_bits = [b for b in range(qubit_count) if b not in qubits]
    count = 1 << len(free_bits)
    base = np.arange(count, dtype=np.int64)
    vals = np.zeros(count, dtype=np.int64)
    for j, b in enumerate(free_bits):
        vals |= ((base >> j) & 1) << b
    return vals


def _deposit_local(local: int, qubits: Sequence[int]) -> int:
    out = 0
    for j, q in enumerate(qubits):
        out |= ((local >> j) & 1) << q
    return out


def derive_layout(
    action: Action,
    qubits: Sequence[int],
    qubit_count: int,
    block_size: int,
) -> PartitionLayout:
    """Partition layout of a gate on a ``2**qubit_count`` state vector.

    Superposition actions get :func:`dense_layout`; identity actions
    (nothing touched) produce no partitions at all.  The layout depends only
    on the orbit-unit types, the qubits and the geometry, so results (block
    masks included) are shared process-wide under that key and a repeated
    gate shape costs O(2**len(qubits)), not O(2**n).
    """
    block_size = validate_block_size(block_size)
    if isinstance(action, MatVecAction):
        return dense_layout(qubits, qubit_count, block_size)
    return _enumerate_partitions(
        unit_layout_of(action).unit_locals, tuple(qubits), qubit_count, block_size
    )


def dense_layout(
    qubits: Sequence[int], qubit_count: int, block_size: int
) -> PartitionLayout:
    """Partition layout of a dense action on ``qubits``.

    The action mixes every local state of its qubits, so it is one orbit-unit
    type; only a unit's smallest and largest offset enter the enumeration,
    hence the type ``(0, 2**k - 1)``.  Every amplitude lies in one unit, so
    the cover is every block, and a partition is a run of whole aligned
    ``2**(max(qubits) + 1)``-amplitude windows -- closed under the action, a
    subset of the "all blocks" an MxV partition reads in the paper.
    """
    qubits = tuple(sorted(qubits))
    return _enumerate_partitions(
        ((0, (1 << len(qubits)) - 1),), qubits, qubit_count, block_size
    )


def derive_partitions(
    action: Action,
    qubits: Sequence[int],
    qubit_count: int,
    block_size: int,
) -> List[PartitionSpec]:
    """The partition specs of :func:`derive_layout`, as the caller's own list."""
    return list(derive_layout(action, qubits, qubit_count, block_size).specs)


@lru_cache(maxsize=1024)
def _enumerate_partitions(
    unit_locals: Tuple[Tuple[int, ...], ...],
    qubits: Tuple[int, ...],
    qubit_count: int,
    block_size: int,
) -> PartitionLayout:
    """Enumerate every orbit unit, chunk into tasks, merge into partitions."""
    if not unit_locals:
        return layout_of(())

    free = _free_values(qubit_count, qubits)
    n_units = len(unit_locals) * free.shape[0]
    if n_units > MAX_ENUMERATED_UNITS:
        raise MemoryError(
            f"refusing to enumerate {n_units} orbit units "
            f"(> {MAX_ENUMERATED_UNITS}); use a larger block size or fewer qubits"
        )

    mins_parts = []
    maxs_parts = []
    for unit in unit_locals:
        offsets = [_deposit_local(l, qubits) for l in unit]
        off_min, off_max = min(offsets), max(offsets)
        mins_parts.append(free | np.int64(off_min))
        maxs_parts.append(free | np.int64(off_max))
    mins = np.concatenate(mins_parts)
    maxs = np.concatenate(maxs_parts)
    order = np.argsort(mins, kind="stable")
    mins = mins[order]
    maxs = maxs[order]

    # Chunk into tasks of `block_size` orbit units.
    chunk = block_size
    starts = np.arange(0, n_units, chunk, dtype=np.int64)
    task_lo = mins[starts]
    task_hi = np.maximum.reduceat(maxs, starts)
    # Also the span can never shrink below the largest min inside the chunk.
    chunk_min_max = np.maximum.reduceat(mins, starts)
    task_hi = np.maximum(task_hi, chunk_min_max)

    # Merge consecutive tasks whose block regions overlap.
    first_blocks = task_lo // block_size
    last_blocks = task_hi // block_size
    partitions: List[PartitionSpec] = []
    cur_first = int(first_blocks[0])
    cur_last = int(last_blocks[0])
    cur_tasks = 1
    cur_units = int(min(chunk, n_units))
    for i in range(1, starts.shape[0]):
        fb, lb = int(first_blocks[i]), int(last_blocks[i])
        units_here = int(min(chunk, n_units - starts[i]))
        if fb <= cur_last:  # block regions overlap (or touch within a block)
            cur_last = max(cur_last, lb)
            cur_tasks += 1
            cur_units += units_here
        else:
            partitions.append(
                PartitionSpec(BlockRange(cur_first, cur_last), cur_tasks, cur_units)
            )
            cur_first, cur_last, cur_tasks, cur_units = fb, lb, 1, units_here
    partitions.append(
        PartitionSpec(BlockRange(cur_first, cur_last), cur_tasks, cur_units)
    )
    return layout_of(partitions)


@lru_cache(maxsize=64)
def matvec_layout(qubit_count: int, block_size: int) -> PartitionLayout:
    """One single-block partition per data block (the MxV layout of Fig. 4)."""
    block_size = validate_block_size(block_size)
    dim = 1 << qubit_count
    nb = num_blocks(dim, block_size)
    per_block_units = min(block_size, dim)
    return layout_of(
        [PartitionSpec(BlockRange(b, b), 1, per_block_units) for b in range(nb)]
    )


def matvec_partitions(qubit_count: int, block_size: int) -> List[PartitionSpec]:
    """The partition specs of :func:`matvec_layout`, as the caller's own list."""
    return list(matvec_layout(qubit_count, block_size).specs)
