"""Action composition: a coalesced run's members as one action.

Non-superposition actions form a monoid under composition: a diagonal is a
monomial with the identity permutation, and composing two monomials yields
another monomial.  Composing a swept run of consecutive diagonal/monomial
stages into one action over the union of their qubit supports lets an
update execute one plan (one table, one set of CoW block writes) instead
of one per stage.  Where each member's coefficient lands depends only on
the members' qubits and permutations, the run's *structure*, derived once
(:func:`run_structure`); a retuned angle changes only the values, one
gather and one multiply per member (:func:`compose_run`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.session import current as current_telemetry
from .gates import (
    Action,
    DiagonalAction,
    MonomialAction,
    _array_backed,
    _frozen,
    extract_local,
    replace_local,
)

__all__ = [
    "compose_run",
    "run_gathers",
    "run_structure",
    "scale_action",
    "union_sources",
    "ComposedRuns",
    "composed_runs",
]


@lru_cache(maxsize=512)
def _union_locals(k: int, bits: Tuple[int, ...]) -> np.ndarray:
    """Local index on ``bits`` of each of the ``2**k`` union-local indices."""
    return _frozen(extract_local(np.arange(1 << k, dtype=np.int64), bits))


@lru_cache(maxsize=512)
def union_sources(k: int, bits: Tuple[int, ...], perm: Tuple[int, ...]) -> np.ndarray:
    """Where a local permutation on ``bits`` *takes* each union-local index
    from (the inverse of where it sends it)."""
    base = np.arange(1 << k, dtype=np.int64)
    moved = np.asarray(perm, dtype=np.int64).take(_union_locals(k, bits))
    sources = np.empty_like(base)
    sources[replace_local(base, bits, moved)] = base
    return _frozen(sources)


class _SharedPerm(tuple):
    """A composite permutation: one tuple per run structure, shared by every
    composite of that structure, its hash computed once -- a table keyed by
    it (``kernels._slab_table``) pays no ``2**k``-entry pass per lookup."""

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


#: one member's structure: its qubits and its permutation (``None``: diagonal)
MemberShape = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]


class RunStructure(NamedTuple):
    """Everything a run's composite depends on but its members' values."""

    #: the sorted union of the members' qubits
    union: Tuple[int, ...]
    #: the composite's push-form permutation; ``None`` when it is diagonal
    perm: Optional[_SharedPerm]
    perm_array: Optional[np.ndarray]
    #: per member, the index (``uint16`` up to 16 qubits) into its phases /
    #: factors of what it contributes at each composite (push-form) position
    tables: Tuple[np.ndarray, ...]


#: entries of :func:`run_structure`, least recently used first out
RUN_STRUCTURES = 32


@lru_cache(maxsize=RUN_STRUCTURES)
def run_structure(shape: Tuple[MemberShape, ...]) -> RunStructure:
    """The structure of a run whose members have ``shape``, derived once.

    In pull form the members in order put ``factors[j] * input[source[j]]``
    at union-local index ``j``: a permuting member pulls through its
    ``union_sources`` table after multiplying, so a member's coefficient
    reaches the end through every pull from its own on.  Walking the members
    backwards folds that chain into one table per member, in push form
    (a composite's ``pushed[l]`` is the pull-form ``factors[perm[l]]``).
    Bound: ``RUN_STRUCTURES`` entries, each at most ``MAX_RUN_STAGES`` = 64
    tables of 8 KB at 12 qubits plus one permutation (~140 KB as a tuple,
    32 KB as an array): ~0.7 MB an entry, under 24 MB in all.
    """
    union = tuple(sorted({q for qubits, _ in shape for q in qubits}))
    k = len(union)
    position = {q: j for j, q in enumerate(union)}
    bits = [tuple(position[q] for q in qubits) for qubits, _ in shape]
    pulls = [
        None if perm is None else union_sources(k, b, perm)
        for b, (_, perm) in zip(bits, shape)
    ]
    source: Optional[np.ndarray] = None  # ``None``: nothing has moved yet
    for pull in pulls:
        if pull is not None:
            source = pull if source is None else source.take(pull)
    base = np.arange(1 << k, dtype=np.int64)
    perm = shared = None
    if source is not None and not np.array_equal(source, base):
        perm = np.empty_like(base)
        perm[source] = base
        shared = _SharedPerm(perm.tolist())
    tables, dtype = [], np.uint16 if k <= 16 else np.int64
    reads = perm  # composite position -> pull-form index after the member
    for b, pull in zip(reversed(bits), reversed(pulls)):
        if pull is not None:
            reads = pull if reads is None else pull.take(reads)
        local = _union_locals(k, b)
        table = local if reads is None else local.take(reads)
        tables.append(_frozen(table.astype(dtype)))
    tables.reverse()
    return RunStructure(
        union, shared, None if perm is None else _frozen(perm), tuple(tables)
    )


def _member_shape(action: Action, qubits: Sequence[int]) -> MemberShape:
    if isinstance(action, DiagonalAction):
        return tuple(qubits), None
    if isinstance(action, MonomialAction):
        return tuple(qubits), action.perm
    raise TypeError(
        f"only non-superposition actions compose, got {type(action).__name__}"
    )


def compose_run(
    parts: Sequence[Tuple[Action, Sequence[int]]]
) -> Tuple[Action, Tuple[int, ...]]:
    """One action equal to applying every ``(action, qubits)`` part in order.

    The result acts on the sorted union of the parts' qubits.  All parts
    must be non-superposition actions: diagonals multiply into one phase
    table, a monomial part also composes into the running permutation, and
    a permutation that collapses to the identity is classified back to a
    :class:`DiagonalAction`.  The run's structure comes from
    :func:`run_structure`; the value pass is one gather and one in-place
    multiply per member whose coefficients are not all 1, in member order.
    The result is array-backed: its permutation is the structure's shared
    tuple, and no ``2**k``-entry Python object is built.
    """
    structure = run_structure(tuple(_member_shape(a, q) for a, q in parts))
    factors: Optional[np.ndarray] = None
    for (action, _), table in zip(parts, structure.tables):
        if action.unit:
            continue
        coeffs = (
            action.phase_array if isinstance(action, DiagonalAction)
            else action.factor_array
        )
        if factors is None:
            factors = coeffs.take(table)
        else:
            factors *= coeffs.take(table)
    union = structure.union
    if factors is None:
        factors = np.ones(1 << len(union), dtype=complex)
    if structure.perm is None:
        composed = _array_backed(
            DiagonalAction, len(union), phase_array=_frozen(factors)
        )
    else:
        composed = _array_backed(
            MonomialAction, len(union), perm=structure.perm,
            perm_array=structure.perm_array, factor_array=_frozen(factors),
        )
    return composed, union


def run_gathers(parts: Sequence[Tuple[Action, Sequence[int]]]) -> int:
    """Gathers :func:`compose_run` makes for ``parts``: one per member whose
    coefficients are not all 1 (a ``cx`` or a ``swap`` costs none)."""
    return sum(not action.unit for action, _ in parts)


def scale_action(action: Action, scalar: float) -> Action:
    """``action`` with every phase / factor multiplied by ``scalar`` (a run
    holding collapses: its composite times their ``1/sqrt(mass)``); as
    array-backed as a composite."""
    if isinstance(action, DiagonalAction):
        return _array_backed(
            DiagonalAction, action.num_qubits,
            phase_array=_frozen(action.phase_array * scalar),
        )
    return _array_backed(
        MonomialAction, action.num_qubits, perm=action.perm,
        perm_array=action.perm_array,
        factor_array=_frozen(action.factor_array * scalar),
    )


RunParts = Tuple[Tuple[Action, Tuple[int, ...]], ...]


class ComposedRuns:
    """:func:`compose_run` results, kept by the *value* of what was composed.

    The key is the ordered tuple of the parts themselves -- each member's
    ``(action, qubits)``; actions are frozen values that hash and compare by
    their phases / permutation / factors -- never an ``id()`` and never a
    stage.  So a run whose members did not change since it was last planned
    composes nothing, and neither does the same run planned by another
    session (a fresh build of the same circuit, a fork, a restore); a
    retuned, reordered, moved or edited run is another key and misses, and
    is composed over its structure (:func:`run_structure`, its own cache).

    The bound is an entry count, least recently used first out, and with it
    a memory bound: a composite over ``MAX_RUN_QUBITS`` = 12 qubits is
    array-backed, 64 KB of phases / factors of its own plus, if it permutes,
    its structure's shared permutation (~170 KB as tuple and array); so
    ``maxsize`` = 64 entries hold ~4 MB, ~15 MB if no two share a
    structure (ceiling: 16 MB).  Reading ``phases`` / ``factors`` adds a
    ~0.2 MB tuple to an entry; nothing in the engine does.  A miss composes
    inside a ``plan.compose`` span (``members``, ``qubits``, ``gathers``)
    when the active session traces.  Lookups from concurrently planning
    sessions are serialised by a lock; composing happens outside it (two
    planners missing on one run both compose it, either result is the
    value).
    """

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[RunParts, Tuple[Action, Tuple[int, ...]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def lookup(self, parts: RunParts) -> Tuple[Action, Tuple[int, ...], bool]:
        """``compose_run(parts)`` plus whether this lookup had to compose."""
        entries = self._entries
        with self._lock:
            composed = entries.get(parts)
            if composed is not None:
                entries.move_to_end(parts)
                return composed + (False,)
        telemetry = current_telemetry()
        if telemetry is not None and telemetry.tracer.enabled:
            with telemetry.tracer.span("plan.compose", {"members": len(parts)}) as span:
                composed = compose_run(parts)
                span.set("qubits", len(composed[1]))
                span.set("gathers", run_gathers(parts))
        else:
            composed = compose_run(parts)
        with self._lock:
            entries[parts] = composed
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
        return composed + (True,)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide instance the plan pipeline composes through.  Filled
#: lazily, one entry per distinct run an update plans.
composed_runs = ComposedRuns()
