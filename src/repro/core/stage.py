"""Stages: the unit of per-net state-vector management.

The paper keeps several state vectors per net (§III.F.2): superposition gates
of a net are grouped into one dense *stage* (the paper's matrix--vector stage)
that owns a state vector, and every non-superposition gate of the net gets
its own stage/state vector.
A stage owns

* the gate(s) it applies,
* its partition layout (:mod:`repro.core.partition`),
* its copy-on-write block store (:mod:`repro.core.cow`), and
* the one operation (:meth:`Stage.plan_op`) its kernel runs apply.

Stages know nothing about graph connectivity or scheduling; that is the job of
:mod:`repro.core.graph` and :mod:`repro.core.simulator`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blocks import MAX_RUN_BLOCKS, BlockRange, aligned_block_runs
from .classical import OutcomeRecord
from .cow import BlockStore
from .exec_plan import (
    RUN_ACTION,
    RUN_COPY,
    RUN_DENSE,
    PlanOp,
    RunTable,
)
from .gates import (
    Action,
    DiagonalAction,
    Gate,
    MonomialAction,
    classify_matrix,
)
from .compose import composed_runs, run_gathers, scale_action, union_sources
from .kernels import StateReader, dense_steps, qubit_marginal
from .ops import CGate
from .partition import (
    PartitionLayout,
    PartitionSpec,
    dense_layout,
    derive_layout,
    layout_of,
    matvec_layout,
)

__all__ = [
    "gate_action",
    "gate_shape",
    "dense_op",
    "coalesced_table",
    "run_tail",
    "draw_collapses",
    "Stage",
    "UnitaryStage",
    "MatVecStage",
    "DynamicStage",
    "MeasureStage",
    "ResetStage",
    "ClassicallyControlledStage",
    "MAX_RUN_BLOCKS",
]

_stage_counter = itertools.count()


@lru_cache(maxsize=1024)
def _classified(spec, params: Tuple[float, ...]) -> Action:
    return classify_matrix(spec.matrix(*params))


def gate_action(gate: Gate) -> Action:
    """``gate.action()``, classified once per distinct ``(gate type, params)``.

    A circuit repeats a few dozen gate shapes hundreds of times and an
    action does not depend on the qubits, so the engine classifies through
    this bounded cache.  It lives here rather than in ``Gate.action()``
    because the dense baselines replay circuits through that method and
    must keep paying for classification on every gate.
    """
    return _classified(gate.spec, gate.params)


@lru_cache(maxsize=1024)
def gate_shape(
    gate: Gate, qubit_count: int, block_size: int
) -> Tuple[Action, PartitionLayout]:
    """``(gate_action(gate), partition layout)`` of a gate on ``2**qubit_count``
    amplitudes in ``block_size`` blocks -- one lookup per stage built.

    Gates are frozen values, so the key is the gate itself; the layout of a
    superposition gate is the dense one of its qubits.  1 024 entries, the bound
    of the layout cache behind it: it keeps at most as many layouts alive.
    """
    action = gate_action(gate)
    return action, derive_layout(action, gate.qubits, qubit_count, block_size)


@lru_cache(maxsize=1024)
def dense_op(gates: Tuple[Gate, ...]) -> PlanOp:
    """The operation applying commuting superposition ``gates`` (a net's):
    their qubits ascending, and their ``(qubits, matrix)`` steps
    (:func:`~repro.core.kernels.dense_steps`) -- built once per distinct
    member tuple, like :func:`gate_shape`."""
    return PlanOp(
        RUN_DENSE,
        tuple(sorted(q for g in gates for q in g.qubits)),
        dense_steps([(g.qubits, gate_action(g).matrix) for g in gates]),
    )


def _aligned_runs(
    block_range: BlockRange, block_size: int, dim: int
) -> List[Tuple[int, int]]:
    return [
        (fb * block_size, min(dim, (lb + 1) * block_size) - 1)
        for fb, lb in aligned_block_runs(
            block_range.first, block_range.last, MAX_RUN_BLOCKS
        )
    ]


@lru_cache(maxsize=4096)
def _packed_run_bounds(
    block_ranges: Tuple[BlockRange, ...], block_size: int, dim: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(los, his)`` of a run table over ``block_ranges``.

    The aligned runs depend on nothing but the ranges and the geometry, and
    an update re-plans the same partitions of the same layouts again and
    again, so the packed (read-only) arrays are shared under that key.
    """
    runs = [
        run
        for block_range in block_ranges
        for run in _aligned_runs(block_range, block_size, dim)
    ]
    los = np.array([lo for lo, _ in runs], dtype=np.int64)
    his = np.array([hi for _, hi in runs], dtype=np.int64)
    for arr in (los, his):
        arr.setflags(write=False)
    return los, his


class Stage:
    """Base class: one state vector plus the gate work writing into it."""

    kind: str = "stage"

    def __init__(self, qubit_count: int, block_size: int) -> None:
        self.uid = next(_stage_counter)
        self.qubit_count = qubit_count
        self.dim = 1 << qubit_count
        self.block_size = block_size
        self.store = BlockStore(self.dim, block_size)
        self.n_blocks = self.store.n_blocks
        #: sequence index in the simulator's global stage order (maintained
        #: externally by the partition graph).  A stage the simulator has
        #: queued but not wired into the graph yet keeps its stale value
        #: (-1 when it never entered) until the next graph read wires it.
        self.seq: int = -1

    # -- interface ----------------------------------------------------------

    def partition_layout(self) -> PartitionLayout:
        """The partitions with their block masks (what the graph records)."""
        raise NotImplementedError

    def partition_specs(self) -> List[PartitionSpec]:
        """The layout's partition specs, as the caller's own list."""
        return list(self.partition_layout().specs)

    def label(self) -> str:
        raise NotImplementedError

    def gate_list(self) -> Tuple[Gate, ...]:
        raise NotImplementedError

    def reads_all_blocks(self) -> bool:
        """True when this stage's input is the whole previous state vector
        (a collapse: it is drawn behind a sync barrier, :func:`draw_collapses`)."""
        return False

    #: ``True`` when :meth:`plan_op` depends only on the stage's bound
    #: gates -- never on execution-time state (drawn outcomes, classical
    #: bits).  Static stages can have their table compiled into an
    #: execution plan *before* the update runs.
    plan_static: bool = False

    def plan_op(self) -> PlanOp:
        """The one operation every kernel run of this stage applies.

        Asked strictly after the stage's draw (the sync node precedes every
        partition), so drawn outcomes and conditions are final; payloads are
        rebound, never mutated, by the next update.
        """
        raise NotImplementedError

    def emit_table(self, block_ranges: Sequence[BlockRange]) -> RunTable:
        """The aligned runs recomputing the given partitions, packed for a
        backend: shared bounds per range tuple, one operation for all."""
        los, his = _packed_run_bounds(tuple(block_ranges), self.block_size, self.dim)
        return RunTable(self.plan_op(), los, his)

    def clone_for_fork(self) -> "Stage":
        """A fresh stage applying the same gates with an *empty* store.

        Used by session forking: the clone keeps the gates, action and
        partition layout (gates are immutable value objects, shared by
        reference) but owns a brand-new :class:`~repro.core.cow.BlockStore`,
        which the fork then populates via
        :meth:`~repro.core.cow.BlockStore.share_from`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label()}, seq={self.seq})"


class UnitaryStage(Stage):
    """A single non-superposition gate (permutation or diagonal action)."""

    kind = "unitary"
    #: the bound action is fixed for the duration of an update, so the runs
    #: can be compiled into the plan before execution starts
    plan_static = True

    def __init__(self, gate: Gate, qubit_count: int, block_size: int) -> None:
        super().__init__(qubit_count, block_size)
        self.gate = gate
        action, self._layout = gate_shape(gate, qubit_count, block_size)
        if action.creates_superposition:
            raise ValueError(
                f"gate {gate} creates superposition; it belongs in a MatVecStage"
            )
        self.action: Action = action
        self.qubits: Tuple[int, ...] = gate.qubits

    def partition_layout(self) -> PartitionLayout:
        return self._layout

    def label(self) -> str:
        return str(self.gate)

    def gate_list(self) -> Tuple[Gate, ...]:
        return (self.gate,)

    def total_block_count(self) -> int:
        """Total number of blocks over all partitions (net-ordering heuristic)."""
        # partitions are disjoint: the blocks are the bits of the cover mask
        return bin(self._layout.cover).count("1")

    def clone_for_fork(self) -> "UnitaryStage":
        # Bypass __init__: gate, classified action and partition layout are
        # all immutable (stages rebind, never mutate them), so the clone
        # shares them by reference instead of re-deriving -- forking a deep
        # circuit must not re-run gate classification per stage.
        clone = type(self).__new__(type(self))
        Stage.__init__(clone, self.qubit_count, self.block_size)
        clone.gate = self.gate
        clone.action = self.action
        clone.qubits = self.qubits
        clone._layout = self._layout
        return clone

    def plan_op(self) -> PlanOp:
        return PlanOp(RUN_ACTION, self.qubits, self.action)

    def retune(self, gate: Gate) -> bool:
        """Rebind to a retuned gate when the partition layout is unchanged.

        A parameter change (e.g. ``rz(theta)`` -> ``rz(theta')``) usually
        keeps the classified action's sparsity structure, and with it the
        partition layout, intact -- the stage (and its graph nodes) can then
        be reused as-is and only needs re-execution.  Returns ``False`` when
        the new parameters change the classification or the layout (identity
        angles, permutation/superposition crossovers): the caller must then
        rebuild the stage through the remove+insert path.
        """
        if gate.qubits != self.qubits:
            return False
        action, layout = gate_shape(gate, self.qubit_count, self.block_size)
        if action.creates_superposition:
            return False
        if layout.specs != self._layout.specs:
            return False
        # same qubits, same layout: only the bound action changes
        self.gate = gate
        self.action = action
        return True


def run_tail(
    members: Sequence[Stage],
) -> Tuple[Sequence[Stage], Optional["MatVecStage"]]:
    """A run's composed members and the superposition stage closing it as
    its last member (``None`` when none does)."""
    if isinstance(members[-1], MatVecStage):
        return members[:-1], members[-1]
    return members, None


def coalesced_table(
    members: Sequence[Stage], block_ranges: Sequence[BlockRange]
) -> Tuple[RunTable, Optional[int]]:
    """One table doing the work of consecutive ``members`` in one pass, and
    the gathers composing it took now (``None``: it was not composed now).

    Its single operation is the members' actions composed in stage order
    (:func:`~repro.core.compose.compose_run`, over the union of their qubits),
    taken from :data:`~repro.core.compose.composed_runs` under the members'
    ``(action, qubits)`` values: only a run not planned before (or edited
    since) composes.  It is composed once per structure and multiplied once
    per value: a retuned run gathers its members' coefficients over its
    cached structure (:func:`~repro.core.compose.run_structure`), one gather
    and one multiply a member.  A drawn collapse's action is its unscaled
    projector, so the cache holds one composite per outcome pattern; the
    collapses' ``1/sqrt(mass)`` multiply into one scalar applied to the
    composite.
    ``block_ranges`` must span the union of the members' covers, which is
    closed under the composed permutation -- an amplitude moves only within
    the cover of the member moving it.

    A last member that is a :class:`MatVecStage` (a run's tail: then the
    ranges are the whole state, one run) is not composed: the operation
    carries its dense steps and the tile its own table applies them on (one
    run length, every run of a dense layout's table on such a state), so
    the kernel applies them to the composite's output as the stage alone
    would.
    """
    head = members[0]
    members, tail = run_tail(members)
    dense = None
    if tail is not None:
        own = tail.emit_table([spec.block_range for spec in tail.partition_layout().specs])
        dense = (own.op.op, int(own.his[0] - own.los[0]) + 1)
    parts = tuple((s.action, s.qubits) for s in members)
    action, qubits, recomposed = composed_runs.lookup(parts)
    scale = math.prod(s.scale for s in members if isinstance(s, _CollapseStage))
    if scale != 1.0:
        action = scale_action(action, scale)
    los, his = _packed_run_bounds(tuple(block_ranges), head.block_size, head.dim)
    table = RunTable(PlanOp(RUN_ACTION, qubits, action, dense), los, his)
    return table, run_gathers(parts) if recomposed else None


class MatVecStage(Stage):
    """All superposition gates of one net: the paper's matrix--vector stage.

    Gates in a net act on disjoint qubits (the net invariant), so they
    commute and the stage's operator is their tensor product -- which is
    never formed.  The layout is the dense one of the members' qubits
    (:func:`~repro.core.partition.dense_layout`: partitions of whole aligned
    windows, each reading only its own blocks), and every run applies the
    members' ``(qubits, matrix)`` steps to its window
    (:func:`~repro.core.kernels.apply_dense`).  A member added or removed
    changes the qubits and with them the layout; a retune changes only the
    steps.
    """

    kind = "matvec"
    #: the members' matrices are bound at plan time, like a unitary's action
    plan_static = True

    def __init__(
        self, gates: Sequence[Gate], qubit_count: int, block_size: int
    ) -> None:
        super().__init__(qubit_count, block_size)
        self.gates: List[Gate] = []
        self._layout: Optional[PartitionLayout] = None
        for g in gates:
            self.add_gate(g)

    # -- gate membership (a matvec stage can gain/lose gates incrementally) --

    def add_gate(self, gate: Gate) -> None:
        used = {q for g in self.gates for q in g.qubits}
        if used.intersection(gate.qubits):
            raise ValueError(
                f"gate {gate} overlaps qubits already used in this net's "
                "superposition group"
            )
        self.gates.append(gate)
        self._layout = None

    def remove_gate(self, gate: Gate) -> None:
        self.gates.remove(gate)
        self._layout = None

    def retune_gate(self, old: Gate, new: Gate) -> bool:
        """Swap a retuned member in place (same qubits, new parameters).

        The layout depends on the members' qubits only, so a retune never
        restructures anything; the stage only needs re-execution.
        """
        if new.qubits != old.qubits:
            return False
        try:
            i = self.gates.index(old)
        except ValueError:
            return False
        self.gates[i] = new
        return True

    @property
    def is_empty(self) -> bool:
        return not self.gates

    @property
    def qubits(self) -> Tuple[int, ...]:
        """The members' qubits, ascending."""
        return tuple(sorted(q for g in self.gates for q in g.qubits))

    def clone_for_fork(self) -> "MatVecStage":
        return MatVecStage(self.gates, self.qubit_count, self.block_size)

    # -- Stage interface ------------------------------------------------------

    def partition_layout(self) -> PartitionLayout:
        if self._layout is None:
            self._layout = (
                dense_layout(self.qubits, self.qubit_count, self.block_size)
                if self.gates
                else layout_of(())
            )
        return self._layout

    def label(self) -> str:
        return "MxV{" + ",".join(str(g) for g in self.gates) + "}"

    def gate_list(self) -> Tuple[Gate, ...]:
        return tuple(self.gates)

    def plan_op(self) -> PlanOp:
        return dense_op(tuple(self.gates))


# ---------------------------------------------------------------------------
# Dynamic-circuit stages (measure / reset / classical control)
# ---------------------------------------------------------------------------


class DynamicStage(Stage):
    """Base class for non-unitary operations driven by an outcome record.

    A dynamic stage carries the circuit-side operation object plus a
    reference to the simulator's per-trajectory
    :class:`~repro.core.classical.OutcomeRecord`; the record is *bound* by
    the owning simulator (and re-bound on session forks, so a fork's
    trajectory never writes into its parent's classical bits).
    """

    def __init__(
        self,
        op,
        qubit_count: int,
        block_size: int,
        record: Optional[OutcomeRecord] = None,
    ) -> None:
        super().__init__(qubit_count, block_size)
        self.op = op
        self.record = record

    def bind_record(self, record: OutcomeRecord) -> None:
        self.record = record

    def label(self) -> str:
        return str(self.op)

    def gate_list(self) -> Tuple[Gate, ...]:
        return ()

    def clone_for_fork(self) -> "DynamicStage":
        # The op object is shared (immutable apart from its one-shot
        # op_index); the record is rebound by the forking simulator.
        clone = type(self).__new__(type(self))
        DynamicStage.__init__(clone, self.op, self.qubit_count, self.block_size)
        return clone


@lru_cache(maxsize=256)
def _sides(k: int, bit: int) -> Tuple[np.ndarray, np.ndarray]:
    """0/1 vectors over ``2**k`` union-local indices selecting those whose
    ``bit`` reads 0 / 1."""
    one = ((np.arange(1 << k) >> bit) & 1).astype(np.float64)
    zero = 1.0 - one
    for side in (zero, one):
        side.setflags(write=False)
    return zero, one


#: a measurement's action per outcome: the projector onto it
_PROJECTORS = (
    DiagonalAction(1, (1 + 0j, 0j)),
    DiagonalAction(1, (0j, 1 + 0j)),
)
#: a reset's: the outcome's side moved to |0>, the other zeroed
_RESETS = (_PROJECTORS[0], MonomialAction(1, perm=(1, 0), factors=(0j, 1 + 0j)))


class _CollapseStage(DynamicStage):
    """Shared machinery of measure and reset: draw, then project.

    The layout is the matrix--vector one: a sync step reading the whole
    previous state vector, where the outcome is drawn
    (:func:`draw_collapses`), and one partition per data block.  Drawn, a
    collapse is an ordinary non-superposition action on its qubit
    (:attr:`action`: a measurement's projector onto its outcome, a reset's
    monomial moving that side to |0>) times :attr:`scale`, ``1/sqrt(mass)``
    -- so it coalesces with its diagonal / monomial neighbours into one run,
    and re-executes, and invalidates downstream, like a full-width gate.
    """

    #: the action of outcome 0 / 1
    _actions: Tuple[Action, Action] = _PROJECTORS

    def __init__(self, op, *args, **kwargs) -> None:
        super().__init__(op, *args, **kwargs)
        self._outcome: Optional[int] = None
        self._scale = 1.0
        self._masses: Optional[Tuple[float, float]] = None

    def clone_for_fork(self) -> "_CollapseStage":
        # The fork holds this stage's blocks, so it holds the collapse that
        # wrote them: the same outcome, scale and masses.
        clone = super().clone_for_fork()
        clone._outcome = self._outcome
        clone._scale = self._scale
        clone._masses = self._masses
        return clone

    def adopt_collapse(self, masses: Tuple[float, float], outcome: int) -> None:
        """Take on a collapse drawn elsewhere (a checkpoint's): the masses it
        drew against and its outcome, as if it had been drawn here."""
        self._masses = (float(masses[0]), float(masses[1]))
        self._outcome = outcome
        self._scale = 1.0 / math.sqrt(masses[outcome])

    @property
    def qubit(self) -> int:
        return self.op.qubit

    @property
    def qubits(self) -> Tuple[int, ...]:
        return (self.op.qubit,)

    @property
    def outcome(self) -> Optional[int]:
        """The most recently drawn outcome (``None`` before first execution)."""
        return self._outcome

    @property
    def masses(self) -> Optional[Tuple[float, float]]:
        """The unnormalised ``(p0, p1)`` the last draw was made against."""
        return self._masses

    @property
    def scale(self) -> float:
        """``1/sqrt`` of the drawn outcome's mass."""
        return self._scale

    @property
    def action(self) -> Action:
        """The drawn outcome's action on :attr:`qubits`, unscaled."""
        if self._outcome is None:  # pragma: no cover - defensive
            raise RuntimeError(f"{self!r} executed before its draw")
        return self._actions[self._outcome]

    def partition_layout(self) -> PartitionLayout:
        return matvec_layout(self.qubit_count, self.block_size)

    def reads_all_blocks(self) -> bool:
        return True

    def collapse(self, masses: np.ndarray, bit: int, replay: bool) -> np.ndarray:
        """Draw from ``masses`` -- the ``|amp|**2`` marginal of this stage's
        input over a run's union qubits, this one at union ``bit`` -- and
        return the marginal of its (renormalised) output.

        With ``replay`` the recorded outcome is taken instead of a draw
        while there is one and it still has mass.
        """
        if self.record is None:
            raise RuntimeError(f"dynamic stage {self!r} has no outcome record bound")
        k = masses.shape[0].bit_length() - 1
        sides = _sides(k, bit)
        p0 = float(masses @ sides[0])
        p1 = float(masses @ sides[1])
        op_index = self.op.op_index
        outcome = self.record.outcome_of(op_index) if replay else None
        if outcome is None or (p1 if outcome else p0) <= 0.0:
            outcome = self.record.choose(op_index, p0, p1)
        mass = p1 if outcome else p0
        self._masses = (p0, p1)
        self._outcome = outcome
        self._scale = 1.0 / math.sqrt(mass)
        self._record_outcome(outcome)
        masses = masses * (sides[outcome] / mass)
        action = self._actions[outcome]
        if isinstance(action, MonomialAction):  # a reset moving |1> to |0>
            masses = masses.take(union_sources(k, (bit,), action.perm))
        return masses

    def _record_outcome(self, outcome: int) -> None:
        pass

    def plan_op(self) -> PlanOp:
        return PlanOp(RUN_ACTION, self.qubits, scale_action(self.action, self._scale))


def draw_collapses(
    members: Sequence[Stage], reader: StateReader, redraw_from: int = -1
) -> None:
    """The sync step of a plan holding collapses: draw every one of them.

    The plan's input (``reader``, as of its first member) is gathered once
    and reduced to the ``|amp|**2`` marginal over the union of the members'
    qubits (:func:`~repro.core.kernels.qubit_marginal`), which is pushed
    through the members in order: a gate moves masses where it moves
    amplitudes, a collapse draws from them and projects them
    (:meth:`_CollapseStage.collapse`), up to the last collapse.  So each
    collapse draws against the masses of its own input, as if the members
    ran one by one.  A collapse before ``redraw_from`` re-executes only
    because its run did (:attr:`~repro.core.exec_plan.ExecutionPlan.redraw_from`):
    it replays its recorded outcome.
    """
    last = max(i for i, stage in enumerate(members) if isinstance(stage, _CollapseStage))
    members = members[: last + 1]  # what follows the last draw moves no mass it reads
    union = tuple(sorted({q for stage in members for q in stage.qubits}))
    position = {q: j for j, q in enumerate(union)}
    masses = qubit_marginal(reader.full_vector(), union)
    for stage in members:
        bits = tuple(position[q] for q in stage.qubits)
        if isinstance(stage, _CollapseStage):
            masses = stage.collapse(masses, bits[0], stage.seq < redraw_from)
        elif isinstance(stage.action, MonomialAction):  # a gate: |factors| = 1
            masses = masses.take(union_sources(len(union), bits, stage.action.perm))


class MeasureStage(_CollapseStage):
    """Mid-circuit projective Z measurement of one qubit into a clbit."""

    kind = "measure"

    def _record_outcome(self, outcome: int) -> None:
        self.record.set_bit(self.op.clbit, outcome)


class ResetStage(_CollapseStage):
    """Reset one qubit to |0>: projective measurement plus conditional flip."""

    kind = "reset"
    _actions = _RESETS


class ClassicallyControlledStage(DynamicStage):
    """A unitary applied only when the outcome record satisfies a condition.

    The condition is evaluated at *execution* time, after every preceding
    stage (in particular the controlling measurements) has run -- partition
    dependencies guarantee the ordering.  The stage takes its gate's layout
    and applies the classified action -- a superposition gate as one dense
    step, like a one-member :class:`MatVecStage` -- or an identity copy of
    the partition's blocks when the condition fails.

    Condition bits are read *as of this stage's program point*, not from the
    final classical register: the owning simulator installs a lookup
    (:meth:`bind_clbit_lookup`) resolving each bit to the outcome of the
    latest measurement that both writes it and precedes this stage.  A
    partial re-execution therefore never sees a value a *later* measurement
    left behind on a previous trajectory pass -- the semantics a
    from-scratch run of the same circuit would produce.
    """

    kind = "c_if"
    #: simulator-installed ``(bit, before_seq) -> 0/1`` program-point lookup;
    #: ``None`` (standalone/unit-test use) falls back to the final register
    _clbit_lookup = None

    def __init__(
        self,
        op: CGate,
        qubit_count: int,
        block_size: int,
        record: Optional[OutcomeRecord] = None,
    ) -> None:
        super().__init__(op, qubit_count, block_size, record)
        self.gate = op.gate
        # Condition-false executions rewrite the blocks the condition-true
        # layout writes (identity copies), so the layout -- and with it the
        # graph topology -- is condition-independent.
        self.action, self._layout = gate_shape(self.gate, qubit_count, block_size)
        self.qubits: Tuple[int, ...] = self.gate.qubits
        #: the operation of a met condition
        self._taken = (
            dense_op((self.gate,))
            if self.action.creates_superposition
            else PlanOp(RUN_ACTION, self.qubits, self.action)
        )

    def clone_for_fork(self) -> "ClassicallyControlledStage":
        clone = super().clone_for_fork()
        # share the immutable classification work instead of re-deriving
        clone.gate = self.gate
        clone.action = self.action
        clone.qubits = self.qubits
        clone._layout = self._layout
        clone._taken = self._taken
        return clone

    def bind_clbit_lookup(self, lookup) -> None:
        """Install the simulator's program-point clbit resolver."""
        self._clbit_lookup = lookup

    def condition_met(self) -> bool:
        if self._clbit_lookup is not None:
            value = 0
            for j, bit in enumerate(self.op.condition_bits):
                value |= self._clbit_lookup(bit, self.seq) << j
            return value == self.op.condition_value
        if self.record is None:
            raise RuntimeError(f"dynamic stage {self!r} has no outcome record bound")
        return (
            self.record.value_of(self.op.condition_bits) == self.op.condition_value
        )

    def partition_layout(self) -> PartitionLayout:
        return self._layout

    def plan_op(self) -> PlanOp:
        # The condition is resolved here -- strictly after every controlling
        # measurement ran, courtesy of the partition dependencies.
        if self.condition_met():
            return self._taken
        return PlanOp(RUN_COPY, (), None)
