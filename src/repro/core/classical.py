"""Classical registers and measurement-outcome records for dynamic circuits.

Dynamic circuits interleave unitary evolution with *non-unitary* operations:
mid-circuit measurement, qubit reset and classically-conditioned gates.  The
structural side (which classical bits exist, which operations read or write
them) lives on the :class:`~repro.core.circuit.Circuit`; the *runtime* side
(the bit values observed along one trajectory, and the randomness that drew
them) lives in an :class:`OutcomeRecord` owned by each simulator, so forked
sessions carry independent trajectories over a shared circuit.

Randomness is keyed, not streamed: operation ``op_index`` of trajectory
``seed`` draws from ``default_rng((seed, op_index))``, so the outcome of one
measurement never depends on which executor worker ran it, how many other
measurements the circuit holds, or which session simulated the shot.
Re-executions of the same operation (incremental updates re-collapsing a
dirty measurement) consume successive values of that same per-op stream.

For oracle comparisons the record also supports *forced* outcomes: the dense
baseline replays the exact collapse sequence an incremental run recorded,
making trajectory equivalence a deterministic ``1e-10`` amplitude check
instead of a statistical one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ClassicalRegister", "OutcomeRecord", "decide_outcome"]


def decide_outcome(
    op_index: int,
    forced: Optional[int],
    p0: float,
    p1: float,
    draw: Callable[[], float],
) -> int:
    """The outcome of dynamic operation ``op_index``, given its masses.

    The one rule every collapse follows, whether the operation executes
    (:meth:`OutcomeRecord.choose`) or ``run_shots`` only asks where another
    shot's draw would leave a simulated path
    (:meth:`OutcomeRecord.first_choice`).  A ``forced`` outcome wins
    unconditionally; otherwise ``draw()`` (a uniform in ``[0, 1)``, asked
    for only when needed) picks by inverse CDF over the unnormalised masses
    ``p0``/``p1``.
    """
    if forced is not None:
        return int(forced) & 1
    total = p0 + p1
    if total <= 0.0:
        raise ValueError(f"dynamic op {op_index}: zero total probability mass")
    return 0 if draw() * total < p0 else 1


@dataclass(frozen=True)
class ClassicalRegister:
    """A named, contiguous range of classical bits declared on a circuit."""

    name: str
    offset: int
    size: int

    @property
    def bits(self) -> Tuple[int, ...]:
        """The global clbit indices of this register, LSB first."""
        return tuple(range(self.offset, self.offset + self.size))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise IndexError(f"bit {i} out of range for creg {self.name}[{self.size}]")
        return self.offset + i


class OutcomeRecord:
    """Per-trajectory classical state: bit values plus keyed randomness.

    One record belongs to one simulator (forks clone their own).  ``bits``
    hold the current value of every classical bit (0 until first written);
    ``outcome_of`` remembers the most recent collapse outcome of every
    dynamic operation, which is what trajectory-replay oracles consume.
    """

    def __init__(
        self,
        num_bits: int,
        *,
        seed: Optional[int] = None,
        forced: Optional[Mapping[int, int]] = None,
    ) -> None:
        #: declared bit count (used as the default ``bitstring`` width);
        #: registers declared after a simulator attaches grow it via
        #: :meth:`ensure_bits`, and storage is sparse so growth is free
        self.num_bits = int(num_bits)
        #: the trajectory seed actually in use (materialised from entropy
        #: when ``seed=None`` so a run is always reproducible after the fact)
        self.seed = self._materialise_seed(seed)
        self._bits: Dict[int, int] = {}
        #: op_index -> most recent collapse outcome (0/1)
        self._op_outcomes: Dict[int, int] = {}
        #: op_index -> lazily created keyed random stream
        self._streams: Dict[int, np.random.Generator] = {}
        #: op_index -> predetermined outcome (trajectory replay)
        self._forced: Dict[int, int] = dict(forced) if forced else {}

    @staticmethod
    def _materialise_seed(seed) -> int:
        if seed is None:
            return int(np.random.SeedSequence().entropy % (1 << 63))
        if isinstance(seed, (tuple, list)):
            # fold a composite key (e.g. (base_seed, shot_index)) into one int
            folded = np.random.SeedSequence(
                [int(s) % (1 << 63) for s in seed]
            ).generate_state(1, dtype=np.uint64)
            return int(folded[0])
        return int(seed) % (1 << 63)

    # -- lifecycle ---------------------------------------------------------

    def reseed(self, seed) -> None:
        """Start a fresh trajectory: new seed, cleared bits and outcomes."""
        self.seed = self._materialise_seed(seed)
        self._bits.clear()
        self._op_outcomes.clear()
        self._streams.clear()

    def branch(self, seed, dropped_ops: Iterable[int]) -> None:
        """Continue this trajectory under a new seed from a later operation.

        Bits and the recorded outcomes of every operation outside
        ``dropped_ops`` are kept -- they are the shared prefix -- while the
        dropped operations forget theirs and every keyed stream restarts, so
        whatever re-executes draws the first value ``seed`` keys for it.
        """
        self.seed = self._materialise_seed(seed)
        self._streams.clear()
        for op in dropped_ops:
            self._op_outcomes.pop(op, None)

    def ensure_bits(self, num_bits: int) -> None:
        """Grow the declared bit count (late classical-register declaration)."""
        self.num_bits = max(self.num_bits, int(num_bits))

    def begin_pass(self) -> None:
        """Clear the classical bits for a fresh full pass over the circuit.

        Full re-simulation (the baselines) replays every operation each
        ``update_state``; bits must start at 0 so a conditioned gate that
        *precedes* the measurement writing its bit reads 0, not the value
        the previous pass left behind.  Keyed streams and recorded outcomes
        are kept: re-executed draws advance their streams exactly like the
        incremental engine's re-collapses.
        """
        self._bits.clear()

    def snapshot(self) -> tuple:
        """Freeze bits, recorded outcomes and keyed-stream positions.

        The simulator takes one before each ``update_state`` attempt: an
        update-level fault retry re-executes every affected dynamic stage,
        and each re-executed ``choose`` would otherwise advance its keyed
        stream one extra draw -- silently forking the trajectory away from
        what a clean (un-faulted) run of the same session produces.
        """
        return (
            dict(self._bits),
            dict(self._op_outcomes),
            {
                op: copy.deepcopy(gen.bit_generator.state)
                for op, gen in self._streams.items()
            },
        )

    def restore(self, snap: tuple) -> None:
        """Roll classical state back to a :meth:`snapshot` (same record)."""
        bits, outcomes, streams = snap
        self._bits = dict(bits)
        self._op_outcomes = dict(outcomes)
        self._streams = {}
        for op, state in streams.items():
            gen = self.keyed_stream(self.seed, op)
            gen.bit_generator.state = copy.deepcopy(state)
            self._streams[op] = gen

    def clone(self) -> "OutcomeRecord":
        """An independent copy (used by session forking)."""
        out = OutcomeRecord(self.num_bits, seed=self.seed, forced=self._forced)
        out._bits = dict(self._bits)
        out._op_outcomes = dict(self._op_outcomes)
        # streams are deliberately NOT copied: a fork's re-collapse draws
        # from the start of each keyed stream, exactly like a fresh session
        # with the same seed would.
        return out

    # -- classical bits -----------------------------------------------------

    def _check_bit(self, bit: int) -> None:
        if bit < 0:
            raise IndexError(f"classical bit {bit} is negative")

    def get_bit(self, bit: int) -> int:
        self._check_bit(bit)
        return self._bits.get(bit, 0)

    def set_bit(self, bit: int, value: int) -> None:
        self._check_bit(bit)
        self._bits[bit] = int(value) & 1
        self.num_bits = max(self.num_bits, bit + 1)

    def value_of(self, bits: Sequence[int]) -> int:
        """The integer held by ``bits`` (``bits[0]`` is the LSB)."""
        value = 0
        for j, b in enumerate(bits):
            value |= self.get_bit(b) << j
        return value

    def bitstring(self, bits: Optional[Sequence[int]] = None) -> str:
        """Bit values as text, highest bit leftmost (counts-dict convention)."""
        if bits is None:
            bits = range(self.num_bits)
        return "".join(str(self.get_bit(b)) for b in reversed(list(bits)))

    # -- collapse draws -----------------------------------------------------

    def choose(self, op_index: int, p0: float, p1: float) -> int:
        """Draw (or replay) the outcome of dynamic operation ``op_index``.

        ``p0``/``p1`` are the unnormalised outcome masses.  Forced entries
        win unconditionally; otherwise the next value of the op's keyed
        stream picks the outcome by inverse CDF, so equal seeds give equal
        trajectories across every simulator configuration that computes the
        same masses.
        """
        outcome = decide_outcome(
            op_index,
            self._forced.get(op_index),
            p0,
            p1,
            lambda: self._stream(op_index).random(),
        )
        self._op_outcomes[op_index] = outcome
        return outcome

    def _stream(self, op_index: int) -> np.random.Generator:
        stream = self._streams.get(op_index)
        if stream is None:
            stream = self._streams[op_index] = self.keyed_stream(
                self.seed, op_index
            )
        return stream

    @staticmethod
    def keyed_stream(seed: int, op_index: int) -> np.random.Generator:
        """The random stream trajectory ``seed`` keys for ``op_index``."""
        return np.random.default_rng((seed, int(op_index)))

    def first_choice(self, seed: int, op_index: int, p0: float, p1: float) -> int:
        """What trajectory ``seed`` chooses the first time it runs ``op_index``.

        Nothing is drawn from, or recorded in, this record: the answer is
        :meth:`choose`'s for a freshly reseeded record with the same forced
        table, which is how ``run_shots`` finds where a shot leaves a
        simulated path without executing it.  When exactly one side has no
        mass the answer is fixed (``u * total < p0`` for every ``u`` in
        ``[0, 1)`` or for none), so no stream is built for it.
        """
        if (p0 == 0.0) != (p1 == 0.0) and op_index not in self._forced:
            return int(p0 == 0.0)
        return decide_outcome(
            op_index,
            self._forced.get(op_index),
            p0,
            p1,
            lambda: self.keyed_stream(seed, op_index).random(),
        )

    def outcome_of(self, op_index: int) -> Optional[int]:
        """The most recent outcome of a dynamic op (``None`` if never run)."""
        return self._op_outcomes.get(op_index)

    def discard_op(self, op_index: int) -> None:
        """Forget an operation's recorded outcome and stream (op removed)."""
        self._op_outcomes.pop(op_index, None)
        self._streams.pop(op_index, None)

    def recorded_outcomes(self) -> Dict[int, int]:
        """Snapshot of every op's most recent outcome (for replay oracles)."""
        return dict(self._op_outcomes)

    def force_outcomes(self, outcomes: Mapping[int, int]) -> None:
        """Predetermine outcomes per op index (replay/oracle mode)."""
        self._forced.update({int(k): int(v) & 1 for k, v in outcomes.items()})

    def replace_forced(self, outcomes: Mapping[int, int]) -> Dict[int, int]:
        """Swap the forced-outcome table wholesale, returning the old one.

        Restoring a checkpoint with ``fused`` stages re-simulates the whole
        circuit with the recorded trajectory forced (so collapses replay
        instead of redrawing), then restores whatever forcing it had.
        """
        previous = self._forced
        self._forced = {int(k): int(v) & 1 for k, v in outcomes.items()}
        return previous

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutcomeRecord(bits={self.bitstring()}, seed={self.seed})"
