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
measurement never depends on which pool thread ran it, how many other
measurements the circuit holds, or which session simulated the shot.
Re-executions of the same operation (incremental updates re-collapsing a
dirty measurement) consume successive values of that same per-op stream.
:func:`keyed_uniforms` computes the first value of many such streams in
one vectorised pass, bit-identical to building each generator; a record
primed with them (:class:`PrimedSeed`) serves an op's first draw without
building its stream.

For oracle comparisons the record also supports *forced* outcomes: the dense
baseline replays the exact collapse sequence an incremental run recorded,
making trajectory equivalence a deterministic ``1e-10`` amplitude check
instead of a statistical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ClassicalRegister",
    "OutcomeRecord",
    "PrimedSeed",
    "decide_outcome",
    "fold_seeds",
    "keyed_uniforms",
    "primed_seeds",
]

# -- keyed draws in bulk ------------------------------------------------------
#
# numpy's ``SeedSequence`` (entropy pool of four uint32 words, ``hashmix`` /
# ``mix``, ``generate_state``) and ``PCG64`` seeding (XSL-RR output of a
# 128-bit LCG), vectorised over keys.  A key ``(a, b)`` of integers below
# 2**64 is numpy's entropy ``[a, b]``: each becomes its little-endian uint32
# words (0 gives one word), and a pool shorter than four words is the same
# as one padded with zeros.

_M32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and its next ``count`` products by ``mult`` mod 2**32, as a
    column: the ``hash_const`` each successive call starts from."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


# the pool's 4 + 12 hashmix calls and generate_state's 8 words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_HALVES = (np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32))
_LOW32 = np.uint64(_M32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))

#: keys per vectorised pass of :func:`primed_seeds` (bounds its temporaries)
_KEY_CHUNK = 1 << 14


def _hashmix(values: np.ndarray, call: int, count: int) -> np.ndarray:
    """``hashmix`` calls ``call .. call + count - 1`` along axis 0."""
    values = (values ^ _HASH_A[call:call + count]) * _HASH_A[call + 1:call + count + 1]
    return values ^ (values >> _XSHIFT)


def _entropy_pools(a, b) -> np.ndarray:
    """The mixed ``SeedSequence`` pool of every key ``(a, b)``, shape (4, n)."""
    a, b = (np.asarray(x, dtype=np.uint64).ravel() for x in np.broadcast_arrays(a, b))
    a_lo, a_hi = a.astype(np.uint32), (a >> _U32).astype(np.uint32)
    b_lo, b_hi = b.astype(np.uint32), (b >> _U32).astype(np.uint32)
    wide = a_hi != 0  # a spans two words, so b's start one later
    pool = _hashmix(
        np.stack([
            a_lo,
            np.where(wide, a_hi, b_lo),
            np.where(wide, b_lo, b_hi),
            np.where(wide, b_hi, np.uint32(0)),
        ]),
        0,
        4,
    )
    call = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], call, 3)
        call += 3
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    return pool


def _generate_state(pool: np.ndarray, words: int) -> np.ndarray:
    """``generate_state(words, uint64)`` of every pool, shape (words, n)."""
    n32 = 2 * words
    out = (pool[[i % 4 for i in range(n32)]] ^ _HASH_B[:n32]) * _HASH_B[1:n32 + 1]
    out = (out ^ (out >> _XSHIFT)).astype(np.uint64)
    return out[0::2] | (out[1::2] << _U32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """``state * MULT + inc`` on 128-bit states held as (hi, lo) words."""
    m0, m1 = _MULT_LO_HALVES
    # the high word of lo * MULT_LO, from 32-bit halves
    lo_lo, lo_hi = lo & _LOW32, lo >> _U32
    p0, p1, p2 = lo_lo * m0, lo_lo * m1, lo_hi * m0
    mid = (p0 >> _U32) + (p1 & _LOW32) + (p2 & _LOW32)
    carry = lo_hi * m1 + (p1 >> _U32) + (p2 >> _U32) + (mid >> _U32)
    hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi
    lo_mul = lo * _MULT_LO
    lo = lo_mul + inc_lo
    return hi + (lo < lo_mul), lo


def fold_seeds(base: int, shots) -> np.ndarray:
    """``OutcomeRecord._materialise_seed((base, shot))`` for every shot.

    ``base`` and the shots lie in ``[0, 2**63)`` (what ``_materialise_seed``
    reduces a composite key's parts to); the folded seeds, uint64, span
    ``[0, 2**64)``.
    """
    return _generate_state(_entropy_pools(base, shots), 1)[0]


def keyed_uniforms(seeds, ops) -> np.ndarray:
    """The first ``random()`` of ``default_rng((seed, op))`` for every key.

    ``seeds`` and ``ops`` (integers in ``[0, 2**64)``) broadcast together;
    the result has their broadcast shape and equals, bit for bit, what
    :meth:`OutcomeRecord.keyed_stream` would draw first for each pair.
    """
    shape = np.broadcast_shapes(np.shape(seeds), np.shape(ops))
    init_hi, init_lo, seq_hi, seq_lo = _generate_state(_entropy_pools(seeds, ops), 4)
    # pcg64 srandom: inc = initseq << 1 | 1; step; += initstate; step
    inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _U1) | _U1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)  # the first draw's step
    # XSL-RR output, then the top 53 bits as a double
    mixed, rot = hi ^ lo, hi >> _U58
    out = (mixed >> rot) | (mixed << ((_U64 - rot) & _U63))
    return ((out >> _U11).astype(np.float64) * 2.0**-53).reshape(shape)


class PrimedSeed:
    """A trajectory seed with its collapses' first draws already made.

    ``seed`` is a materialised trajectory seed; ``firsts[columns[op]]`` is
    the first value ``keyed_stream(seed, op)`` yields.  Anything that takes
    a trajectory seed takes one: :meth:`OutcomeRecord.reseed` and
    :meth:`~OutcomeRecord.branch` key the record with ``seed`` and serve
    each listed op's first draw from ``firsts``, and
    :meth:`OutcomeRecord.first_choice` reads it instead of building a
    stream.
    """

    __slots__ = ("seed", "columns", "firsts")

    def __init__(self, seed: int, columns: Mapping[int, int], firsts: np.ndarray):
        self.seed = int(seed)
        self.columns = columns
        self.firsts = firsts

    def first(self, op_index: int) -> Optional[float]:
        """The first uniform of ``op_index``'s stream, if it was primed."""
        col = self.columns.get(op_index)
        return None if col is None else float(self.firsts[col])


def primed_seeds(base: int, shots: int, ops: Sequence[int]) -> List[PrimedSeed]:
    """Trajectory ``(base, shot)`` for every shot, primed for ``ops``.

    Every shot's seed is folded and every ``(shot, op)`` first draw made in
    vectorised passes of at most ``_KEY_CHUNK`` keys; row ``shot`` of the
    ``shots x len(ops)`` table is that shot's :class:`PrimedSeed`.
    """
    seeds = fold_seeds(base, np.arange(shots, dtype=np.uint64))
    op_keys = np.asarray(ops, dtype=np.uint64)[None, :]
    table = np.empty((shots, len(ops)))
    step = max(1, _KEY_CHUNK // max(1, len(ops)))
    for start in range(0, shots, step):
        stop = min(start + step, shots)
        table[start:stop] = keyed_uniforms(seeds[start:stop, None], op_keys)
    columns = {int(op): j for j, op in enumerate(ops)}
    return [PrimedSeed(seed, columns, row) for seed, row in zip(seeds.tolist(), table)]


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
        #: the trajectory's primed first draws (a :class:`PrimedSeed`
        #: seeded it), and the ops whose first draw came from them and
        #: have no stream yet
        self._primed: Optional[PrimedSeed] = None
        self._served: set = set()
        #: op_index -> predetermined outcome (trajectory replay)
        self._forced: Dict[int, int] = dict(forced) if forced else {}

    @staticmethod
    def _materialise_seed(seed) -> int:
        if isinstance(seed, PrimedSeed):
            return seed.seed
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
        self._key(seed)
        self._bits.clear()
        self._op_outcomes.clear()

    def branch(self, seed, dropped_ops: Iterable[int]) -> None:
        """Continue this trajectory under a new seed from a later operation.

        Bits and the recorded outcomes of every operation outside
        ``dropped_ops`` are kept -- they are the shared prefix -- while the
        dropped operations forget theirs and every keyed stream restarts, so
        whatever re-executes draws the first value ``seed`` keys for it.
        """
        self._key(seed)
        for op in dropped_ops:
            self._op_outcomes.pop(op, None)

    def _key(self, seed) -> None:
        """Key every stream by ``seed`` from their first value on."""
        self.seed = self._materialise_seed(seed)
        self._primed = seed if isinstance(seed, PrimedSeed) else None
        self._streams.clear()
        self._served.clear()

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

    def clone(self) -> "OutcomeRecord":
        """An independent copy (session forking), via the export pair."""
        out = OutcomeRecord(self.num_bits, seed=0)
        out.import_state(self.export_state())
        return out

    def export_state(self) -> Dict[str, object]:
        """The record as JSON-safe data, less its streams and primed draws: a
        copy's re-collapse draws from the start of each keyed stream."""
        return {
            "num_bits": self.num_bits,
            "seed": self.seed,
            "bits": sorted(self._bits.items()),
            "ops": sorted(self._op_outcomes.items()),
            "forced": sorted(self._forced.items()),
        }

    def import_state(self, state: Mapping[str, object]) -> None:
        """Become what :meth:`export_state` gave; the seed is kept as it is."""
        self.num_bits = int(state["num_bits"])
        self.seed = int(state["seed"])
        self._bits = {int(b): int(v) for b, v in state["bits"]}
        self._op_outcomes = {int(i): int(v) for i, v in state["ops"]}
        self._forced = {int(i): int(v) for i, v in state["forced"]}
        self._primed = None
        self._streams.clear()
        self._served.clear()

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
        same masses.  A primed record (see :class:`PrimedSeed`) serves an
        op's first value from its row and builds the stream only if the op
        draws again.
        """
        outcome = decide_outcome(
            op_index,
            self._forced.get(op_index),
            p0,
            p1,
            lambda: self._draw(op_index),
        )
        self._op_outcomes[op_index] = outcome
        return outcome

    def _draw(self, op_index: int) -> float:
        """The next value of ``op_index``'s keyed stream."""
        if (
            self._primed is not None
            and op_index not in self._streams
            and op_index not in self._served
        ):
            first = self._primed.first(op_index)
            if first is not None:
                self._served.add(op_index)
                return first
        return self._stream(op_index).random()

    def _stream(self, op_index: int) -> np.random.Generator:
        stream = self._streams.get(op_index)
        if stream is None:
            stream = self._streams[op_index] = self.keyed_stream(
                self.seed, op_index
            )
            if op_index in self._served:  # its first value is spent
                self._served.discard(op_index)
                stream.random()
        return stream

    @staticmethod
    def keyed_stream(seed: int, op_index: int) -> np.random.Generator:
        """The random stream trajectory ``seed`` keys for ``op_index``.

        The oracle for every keyed draw; :func:`keyed_uniforms` computes
        first values of many such streams at once.
        """
        return np.random.default_rng((seed, int(op_index)))

    def first_choice(self, seed, op_index: int, p0: float, p1: float) -> int:
        """What trajectory ``seed`` chooses the first time it runs ``op_index``.

        Nothing is drawn from, or recorded in, this record: the answer is
        :meth:`choose`'s for a freshly reseeded record with the same forced
        table, which is how ``run_shots`` finds where a shot leaves a
        simulated path without executing it.  A :class:`PrimedSeed` answers
        from its row; a plain seed builds the op's keyed stream.  When
        exactly one side has no mass the answer is fixed (``u * total <
        p0`` for every ``u`` in ``[0, 1)`` or for none), so nothing is drawn.
        """
        if (p0 == 0.0) != (p1 == 0.0) and op_index not in self._forced:
            return int(p0 == 0.0)
        return decide_outcome(
            op_index,
            self._forced.get(op_index),
            p0,
            p1,
            lambda: self._first_draw(seed, op_index),
        )

    @classmethod
    def _first_draw(cls, seed, op_index: int) -> float:
        if isinstance(seed, PrimedSeed):
            first = seed.first(op_index)
            if first is not None:
                return first
            seed = seed.seed
        return cls.keyed_stream(seed, op_index).random()

    def outcome_of(self, op_index: int) -> Optional[int]:
        """The most recent outcome of a dynamic op (``None`` if never run)."""
        return self._op_outcomes.get(op_index)

    def discard_op(self, op_index: int) -> None:
        """Forget an operation's recorded outcome and stream (op removed)."""
        self._op_outcomes.pop(op_index, None)
        self._streams.pop(op_index, None)
        self._served.discard(op_index)

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
