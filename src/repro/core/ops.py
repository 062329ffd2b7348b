"""Non-unitary circuit operations: measurement, reset and classical control.

These objects fill the ``gate`` slot of an ordinary
:class:`~repro.core.circuit.GateHandle` -- the circuit's net structure,
observer protocol and handle lifecycle are shared with unitary gates -- but
they are *operations*, not unitaries: they have no matrix, they may read or
write classical bits, and (for measure/reset) they collapse the state.

``op_index`` identifies an operation across simulator configurations and
session forks: it is assigned by the circuit at first insertion, in program
order, and preserved by :meth:`Circuit.clone`.  The per-trajectory random
stream of a collapse (see :class:`~repro.core.classical.OutcomeRecord`) is
keyed by it, which is what makes seeded trajectories reproducible across
COW/block-size knobs and forks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .gates import Gate

__all__ = [
    "MeasureOp",
    "ResetOp",
    "CGate",
    "is_dynamic_op",
    "op_clbits_read",
    "op_clbits_written",
]


class MeasureOp:
    """Projective Z-basis measurement of one qubit into one classical bit."""

    __slots__ = ("qubit", "clbit", "op_index")

    name = "measure"
    params: Tuple[float, ...] = ()

    def __init__(self, qubit: int, clbit: int) -> None:
        self.qubit = int(qubit)
        self.clbit = int(clbit)
        #: program-order id, assigned by the circuit at first insertion
        self.op_index: Optional[int] = None

    @property
    def qubits(self) -> Tuple[int, ...]:
        return (self.qubit,)

    @property
    def num_qubits(self) -> int:
        return 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"measure[q{self.qubit}->c{self.clbit}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeasureOp(q{self.qubit} -> c{self.clbit}, op={self.op_index})"


class ResetOp:
    """Reset one qubit to |0> (measure, then flip on outcome 1)."""

    __slots__ = ("qubit", "op_index")

    name = "reset"
    params: Tuple[float, ...] = ()

    def __init__(self, qubit: int) -> None:
        self.qubit = int(qubit)
        self.op_index: Optional[int] = None

    @property
    def qubits(self) -> Tuple[int, ...]:
        return (self.qubit,)

    @property
    def num_qubits(self) -> int:
        return 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"reset[q{self.qubit}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResetOp(q{self.qubit}, op={self.op_index})"


class CGate:
    """A unitary gate applied only when classical bits hold a given value.

    ``condition_bits[j]`` is compared against bit ``j`` of
    ``condition_value`` -- the OpenQASM ``if (c == k) gate ...;`` semantics
    when the bits are a whole register.  The wrapped ``gate`` is an ordinary
    immutable :class:`~repro.core.gates.Gate`.
    """

    __slots__ = ("gate", "condition_bits", "condition_value", "op_index")

    params: Tuple[float, ...] = ()

    def __init__(
        self,
        gate: Gate,
        condition_bits: Sequence[int],
        condition_value: int,
    ) -> None:
        if not isinstance(gate, Gate):
            raise TypeError(
                f"CGate wraps a unitary Gate, got {type(gate).__name__}"
            )
        bits = tuple(int(b) for b in condition_bits)
        if not bits:
            raise ValueError("a classically controlled gate needs condition bits")
        if len(set(bits)) != len(bits):
            raise ValueError(f"duplicate condition bits {bits}")
        value = int(condition_value)
        if not 0 <= value < (1 << len(bits)):
            raise ValueError(
                f"condition value {value} out of range for {len(bits)} bit(s)"
            )
        self.gate = gate
        self.condition_bits = bits
        self.condition_value = value
        self.op_index: Optional[int] = None

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.gate.qubits

    @property
    def num_qubits(self) -> int:
        return self.gate.num_qubits

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        bits = ",".join(f"c{b}" for b in self.condition_bits)
        return f"if({bits}=={self.condition_value}){self.gate}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CGate({self.gate}, bits={self.condition_bits}, value={self.condition_value})"


def is_dynamic_op(op) -> bool:
    """True for operations outside the pure-unitary path."""
    return isinstance(op, (MeasureOp, ResetOp, CGate))


def op_clbits_read(op) -> Tuple[int, ...]:
    """Classical bits an operation's behaviour depends on."""
    if isinstance(op, CGate):
        return op.condition_bits
    return ()


def op_clbits_written(op) -> Tuple[int, ...]:
    """Classical bits an operation writes."""
    if isinstance(op, MeasureOp):
        return (op.clbit,)
    return ()
