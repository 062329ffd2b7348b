"""Exception hierarchy for the qTask reproduction.

The paper's programming model reports user errors (e.g. inserting a gate into a
net where it would introduce a structural dependency) by throwing exceptions;
we mirror that behaviour with a small, explicit hierarchy so applications can
catch precisely the failure they care about.
"""

from __future__ import annotations

__all__ = [
    "QTaskError",
    "CircuitError",
    "NetDependencyError",
    "UnknownGateError",
    "GateArityError",
    "QubitIndexError",
    "StaleHandleError",
    "QasmSyntaxError",
    "CheckpointError",
]


class QTaskError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class CircuitError(QTaskError):
    """Any structural error while building or modifying a circuit."""


class NetDependencyError(CircuitError):
    """Raised when inserting a gate into a net would create a dependency.

    The paper (Listing 1) requires every gate in a net to be structurally
    parallel: two gates in the same net must not share a qubit.
    """


class UnknownGateError(CircuitError):
    """Raised when a gate name is not present in the gate database."""


class GateArityError(CircuitError):
    """Raised when a gate is applied to the wrong number of qubits/params."""


class QubitIndexError(CircuitError):
    """Raised when a qubit index is outside ``[0, num_qubits)``."""


class StaleHandleError(CircuitError):
    """Raised when a gate/net handle refers to an element already removed."""


class QasmSyntaxError(QTaskError):
    """Raised by the OpenQASM parser on malformed input."""


class CheckpointError(QTaskError):
    """Raised when a session checkpoint cannot be written or restored.

    Covers unreadable files, bad magic/version, corrupt headers, truncated
    payloads and per-block checksum mismatches -- a damaged checkpoint fails
    loudly instead of resuming from garbage.
    """
