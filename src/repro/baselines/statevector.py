"""Qulacs-like baseline: optimized state-vector simulation, full re-sim.

Qulacs' defining traits for the paper's experiments are (1) highly optimized
per-gate kernels and (2) no incrementality -- every simulation call replays
the whole circuit.  This baseline mirrors both: diagonal and permutation
gates use vectorised in-place index kernels, everything else uses the dense
reshape kernel (:func:`apply_matrix_dense`), on the calling thread.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.circuit import Circuit
from ..core.gates import (
    DiagonalAction,
    Gate,
    MonomialAction,
    extract_local,
    replace_local,
)
from .base import BaselineSimulator

__all__ = ["QulacsLikeSimulator", "apply_matrix_dense"]

_DTYPE = np.complex128


def apply_matrix_dense(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit unitary to a dense state vector via tensor reshaping.

    This is the classic statevector-simulator kernel (Qulacs/qsim style): view
    the state as an n-dimensional tensor, move the gate axes to the front,
    contract with the gate matrix, and move them back.  The baseline's kernel
    for superposition gates.
    """
    psi = np.asarray(state, dtype=_DTYPE).reshape([2] * num_qubits)
    k = len(qubits)
    # Axis j of the reshaped tensor corresponds to qubit (num_qubits - 1 - j):
    # the state index's most-significant bit is the first axis.
    axes = [num_qubits - 1 - q for q in qubits]
    perm = axes + [a for a in range(num_qubits) if a not in axes]
    psi_t = np.transpose(psi, perm)
    rest = psi_t.shape[k:]
    mat = np.asarray(matrix, dtype=_DTYPE)
    # Local index bit j corresponds to qubits[j]; axis order after transpose is
    # qubits[0], qubits[1], ... so axis j carries local bit j, and flattening
    # axes 0..k-1 in C order makes qubits[0] the *slowest* varying bit.  Build
    # the tensor form of the matrix accordingly.
    tensor = mat.reshape([2] * (2 * k))
    # tensor indices: (out bit k-1 ... out bit 0, in bit k-1 ... in bit 0) when
    # reshaped in C order from a (2^k, 2^k) matrix whose index bit j is local
    # bit j (bit 0 = fastest).  We need out/in axes ordered to match psi_t's
    # axis order (local bit 0 first), i.e. reverse each group.
    tensor = np.transpose(
        tensor,
        list(range(k - 1, -1, -1)) + list(range(2 * k - 1, k - 1, -1)),
    )
    contracted = np.tensordot(tensor, psi_t, axes=(list(range(k, 2 * k)), list(range(k))))
    out = np.transpose(
        contracted.reshape([2] * k + list(rest)), np.argsort(perm)
    )
    return out.reshape(-1)


class QulacsLikeSimulator(BaselineSimulator):
    """Optimized full re-simulation baseline (the paper's Qulacs role)."""

    name = "qulacs-like"

    def __init__(
        self,
        circuit: Circuit,
        *,
        num_workers: Optional[int] = None,
    ) -> None:
        # one thread; the keyword stays for callers that pass 1
        if num_workers is not None and (type(num_workers) is not int or num_workers != 1):
            raise ValueError(
                f"QulacsLikeSimulator runs on one thread: num_workers must be "
                f"None or 1, got {num_workers!r}"
            )
        super().__init__(circuit)

    # -- gate kernels -----------------------------------------------------

    def _apply_gate(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        action = gate.action()
        if isinstance(action, DiagonalAction):
            self._apply_diagonal_inplace(state, gate, action)
            return state
        if isinstance(action, MonomialAction):
            return self._apply_monomial(state, gate, action)
        return self._apply_dense(state, gate)

    def _apply_diagonal_inplace(
        self, state: np.ndarray, gate: Gate, action: DiagonalAction
    ) -> None:
        # Scale only the touched amplitudes, in place (no copies -- the
        # "in place operations" guidance of the hpc-parallel guides).
        phases = np.asarray(action.phases, dtype=np.complex128)
        touched = action.touched_locals()
        if len(touched) == len(phases):
            # every local state gets a phase: vectorise over the whole vector
            idx = np.arange(state.shape[0], dtype=np.int64)
            state *= phases[extract_local(idx, gate.qubits)]
            return
        for l in touched:
            idx = self._indices_with_local(state.shape[0], gate.qubits, l)
            state[idx] *= phases[l]

    def _apply_monomial(
        self, state: np.ndarray, gate: Gate, action: MonomialAction
    ) -> np.ndarray:
        out = np.array(state, copy=True)
        perm = action.perm
        factors = action.factors
        for l_src, l_dst in enumerate(perm):
            factor = factors[l_src]
            if l_src == l_dst and abs(factor - 1.0) < 1e-15:
                continue
            src = self._indices_with_local(state.shape[0], gate.qubits, l_src)
            dst = replace_local(src, gate.qubits, np.full_like(src, l_dst))
            out[dst] = state[src] * factor
        return out

    def _apply_dense(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        n = self.circuit.num_qubits
        return apply_matrix_dense(state, gate.matrix(), gate.qubits, n)

    @staticmethod
    def _indices_with_local(dim: int, qubits: Sequence[int], local: int) -> np.ndarray:
        """All global indices whose gate-qubit bits equal ``local``."""
        free_bits = [b for b in range(dim.bit_length() - 1) if b not in qubits]
        base = np.arange(1 << len(free_bits), dtype=np.int64)
        idx = np.zeros_like(base)
        for j, b in enumerate(free_bits):
            idx |= ((base >> j) & 1) << b
        offset = 0
        for j, q in enumerate(qubits):
            offset |= ((local >> j) & 1) << q
        return idx | np.int64(offset)

    # -- BaselineSimulator ----------------------------------------------------

    def _apply_circuit(self, state: np.ndarray) -> np.ndarray:
        for net in self.circuit.nets():
            for handle in net.gates:
                # dispatch through the base so dynamic circuits (measure /
                # reset / c_if from parsed QASM) run on this baseline too
                state = self._apply_operation(state, handle.gate)
        return state
