"""Qulacs-like baseline: optimized state-vector simulation, full re-sim.

Qulacs' defining traits for the paper's experiments are (1) highly optimized
per-gate kernels and (2) no incrementality -- every simulation call replays
the whole circuit.  This baseline mirrors both: diagonal and permutation
gates use vectorised in-place index kernels, everything else uses the dense
reshape kernel, and ``num_workers > 1`` splits a dense gate's index space
into chunks mapped over the executor's thread pool.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.circuit import Circuit
from ..core.gates import DiagonalAction, Gate, MonomialAction
from ..core.kernels import (
    ArrayReader,
    apply_action_range,
    apply_gate_dense,
    extract_local,
    replace_local,
)
from ..parallel import Executor
from .base import BaselineSimulator

__all__ = ["QulacsLikeSimulator"]

#: Below this many amplitudes threading is pure overhead.
_MIN_PARALLEL_DIM = 1 << 12


def chunk_indices(total: int, chunk: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``(start, stop)`` chunks of size ``chunk``."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    return [(s, min(total, s + chunk)) for s in range(0, total, chunk)]


class QulacsLikeSimulator(BaselineSimulator):
    """Optimized full re-simulation baseline (the paper's Qulacs role)."""

    name = "qulacs-like"

    def __init__(
        self,
        circuit: Circuit,
        *,
        num_workers: Optional[int] = None,
        chunk_size: int = 1 << 14,
    ) -> None:
        super().__init__(circuit)
        self.executor = Executor(num_workers)
        self.chunk_size = int(chunk_size)

    def close(self) -> None:
        self.executor.close()

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
        if state.shape[0] < _MIN_PARALLEL_DIM or self.executor.num_workers <= 1:
            return apply_gate_dense(state, gate, n)
        # Chunked parallel application: each chunk of output amplitudes is
        # computed independently from the (read-only) input vector.
        reader = ArrayReader(state)
        action = gate.action()
        out = np.empty_like(state)
        chunks = chunk_indices(state.shape[0], self.chunk_size)

        def work(se):
            s, e = se
            out[s:e] = apply_action_range(reader, s, e - 1, gate.qubits, action)

        self.executor.map(work, chunks)
        return out

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
