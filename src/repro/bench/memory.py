"""§IV.F ablation: memory impact of the copy-on-write block optimization.

Runs the level-by-level incremental workload (one ``update_state`` per net)
and reports the peak logical memory of qTask's per-stage stores next to
what one dense vector per stage would hold -- the session's own
``MemoryReport.dense_bytes``, which is byte for byte the peak of the
storage mode that materialised every stage's full vector.  The paper
reports 20-50% savings from COW; the same comparison is produced here for
any catalog circuit.

Run directly::

    python -m repro.bench.memory --circuit qft
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..circuits import build_levels
from ..core.circuit import Circuit
from ..core.simulator import QTaskSimulator

__all__ = ["CowComparison", "cow_memory_comparison", "main"]


@dataclass
class CowComparison:
    """Peak memory with and without copy-on-write for one circuit."""

    circuit: str
    qubits: int
    with_cow_bytes: int
    without_cow_bytes: int
    with_cow_seconds: float

    @property
    def savings_fraction(self) -> float:
        if self.without_cow_bytes == 0:
            return 0.0
        return 1.0 - self.with_cow_bytes / self.without_cow_bytes


def cow_memory_comparison(
    circuit: str = "qft",
    *,
    block_size: Optional[int] = None,
    num_qubits: Optional[int] = None,
    max_levels: Optional[int] = None,
) -> CowComparison:
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    if max_levels is not None:
        levels = levels[:max_levels]
    ckt = Circuit(qubits)
    sim = QTaskSimulator(ckt, block_size=block_size)
    allocated = dense = 0
    seconds = 0.0
    try:
        for level in levels:
            start = time.perf_counter()
            net = ckt.insert_net()
            for gate in level:
                ckt.insert_gate(gate, net)
            sim.update_state()
            seconds += time.perf_counter() - start
            report = sim.memory_report()
            allocated = max(allocated, report.allocated_bytes)
            dense = max(dense, report.dense_bytes)
    finally:
        sim.close()
    return CowComparison(
        circuit=circuit,
        qubits=qubits,
        with_cow_bytes=allocated,
        without_cow_bytes=dense,
        with_cow_seconds=seconds,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default="qft")
    parser.add_argument("--qubits", type=int, default=None)
    parser.add_argument("--block-size", type=int, default=None,
                        help="amplitudes per block (default: the session rule)")
    parser.add_argument("--max-levels", type=int, default=None)
    args = parser.parse_args(argv)

    cmp = cow_memory_comparison(
        args.circuit,
        block_size=args.block_size,
        num_qubits=args.qubits,
        max_levels=args.max_levels,
    )
    print(f"circuit            : {cmp.circuit} ({cmp.qubits} qubits)")
    print(f"peak memory (COW)  : {cmp.with_cow_bytes / 2**20:.2f} MiB")
    print(f"peak memory (dense): {cmp.without_cow_bytes / 2**20:.2f} MiB")
    print(f"savings            : {cmp.savings_fraction * 100:.1f}%")
    print(f"runtime (COW)      : {cmp.with_cow_seconds * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
