"""Figures 17-18: multi-threading scalability of full and incremental runs.

Sweeps the number of worker threads for qTask and the Qulacs-like baseline on
the paper's two scaling circuits (qft, big_adder).

Run directly::

    python -m repro.bench.scaling --figure 17 --circuit qft --max-workers 8
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

from ..circuits import build_levels
from .adapters import qtask_factory, qulacs_like_factory
from .metrics import FigureSeries
from .report import ascii_plot, format_series_table
from .workloads import full_simulation, mixed_sweep

__all__ = ["figure17_full_scaling", "figure18_incremental_scaling", "main"]


def _worker_counts(max_workers: Optional[int]) -> List[int]:
    top = max_workers or (os.cpu_count() or 4)
    counts = [1]
    w = 2
    while w < top:
        counts.append(w)
        w *= 2
    if counts[-1] != top:
        counts.append(top)
    return counts


def figure17_full_scaling(
    circuit: str = "qft",
    *,
    max_workers: Optional[int] = None,
    block_size: Optional[int] = None,
    num_qubits: Optional[int] = None,
) -> List[FigureSeries]:
    """Full-simulation runtime (ms) vs. number of cores (Fig. 17)."""
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    qtask = FigureSeries(label="qTask")
    qulacs = FigureSeries(label="Qulacs-like")
    for workers in _worker_counts(max_workers):
        r1 = full_simulation(
            qubits, levels,
            qtask_factory(block_size=block_size, num_workers=workers),
            circuit_name=circuit,
        )
        r2 = full_simulation(
            qubits, levels, qulacs_like_factory(num_workers=workers), circuit_name=circuit
        )
        qtask.add(workers, r1.total_seconds * 1e3)
        qulacs.add(workers, r2.total_seconds * 1e3)
    return [qtask, qulacs]


def figure18_incremental_scaling(
    circuit: str = "qft",
    *,
    max_workers: Optional[int] = None,
    block_size: Optional[int] = None,
    iterations: int = 50,
    num_qubits: Optional[int] = None,
) -> List[FigureSeries]:
    """Incremental (mixed-modifier) runtime vs. number of cores (Fig. 18)."""
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    qtask = FigureSeries(label="qTask")
    qulacs = FigureSeries(label="Qulacs-like")
    for workers in _worker_counts(max_workers):
        r1 = mixed_sweep(
            qubits, levels,
            qtask_factory(block_size=block_size, num_workers=workers),
            iterations=iterations, circuit_name=circuit,
        )
        r2 = mixed_sweep(
            qubits, levels, qulacs_like_factory(num_workers=workers),
            iterations=iterations, circuit_name=circuit,
        )
        qtask.add(workers, r1.total_seconds)
        qulacs.add(workers, r2.total_seconds)
    return [qtask, qulacs]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", type=int, choices=[17, 18], default=17)
    parser.add_argument("--circuit", default="qft")
    parser.add_argument("--qubits", type=int, default=None)
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=20)
    args = parser.parse_args(argv)

    if args.figure == 17:
        series = figure17_full_scaling(args.circuit, max_workers=args.max_workers,
                                       num_qubits=args.qubits)
        y_label = "full-simulation ms"
    else:
        series = figure18_incremental_scaling(
            args.circuit, max_workers=args.max_workers, iterations=args.iterations,
            num_qubits=args.qubits,
        )
        y_label = "incremental seconds (total)"
    print(format_series_table(series, "cores", y_label))
    print()
    print(ascii_plot(series, title=f"Fig {args.figure}: {args.circuit}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
