"""Figures 14-16: incremental simulation under random circuit modifiers.

* Fig. 14 -- cumulative runtime of random *gate insertions* (qft, big_adder),
* Fig. 15 -- per-iteration runtime of random *gate removals*,
* Fig. 16 -- per-iteration runtime of mixed removals + insertions.

Run directly::

    python -m repro.bench.figures --figure 14 --circuit qft
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..circuits import build_levels
from .adapters import SimulatorFactory, qtask_factory, qulacs_like_factory
from .metrics import FigureSeries, WorkloadResult
from .report import ascii_plot, format_series_table
from .workloads import insertion_sweep, mixed_sweep, removal_sweep

__all__ = [
    "figure14_insertions",
    "figure15_removals",
    "figure16_mixed",
    "default_factories",
    "main",
]

#: The two circuits the paper uses for Figs. 14-18.
FIGURE_CIRCUITS = ("qft", "big_adder")


def default_factories(num_workers: Optional[int] = None,
                      block_size: Optional[int] = None) -> List[SimulatorFactory]:
    """qTask vs. Qulacs-like (the paper drops Qiskit after Table III)."""
    return [
        qtask_factory(block_size=block_size, num_workers=num_workers),
        qulacs_like_factory(num_workers=num_workers),
    ]


def _to_series(results: Sequence[WorkloadResult], *, cumulative: bool) -> List[FigureSeries]:
    series = []
    for res in results:
        s = FigureSeries(label=res.simulator)
        ys = res.cumulative_seconds if cumulative else res.per_iteration_seconds
        for i, y in enumerate(ys):
            s.add(float(i), y * 1e3)
        series.append(s)
    return series


def figure14_insertions(
    circuit: str = "qft",
    *,
    factories: Optional[Sequence[SimulatorFactory]] = None,
    levels_per_iteration: int = 2,
    num_qubits: Optional[int] = None,
    seed: int = 1,
) -> List[FigureSeries]:
    """Cumulative runtime over random-insertion iterations (Fig. 14)."""
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    factories = list(factories or default_factories())
    results = [
        insertion_sweep(qubits, levels, f, levels_per_iteration=levels_per_iteration,
                        seed=seed, circuit_name=circuit)
        for f in factories
    ]
    return _to_series(results, cumulative=True)


def figure15_removals(
    circuit: str = "qft",
    *,
    factories: Optional[Sequence[SimulatorFactory]] = None,
    levels_per_iteration: int = 2,
    num_qubits: Optional[int] = None,
    seed: int = 2,
) -> List[FigureSeries]:
    """Per-iteration runtime over random-removal iterations (Fig. 15)."""
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    factories = list(factories or default_factories())
    results = [
        removal_sweep(qubits, levels, f, levels_per_iteration=levels_per_iteration,
                      seed=seed, circuit_name=circuit)
        for f in factories
    ]
    return _to_series(results, cumulative=False)


def figure16_mixed(
    circuit: str = "qft",
    *,
    factories: Optional[Sequence[SimulatorFactory]] = None,
    iterations: int = 50,
    num_qubits: Optional[int] = None,
    seed: int = 3,
) -> List[FigureSeries]:
    """Per-iteration runtime of mixed removals + insertions (Fig. 16)."""
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    factories = list(factories or default_factories())
    results = [
        mixed_sweep(qubits, levels, f, iterations=iterations, seed=seed,
                    circuit_name=circuit)
        for f in factories
    ]
    return _to_series(results, cumulative=False)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", type=int, choices=[14, 15, 16], default=14)
    parser.add_argument("--circuit", default="qft")
    parser.add_argument("--qubits", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    factories = default_factories(num_workers=args.workers)
    if args.figure == 14:
        series = figure14_insertions(args.circuit, factories=factories,
                                     num_qubits=args.qubits)
        y_label, title = "cumulative ms", f"Fig 14: insertions ({args.circuit})"
    elif args.figure == 15:
        series = figure15_removals(args.circuit, factories=factories,
                                   num_qubits=args.qubits)
        y_label, title = "ms per iteration", f"Fig 15: removals ({args.circuit})"
    else:
        series = figure16_mixed(args.circuit, factories=factories,
                                iterations=args.iterations, num_qubits=args.qubits)
        y_label, title = "ms per iteration", f"Fig 16: mixed ({args.circuit})"
    print(format_series_table(series, "iteration", y_label))
    print()
    print(ascii_plot(series, title=title))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
