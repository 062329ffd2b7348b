"""Table III: overall simulation performance on the benchmark catalog.

For every circuit in the catalog and every simulator (Qulacs-like,
Qiskit-like, qTask) this module measures

* **full** -- runtime of one simulation call issued after the whole circuit is
  constructed,
* **inc**  -- total runtime of level-by-level construction with one simulation
  call per net (the paper's incremental-simulation protocol, §IV.B),
* **mem**  -- peak logical memory of the simulator's state storage.

Run directly::

    python -m repro.bench.table3 --scale medium --quick
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from ..circuits import CATALOG, build_levels
from .adapters import SimulatorFactory, standard_factories
from .metrics import Table3Row
from .report import format_table3
from .workloads import full_simulation, levelwise_incremental

__all__ = ["run_circuit_row", "run_table3", "main", "QUICK_SUBSET"]

#: Small representative subset used by the pytest benchmarks and --quick runs
#: (covers superposition-heavy, CNOT-heavy, shallow and deep circuits).
QUICK_SUBSET = ("bv", "adder", "ising", "qft", "qpe", "simons")


def run_circuit_row(
    name: str,
    factories: Sequence[SimulatorFactory],
    *,
    num_qubits: Optional[int] = None,
    max_levels: Optional[int] = None,
) -> Table3Row:
    """Measure full/incremental/memory for one circuit across simulators."""
    spec = CATALOG[name]
    qubits, levels = build_levels(name, num_qubits=num_qubits)
    if max_levels is not None:
        levels = levels[:max_levels]
    gates = sum(len(l) for l in levels)
    cnots = sum(1 for l in levels for g in l if g.name == "cx")
    row = Table3Row(
        circuit=name,
        description=spec.description,
        qubits=qubits,
        gates=gates,
        cnots=cnots,
    )
    for factory in factories:
        full = full_simulation(qubits, levels, factory, circuit_name=name)
        inc = levelwise_incremental(qubits, levels, factory, circuit_name=name)
        peak = max(full.peak_allocated_bytes, inc.peak_allocated_bytes)
        row.results[factory.name] = (full.total_seconds, inc.total_seconds, peak)
    return row


def run_table3(
    *,
    circuits: Optional[Sequence[str]] = None,
    scale: Optional[str] = None,
    num_workers: Optional[int] = None,
    block_size: Optional[int] = None,
    max_qubits: int = 20,
    max_levels: Optional[int] = None,
) -> List[Table3Row]:
    """Run the Table-III protocol over (a subset of) the catalog."""
    if circuits is None:
        circuits = [
            n
            for n, spec in CATALOG.items()
            if (scale is None or spec.scale == scale) and spec.qubits <= max_qubits
        ]
    factories = standard_factories(block_size=block_size, num_workers=num_workers)
    rows = []
    for name in circuits:
        rows.append(run_circuit_row(name, factories, max_levels=max_levels))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="circuit names (default: catalog filtered by --scale)")
    parser.add_argument("--scale", choices=["medium", "large"], default=None)
    parser.add_argument("--quick", action="store_true",
                        help=f"run the quick subset {QUICK_SUBSET}")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--block-size", type=int, default=None,
                        help="amplitudes per block (default: the session rule)")
    parser.add_argument("--max-qubits", type=int, default=18)
    parser.add_argument("--max-levels", type=int, default=None)
    args = parser.parse_args(argv)

    circuits = args.circuits
    if args.quick and not circuits:
        circuits = list(QUICK_SUBSET)
    rows = run_table3(
        circuits=circuits,
        scale=args.scale,
        num_workers=args.workers,
        block_size=args.block_size,
        max_qubits=args.max_qubits,
        max_levels=args.max_levels,
    )
    sims = ["Qulacs-like", "Qiskit-like", "qTask"]
    print(format_table3(rows, sims))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
