"""Stage fusion A/B: fused vs unfused ``update_state`` on phase-heavy circuits.

The stage-fusion engine collapses runs of consecutive non-superposition gates
into single diagonal/monomial stages (see ``repro.core.gates.compose_actions``)
and the strided kernels replace per-gate index arithmetic with reshape +
broadcast.  This benchmark measures the combined effect on the two circuit
families where it matters most:

* ``qft-phase``  -- the controlled-phase cascades of the QFT (pure diagonal),
* ``qaoa-phase`` -- QAOA-style alternating RZZ cost layers and X mixer layers
  (diagonal + monomial).

Run directly for a quick speedup table::

    python benchmarks/bench_fusion.py

or under pytest-benchmark for statistically robust numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_fusion.py

What the table measures is ``update_state`` alone -- not the insert-time
cost of fusing, which is where fusion loses (see ROADMAP item 2).  Since the
update coalesces swept runs of diagonal / monomial stages at plan time
whatever the ``fusion`` knob says, the unfused side executes composed slabs
too and fusion's edge here is what is left of it: composing at insert
instead of at plan time (1.6-2.2x, was 5-10x before coalescing).  The gate
is a floor under that, kept until the knob is deleted.
"""

import statistics
import sys
import time

from repro.circuits.blocksets import qft_gates
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.qasm.levelize import levelize


def qft_phase_levels(num_qubits):
    """The QFT's controlled-phase cascades, without the Hadamards.

    One gate per net (the natural Table-II sequential-insertion pattern):
    each cascade then stays contiguous in stage order, which is what lets
    fusion collapse it; levelize() would interleave the cascades instead.
    """
    return [[g] for g in qft_gates(range(num_qubits), do_swaps=False)
            if g.name != "h"]


def qaoa_phase_levels(num_qubits, layers=6):
    """QAOA-style circuit: RZZ cost layers alternating with X mixer layers."""
    gates = []
    for layer in range(layers):
        angle = 0.3 + 0.1 * layer
        for i in range(num_qubits - 1):
            gates.append(Gate("rzz", (i, i + 1), (angle,)))
        for i in range(num_qubits):
            gates.append(Gate("x", (i,)))
    return levelize(gates)


#: (name, qubits, generator, max_fused_qubits).  Wider fusion caps pay off
#: on phase-heavy circuits: runs of cp/rzz gates share qubits, so a cap of
#: 6-8 collapses whole cascades into one diagonal stage.
CIRCUITS = [
    ("qft-phase", 14, qft_phase_levels, 6),
    ("qaoa-phase", 14, qaoa_phase_levels, 8),
]


def build(num_qubits, levels, *, fusion, max_fused_qubits=4, block_size=256):
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=block_size, num_workers=1,
                         fusion=fusion, max_fused_qubits=max_fused_qubits)
    ckt.from_levels(levels)
    return ckt, sim


def time_update(num_qubits, levels, *, fusion, max_fused_qubits=4,
                block_size=256):
    """Wall-clock seconds of a single full ``update_state``."""
    ckt, sim = build(num_qubits, levels, fusion=fusion,
                     max_fused_qubits=max_fused_qubits, block_size=block_size)
    try:
        start = time.perf_counter()
        sim.update_state()
        return time.perf_counter() - start, sim.statistics()
    finally:
        sim.close()


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct script execution only
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("entry", CIRCUITS, ids=lambda e: e[0])
    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    def test_fusion_update(benchmark, entry, fusion):
        name, n, gen, mfq = entry
        levels = gen(n)

        def run():
            elapsed, _ = time_update(n, levels, fusion=fusion,
                                     max_fused_qubits=mfq)
            return elapsed

        benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        benchmark.extra_info["circuit"] = name
        benchmark.extra_info["fusion"] = fusion


# ---------------------------------------------------------------------------
# direct execution: print the speedup table
# ---------------------------------------------------------------------------


def main():
    print(f"{'circuit':<12} {'qubits':>6} {'gates':>6} {'stages':>14} "
          f"{'unfused (s)':>12} {'fused (s)':>10} {'speedup':>8}")
    worst = float("inf")
    for name, n, gen, mfq in CIRCUITS:
        levels = gen(n)
        gates = sum(len(l) for l in levels)
        # interleave the two configurations so transient machine load hits
        # both sides equally, and compare medians (min is too sensitive to
        # one lucky run in the denominator)
        unfused_times, fused_times, stats = [], [], None
        for _ in range(7):
            unfused_times.append(time_update(n, levels, fusion=False)[0])
            t, stats = time_update(n, levels, fusion=True,
                                   max_fused_qubits=mfq)
            fused_times.append(t)
        best_unfused = statistics.median(unfused_times)
        best_fused = statistics.median(fused_times)
        speedup = best_unfused / best_fused
        worst = min(worst, speedup)
        stages = f"{gates}->{stats['num_stages']}"
        print(f"{name:<12} {n:>6} {gates:>6} {stages:>14} "
              f"{best_unfused:>12.4f} {best_fused:>10.4f} "
              f"{speedup:>7.2f}x")
    passed = worst >= 1.2
    print(f"minimum speedup: {worst:.2f}x "
          f"({'PASS' if passed else 'FAIL'} >= 1.2x target)")
    return passed


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
