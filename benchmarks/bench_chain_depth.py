"""Deep-circuit incremental-update A/B: indexed resolution vs. linear chain.

``block_directory=True`` resolves block reads through the partition graph's
writer index (``PartitionGraph.plan_sources`` once per update,
``repro.core.cow.IndexReader`` per read) instead of the naive O(S)
backwards store-chain walk (S = stages).  Its payoff grows with circuit
*depth*: in a deep circuit most blocks were last written far in the past, so
every read in chain mode walks hundreds of stores while the index jumps
straight to the owner.

The workload is the synthesis-loop pattern of the paper's incremental
experiments (Figs. 14-18): a deep cascade of controlled-phase gates on the
high qubits (each stage materialises only the top blocks, leaving the rest
copy-on-write-inherited from far upstream), followed by repeated *tail
edits* -- insert an X mixer gate on the top qubit, update, remove it, update.
Each inserted gate spans every data block, so the incremental update has to
resolve the whole depth of the store history.

Timing covers ``update_state`` only (graph surgery is identical in both
modes).  Results are verified: ``state()`` and a sample of ``amplitude()``
calls must agree between modes to 1e-10.

Run directly for a speedup table plus machine-readable JSON::

    python benchmarks/bench_chain_depth.py [--qubits 14] [--stages 400]
        [--block-size 64] [--cycles 30] [--out BENCH_chain_depth.json]

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_chain_depth.py
"""

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator


def build_deep_circuit(num_qubits, num_stages, *, block_size, block_directory,
                       num_workers=1, seed=7):
    """A ``num_stages``-deep cascade of cp gates on the top three qubits."""
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(
        ckt,
        block_size=block_size,
        num_workers=num_workers,
        block_directory=block_directory,
    )
    rng = random.Random(seed)
    high = list(range(num_qubits - 3, num_qubits))
    for i in range(num_stages):
        a, b = rng.sample(high, 2)
        ckt.append_level([Gate("cp", (a, b), (0.1 + 0.001 * i,))])
    return ckt, sim


def run_mode(num_qubits, num_stages, *, block_size, cycles, block_directory):
    """One A/B side: full build + timed tail-edit update cycles.

    Returns (update_seconds, full_build_seconds, state, amplitudes, stats).
    """
    ckt, sim = build_deep_circuit(
        num_qubits, num_stages,
        block_size=block_size, block_directory=block_directory,
    )
    try:
        t0 = time.perf_counter()
        sim.update_state()
        full = time.perf_counter() - t0

        update_time = 0.0
        top = num_qubits - 1
        for _ in range(cycles):
            net = ckt.insert_net()
            handle = ckt.insert_gate(Gate("x", (top,)), net)
            t0 = time.perf_counter()
            sim.update_state()
            update_time += time.perf_counter() - t0
            ckt.remove_gate(handle)
            ckt.remove_net(net)
            t0 = time.perf_counter()
            sim.update_state()
            update_time += time.perf_counter() - t0

        state = sim.state()
        rng = random.Random(11)
        sample = [rng.randrange(sim.dim) for _ in range(32)]
        amps = np.array([sim.amplitude(i) for i in sample])
        return update_time, full, state, amps, sim.statistics()
    finally:
        sim.close()


def run_ab(num_qubits=14, num_stages=400, block_size=64, cycles=30):
    """Both sides, equality checks, and the result record."""
    chain_t, chain_full, chain_state, chain_amps, _ = run_mode(
        num_qubits, num_stages, block_size=block_size, cycles=cycles,
        block_directory=False,
    )
    dir_t, dir_full, dir_state, dir_amps, stats = run_mode(
        num_qubits, num_stages, block_size=block_size, cycles=cycles,
        block_directory=True,
    )
    state_diff = float(np.abs(dir_state - chain_state).max())
    amp_diff = float(np.abs(dir_amps - chain_amps).max())
    updates = 2 * cycles
    return {
        "benchmark": "chain_depth",
        "num_qubits": num_qubits,
        "num_stages": num_stages,
        "block_size": block_size,
        "edit_cycles": cycles,
        "incremental_updates": updates,
        "chain_update_seconds": chain_t,
        "directory_update_seconds": dir_t,
        "chain_ms_per_update": 1e3 * chain_t / updates,
        "directory_ms_per_update": 1e3 * dir_t / updates,
        "chain_full_seconds": chain_full,
        "directory_full_seconds": dir_full,
        "speedup": chain_t / dir_t if dir_t > 0 else float("inf"),
        "state_max_abs_diff": state_diff,
        "amplitude_max_abs_diff": amp_diff,
        "graph_stats": stats,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct script execution only
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("directory", [False, True], ids=["chain", "directory"])
    def test_deep_incremental_update(benchmark, directory):
        def run():
            upd, _, _, _, _ = run_mode(
                12, 200, block_size=64, cycles=10, block_directory=directory
            )
            return upd

        benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        benchmark.extra_info["block_directory"] = directory


# ---------------------------------------------------------------------------
# direct execution: speedup table + JSON
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=14)
    parser.add_argument("--stages", type=int, default=400)
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--cycles", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3,
                        help="A/B repetitions; the median speedup is reported")
    parser.add_argument("--out", default="BENCH_chain_depth.json",
                        help="path for the machine-readable JSON result")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="PASS threshold on the median speedup")
    args = parser.parse_args(argv)

    runs = []
    for _ in range(args.repeats):
        runs.append(run_ab(args.qubits, args.stages, args.block_size, args.cycles))
    result = min(runs, key=lambda r: abs(r["speedup"] - statistics.median(x["speedup"] for x in runs)))
    result = dict(result)
    result["speedup_runs"] = [r["speedup"] for r in runs]
    result["speedup"] = statistics.median(r["speedup"] for r in runs)
    result["min_speedup_target"] = args.min_speedup

    equal = (result["state_max_abs_diff"] <= 1e-10
             and result["amplitude_max_abs_diff"] <= 1e-10)
    passed = equal and result["speedup"] >= args.min_speedup
    result["passed"] = passed

    print(f"{'mode':<12} {'updates':>8} {'ms/update':>10}")
    print(f"{'chain':<12} {result['incremental_updates']:>8} "
          f"{result['chain_ms_per_update']:>10.3f}")
    print(f"{'directory':<12} {result['incremental_updates']:>8} "
          f"{result['directory_ms_per_update']:>10.3f}")
    print(f"speedup: {result['speedup']:.2f}x (runs: "
          + ", ".join(f"{s:.2f}x" for s in result["speedup_runs"])
          + f"; target >= {args.min_speedup:.1f}x)")
    print(f"state/amplitude max |diff|: {result['state_max_abs_diff']:.2e} / "
          f"{result['amplitude_max_abs_diff']:.2e} (must be <= 1e-10)")
    print("PASS" if passed else "FAIL")

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
