"""Checkpoint A/B: restoring a session vs. re-simulating it from scratch.

Durable checkpoints (``repro.core.snapshot``) exist so a crashed or
migrated session resumes without redoing the simulation.  This benchmark
quantifies that claim on the deep-cascade workload the incremental
simulator targets: build a deep circuit, simulate it once, checkpoint it,
then compare

* **restore** -- ``restore_simulator(path)`` + ``state()`` (pure I/O and
  reconstruction; no kernels run), against
* **re-simulate** -- rebuilding the circuit, re-attaching a fresh
  simulator (which re-derives the whole stage table) and paying the full
  ``update_state``.

The checkpoint captures the *derived* stage structure and the coalesced
runs on record, so restore skips both the stage derivation and the
simulation itself, while the checkpoint stays small (inside a run only the
last declarer of a block holds it => few block payloads).

Correctness is part of the benchmark: the restored state must match the
re-simulated state to 1e-10, and an incremental edit applied after restore
must also match a fresh dense reference.

Run directly for a timing table plus machine-readable JSON::

    python benchmarks/bench_checkpoint.py [--qubits 14] [--stages 160]
        [--block-size 64] [--repeats 3] [--out BENCH_checkpoint.json]

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.core.snapshot import restore_simulator, save_checkpoint

#: gates of the low-qubit cascade
_CASCADE = ["rz", "x", "rz", "y"]


def build_circuit(num_qubits, num_stages):
    """H wall, then ``num_stages`` single-qubit gates on the low qubits."""
    ckt = Circuit(num_qubits)
    levels = [[Gate("h", (q,)) for q in range(num_qubits)]]
    for i in range(num_stages):
        name = _CASCADE[i % len(_CASCADE)]
        params = (0.1 + 0.001 * i,) if name == "rz" else ()
        levels.append([Gate(name, (i % 3,), params)])
    ckt.from_levels(levels)
    return ckt


def make_sim(num_qubits, num_stages, block_size):
    """Build circuit + simulator (the stage table is derived on attach)."""
    return QTaskSimulator(
        build_circuit(num_qubits, num_stages),
        block_size=block_size,
        num_workers=1,
    )


def run_ab(num_qubits=14, num_stages=160, block_size=64):
    """One full A/B: simulate, checkpoint, restore, re-simulate, verify."""
    fd, path = tempfile.mkstemp(suffix=".qtckpt")
    os.close(fd)
    try:
        sim = make_sim(num_qubits, num_stages, block_size)
        try:
            t0 = time.perf_counter()
            sim.update_state()
            simulate_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            save_checkpoint(sim, path)
            save_s = time.perf_counter() - t0
            checkpoint_bytes = os.path.getsize(path)
        finally:
            sim.close()

        t0 = time.perf_counter()
        restored = restore_simulator(path, num_workers=1)
        restored_state = restored.state()
        restore_s = time.perf_counter() - t0

        # re-simulate pays everything a crashed session would: rebuilding
        # the circuit, re-attaching (stage derivation) and the full update
        t0 = time.perf_counter()
        resim = make_sim(num_qubits, num_stages, block_size)
        try:
            resim.update_state()
            resim_state = resim.state()
            resim_s = time.perf_counter() - t0
        finally:
            resim.close()
        state_diff = float(np.abs(restored_state - resim_state).max())

        # resume: one incremental retune on the restored session must run
        # and stay exact (the whole point of checkpoints is to keep going)
        try:
            handle = next(
                h for h in restored.circuit.gates() if h.gate.name == "rz"
            )
            restored.circuit.update_gate(handle, 0.777)
            t0 = time.perf_counter()
            report = restored.update_state()
            resume_s = time.perf_counter() - t0
            resumed_incremental = bool(report.was_incremental)
        finally:
            restored.close()
    finally:
        if os.path.exists(path):
            os.remove(path)

    return {
        "benchmark": "checkpoint",
        "num_qubits": num_qubits,
        "num_stages": num_stages,
        "block_size": block_size,
        "simulate_seconds": simulate_s,
        "save_seconds": save_s,
        "restore_seconds": restore_s,
        "resimulate_seconds": resim_s,
        "resume_update_seconds": resume_s,
        "resumed_incremental": resumed_incremental,
        "checkpoint_bytes": checkpoint_bytes,
        "speedup_restore_vs_resim": (
            resim_s / restore_s if restore_s > 0 else float("inf")
        ),
        "state_max_abs_diff": state_diff,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct script execution only
    pytest = None

if pytest is not None:

    def test_checkpoint_restore_vs_resim(benchmark):
        def run():
            return run_ab(num_qubits=10, num_stages=60, block_size=16)

        result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        assert result["state_max_abs_diff"] <= 1e-10
        benchmark.extra_info["checkpoint_bytes"] = result["checkpoint_bytes"]


# ---------------------------------------------------------------------------
# direct execution: timing table + JSON
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=14)
    parser.add_argument("--stages", type=int, default=160)
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3,
                        help="A/B repetitions; the median speedup is reported")
    parser.add_argument("--out", default="BENCH_checkpoint.json",
                        help="path for the machine-readable JSON result")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="PASS threshold on restore vs re-simulate")
    args = parser.parse_args(argv)

    runs = [
        run_ab(args.qubits, args.stages, args.block_size)
        for _ in range(args.repeats)
    ]
    median = statistics.median(r["speedup_restore_vs_resim"] for r in runs)
    result = dict(min(
        runs, key=lambda r: abs(r["speedup_restore_vs_resim"] - median)
    ))
    result["speedup_runs"] = [r["speedup_restore_vs_resim"] for r in runs]
    result["speedup_restore_vs_resim"] = median
    result["min_speedup_target"] = args.min_speedup

    equal = result["state_max_abs_diff"] <= 1e-10
    passed = equal and result["resumed_incremental"] and median >= args.min_speedup
    result["passed"] = passed

    print(f"{'path':<14} {'seconds':>10}")
    print(f"{'simulate':<14} {result['simulate_seconds']:>10.4f}")
    print(f"{'save':<14} {result['save_seconds']:>10.4f}")
    print(f"{'restore':<14} {result['restore_seconds']:>10.4f}")
    print(f"{'re-simulate':<14} {result['resimulate_seconds']:>10.4f}")
    print(f"{'resume-edit':<14} {result['resume_update_seconds']:>10.4f}")
    print(f"checkpoint size: {result['checkpoint_bytes']} bytes")
    print(f"restore speedup vs re-simulate: {median:.2f}x (runs: "
          + ", ".join(f"{s:.2f}x" for s in result["speedup_runs"])
          + f"; target >= {args.min_speedup:.1f}x)")
    print(f"state max |diff|: {result['state_max_abs_diff']:.2e} "
          f"(must be <= 1e-10); resume incremental: "
          f"{result['resumed_incremental']}")
    print("PASS" if passed else "FAIL")

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
