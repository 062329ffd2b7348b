"""Batched parameter-sweep A/B: SweepRunner fork fleet vs the sequential loop.

PR 3's retune benchmark (``bench_param_sweep.py``) evaluates its sweep
points strictly sequentially -- one session, one point at a time -- leaving
the work-stealing executor idle between points.  This benchmark runs the
*same* 16-qubit ring-MaxCut QAOA final-round line search through the
batched path: the base session is forked into a copy-on-write fleet
(:meth:`repro.QTask.fork` -- zero amplitude copies, shared executor), and
:class:`repro.SweepRunner` deals the grid across the fleet as concurrent
tasks on the shared ``WorkStealingExecutor``.  Every fork carries its own
observables cache, updates incrementally, and the numpy kernels release the
GIL, so on a host with >= 2 cores the fleet overlaps the per-point
simulation work that the sequential loop serialises.

Measured quantities:

* ``sequential_seconds`` -- PR 3's loop (``run_retune``, one worker),
* ``batched_sweep_seconds`` -- the fleet sweep (fleet reused/amortised;
  creation cost is reported separately as ``fork_setup_seconds``, matching
  the sequential mode's excluded session build),
* per-point expectations, cross-checked against the dense baseline to
  1e-10 (hard accuracy gate).

The speedup gate is only meaningful on a multi-core host: with a single
available CPU, threads cannot beat a sequential loop on wall-clock, so the
gate is reported as waived (the JSON carries ``available_cpus`` and the
gate disposition either way -- no silent passes).

Run directly for a table plus machine-readable JSON::

    python benchmarks/bench_batch_sweep.py [--qubits 16] [--rounds 3]
        [--steps 8] [--block-size 256] [--workers 4]
        [--out BENCH_batch_sweep.json]

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_sweep.py
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_param_sweep import (  # noqa: E402  (sibling benchmark module)
    BASE_BETAS,
    BASE_GAMMAS,
    build_qaoa,
    ring_edges,
    run_dense,
    run_retune,
    sweep_angles,
)

from repro import QTask, SweepRunner  # noqa: E402
from repro.observables import maxcut_hamiltonian  # noqa: E402


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sweep_points(gamma_handles, beta_handles, gammas, betas, steps):
    """The line-search grid as absolute per-handle parameter vectors."""
    n_gamma, n_beta = len(gamma_handles), len(beta_handles)
    return [
        tuple([2.0 * gamma] * n_gamma + [2.0 * beta] * n_beta)
        for gamma, beta in sweep_angles(gammas, betas, steps)
    ]


def run_batched(num_qubits, rounds, steps, block_size, observable,
                *, num_workers, num_forks=None):
    """The fleet mode: fork + SweepRunner on a shared work-stealing pool."""
    gammas, betas = list(BASE_GAMMAS[:rounds]), list(BASE_BETAS[:rounds])
    session = QTask(num_qubits, block_size=block_size, num_workers=num_workers)
    try:
        gamma_handles, beta_handles = build_qaoa(
            session.circuit, num_qubits, rounds, gammas, betas
        )
        session.update_state()
        session.expectation(observable)  # warm the per-term caches
        handles = gamma_handles[-1] + beta_handles[-1]
        points = sweep_points(
            gamma_handles[-1], beta_handles[-1], gammas, betas, steps
        )
        runner = SweepRunner(
            session, handles, observable=observable, num_forks=num_forks,
        )
        try:
            t0 = time.perf_counter()
            runner._ensure_forks(
                max(1, min(len(points),
                           num_forks or session.simulator.executor.num_workers))
            )
            fork_setup = time.perf_counter() - t0
            t0 = time.perf_counter()
            results = runner.run(points)
            sweep_seconds = time.perf_counter() - t0
            expectations = [r.expectation for r in results]
            extra = {
                "fork_setup_seconds": fork_setup,
                "num_forks": runner.active_forks,
                "affected_fraction": [r.affected_fraction for r in results],
                "fleet_memory": _fleet_memory(session, runner),
                "plan_report": session.plan_report().as_dict(),
            }
        finally:
            runner.close()
    finally:
        session.close()
    return sweep_seconds, expectations, extra


def _fleet_memory(session, runner):
    """Owned-vs-shared accounting across the base session and its forks."""
    base = session.memory_report()
    forks = [child.memory_report() for child, _ in runner._forks]
    return {
        "base_allocated_bytes": base.allocated_bytes,
        "fork_allocated_bytes": sum(r.allocated_bytes for r in forks),
        "fork_owned_bytes": sum(r.owned_bytes for r in forks),
        "fork_shared_bytes": sum(r.shared_bytes for r in forks),
    }


def run_ab(num_qubits=16, rounds=3, steps=8, block_size=256, num_workers=4,
           num_forks=None):
    """Sequential vs batched vs dense ground truth, one measured record."""
    edges = [e for group in ring_edges(num_qubits) for e in group]
    observable = maxcut_hamiltonian(edges)

    seq_seconds, seq_exp, _ = run_retune(
        num_qubits, rounds, steps, block_size, observable
    )
    batched_seconds, batched_exp, extra = run_batched(
        num_qubits, rounds, steps, block_size, observable,
        num_workers=num_workers, num_forks=num_forks,
    )
    dense_seconds, dense_exp, _ = run_dense(
        num_qubits, rounds, steps, block_size, observable
    )

    max_diff = max(
        abs(e - t) for e, t in zip(batched_exp, dense_exp)
    )
    max_diff_seq = max(abs(e - t) for e, t in zip(seq_exp, dense_exp))
    fleet_mem = extra["fleet_memory"]
    record = {
        "benchmark": "batch_sweep",
        "workload": "ring-MaxCut QAOA final-round (gamma, beta) line search",
        "num_qubits": num_qubits,
        "rounds": rounds,
        "sweep_steps": steps,
        "block_size": block_size,
        "num_workers": num_workers,
        "num_forks": extra["num_forks"],
        "kernel_backend": extra["plan_report"]["backend"],
        "plan_report": extra["plan_report"],
        "available_cpus": available_cpus(),
        "sequential_seconds": seq_seconds,
        "batched_sweep_seconds": batched_seconds,
        "fork_setup_seconds": extra["fork_setup_seconds"],
        "dense_seconds": dense_seconds,
        "speedup_vs_sequential": seq_seconds / batched_seconds,
        "speedup_vs_sequential_incl_forks": seq_seconds
        / (batched_seconds + extra["fork_setup_seconds"]),
        "sequential_ms_per_point": 1e3 * seq_seconds / steps,
        "batched_ms_per_point": 1e3 * batched_seconds / steps,
        "expectation_max_abs_diff": max_diff,
        "sequential_expectation_max_abs_diff": max_diff_seq,
        "batched_affected_fraction": statistics.mean(
            extra["affected_fraction"]
        ),
        "fork_owned_over_base_allocated": (
            fleet_mem["fork_owned_bytes"] / fleet_mem["base_allocated_bytes"]
            if fleet_mem["base_allocated_bytes"]
            else 0.0
        ),
        **{f"fleet_{k}": v for k, v in fleet_mem.items()},
        "expectations": dense_exp,
    }
    return record


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct script execution only
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("mode", ["sequential", "batched"])
    def test_batch_sweep(benchmark, mode):
        edges = [e for group in ring_edges(12) for e in group]
        observable = maxcut_hamiltonian(edges)

        def run():
            if mode == "sequential":
                elapsed, _, _ = run_retune(12, 2, 4, 256, observable)
            else:
                elapsed, _, _ = run_batched(
                    12, 2, 4, 256, observable, num_workers=4
                )
            return elapsed

        benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
        benchmark.extra_info["mode"] = mode


# ---------------------------------------------------------------------------
# direct execution: table + JSON
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--block-size", type=int, default=256)
    parser.add_argument("--workers", type=int, default=4,
                        help="work-stealing pool size for the batched mode")
    parser.add_argument("--forks", type=int, default=None,
                        help="fork fleet size (default: one per worker)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="A/B repetitions; the median speedup is reported")
    parser.add_argument("--out", default="BENCH_batch_sweep.json",
                        help="path for the machine-readable JSON result")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="PASS threshold on batched-vs-sequential speedup "
                             "(enforced only on hosts with >= 2 CPUs)")
    args = parser.parse_args(argv)
    if args.rounds > len(BASE_GAMMAS):
        parser.error(f"--rounds must be <= {len(BASE_GAMMAS)}")
    if args.workers < 2:
        parser.error("--workers must be >= 2 (the batched mode needs a pool)")

    runs = [
        run_ab(args.qubits, args.rounds, args.steps, args.block_size,
               args.workers, args.forks)
        for _ in range(args.repeats)
    ]
    median = statistics.median(r["speedup_vs_sequential"] for r in runs)
    result = dict(
        min(runs, key=lambda r: abs(r["speedup_vs_sequential"] - median))
    )
    result["speedup_runs"] = [r["speedup_vs_sequential"] for r in runs]
    result["speedup_vs_sequential"] = median
    result["min_speedup_target"] = args.min_speedup

    cpus = result["available_cpus"]
    accuracy_ok = result["expectation_max_abs_diff"] <= 1e-10
    speedup_ok = result["speedup_vs_sequential"] >= args.min_speedup
    if cpus >= 2:
        result["speedup_gate"] = "enforced"
        passed = accuracy_ok and speedup_ok
    else:
        # One visible CPU: a thread fleet cannot beat a sequential loop on
        # wall-clock, so only the accuracy gate is binding.  Recorded
        # explicitly -- the artifact never hides a waived gate.
        result["speedup_gate"] = "waived: single-CPU host"
        passed = accuracy_ok
    result["passed"] = passed

    print(f"{'mode':<12} {'ms/point':>10}")
    print(f"{'sequential':<12} {result['sequential_ms_per_point']:>10.2f}")
    print(f"{'batched':<12} {result['batched_ms_per_point']:>10.2f}")
    print(f"batched vs sequential: {result['speedup_vs_sequential']:.2f}x "
          f"(runs: " + ", ".join(f"{s:.2f}x" for s in result["speedup_runs"])
          + f"; target >= {args.min_speedup:.1f}x, "
          + f"{result['speedup_gate']}, cpus={cpus})")
    print(f"  incl. fork setup:    "
          f"{result['speedup_vs_sequential_incl_forks']:.2f}x "
          f"({result['num_forks']} forks in "
          f"{result['fork_setup_seconds'] * 1e3:.1f} ms)")
    print(f"fleet memory: forks own "
          f"{result['fork_owned_over_base_allocated'] * 100:.1f}% of the "
          f"base session's amplitudes (rest shared copy-on-write)")
    print(f"expectation max |diff| vs dense: "
          f"{result['expectation_max_abs_diff']:.2e} (must be <= 1e-10)")
    print("PASS" if passed else "FAIL")

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
