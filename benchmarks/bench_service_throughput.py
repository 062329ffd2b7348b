#!/usr/bin/env python3
"""Service-layer throughput under a mixed multi-tenant workload.

Drives a :class:`repro.service.Backend` with a mixed job stream -- static
sampling (Bell/GHZ-style chains) and dynamic trajectory circuits
(measure + conditioned correction) -- submitted from several client
threads, and records the latency distribution and sustained job rate:

* ``p50_seconds`` / ``p99_seconds`` (**informational**): end-to-end job
  latency (submission to result, queue wait included) at the 50th/99th
  percentile;
* ``jobs_per_second`` (**informational**): completed jobs divided by the
  wall time of the whole burst;
* ``counts_mismatch_fraction`` (**gating accuracy**): fraction of jobs
  whose histogram differs from a fresh sequential ``QTask`` run of the
  same circuit and seed.  The service layer is pure orchestration -- warm
  pools, COW forks and concurrent dispatch must never change a single
  count, so this must be exactly 0.0.

Run directly::

    python benchmarks/bench_service_throughput.py [--jobs 24] [--shots 64]
        [--clients 4] [--concurrent 4] [--workers 4]
        [--out BENCH_service.json]
"""

import argparse
import json
import sys
import threading
import time

from repro import QTask
from repro.service import Backend

BELL = 'OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
CHAIN = (
    "OPENQASM 2.0;\nqreg q[6];\nh q[0];\n"
    + "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(5))
)
DYNAMIC = (
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
    "measure q[0] -> c[0];\nif (c==1) x q[1];\nmeasure q[1] -> c[1];\n"
)
FAMILIES = [("bell", BELL), ("chain", CHAIN), ("dynamic", DYNAMIC)]


def sequential_reference(workload):
    """Fresh single-session runs: the ground-truth histogram per job."""
    expected = []
    for _, src, shots, seed in workload:
        session = QTask.from_qasm(src)
        session.update_state()
        if session.circuit.num_clbits > 0:
            expected.append(session.run_shots(shots, seed=seed))
        else:
            expected.append(session.counts(shots, seed=seed))
        session.close()
    return expected


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def run_burst(workload, *, clients, concurrent, workers):
    """Submit the whole workload from ``clients`` threads; collect latency."""
    backend = Backend(
        {
            "max_concurrent_jobs": concurrent,
            "max_queued_jobs": max(len(workload), 4),
        },
        num_workers=workers,
    )
    latencies = [0.0] * len(workload)
    counts = [None] * len(workload)
    errors = []
    lock = threading.Lock()
    started = time.perf_counter()

    def client(indices):
        for i in indices:
            name, src, shots, seed = workload[i]
            t0 = time.perf_counter()
            try:
                job = backend.run(
                    src, shots=shots, seed=seed, tenant=f"client-{i % clients}"
                )
                result = job.result(timeout=300)
            except BaseException as exc:
                with lock:
                    errors.append(f"{name}#{i}: {exc!r}")
                continue
            latencies[i] = time.perf_counter() - t0
            counts[i] = result.counts

    threads = [
        threading.Thread(target=client, args=(range(c, len(workload), clients),))
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    status = backend.status()
    pool_stats = status["pool"]
    backend.close()
    return {
        "latencies": latencies,
        "counts": counts,
        "errors": errors,
        "elapsed_seconds": elapsed,
        "pool_sessions": pool_stats["sessions"],
        "jobs_completed": status["jobs"]["completed"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=24,
                        help="total jobs in the burst")
    parser.add_argument("--shots", type=int, default=64)
    parser.add_argument("--clients", type=int, default=4,
                        help="submitting client threads")
    parser.add_argument("--concurrent", type=int, default=4,
                        help="backend max_concurrent_jobs")
    parser.add_argument("--workers", type=int, default=4,
                        help="executor width of each pooled session")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    workload = []
    for i in range(args.jobs):
        name, src = FAMILIES[i % len(FAMILIES)]
        workload.append((name, src, args.shots, 7000 + i))

    expected = sequential_reference(workload)
    burst = run_burst(
        workload,
        clients=args.clients,
        concurrent=args.concurrent,
        workers=args.workers,
    )

    mismatches = sum(
        1 for got, want in zip(burst["counts"], expected) if got != want
    )
    mismatch_fraction = mismatches / len(workload)
    latencies = sorted(lat for lat in burst["latencies"] if lat > 0)

    result = {
        "benchmark": "service_throughput",
        "jobs": args.jobs,
        "shots": args.shots,
        "clients": args.clients,
        "concurrent": args.concurrent,
        "workers": args.workers,
        "families": [name for name, _ in FAMILIES],
        "jobs_completed": burst["jobs_completed"],
        "errors": burst["errors"],
        "pool_sessions": burst["pool_sessions"],
        "counts_mismatch_fraction": mismatch_fraction,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
        "jobs_per_second": (
            burst["jobs_completed"] / burst["elapsed_seconds"]
            if burst["elapsed_seconds"] > 0 else 0.0
        ),
        "elapsed_seconds": burst["elapsed_seconds"],
    }
    result["passed"] = (
        mismatch_fraction == 0.0
        and not burst["errors"]
        and burst["jobs_completed"] == args.jobs
    )

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"[service] {result['jobs_completed']}/{args.jobs} jobs, "
          f"p50 {result['p50_seconds'] * 1e3:.1f} ms, "
          f"p99 {result['p99_seconds'] * 1e3:.1f} ms, "
          f"{result['jobs_per_second']:.1f} jobs/s, "
          f"mismatch {mismatch_fraction:.3f} -> "
          f"{'PASS' if result['passed'] else 'FAIL'}")
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
