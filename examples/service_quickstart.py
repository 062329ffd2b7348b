#!/usr/bin/env python3
"""Service quickstart: concurrent jobs against a multi-tenant Backend.

Spins up a :class:`repro.service.Backend` (bounded admission queue, warm
copy-on-write session pool, dispatcher threads), submits a mix
of Bell / GHZ / dynamic-teleportation jobs from two tenants *concurrently*,
then prints each job's histogram, the warm-pool hit rate and a per-tenant
metrics rollup.

Run with::

    python examples/service_quickstart.py
"""

from repro.service import Backend

BELL = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0], q[1];
"""

GHZ = """
OPENQASM 2.0;
qreg q[4];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
cx q[2], q[3];
"""

# dynamic circuit: measurement feeding a classically-conditioned correction
COINFLIP = """
OPENQASM 2.0;
qreg q[2];
creg c[2];
h q[0];
measure q[0] -> c[0];
if (c == 1) x q[1];
measure q[1] -> c[1];
"""


def main() -> None:
    backend = Backend(
        {"max_concurrent_jobs": 4, "max_queued_jobs": 16},
        num_workers=4,
    )
    print(f"backend: {backend!r}")
    cfg = backend.configuration
    print(f"declared: n_qubits<={cfg.n_qubits} (memory-derived), "
          f"max_shots={cfg.max_shots}, {len(cfg.basis_gates)} basis gates")

    # Submit everything up front: run() returns immediately with an async
    # Job; the dispatcher threads drain the queue.
    workload = [
        ("alice", "bell", BELL),
        ("alice", "ghz", GHZ),
        ("bob", "coinflip", COINFLIP),
        ("bob", "bell", BELL),
        ("alice", "coinflip", COINFLIP),
        ("bob", "ghz", GHZ),
        ("alice", "bell", BELL),
        ("bob", "coinflip", COINFLIP),
    ]
    jobs = [
        (tenant, name, backend.run(src, shots=256, seed=11, tenant=tenant))
        for tenant, name, src in workload
    ]

    print("\n=== results (same circuit + seed => identical histograms) ===")
    for tenant, name, job in jobs:
        result = job.result(timeout=120)
        top = sorted(result.counts.items(), key=lambda kv: -kv[1])[:2]
        warm = "warm-pool hit" if result.pool_hit else "cold build"
        print(f"{job.job_id} [{tenant}/{name}] {warm}: top outcomes {top}")

    print("\n=== per-tenant metrics rollup ===")
    for tenant in backend.tenants():
        rollup = backend.tenant_metrics(tenant).as_dict()
        update = rollup["histograms"].get(
            "update.seconds", {"count": 0, "sum": 0.0}
        )
        print(f"{tenant}: {update['count']} engine updates, "
              f"{update['sum'] * 1e3:.2f} ms total update time")

    status = backend.status()
    pool = status["pool"]
    print(f"\npool: {pool['sessions']} warm sessions, "
          f"{pool['owned_bytes']} COW bytes owned")
    print(f"jobs: {status['jobs']}")

    # The whole backend exports as Prometheus text (scrape endpoint ready).
    hits = [line for line in backend.prometheus_text().splitlines()
            if line.startswith("qtask_service_pool_hits")]
    print("prometheus: " + " | ".join(hits))

    backend.close()


if __name__ == "__main__":
    main()
