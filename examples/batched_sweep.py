#!/usr/bin/env python3
"""Batched sweep: evaluate a parameter grid on a fork of a built session.

Where ``variational_sweep.py`` retunes the session itself point after point,
this example lets :class:`repro.SweepRunner` fork the base session once,
copy-on-write (:meth:`repro.QTask.fork` -- zero amplitude copies), and
evaluate a (gamma, beta) grid on the fork, leaving the base session as it
was.  Results come back in submission order, each with the expectation value
and the incrementally re-simulated fraction.

Run with::

    python examples/batched_sweep.py
"""

from repro import QTask, SweepRunner
from repro.observables import maxcut_hamiltonian


def build_qaoa(ckt: QTask, num_qubits: int, gamma: float, beta: float):
    """One QAOA round on a ring; returns the retunable rz/rx handles."""
    edges = [(q, (q + 1) % num_qubits) for q in range(num_qubits)]
    net = ckt.insert_net()
    for q in range(num_qubits):
        ckt.insert_gate("h", net, q)
    gamma_handles = []
    for parity in (0, 1):  # ring edges in two structurally parallel groups
        group = [e for i, e in enumerate(edges) if i % 2 == parity]
        cx1 = ckt.insert_net()
        rz = ckt.insert_net(cx1)
        cx2 = ckt.insert_net(rz)
        for a, b in group:
            ckt.insert_gate("cx", cx1, a, b)
            gamma_handles.append(ckt.insert_gate("rz", rz, b, params=[2 * gamma]))
            ckt.insert_gate("cx", cx2, a, b)
    mixer = ckt.insert_net()
    beta_handles = [
        ckt.insert_gate("rx", mixer, q, params=[2 * beta])
        for q in range(num_qubits)
    ]
    return edges, gamma_handles, beta_handles


def main() -> None:
    num_qubits = 10
    ckt = QTask(num_qubits, num_workers=4)
    edges, gamma_handles, beta_handles = build_qaoa(ckt, num_qubits, 0.4, 0.9)
    cost = maxcut_hamiltonian(edges)
    ckt.update_state()
    ckt.expectation(cost)  # warm the observables cache the fork inherits

    # A 4x4 (gamma, beta) grid; every point sets all handles absolutely.
    grid = [
        tuple([2 * gamma] * len(gamma_handles) + [2 * beta] * len(beta_handles))
        for gamma in (0.3, 0.5, 0.7, 0.9)
        for beta in (0.2, 0.4, 0.6, 0.8)
    ]

    with SweepRunner(ckt, gamma_handles + beta_handles,
                     observable=cost) as runner:
        results = runner.run(grid)

        print(f"{'point':>5} {'gamma':>6} {'beta':>6} {'<cost>':>9} "
              f"{'re-simulated':>12}")
        for r in results:
            gamma, beta = r.params[0] / 2, r.params[-1] / 2
            print(f"{r.index:>5} {gamma:>6.2f} {beta:>6.2f} "
                  f"{r.expectation:>9.4f} "
                  f"{r.affected_fraction * 100:>11.1f}%")

        best = max(results, key=lambda r: r.expectation)
        print(f"\nbest point: #{best.index} "
              f"(gamma={best.params[0] / 2:.2f}, "
              f"beta={best.params[-1] / 2:.2f}) -> {best.expectation:.4f}")

    ckt.close()


if __name__ == "__main__":
    main()
