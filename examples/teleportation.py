"""Quantum teleportation: mid-circuit measurement + classical control.

The canonical dynamic circuit: Alice teleports ``ry(theta)|0>`` to Bob using
one Bell pair, two mid-circuit measurements and measurement-conditioned
Pauli corrections (``c_if``).  The example demonstrates

* the dynamic-circuit API (``measure`` / ``c_if`` / classical registers),
* per-trajectory equivalence against the dense reference oracle (the oracle
  replays the recorded outcomes, so amplitudes must match to ~1e-12),
* seeded ``run_shots`` trajectory sampling: the final measurement of Bob's
  qubit reproduces the message statistics ``P(1) = sin^2(theta/2)``
  regardless of the (uniformly random) Bell-measurement record.

Run:  PYTHONPATH=src python examples/teleportation.py

Set ``QTASK_TRACE_OUT=trace.json`` to run with structured tracing enabled
and export a chrome://tracing / Perfetto trace of every update and shot
(this is what the CI trace-artifact step does).
"""

import math
import os

import numpy as np

from repro import QTask
from repro.baselines.dense import DenseReferenceSimulator


def build_teleportation(theta: float, **kwargs) -> QTask:
    """Teleport ``ry(theta)|0>`` from qubit 0 to qubit 2.

    Classical bits: c[0]/c[1] hold Alice's Bell-measurement record, c[2] the
    final verification measurement of Bob's qubit.
    """
    ckt = QTask(3, num_clbits=3, **kwargs)
    prep, bell, cnot, had, meas, fix_x, fix_z, verify = (
        ckt.insert_net() for _ in range(8)
    )
    ckt.insert_gate("ry", prep, 0, params=[theta])   # the message state
    ckt.insert_gate("h", prep, 1)                    # Bell pair (q1, q2)
    ckt.insert_gate("cx", bell, 1, 2)
    ckt.insert_gate("cx", cnot, 0, 1)                # Bell-basis rotation
    ckt.insert_gate("h", had, 0)
    ckt.measure(meas, 0, 0)                          # Alice measures
    ckt.measure(meas, 1, 1)
    ckt.c_if("x", fix_x, 2, condition=((1,), 1))     # Bob's corrections
    ckt.c_if("z", fix_z, 2, condition=((0,), 1))
    ckt.measure(verify, 2, 2)                        # verify the teleport
    return ckt


def main() -> None:
    theta = 2.0 * math.pi / 3.0
    p1 = math.sin(theta / 2) ** 2
    print(f"teleporting ry({theta:.4f})|0>  ->  P(measure 1) = {p1:.4f}\n")

    # -- one seeded trajectory, checked against the dense oracle ------------
    trace_out = os.environ.get("QTASK_TRACE_OUT")
    ckt = build_teleportation(
        theta, seed=42, block_size=2, tracing=True if trace_out else None
    )
    ckt.update_state()
    record = ckt.outcomes
    print(f"Bell measurement record: c1c0 = {record.get_bit(1)}{record.get_bit(0)}")
    print(f"Bob's verification bit:  c2   = {record.get_bit(2)}")

    dense = DenseReferenceSimulator(
        ckt.circuit, forced_outcomes=record.recorded_outcomes()
    )
    dense.update_state()
    diff = float(np.abs(ckt.state() - dense.state()).max())
    print(f"max |amplitude diff| vs dense oracle (replayed outcomes): {diff:.2e}")
    assert diff < 1e-10, "trajectory must match the dense reference"

    # -- trajectory sampling ------------------------------------------------
    shots = 2000
    counts = ckt.run_shots(shots, seed=7)
    simulated = ckt.telemetry.metrics.get("shots.trajectories").value
    if trace_out:
        trace = ckt.export_trace(trace_out)
        print(f"\nwrote {len(trace['traceEvents'])} trace events "
              f"to {trace_out} (open in ui.perfetto.dev)")
    ckt.close()

    # The verification bit c2 must follow the message statistics; the Bell
    # record (c1, c0) is uniform.  Bitstrings read c2 c1 c0, left to right.
    ones = sum(n for bits, n in counts.items() if bits[0] == "1")
    print(f"\n{shots} shots: counts = {dict(sorted(counts.items()))}")
    print(f"shots.trajectories = {simulated}: one path per Bell record, not "
          "one per shot; Bob's bit c2 is the last measurement, so a different "
          "draw there is a tally")
    assert simulated == 4
    print(f"empirical P(c2=1) = {ones / shots:.4f}  (analytic {p1:.4f})")
    sigma = math.sqrt(p1 * (1 - p1) / shots)
    assert abs(ones / shots - p1) < 6 * sigma, "teleported statistics off"
    print("teleportation verified: dynamic trajectories match the oracle "
          "and the analytic statistics")


if __name__ == "__main__":
    main()
