"""Trajectory equivalence properties for dynamic circuits.

The acceptance bar of the dynamic-circuit subsystem:

* for seeded runs, the incremental engine -- under **every** combination of
  build order (batched / stepwise), the copy-on-write knob and several
  block sizes
  -- produces amplitudes matching the dense reference oracle to 1e-10 per
  trajectory (the oracle replays the recorded collapse outcomes, so the
  comparison is deterministic);
* ``run_shots`` histograms on teleportation and a repeat-until-success-style
  branch circuit pass a chi-square test against the analytic outcome
  probabilities;
* ``run_shots`` -- which drops the gates no measurement sees from its fork,
  simulates one path per outcome record before the last measurement and
  branches the fork where a shot's draw leaves it -- returns exactly the
  histogram of replaying every shot from scratch, over drawn circuits and
  the whole configuration space.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import QTask
from repro.baselines.dense import DenseReferenceSimulator
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.kernels import NumpyBatchBackend

from .conftest import ReferenceLoop, dense_state, open_session, random_level, running_on
from .machine import DYNAMIC, run_machine

# every incremental-engine knob combination the equivalence bar names
# (``stepwise``: one update per gate instead of one for the whole circuit,
# see ``conftest.open_session``; ``reference``: updates on the reference loop)
KNOB_MATRIX = [
    dict(stepwise=False, block_size=4),
    dict(stepwise=True, block_size=4),
    dict(stepwise=False, block_size=16),
    dict(stepwise=True, block_size=8),
    dict(stepwise=False, block_size=2),
    dict(stepwise=True, block_size=16, reference=True),
    dict(stepwise=False, block_size=4, num_workers=2),
]


def build_dynamic_circuit(seed: int, num_qubits: int = 4, into=None) -> Circuit:
    """A random unitary/dynamic interleaving over ``num_qubits`` qubits
    (inserted into the empty circuit ``into`` when given)."""
    rng = random.Random(seed)
    ckt = Circuit(num_qubits, num_clbits=num_qubits) if into is None else into
    for round_idx in range(3):
        for _ in range(2):
            level = random_level(rng, num_qubits, density=0.8)
            if level:
                ckt.append_level(level)
        net = ckt.insert_net()
        q = rng.randrange(num_qubits)
        kind = rng.choice(["measure", "reset", "measure"])
        if kind == "measure":
            ckt.insert_measure(net, q, q)
        else:
            ckt.insert_reset(net, q)
        # a conditioned correction on another qubit, driven by the clbit
        target = rng.choice([x for x in range(num_qubits) if x != q])
        cnet = ckt.insert_net()
        gate = rng.choice(["x", "z", "h"])
        ckt.insert_cgate(gate, cnet, target, condition=((q,), rng.randrange(2)))
    return ckt


@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
@pytest.mark.parametrize("trajectory_seed", [7, 41])
def test_incremental_matches_dense_across_all_knobs(circuit_seed, trajectory_seed):
    """Every knob combination reproduces the dense oracle per trajectory."""
    reference_outcomes = None
    for knobs in KNOB_MATRIX:
        ckt = Circuit(4, num_clbits=4)
        knobs = dict(knobs)
        backend = ReferenceLoop() if knobs.pop("reference", False) else NumpyBatchBackend()
        with open_session(ckt, seed=trajectory_seed, **knobs) as sim:
            with running_on(backend):
                build_dynamic_circuit(circuit_seed, into=ckt)
                sim.update_state()
            state = sim.state()
            outcomes = sim.outcomes.recorded_outcomes()
            # equal seeds must give equal trajectories across configurations
            if reference_outcomes is None:
                reference_outcomes = outcomes
            else:
                assert outcomes == reference_outcomes, knobs
            dense = DenseReferenceSimulator(ckt, forced_outcomes=outcomes)
            dense.update_state()
            np.testing.assert_allclose(
                state, dense.state(), atol=1e-10,
                err_msg=f"knobs={knobs}",
            )
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("knobs", KNOB_MATRIX[:4])
def test_incremental_edits_match_dense_per_trajectory(knobs):
    """Retunes/inserts around measurements stay oracle-exact incrementally."""
    ckt = Circuit(4, num_clbits=2)
    sim = open_session(ckt, seed=23, **knobs)
    n1, n2, n3, n4 = (ckt.insert_net() for _ in range(4))
    theta = ckt.insert_gate(Gate("ry", (0,), (0.9,)), n1)
    ckt.insert_gate(Gate("h", (1,)), n1)
    ckt.insert_gate(Gate("cx", (0, 2)), n2)
    ckt.insert_measure(n3, 0, 0)
    ckt.insert_cgate("x", n4, 3, condition=((0,), 1))
    try:
        sim.update_state()
        for step, angle in enumerate((1.7, 0.4, 2.9)):
            ckt.update_gate(theta, angle)
            report = sim.update_state()
            assert report.was_incremental
            np.testing.assert_allclose(sim.state(), dense_state(sim), atol=1e-10)
    finally:
        sim.close()


# ---------------------------------------------------------------------------
# chi-square acceptance on canonical dynamic circuits
# ---------------------------------------------------------------------------


def chi_square_ok(counts, expected_probs, shots):
    """Deterministic chi-square bound: statistic < mean + 5 sigma."""
    outcomes = sorted(expected_probs)
    observed = np.array([counts.get(o, 0) for o in outcomes], dtype=float)
    expected = np.array([expected_probs[o] * shots for o in outcomes])
    keep = expected > 0
    assert observed[~keep].sum() == 0, "impossible outcome observed"
    chi2 = float((((observed[keep] - expected[keep]) ** 2) / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    return chi2 < dof + 5.0 * math.sqrt(2.0 * dof), (chi2, dof)


def build_teleportation(theta: float, **kwargs) -> QTask:
    """Teleport ``ry(theta)|0>`` from qubit 0 to qubit 2, then verify-measure.

    clbits: c0/c1 = Bell-measurement record, c2 = final Z measurement of the
    teleported state.
    """
    ckt = QTask(3, num_clbits=3, **kwargs)
    prep, bell, cnot, had, meas, fix_x, fix_z, verify = (
        ckt.insert_net() for _ in range(8)
    )
    ckt.insert_gate("ry", prep, 0, params=[theta])   # message
    ckt.insert_gate("h", prep, 1)                    # Bell pair (q1, q2)
    ckt.insert_gate("cx", bell, 1, 2)
    ckt.insert_gate("cx", cnot, 0, 1)                # Bell measurement basis
    ckt.insert_gate("h", had, 0)
    ckt.measure(meas, 0, 0)
    ckt.measure(meas, 1, 1)
    ckt.c_if("x", fix_x, 2, condition=((1,), 1))     # Pauli corrections
    ckt.c_if("z", fix_z, 2, condition=((0,), 1))
    ckt.measure(verify, 2, 2)
    return ckt


def test_teleportation_counts_chi_square():
    theta = 2 * math.pi / 3
    p1 = math.sin(theta / 2) ** 2
    shots = 1600
    with build_teleportation(theta, seed=3, block_size=2) as ckt:
        counts = ckt.run_shots(shots, seed=2024)
    assert sum(counts.values()) == shots
    # c0/c1 uniform, c2 Bernoulli(p1) independent of them
    expected = {}
    for c2 in (0, 1):
        for c1 in (0, 1):
            for c0 in (0, 1):
                expected[f"{c2}{c1}{c0}"] = 0.25 * (p1 if c2 else 1.0 - p1)
    ok, detail = chi_square_ok(counts, expected, shots)
    assert ok, (detail, counts)


def test_teleportation_trajectory_matches_dense():
    """Measurement-conditioned correction reproduces the dense oracle."""
    with build_teleportation(1.234, seed=11, block_size=2) as ckt:
        ckt.update_state()
        np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)


def build_rus_branch(**kwargs) -> QTask:
    """A repeat-until-success-style probabilistic branch with reset retry.

    Round 1: put q0 in superposition, measure into c0.  On failure (c0 == 1)
    the ancilla path resets q0 and retries once into c1.  The final
    measurement of q0 lands in c2.
    """
    ckt = QTask(2, num_clbits=3, **kwargs)
    r1, m1, fix, r2, retry, m2, final = (ckt.insert_net() for _ in range(7))
    ckt.insert_gate("h", r1, 0)
    ckt.measure(m1, 0, 0)
    ckt.c_if("x", fix, 1, condition=((0,), 1))   # flag the failure on q1
    ckt.reset(r2, 0)                             # retry from |0>
    ckt.insert_gate("h", retry, 0)
    ckt.measure(m2, 0, 1)
    ckt.measure(final, 1, 2)
    return ckt


def test_rus_branch_counts_chi_square():
    shots = 1600
    with build_rus_branch(seed=9, block_size=2) as ckt:
        counts = ckt.run_shots(shots, seed=555)
    # c0 and c1 are independent fair coins; c2 mirrors c0 (the flag qubit)
    expected = {}
    for c2 in (0, 1):
        for c1 in (0, 1):
            for c0 in (0, 1):
                expected[f"{c2}{c1}{c0}"] = 0.25 if c2 == c0 else 0.0
    ok, detail = chi_square_ok(counts, expected, shots)
    assert ok, (detail, counts)


def test_run_shots_shares_unitary_prefix_copy_on_write():
    """Trajectory re-collapse re-simulates only the cone after the measure."""
    ckt = QTask(6, num_clbits=2, block_size=4, seed=1)
    nets = [ckt.insert_net() for _ in range(6)]
    for q in range(6):
        ckt.insert_gate("h", nets[0], q)
    for q in range(0, 6, 2):
        ckt.insert_gate("cx", nets[1], q, q + 1)
    for q in range(6):
        ckt.insert_gate("rz", nets[2], q, params=[0.3 + q])
    first = ckt.measure(nets[3], 0, 0).gate.op_index
    ckt.insert_gate("h", nets[4], 2)
    second = ckt.measure(nets[5], 2, 1).gate.op_index
    ckt.update_state()
    child = ckt.fork()
    child.simulator.reset_trajectory((1, 0))
    report = child.update_state()
    # only the dynamic stages' cone re-executed: the unitary prefix is
    # served copy-on-write from the parent
    assert report.affected_fraction < 0.5
    assert report.was_incremental
    # branching at the second measurement keeps the first one's outcome and
    # bit, and re-executes no stage before the second
    kept = child.outcomes.outcome_of(first)
    (branch_seq,) = (
        s.seq
        for s in child.simulator._dynamic_stages.values()
        if s.op.op_index == second
    )
    child.simulator.reset_trajectory((1, 1), from_op=second)
    assert child.outcomes.outcome_of(second) is None
    swept = child.simulator.graph.sweep()
    assert swept.first_seq == branch_seq == swept.stage_plans[0].stage.seq
    branched = child.update_state()
    assert branched.affected_partitions < report.affected_partitions
    assert child.outcomes.outcome_of(first) == kept == child.outcomes.get_bit(0)
    assert child.outcomes.outcome_of(second) == child.outcomes.get_bit(1)
    assert [op for op, *_ in child.simulator.collapse_path(second)] == [second]
    child.close()
    ckt.close()


def test_a_fresh_fork_has_its_parents_collapse_path():
    """A fork holds its parent's collapsed blocks, so it holds the collapses
    that wrote them: same operations, masses and outcomes before the fork
    has executed anything."""
    with build_rus_branch(seed=9, block_size=2) as ckt:
        ckt.update_state()
        path = ckt.simulator.collapse_path()
        assert len(path) == 4  # measure, reset, measure, measure
        with ckt.fork() as child:
            assert child.simulator.collapse_path() == path
            assert child.simulator.collapse_path(path[1][0]) == path[1:]


# ---------------------------------------------------------------------------
# run_shots == one replay per shot
# ---------------------------------------------------------------------------


def test_run_shots_equals_one_replay_per_shot():
    """Over drawn dynamic circuits and the whole knob space, forced
    outcomes included (``tests/machine.py``'s ``run_shots`` rule)."""
    run_machine(rules=DYNAMIC | {"update_gate", "run_shots"}, max_examples=30, steps=12)
