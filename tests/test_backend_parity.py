"""Backend parity: every way a run table executes computes the same states.

How a table is executed must not show in the result: for any circuit, any
knob combination (build order, block size) and any modifier sequence, the
slab backend, the run-granular reference loop, the run-by-run re-execution
of a faulted chunk and the dense oracle must agree to 1e-10.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import QTask
from repro.core import update
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.kernels import NumpyBatchBackend
from repro.core.simulator import QTaskSimulator

from .conftest import (
    FaultingBackend,
    ReferenceLoop,
    circuit_levels,
    dense_state,
    open_session,
    random_levels,
    reference_state,
    running_on,
)

ATOL = 1e-10

# knob combinations exercising every structural code path the plan layer
# interacts with: one update for the whole circuit (coalesced runs) vs one
# per gate (``conftest.open_session``), an edit ahead of every level that
# re-sweeps the whole circuit (``resweep``) and block sizes from sub-gate to
# whole-state.  The ids are the ones the test floor pins: "fusion" marks the
# stepwise corners (it used to select insert-time fusion), "chain" marked
# the corners that also turned the since-deleted store-chain knob off, and
# "dense" the deleted dense storage mode, which re-simulated every stage on
# every update -- what a ``resweep`` update does through the frontier.
KNOB_COMBOS = [
    pytest.param(dict(block_size=4), id="defaults-bs4"),
    pytest.param(dict(stepwise=True, block_size=4), id="fusion-bs4"),
    pytest.param(dict(block_size=8), id="chain-bs8"),
    pytest.param(
        dict(stepwise=True, resweep=True, block_size=4),
        id="fusion-chain-dense-bs4",
    ),
    pytest.param(dict(resweep=True, block_size=16), id="dense-bs16"),
]

# Each leg is the backend its updates run on (``None``: the slab backend)
# and the session knobs it adds; the ids are the ones the test floor pins,
# two of them historical.  "legacy" is the run-granular reference loop under
# the id of the deleted per-run path.  "numba-interp" named the deleted
# numba backend's interpreted mode: the leg is now a backend faulting once
# on every multi-run chunk, which then re-executes run by run.  "process"
# named the deleted fork-pool backend: the leg keeps the multi-worker fan-out
# it alone forced on every host -- the slab backend on a two-wide session,
# every table split into chunk subflows over its thread pool.
BACKENDS = [
    pytest.param((ReferenceLoop, {}), id="legacy"),
    pytest.param((None, {}), id="numpy"),
    pytest.param((FaultingBackend, {}), id="numba-interp"),
    pytest.param((None, dict(num_workers=2)), id="process"),
]


@pytest.fixture
def backend(request, monkeypatch):
    """Install the leg's backend for the test; the leg's session knobs."""
    factory, knobs = request.param
    if factory is not None:
        monkeypatch.setattr(update, "BACKEND", factory())
    return knobs


def _build(levels, num_qubits, backend, knobs) -> QTaskSimulator:
    circuit = Circuit(num_qubits)
    sim = open_session(circuit, **backend, **knobs)
    circuit.from_levels(levels)
    return sim


def _resweep(circuit, flip):
    """Toggle an ``x`` in a net ahead of every level: it rewrites every
    block, so the next update re-sweeps the whole circuit.  Returns the
    ``x`` inserted, ``None`` when ``flip`` was removed."""
    if flip is None:
        return circuit.insert_gate(Gate("x", (0,)), circuit.prepend_net())
    circuit.remove_net(flip.net)
    return None


# ---------------------------------------------------------------------------
# static circuits: backend == dense across every knob combo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOB_COMBOS)
@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_random_circuit_matches_dense(backend, knobs):
    num_qubits = 6
    rng = random.Random(20260807)
    levels = random_levels(rng, num_qubits, 8)
    knobs = dict(knobs)
    resweep = knobs.pop("resweep", False)
    with _build(levels, num_qubits, backend, knobs) as sim:
        sim.update_state()
        expected = reference_state(num_qubits, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        if isinstance(update.BACKEND, FaultingBackend):  # the clean run's bits
            assert sim.plan_report().backend_fallbacks > 0
            with running_on(NumpyBatchBackend()), _build(levels, num_qubits, {}, knobs) as clean:
                clean.update_state()
                assert np.array_equal(sim.state(), clean.state())
        if resweep:
            _resweep(sim.circuit, None)
            if sim.graph.has_pending:  # (a stepwise session updated already)
                sim.update_state()
            report = sim.last_update
            assert report.affected_partitions == report.total_partitions
            expected = reference_state(num_qubits, circuit_levels(sim.circuit))
            np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_incremental_insert_matches_dense(backend):
    num_qubits = 5
    rng = random.Random(7)
    levels = random_levels(rng, num_qubits, 5)
    with _build(levels, num_qubits, backend, dict(block_size=4)) as sim:
        sim.update_state()
        # grow the circuit after the first update: the dirty frontier is a
        # suffix cone, so plans now cover a strict subset of the stages
        net = sim.circuit.insert_net()
        sim.circuit.insert_gate("cx", net, 0, num_qubits - 1)
        net2 = sim.circuit.insert_net()
        sim.circuit.insert_gate("rz", net2, 2, params=[0.917])
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(sim.circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# update_gate retunes: the variational workload the batching targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "knobs",
    [
        pytest.param(dict(block_size=4), id="defaults"),
        pytest.param(dict(block_size=4, stepwise=True), id="fusion"),
        pytest.param(dict(block_size=8, resweep=True), id="dense-bs8"),
    ],
)
@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_retune_sequence_matches_dense(backend, knobs):
    num_qubits = 5
    circuit = Circuit(num_qubits)
    handles = []
    levels = []
    for layer in range(3):
        levels.append([Gate("h", (q,)) for q in range(num_qubits)])
        levels.append(
            [Gate("rz", (q,), (0.1 + 0.2 * layer + 0.05 * q,)) for q in range(num_qubits)]
        )
        levels.append([Gate("cx", (q, q + 1)) for q in range(0, num_qubits - 1, 2)])
    knobs = dict(knobs)
    resweep = knobs.pop("resweep", False)
    with open_session(circuit, **backend, **knobs) as sim:
        circuit.from_levels(levels)
        sim.update_state()
        handles = [h for h in circuit.gates() if h.gate.name == "rz"]
        rng = random.Random(3)
        flip = None
        for step in range(3):
            for h in rng.sample(handles, 4):
                circuit.update_gate(h, rng.uniform(0, 2 * np.pi))
            if resweep:
                flip = _resweep(circuit, flip)
            report = sim.update_state()
            if resweep:
                assert report.affected_partitions == report.total_partitions
            expected = reference_state(num_qubits, circuit_levels(circuit))
            np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# dynamic circuits: identical trajectories under every backend
# ---------------------------------------------------------------------------


def _dynamic_session(seed, backend, **knobs) -> QTask:
    knobs.setdefault("block_size", 4)
    ckt = QTask(3, num_clbits=2, seed=seed, **backend, **knobs)
    n1, n2, n3, n4, n5 = (ckt.insert_net() for _ in range(5))
    ckt.insert_gate("h", n1, 0)
    ckt.insert_gate("cx", n2, 0, 1)
    ckt.insert_gate("ry", n2, 2, params=[0.77])
    ckt.measure(n3, 0, 0)
    ckt.c_if("x", n4, 2, condition=((0,), 1))
    ckt.reset(n4, 1)
    ckt.measure(n5, 2, 1)
    return ckt


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dynamic_trajectory_matches_legacy(backend, seed):
    """Same seed, same outcome bits as the run-granular reference loop; the
    state is the dense oracle's under those outcomes."""
    ref = _dynamic_session(seed, {})
    with running_on(ReferenceLoop()):
        ref.update_state()
    got = _dynamic_session(seed, backend)
    got.update_state()
    assert got.outcomes.get_bit(0) == ref.outcomes.get_bit(0)
    assert got.outcomes.get_bit(1) == ref.outcomes.get_bit(1)
    np.testing.assert_allclose(got.state(), dense_state(got), atol=ATOL, rtol=0)
    assert np.linalg.norm(got.state()) == pytest.approx(1.0, abs=1e-9)
    got.close()
    ref.close()


# ---------------------------------------------------------------------------
# COW forks: children on any backend agree with their own dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_forked_sessions_match_dense(backend):
    num_qubits = 5
    rng = random.Random(99)
    levels = random_levels(rng, num_qubits, 6)
    with _build(levels, num_qubits, backend, dict(block_size=4)) as sim:
        sim.update_state()
        handles = [h for h in sim.circuit.gates() if h.gate.params]
        if not handles:
            net = sim.circuit.insert_net()
            handles = [sim.circuit.insert_gate("rz", net, 0, params=[0.4])]
            sim.update_state()
        with sim.fork() as child:
            mirrored = child.circuit.gates()[sim.circuit.gates().index(handles[0])]
            child.circuit.update_gate(mirrored, 2.468)
            child.update_state()
            np.testing.assert_allclose(
                child.state(),
                reference_state(num_qubits, circuit_levels(child.circuit)),
                atol=ATOL,
                rtol=0,
            )
        # the parent's state is untouched by the child's retune
        np.testing.assert_allclose(
            sim.state(),
            reference_state(num_qubits, circuit_levels(sim.circuit)),
            atol=ATOL,
            rtol=0,
        )


# ---------------------------------------------------------------------------
# plan chunking across a real thread pool
# ---------------------------------------------------------------------------


def test_plan_chunking_on_work_stealing_pool():
    """Historical id: a two-wide session splits tables over its pool."""
    num_qubits = 6
    rng = random.Random(5)
    # one h per qubit leads: windows of a few blocks, many runs a table
    levels = [[Gate("h", (q,))] for q in range(num_qubits)]
    levels += random_levels(rng, num_qubits, 8)
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    with QTaskSimulator(circuit, block_size=4, num_workers=2) as sim:
        sim.update_state()
        expected = reference_state(num_qubits, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        # two wide -> multi-run tables split into two chunk subflows
        report = sim.plan_report()
        assert report.plans_built < report.plan_chunks <= 2 * report.plans_built
