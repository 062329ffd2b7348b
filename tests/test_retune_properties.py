"""Property-based equivalence tests for the retune modifier and observables.

The retune invariant: for any circuit and any parameter change,

    ``update_gate``  ==  ``remove_gate`` + ``insert_gate``  ==  dense baseline

to 1e-10, built in one update or stepwise, with copy-on-write on and off
-- and the block-wise expectation engine must agree with the dense ground
truth on the resulting states.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.observables import PauliString, PauliSum, dense_expectation

from .conftest import BUILD_CORNERS, circuit_levels, open_session, reference_state

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_PARAM_GATES = ["rz", "rx", "ry", "p"]


@st.composite
def param_levels_strategy(draw, num_qubits, max_levels=4):
    """Random levels guaranteed to contain at least one parameterised gate."""
    n_levels = draw(st.integers(1, max_levels))
    levels = []
    for _ in range(n_levels):
        level, used = [], set()
        for _ in range(draw(st.integers(1, num_qubits))):
            q = draw(st.integers(0, num_qubits - 1))
            if q in used:
                continue
            kind = draw(st.integers(0, 3))
            if kind == 0:
                level.append(Gate(draw(st.sampled_from(["h", "x", "s", "t"])), (q,)))
                used.add(q)
            elif kind == 1:
                name = draw(st.sampled_from(_PARAM_GATES))
                theta = draw(st.floats(0.05, 6.2, allow_nan=False))
                level.append(Gate(name, (q,), (theta,)))
                used.add(q)
            else:
                q2 = draw(st.integers(0, num_qubits - 1))
                if q2 == q or q2 in used:
                    continue
                if kind == 2:
                    level.append(Gate(draw(st.sampled_from(["cx", "cz"])), (q, q2)))
                else:
                    theta = draw(st.floats(0.05, 6.2, allow_nan=False))
                    level.append(Gate("cp", (q, q2), (theta,)))
                used.update((q, q2))
        if level:
            levels.append(level)
    if not any(g.params for lvl in levels for g in lvl):
        levels.append([Gate("rz", (0,), (0.4,))])
    return levels


def build(num_qubits, levels, *, stepwise, cow):
    ckt = Circuit(num_qubits)
    sim = open_session(
        ckt, block_size=2, num_workers=1, stepwise=stepwise, copy_on_write=cow
    )
    ckt.from_levels(levels)
    sim.update_state()
    return ckt, sim


def param_handles(ckt):
    return [h for h in ckt.gates() if h.gate.params]


@settings(**COMMON_SETTINGS)
@given(
    num_qubits=st.integers(2, 4),
    data=st.data(),
    config=st.sampled_from(BUILD_CORNERS),
)
def test_retune_equals_reinsert_equals_dense(num_qubits, data, config):
    """The satellite invariant: retune == remove+insert == dense to 1e-10."""
    stepwise, cow = config
    levels = data.draw(param_levels_strategy(num_qubits))
    ckt_a, sim_a = build(num_qubits, levels, stepwise=stepwise, cow=cow)
    ckt_b, sim_b = build(num_qubits, levels, stepwise=stepwise, cow=cow)
    n_edits = data.draw(st.integers(1, 3))
    for _ in range(n_edits):
        handles_a = param_handles(ckt_a)
        pick = data.draw(st.integers(0, len(handles_a) - 1))
        theta = data.draw(st.floats(0.05, 6.2, allow_nan=False))
        ha = handles_a[pick]
        old_gate = ha.gate
        net_pos = ckt_a.net_position(ha.net)
        # A: first-class retune
        ckt_a.update_gate(ha, theta)
        sim_a.update_state()
        # B: the same edit as remove + insert into the same net.  Reinsertion
        # appends at the net's tail, so handle *indices* diverge between the
        # circuits; the edited gate is identified by net position + qubits
        # (unique within a net by the structural-parallelism invariant).
        net_b = ckt_b.nets()[net_pos]
        hb = next(h for h in net_b.gates if h.gate.qubits == old_gate.qubits)
        assert hb.gate == old_gate
        ckt_b.remove_gate(hb)
        ckt_b.insert_gate(old_gate.name, net_b, *old_gate.qubits, params=(theta,))
        sim_b.update_state()
        # dense ground truth over the live circuit
        expected = reference_state(num_qubits, circuit_levels(ckt_a))
        np.testing.assert_allclose(sim_a.state(), expected, atol=1e-10)
        np.testing.assert_allclose(sim_b.state(), expected, atol=1e-10)
        # amplitudes of both engines agree exactly on the same math
        assert abs(sim_a.norm() - 1.0) < 1e-10
        assert abs(sim_b.norm() - 1.0) < 1e-10
    sim_a.close()
    sim_b.close()


@settings(**COMMON_SETTINGS)
@given(
    num_qubits=st.integers(2, 4),
    data=st.data(),
    config=st.sampled_from(BUILD_CORNERS),
)
def test_expectation_tracks_retunes(num_qubits, data, config):
    """Cached block-wise expectations match the dense ground truth per edit."""
    stepwise, cow = config
    levels = data.draw(param_levels_strategy(num_qubits))
    ckt, sim = build(num_qubits, levels, stepwise=stepwise, cow=cow)
    obs = PauliSum(
        [
            PauliString({0: "Z"}, coefficient=0.75),
            PauliString({num_qubits - 1: "X"}, coefficient=-0.5),
            PauliString({0: "Y", num_qubits - 1: "Z"}, coefficient=0.25)
            if num_qubits > 1
            else PauliString({0: "Z"}),
        ]
    )
    assert abs(sim.expectation(obs) - dense_expectation(sim.state(), obs)) < 1e-10
    for _ in range(data.draw(st.integers(1, 3))):
        handles = param_handles(ckt)
        pick = data.draw(st.integers(0, len(handles) - 1))
        theta = data.draw(st.floats(0.0, 6.2, allow_nan=False))
        ckt.update_gate(handles[pick], theta)
        sim.update_state()
        assert abs(sim.expectation(obs) - dense_expectation(sim.state(), obs)) < 1e-10
    sim.close()
