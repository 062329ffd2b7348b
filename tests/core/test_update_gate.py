"""Unit tests for the ``update_gate`` retune modifier."""

import numpy as np
import pytest

from repro import QTask
from repro.core.circuit import Circuit
from repro.core.exceptions import GateArityError, StaleHandleError
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.core.stage import MatVecStage, UnitaryStage

from ..conftest import circuit_levels, reference_state


def assert_matches_reference(sim, ckt, atol=1e-10):
    expected = reference_state(ckt.num_qubits, circuit_levels(ckt))
    np.testing.assert_allclose(sim.state(), expected, atol=atol)


class TestCircuitUpdateGate:
    def test_swaps_gate_in_place(self):
        ckt = Circuit(2)
        net = ckt.insert_net()
        h = ckt.insert_gate("rz", net, 0, params=[0.5])
        returned = ckt.update_gate(h, 1.5)
        assert returned is h
        assert h.alive
        assert h.gate.params == (1.5,)
        assert h.gate.name == "rz" and h.gate.qubits == (0,)
        assert net.gates == [h]

    def test_wrong_parameter_count_raises_and_leaves_gate_intact(self):
        ckt = Circuit(2)
        net = ckt.insert_net()
        h = ckt.insert_gate("rz", net, 0, params=[0.5])
        with pytest.raises(GateArityError):
            ckt.update_gate(h, 1.0, 2.0)
        assert h.gate.params == (0.5,)
        h2 = ckt.insert_gate("x", net, 1)
        with pytest.raises(GateArityError):
            ckt.update_gate(h2, 0.7)

    def test_stale_handle_raises(self):
        ckt = Circuit(2)
        net = ckt.insert_net()
        h = ckt.insert_gate("rz", net, 0, params=[0.5])
        ckt.remove_gate(h)
        with pytest.raises(StaleHandleError):
            ckt.update_gate(h, 1.0)

    def test_observers_notified_with_old_gate(self):
        from repro.core.circuit import CircuitObserver

        seen = []

        class Spy(CircuitObserver):
            def on_gate_updated(self, circuit, handle, old_gate):
                seen.append((handle, old_gate))

        ckt = Circuit(2)
        ckt.register_observer(Spy())
        net = ckt.insert_net()
        h = ckt.insert_gate("rz", net, 0, params=[0.5])
        ckt.update_gate(h, 2.5)
        assert len(seen) == 1
        assert seen[0][0] is h and seen[0][1].params == (0.5,)


class TestSimulatorRetune:
    def test_diagonal_retune_keeps_stage_and_topology(self):
        ckt = Circuit(3)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (q,)) for q in range(3)])
        _, (h,) = ckt.append_level([Gate("rz", (2,), (0.4,))])
        sim.update_state()
        stage = sim.stages.stage_of(h)
        assert isinstance(stage, UnitaryStage)
        stats_before = sim.statistics()
        ckt.update_gate(h, 2.9)
        assert sim.stages.stage_of(h) is stage  # same stage object
        stats_after = sim.statistics()
        for key in ("num_stages", "num_nodes", "num_edges"):
            assert stats_after[key] == stats_before[key]
        report = sim.update_state()
        assert report.affected_partitions < report.total_partitions
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_matvec_member_retune_keeps_stage(self):
        ckt = Circuit(3)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (q,)) for q in range(3)])
        _, (h,) = ckt.append_level([Gate("rx", (1,), (0.7,))])
        sim.update_state()
        stage = sim.stages.stage_of(h)
        assert isinstance(stage, MatVecStage)
        ckt.update_gate(h, 1.3)
        assert sim.stages.stage_of(h) is stage
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_classification_crossing_restructures(self):
        """rx crossing superposition <-> permutation rebuilds the stage."""
        ckt = Circuit(3)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (q,)) for q in range(3)])
        _, (h,) = ckt.append_level([Gate("rx", (0,), (0.5,))])
        sim.update_state()
        assert isinstance(sim.stages.stage_of(h), MatVecStage)
        ckt.update_gate(h, np.pi)  # rx(pi) is a monomial (bit-flip) gate
        assert isinstance(sim.stages.stage_of(h), UnitaryStage)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        ckt.update_gate(h, 0.25)  # back to superposition
        assert isinstance(sim.stages.stage_of(h), MatVecStage)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_identity_angle_restructures_and_back(self):
        """rz(0) touches nothing (empty layout) and must not keep stale nodes."""
        ckt = Circuit(2)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (0,)), Gate("h", (1,))])
        _, (h,) = ckt.append_level([Gate("rz", (0,), (0.8,))])
        sim.update_state()
        ckt.update_gate(h, 0.0)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        ckt.update_gate(h, 1.1)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_fused_stage_identity_collapse_restructures(self):
        """A retune that collapses a member of a coalesced run (cx, rz, cx)
        to the identity rebuilds its stage.  (The name is historical.)"""
        ckt = Circuit(2)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (0,)), Gate("h", (1,))])
        ckt.append_level([Gate("cx", (0, 1))])
        _, (h,) = ckt.append_level([Gate("rz", (1,), (0.5,))])
        ckt.append_level([Gate("cx", (0, 1))])
        sim.update_state()
        ckt.update_gate(h, 0.0)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        ckt.update_gate(h, 0.9)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_retune_before_first_update(self):
        ckt = Circuit(2)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        net = ckt.insert_net()
        h = ckt.insert_gate("rz", net, 0, params=[0.3])
        ckt.update_gate(h, 1.4)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()

    def test_retuned_gate_can_still_be_removed(self):
        ckt = Circuit(2)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        ckt.append_level([Gate("h", (0,))])
        _, (h,) = ckt.append_level([Gate("rz", (0,), (0.3,))])
        sim.update_state()
        ckt.update_gate(h, 1.7)
        sim.update_state()
        ckt.remove_gate(h)
        sim.update_state()
        assert_matches_reference(sim, ckt)
        sim.close()


class TestFacadeRetune:
    def test_qtask_update_gate_round_trip(self):
        ckt = QTask(3, block_size=4)
        net = ckt.insert_net()
        for q in range(3):
            ckt.insert_gate("h", net, q)
        net2 = ckt.insert_net(net)
        h = ckt.insert_gate("rz", net2, 0, params=[0.2])
        ckt.update_state()
        before = ckt.expectation("IIZ")
        ckt.update_gate(h, 0.2 + 2 * np.pi)  # same operator up to 2pi period
        report = ckt.update_state()
        assert report.was_incremental
        after = ckt.expectation("IIZ")
        assert abs(before - after) < 1e-10
        ckt.close()
