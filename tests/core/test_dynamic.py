"""Unit tests for dynamic circuits: measure, reset, classical control."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro import QTask
from repro.baselines.dense import DenseReferenceSimulator
from repro.baselines.statevector import QulacsLikeSimulator
from repro.core import faults
from repro.core.circuit import Circuit
from repro.core.classical import (
    ClassicalRegister,
    OutcomeRecord,
    decide_outcome,
    fold_seeds,
    keyed_uniforms,
    primed_seeds,
)
from repro.core.cow import BlockStore, InitialStateStore
from repro.core.exceptions import CircuitError, NetDependencyError
from repro.core.exec_plan import RUN_ACTION
from repro.core.faults import FaultPlan
from repro.core.gates import Gate
from repro.core.kernels import NumpyBatchBackend, qubit_marginal
from repro.core.ops import CGate, MeasureOp, ResetOp, is_dynamic_op
from repro.core.simulator import QTaskSimulator
from repro.core.stage import MeasureStage, ResetStage, draw_collapses
from repro.telemetry import metrics

from ..conftest import ReferenceLoop, StoreChain, dense_state, put_blocks, replay_shots


# ---------------------------------------------------------------------------
# OutcomeRecord
# ---------------------------------------------------------------------------


class TestOutcomeRecord:
    def test_keyed_draws_are_deterministic(self):
        a = OutcomeRecord(2, seed=7)
        b = OutcomeRecord(2, seed=7)
        outcomes_a = [a.choose(i, 0.5, 0.5) for i in range(20)]
        outcomes_b = [b.choose(i, 0.5, 0.5) for i in range(20)]
        assert outcomes_a == outcomes_b
        assert set(outcomes_a) == {0, 1}  # not constant for 20 fair draws

    def test_draw_order_independent_of_other_ops(self):
        # op 5's first draw is the same whether or not op 3 ever drew
        a = OutcomeRecord(1, seed=11)
        b = OutcomeRecord(1, seed=11)
        a.choose(3, 0.5, 0.5)
        assert a.choose(5, 0.5, 0.5) == b.choose(5, 0.5, 0.5)

    def test_deterministic_masses_ignore_randomness(self):
        rec = OutcomeRecord(1, seed=0)
        assert rec.choose(0, 1.0, 0.0) == 0
        assert rec.choose(1, 0.0, 1.0) == 1

    def test_zero_total_mass_raises(self):
        rec = OutcomeRecord(1, seed=0)
        with pytest.raises(ValueError):
            rec.choose(0, 0.0, 0.0)

    def test_forced_outcomes_win(self):
        rec = OutcomeRecord(1, seed=3, forced={0: 1})
        assert rec.choose(0, 1.0, 0.0) == 1  # would be 0 by mass
        assert rec.outcome_of(0) == 1

    def test_first_choice_is_what_a_fresh_record_would_choose(self):
        asked = OutcomeRecord(1, seed=5, forced={3: 1})
        asked.choose(0, 0.5, 0.5)  # its own streams are not consulted
        for seed in range(40):
            fresh = OutcomeRecord(1, seed=seed)
            assert asked.first_choice(fresh.seed, 0, 0.3, 0.7) == fresh.choose(
                0, 0.3, 0.7
            )
        assert asked.first_choice(9, 3, 1.0, 0.0) == 1  # forced ops never branch
        assert asked.outcome_of(3) is None  # and nothing is recorded
        with pytest.raises(ValueError):
            asked.first_choice(9, 1, 0.0, 0.0)

    def test_first_choice_builds_no_stream_when_a_side_is_empty(self, monkeypatch):
        """One side without mass fixes the answer: ``first_choice`` agrees
        with a fresh record's ``choose`` without building a keyed stream."""
        rng = np.random.default_rng(17)
        cases = [
            (int(seed), p0, p1)
            for seed in rng.integers(0, 2**62, size=40)
            for p0, p1 in ((0.0, float(rng.uniform(1e-300, 2))),
                           (float(rng.uniform(1e-300, 2)), 0.0))
        ]
        expected = [OutcomeRecord(1, seed=s).choose(0, p0, p1) for s, p0, p1 in cases]
        asked = OutcomeRecord(1, seed=0)

        def no_stream(seed, op_index):
            raise AssertionError("keyed stream built")

        monkeypatch.setattr(OutcomeRecord, "keyed_stream", staticmethod(no_stream))
        assert [asked.first_choice(s, 0, p0, p1) for s, p0, p1 in cases] == expected
        assert expected.count(1) == len(cases) // 2  # p0 = 0 draws 1, p1 = 0 draws 0

    def test_decide_outcome_draws_only_when_it_has_to(self):
        def no_draw():
            raise AssertionError("drawn")

        assert decide_outcome(0, 1, 1.0, 0.0, no_draw) == 1
        with pytest.raises(ValueError, match="op 4"):
            decide_outcome(4, None, 0.0, 0.0, no_draw)
        assert decide_outcome(0, None, 0.25, 0.75, lambda: 0.2) == 0
        assert decide_outcome(0, None, 0.25, 0.75, lambda: 0.25) == 1

    def test_branch_keeps_the_prefix_and_restarts_the_streams(self):
        rec = OutcomeRecord(2, seed=1)
        rec.set_bit(0, 1)
        first = [rec.choose(op, 0.5, 0.5) for op in range(3)]
        rec.branch(2, [1, 2])
        assert rec.get_bit(0) == 1
        assert [rec.outcome_of(op) for op in range(3)] == [first[0], None, None]
        fresh = OutcomeRecord(2, seed=2)
        assert rec.choose(1, 0.5, 0.5) == fresh.choose(1, 0.5, 0.5)

    def test_bits_and_values(self):
        rec = OutcomeRecord(3)
        rec.set_bit(0, 1)
        rec.set_bit(2, 1)
        assert rec.value_of((0, 1, 2)) == 0b101
        assert rec.bitstring(range(3)) == "101"
        assert rec.get_bit(1) == 0

    def test_reseed_clears_state(self):
        rec = OutcomeRecord(1, seed=1)
        rec.set_bit(0, 1)
        rec.choose(0, 0.5, 0.5)
        rec.reseed(2)
        assert rec.get_bit(0) == 0
        assert rec.outcome_of(0) is None

    def test_clone_is_independent(self):
        rec = OutcomeRecord(2, seed=9)
        rec.set_bit(0, 1)
        child = rec.clone()
        child.set_bit(1, 1)
        assert rec.get_bit(1) == 0
        assert child.get_bit(0) == 1
        # the clone re-draws from the start of each keyed stream
        assert child.choose(0, 0.5, 0.5) == OutcomeRecord(2, seed=9).choose(
            0, 0.5, 0.5
        )

    def test_composite_seed_folding(self):
        a = OutcomeRecord(1, seed=(5, 0))
        b = OutcomeRecord(1, seed=(5, 1))
        assert a.seed != b.seed


class TestClassicalRegister:
    def test_bits_and_indexing(self):
        reg = ClassicalRegister("c", offset=2, size=3)
        assert reg.bits == (2, 3, 4)
        assert reg[0] == 2 and reg[2] == 4
        assert len(reg) == 3
        with pytest.raises(IndexError):
            reg[3]


# ---------------------------------------------------------------------------
# circuit-level structure
# ---------------------------------------------------------------------------


class TestCircuitStructure:
    def test_register_declaration(self):
        ckt = Circuit(2, num_clbits=1)
        reg = ckt.add_classical_register("m", 2)
        assert ckt.num_clbits == 3
        assert reg.offset == 1 and reg.size == 2
        assert ckt.creg("m") is reg
        with pytest.raises(CircuitError):
            ckt.add_classical_register("m", 1)
        with pytest.raises(CircuitError):
            ckt.creg("nope")

    def test_clbit_range_validated(self):
        ckt = Circuit(2, num_clbits=1)
        net = ckt.insert_net()
        with pytest.raises(CircuitError):
            ckt.insert_measure(net, 0, 5)

    def test_net_invariant_covers_clbits(self):
        ckt = Circuit(3, num_clbits=2)
        net = ckt.insert_net()
        ckt.insert_measure(net, 0, 0)
        # same clbit, different qubit: still a within-net dependency
        with pytest.raises(NetDependencyError):
            ckt.insert_measure(net, 1, 0)
        # conditioned on the clbit a net-mate writes: dependency too
        with pytest.raises(NetDependencyError):
            ckt.insert_cgate("x", net, 2, condition=((0,), 1))
        # a disjoint clbit is fine
        ckt.insert_measure(net, 1, 1)

    def test_op_index_program_order_and_clone(self):
        ckt = Circuit(2, num_clbits=2)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        m0 = ckt.insert_measure(n1, 0, 0)
        r0 = ckt.insert_reset(n1, 1)
        c0 = ckt.insert_cgate("x", n2, 1, condition=((0,), 1))
        assert [h.gate.op_index for h in (m0, r0, c0)] == [0, 1, 2]
        clone, gate_map, _ = ckt.clone()
        assert clone.num_clbits == 2
        assert [h.gate.op_index for h in clone.dynamic_handles()] == [0, 1, 2]
        # new ops inserted into the clone continue the numbering
        n3 = clone.insert_net()
        m = clone.insert_measure(n3, 0, 1)
        assert m.gate.op_index == 3

    def test_update_gate_rejects_dynamic_ops(self):
        ckt = Circuit(1, num_clbits=1)
        net = ckt.insert_net()
        h = ckt.insert_measure(net, 0, 0)
        with pytest.raises(CircuitError):
            ckt.update_gate(h, 0.5)

    def test_cgate_validation(self):
        with pytest.raises(ValueError):
            CGate(Gate("x", (0,)), (), 0)
        with pytest.raises(ValueError):
            CGate(Gate("x", (0,)), (0, 0), 1)
        with pytest.raises(ValueError):
            CGate(Gate("x", (0,)), (0,), 2)
        with pytest.raises(TypeError):
            CGate("x", (0,), 0)

    def test_is_dynamic_op(self):
        assert is_dynamic_op(MeasureOp(0, 0))
        assert is_dynamic_op(ResetOp(0))
        assert is_dynamic_op(CGate(Gate("x", (0,)), (0,), 1))
        assert not is_dynamic_op(Gate("x", (0,)))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _collapse_stage(op, n, block_size, forced=None):
    op.op_index = 0
    return (MeasureStage if isinstance(op, MeasureOp) else ResetStage)(
        op, n, block_size, record=OutcomeRecord(1, seed=0, forced=forced)
    )


def _chain(psi, block_size):
    store = BlockStore(psi.shape[0], block_size)
    put_blocks(store, 0, psi)
    return StoreChain([InitialStateStore(psi.shape[0], block_size), store])


class TestCollapseKernels:
    """A collapse's masses come from the marginal its sync step reduces the
    input to; its write is the projector action, on both backends."""

    @pytest.mark.parametrize("qubit", [0, 1, 2, 3])
    @pytest.mark.parametrize("block_size", [2, 4, 16])
    def test_measured_masses_match_dense(self, np_rng, qubit, block_size):
        n = 4
        psi = np_rng.normal(size=1 << n) + 1j * np_rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        stage = _collapse_stage(MeasureOp(qubit, 0), n, block_size)
        draw_collapses((stage,), _chain(psi, block_size))
        p0, p1 = stage.masses
        idx = np.arange(1 << n)
        probs = np.abs(psi) ** 2
        assert p0 == pytest.approx(probs[(idx >> qubit) & 1 == 0].sum(), abs=1e-12)
        assert p1 == pytest.approx(probs[(idx >> qubit) & 1 == 1].sum(), abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("move", [False, True])
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("qubit", [0, 2, 3])
    def test_collapse_run_matches_dense(self, np_rng, qubit, outcome, move):
        n = 4
        dim = 1 << n
        block_size = 4
        psi = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        op = ResetOp(qubit) if move else MeasureOp(qubit, 0)
        stage = _collapse_stage(op, n, block_size, forced={0: outcome})
        reader = _chain(psi, block_size)
        draw_collapses((stage,), reader)
        idx = np.arange(dim)
        bits = (idx >> qubit) & 1
        mass = float((np.abs(psi) ** 2)[bits == outcome].sum())
        scale = 1.0 / math.sqrt(mass)
        assert stage.scale == pytest.approx(scale, rel=1e-12)
        table = stage.emit_table([s.block_range for s in stage.partition_specs()])
        assert table.op.kind == RUN_ACTION
        if not move:
            expect = np.where(bits == outcome, psi * scale, 0)
        else:
            expect = np.zeros_like(psi)
            keep = bits == 0
            expect[keep] = psi[idx[keep] | (outcome << qubit)] * scale
        outputs = []
        for backend in (ReferenceLoop(), NumpyBatchBackend()):
            store = BlockStore(dim, block_size)
            backend.execute_plan(reader, store, table)
            outputs.append(
                np.concatenate([store.get_block(b) for b in range(dim // block_size)])
            )
        assert np.array_equal(outputs[0], outputs[1])
        np.testing.assert_allclose(outputs[0], expect, atol=1e-12)
        assert np.linalg.norm(outputs[0]) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_is_the_dense_sum(self, np_rng):
        n = 6
        psi = np_rng.normal(size=1 << n) + 1j * np_rng.normal(size=1 << n)
        probs = np.abs(psi) ** 2
        idx = np.arange(1 << n)
        for qubits in [(0,), (5,), (1, 4), (0, 2, 3, 5), tuple(range(6))]:
            local = sum(((idx >> q) & 1) << j for j, q in enumerate(qubits))
            expect = np.bincount(local, weights=probs, minlength=1 << len(qubits))
            np.testing.assert_allclose(qubit_marginal(psi, qubits), expect, atol=1e-12)


# ---------------------------------------------------------------------------
# end-to-end collapse semantics
# ---------------------------------------------------------------------------


def build_qtask(n, clbits, **kwargs):
    kwargs.setdefault("block_size", 4)
    return QTask(n, num_clbits=clbits, **kwargs)


class TestMeasureStage:
    def test_deterministic_outcome_one(self):
        ckt = build_qtask(2, 1, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("x", n1, 0)
        ckt.measure(n2, 0, 0)
        ckt.update_state()
        assert ckt.outcomes.get_bit(0) == 1
        np.testing.assert_allclose(np.abs(ckt.state()), [0, 1, 0, 0], atol=1e-12)
        ckt.close()

    def test_bell_collapse_is_correlated_and_normalised(self):
        for seed in range(6):
            ckt = build_qtask(2, 2, seed=seed)
            n1, n2, n3 = (ckt.insert_net() for _ in range(3))
            ckt.insert_gate("h", n1, 0)
            ckt.insert_gate("cx", n2, 0, 1)
            ckt.measure(n3, 0, 0)
            ckt.measure(n3, 1, 1)
            ckt.update_state()
            b0, b1 = ckt.outcomes.get_bit(0), ckt.outcomes.get_bit(1)
            assert b0 == b1  # perfectly correlated
            state = ckt.state()
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
            expect = np.zeros(4)
            expect[b0 * 3] = 1.0
            np.testing.assert_allclose(np.abs(state), expect, atol=1e-12)
            ckt.close()

    def test_measurement_invalidates_observable_cache(self):
        ckt = build_qtask(2, 1, seed=2)
        n1 = ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.update_state()
        assert ckt.expectation("IZ") == pytest.approx(0.0, abs=1e-12)
        n2 = ckt.insert_net()
        ckt.measure(n2, 0, 0)
        ckt.update_state()
        sign = 1.0 - 2.0 * ckt.outcomes.get_bit(0)
        assert ckt.expectation("IZ") == pytest.approx(sign, abs=1e-12)
        ckt.close()


class TestResetStage:
    def test_reset_definite_one(self):
        ckt = build_qtask(1, 0, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("x", n1, 0)
        ckt.reset(n2, 0)
        ckt.update_state()
        np.testing.assert_allclose(np.abs(ckt.state()), [1, 0], atol=1e-12)
        ckt.close()

    def test_reset_entangled_collapses_partner(self):
        # Bell pair, then reset qubit 0: qubit 1 collapses to the outcome
        for seed in range(5):
            ckt = build_qtask(2, 0, seed=seed)
            n1, n2, n3 = (ckt.insert_net() for _ in range(3))
            ckt.insert_gate("h", n1, 0)
            ckt.insert_gate("cx", n2, 0, 1)
            handle = ckt.reset(n3, 0)
            ckt.update_state()
            state = ckt.state()
            outcome = ckt.outcomes.outcome_of(handle.gate.op_index)
            expect = np.zeros(4)
            expect[outcome << 1] = 1.0  # q0 always 0, q1 = outcome
            np.testing.assert_allclose(np.abs(state), expect, atol=1e-12)
            ckt.close()


class TestClassicalControl:
    @pytest.mark.parametrize("gate,qubits", [("x", (1,)), ("z", (1,)),
                                             ("h", (1,)), ("cx", (1, 0))])
    def test_condition_false_is_identity(self, gate, qubits):
        ckt = build_qtask(2, 1, seed=0)
        n1 = ckt.insert_net()
        # c0 stays 0, condition wants 1: gate must not apply
        ckt.c_if(gate, n1, *qubits, condition=((0,), 1))
        ckt.update_state()
        expect = np.zeros(4)
        expect[0] = 1.0
        np.testing.assert_allclose(np.abs(ckt.state()), expect, atol=1e-12)
        ckt.close()

    @pytest.mark.parametrize("gate,qubits", [("x", (1,)), ("h", (1,)),
                                             ("cx", (1, 0))])
    def test_condition_true_applies_gate(self, gate, qubits):
        ckt = build_qtask(2, 1, seed=0)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("x", n1, 0)
        ckt.measure(n2, 0, 0)      # deterministically 1
        ckt.c_if(gate, n3, *qubits, condition=((0,), 1))
        ckt.update_state()
        np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-12)
        ckt.close()

    def test_register_condition_value(self):
        # condition over a 2-bit register: applies only when c == 0b10
        ckt = build_qtask(3, 0, seed=0)
        c = ckt.add_classical_register("c", 2)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("x", n1, 1)
        ckt.measure(n2, 0, c[0])   # 0
        ckt.measure(n2, 1, c[1])   # 1
        ckt.c_if("x", n3, 2, condition=(c, 0b10))
        ckt.update_state()
        assert ckt.classical_value(c) == 0b10
        # qubit 2 flipped
        probs = ckt.probabilities()
        assert probs[(1 << 2) | (1 << 1)] == pytest.approx(1.0, abs=1e-12)
        ckt.close()


class TestIncrementalDynamics:
    def test_upstream_edit_recollapses_downstream_only(self):
        ckt = build_qtask(3, 1, seed=4)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        theta = ckt.insert_gate("ry", n1, 0, params=[0.7])
        ckt.insert_gate("h", n1, 1)
        ckt.measure(n2, 0, 0)
        ckt.c_if("x", n3, 2, condition=((0,), 1))
        ckt.update_state()
        for angle in (1.1, 2.3, 0.2):
            ckt.update_gate(theta, angle)
            report = ckt.update_state()
            assert report.was_incremental
            np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)
        ckt.close()

    def test_downstream_edit_preserves_outcome(self):
        ckt = build_qtask(3, 1, seed=1)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("h", n1, 0)
        m = ckt.measure(n2, 0, 0)
        ckt.update_state()
        outcome = ckt.outcomes.outcome_of(m.gate.op_index)
        # an edit strictly after the measurement must not redraw it
        ckt.insert_gate("x", n3, 2)
        report = ckt.update_state()
        assert report.was_incremental
        assert ckt.outcomes.outcome_of(m.gate.op_index) == outcome
        np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)
        ckt.close()

    def test_measure_removal_restores_unitary_state(self):
        ckt = build_qtask(2, 1, seed=6)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        m = ckt.measure(n2, 0, 0)
        ckt.update_state()
        ckt.remove_gate(m)
        ckt.update_state()
        np.testing.assert_allclose(
            np.abs(ckt.state()), [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0],
            atol=1e-12,
        )
        ckt.close()


class TestTrajectoriesAndForks:
    def test_reset_trajectory_is_reproducible(self):
        ckt = build_qtask(2, 2, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        ckt.measure(n2, 0, 0)
        ckt.measure(n2, 1, 1)
        ckt.update_state()
        seen = []
        for _ in range(2):
            ckt.simulator.reset_trajectory(123)
            ckt.update_state()
            seen.append(ckt.outcomes.bitstring(range(2)))
        assert seen[0] == seen[1]
        ckt.close()

    def test_fork_trajectories_are_isolated(self):
        ckt = build_qtask(2, 1, seed=3)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.measure(n2, 0, 0)
        ckt.update_state()
        parent_bit = ckt.outcomes.get_bit(0)
        parent_state = ckt.state()
        child = ckt.fork()
        # the fork inherits the parent's classical state verbatim
        assert child.outcomes.get_bit(0) == parent_bit
        # re-collapse the fork until it lands on the opposite branch
        for s in range(20):
            child.simulator.reset_trajectory((999, s))
            child.update_state()
            if child.outcomes.get_bit(0) != parent_bit:
                break
        else:  # pragma: no cover - 2^-20 failure probability
            pytest.fail("fork never drew the opposite outcome")
        assert ckt.outcomes.get_bit(0) == parent_bit
        np.testing.assert_allclose(ckt.state(), parent_state, atol=1e-12)
        assert abs(np.abs(np.vdot(child.state(), parent_state))) < 1e-9
        child.close()
        ckt.close()

    def test_run_shots_deterministic_across_fleet_sizes(self):
        """Historical id: there is no fleet; counts do not depend on the
        session's executor width, and ``num_forks`` is not a keyword."""
        seen = []
        for num_workers in (1, 2, 4):
            ckt = build_qtask(2, 2, seed=5, num_workers=num_workers)
            n1, n2, n3 = (ckt.insert_net() for _ in range(3))
            ckt.insert_gate("h", n1, 0)
            ckt.insert_gate("cx", n2, 0, 1)
            ckt.measure(n3, 0, 0)
            ckt.measure(n3, 1, 1)
            seen.append(ckt.run_shots(120, seed=17))
            with pytest.raises(TypeError, match="num_forks"):
                ckt.run_shots(120, seed=17, num_forks=1)
            ckt.close()
        assert seen[0] == seen[1] == seen[2]
        assert set(seen[0]) <= {"00", "11"}
        assert sum(seen[0].values()) == 120

    def test_run_shots_requires_clbits(self):
        ckt = build_qtask(1, 0)
        with pytest.raises(CircuitError):
            ckt.run_shots(10)
        ckt.close()

    def test_run_shots_zero_and_negative(self):
        ckt = build_qtask(1, 1)
        assert ckt.run_shots(0) == {}
        with pytest.raises(ValueError):
            ckt.run_shots(-1)
        ckt.close()


#: materialised seeds of 2**63 and more: tuple folds and a primed row
WIDE_SEEDS = [(3, 1), (5, 1), primed_seeds(21, 1, [3])[0]]


class TestWideSeeds:
    """A materialised seed is carried as it is by a clone, a fork and a
    checkpoint round-trip: none folds it below 2**63 again."""

    @staticmethod
    def session(seed):
        # six fair measurements: the fork's redraws name its seed
        ckt = build_qtask(6, 6, seed=seed, block_size=4)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        handles = [ckt.insert_gate("ry", n1, q, params=[math.pi / 2]) for q in range(6)]
        for q in range(6):
            ckt.measure(n2, q, q)
        ckt.update_state()
        return ckt, handles

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_clone_keeps_the_seed(self, seed):
        record = OutcomeRecord(1, seed=seed)
        assert record.seed >= 2**63
        assert record.clone().seed == record.seed

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_checkpoint_round_trip_keeps_the_seed(self, seed, tmp_path):
        ckt, _ = self.session(seed)
        path = ckt.checkpoint(str(tmp_path / "wide.qtckpt"))
        with QTask.restore(path, num_workers=1) as restored:
            assert restored.outcomes.seed == ckt.outcomes.seed
            assert restored.outcomes.export_state() == ckt.outcomes.export_state()
        ckt.close()

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_fork_redraws_what_its_parent_drew(self, seed):
        # a retune re-collapses every measurement on unchanged masses: the
        # fork's first draws are the parent's first draws
        ckt, handles = self.session(seed)
        drawn = ckt.outcomes.bitstring(range(6))
        with ckt.fork() as child:
            assert child.outcomes.seed == ckt.outcomes.seed
            for handle in handles:
                child.update_gate(child.handle_for(handle), math.pi / 2)
            child.update_state()
            assert child.outcomes.bitstring(range(6)) == drawn
        ckt.close()


def trajectories_of(session) -> int:
    return session.telemetry.metrics.get("shots.trajectories").value


def dynamic_qasm(num_qubits: int, rounds: int) -> str:
    """The ledger's ``shots_dynamic`` circuit: measure, conditioned
    correction and reset, ``rounds`` deep, then two final measurements."""
    n = num_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"creg m{r}[1];" for r in range(rounds)] + ["creg out[2];"]
    lines += [f"h q[{q}];" for q in range(n)]
    lines += [f"cx q[{q}],q[{q + 1}];" for q in range(n - 1)]
    lines += [f"rz({0.1 * (q + 1):.3f}) q[{q}];" for q in range(n)]
    lines += [f"rx({0.2 * (q + 1):.3f}) q[{q}];" for q in range(n)]
    for r in range(rounds):
        a, b = r, n - 1 - r
        lines += [
            f"measure q[{a}] -> m{r}[0];",
            f"if(m{r}==1) x q[{b}];",
            f"reset q[{a}];",
            f"h q[{a}];",
            f"cx q[{a}],q[{a + 1}];",
            f"ry({0.3 * (r + 1):.3f}) q[{b}];",
        ]
    lines += [f"measure q[{n // 2}] -> out[0];",
              f"measure q[{n // 2 + 1}] -> out[1];"]
    return "\n".join(lines) + "\n"


def dense_shots(circuit, shots: int, seed: int) -> dict:
    """``run_shots``'s histogram by full dense replays, one per shot, each
    keyed ``(seed, shot)`` and drawing through ``keyed_stream``."""
    dense = QulacsLikeSimulator(circuit, num_workers=1)
    base = OutcomeRecord._materialise_seed(seed)
    counts: dict = {}
    for shot in range(shots):
        dense.outcomes.reseed((base, shot))
        dense.update_state()
        bits = dense.outcomes.bitstring(range(circuit.num_clbits))
        counts[bits] = counts.get(bits, 0) + 1
    return counts


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1)
EDGE_OPS = (0, 1, 2**32 + 5)


class TestKeyedDraws:
    """The vectorised keyed draw is ``default_rng((seed, op)).random()``
    bit for bit, and the fold is ``_materialise_seed((base, shot))``."""

    @staticmethod
    def _oracle(seeds, ops):
        return np.array([
            np.random.default_rng((int(s), int(k))).random()
            for s, k in zip(seeds, ops)
        ])

    def test_edge_keys(self):
        seeds = np.array([s for s in EDGE_SEEDS for _ in EDGE_OPS], dtype=np.uint64)
        ops = np.array([k for _ in EDGE_SEEDS for k in EDGE_OPS], dtype=np.uint64)
        got = keyed_uniforms(seeds, ops)
        np.testing.assert_array_equal(got, self._oracle(seeds, ops))

    def test_random_keys(self):
        rng = np.random.default_rng(20261017)
        seeds = rng.integers(0, 2**64, size=5000, dtype=np.uint64, endpoint=False)
        ops = rng.integers(0, 2**16, size=5000).astype(np.uint64)
        np.testing.assert_array_equal(
            keyed_uniforms(seeds, ops), self._oracle(seeds, ops)
        )

    @pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 8_675_309])
    def test_fold_is_materialise_seed(self, base):
        shots = np.array(list(range(300)) + [2**32 - 1, 2**32, 2**63 - 1], dtype=np.uint64)
        want = [OutcomeRecord._materialise_seed((base, int(i))) for i in shots]
        assert fold_seeds(base, shots).tolist() == want
        assert max(want) >= 2**63  # folded seeds are not reduced mod 2**63

    def test_primed_seeds_are_the_table_rows(self):
        ops = [4, 0, 9]
        keys = primed_seeds(77, 5, ops)
        for shot, key in enumerate(keys):
            assert key.seed == OutcomeRecord._materialise_seed((77, shot))
            for op in ops:
                assert key.first(op) == OutcomeRecord.keyed_stream(key.seed, op).random()
            assert key.first(5) is None

    def test_chunked_table_equals_one_pass(self, monkeypatch):
        from repro.core import classical

        whole = primed_seeds(3, 40, [1, 2, 3])
        monkeypatch.setattr(classical, "_KEY_CHUNK", 7)
        chunked = primed_seeds(3, 40, [1, 2, 3])
        assert [k.seed for k in chunked] == [k.seed for k in whole]
        np.testing.assert_array_equal(
            np.stack([k.firsts for k in chunked]), np.stack([k.firsts for k in whole])
        )


class TestPrimedRecord:
    """A record keyed by a :class:`PrimedSeed` serves first draws from its
    row and builds a stream only when the op draws again."""

    @staticmethod
    def _counting(monkeypatch):
        built = []
        stream = OutcomeRecord.keyed_stream
        monkeypatch.setattr(
            OutcomeRecord, "keyed_stream",
            staticmethod(lambda s, op: built.append(op) or stream(s, op)),
        )
        return built

    def test_first_draw_comes_from_the_row(self, monkeypatch):
        (key,) = primed_seeds(11, 1, [2, 5])
        want = OutcomeRecord.keyed_stream(key.seed, 5)
        first, second = want.random(), want.random()
        built = self._counting(monkeypatch)
        rec = OutcomeRecord(1, seed=0)
        rec.reseed(key)
        assert rec.seed == key.seed
        assert rec._draw(5) == first
        assert built == []
        assert rec._draw(5) == second  # the stream, past the served value
        assert built == [5]
        assert rec._draw(7) == OutcomeRecord.keyed_stream(key.seed, 7).random()

    def test_snapshot_restore_after_a_served_draw(self, monkeypatch):
        """Historical id (a record has no snapshot any more): after a draw
        served from the row, a clone keeps the outcome and builds no
        stream, and the record's next draw is its stream's second value."""
        (key,) = primed_seeds(21, 1, [3])
        want = OutcomeRecord.keyed_stream(key.seed, 3)
        want.random()
        second = want.random()
        rec = OutcomeRecord(1, seed=0)
        rec.reseed(key)
        outcome = rec.choose(3, 0.5, 0.5)  # served from the row
        built = self._counting(monkeypatch)
        assert rec.clone().outcome_of(3) == outcome
        assert built == []  # a clone builds no stream
        assert rec._draw(3) == second
        assert built == [3]

    def test_restore_before_a_served_draw_serves_it_again(self, monkeypatch):
        """Historical id: reseeding with the same key after a served draw
        serves it from the row again, building no stream."""
        (key,) = primed_seeds(5, 1, [0])
        rec = OutcomeRecord(1, seed=0)
        rec.reseed(key)
        first = rec._draw(0)
        built = self._counting(monkeypatch)
        rec.reseed(key)
        assert rec._draw(0) == first == key.first(0)
        assert built == []

    def test_reseed_branch_and_clone_drop_the_row(self):
        (key,) = primed_seeds(8, 1, [0, 1])
        rec = OutcomeRecord(1, seed=0)
        rec.reseed(key)
        assert rec.clone()._draw(0) == key.first(0)  # a fresh stream, same value
        rec.branch(99, [1])
        assert rec._draw(1) == OutcomeRecord.keyed_stream(99, 1).random()
        rec.reseed(key)
        rec._draw(1)
        rec.discard_op(1)
        assert rec._draw(1) == key.first(1)

    def test_first_choice_reads_the_row(self, monkeypatch):
        keys = primed_seeds(13, 40, [0])
        expected = [OutcomeRecord(1, seed=k).choose(0, 0.3, 0.7) for k in keys]
        unprimed = OutcomeRecord(1, seed=keys[0].seed).choose(4, 0.3, 0.7)
        built = self._counting(monkeypatch)
        asked = OutcomeRecord(1, seed=0)
        assert [asked.first_choice(k, 0, 0.3, 0.7) for k in keys] == expected
        assert built == []
        # an op the row does not hold falls back to its stream
        assert asked.first_choice(keys[0], 4, 0.3, 0.7) == unprimed
        assert built == [4]


class TestWalkDraws:
    """``run_shots`` takes every first draw from one vectorised pass."""

    def test_a_walk_builds_no_generator(self, monkeypatch):
        with QTask.from_qasm(dynamic_qasm(10, 3), num_workers=1) as session:
            session.update_state()
            built = TestPrimedRecord._counting(monkeypatch)
            counts = session.run_shots(32, seed=2026)
            assert built == []
            monkeypatch.undo()
            assert counts == dense_shots(session.circuit, 32, 2026)
            assert trajectories_of(session) > 1  # the walk branched

    def test_shots_keys_span(self):
        with QTask.from_qasm(dynamic_qasm(6, 2), num_workers=1, tracing=True) as session:
            session.run_shots(9, seed=4)
            (span,) = [s for s in session.telemetry.tracer.spans() if s.name == "shots.keys"]
            # two rounds of measure + reset, then two measurements
            assert span.attrs == {"keys": 9 * 6, "shots": 9}

    def test_a_faulted_walk_keeps_its_counts(self, no_plan):
        source = dynamic_qasm(6, 2)
        with QTask.from_qasm(source, num_workers=1) as session:
            session.update_state()
            clean = session.run_shots(24, seed=31)
            plans = [FaultPlan(script=[("kernel.run", k)]) for k in (1, 3, 6)]
            plans.append(FaultPlan(7, probabilities={"kernel.run": 0.3}))
            for plan in plans:
                faults.install(plan)
                try:
                    assert session.run_shots(24, seed=31) == clean
                finally:
                    faults.install(None)
                assert plan.total_injected() > 0


class TestRunShotsWalk:
    """``run_shots`` simulates one path per distinct outcome record before
    the last measurement, over the gates a measurement can see."""

    def test_no_collapse_ops_is_one_tally(self):
        ckt = build_qtask(2, 2, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.c_if("x", n2, 1, condition=((0,), 1))  # reads a bit nobody writes
        ckt.update_state()
        updates = ckt.simulator.statistics()["num_updates"]
        assert ckt.run_shots(50, seed=3) == {"00": 50}
        assert trajectories_of(ckt) == 1
        assert ckt.telemetry.metrics.get("shots.requested").value == 50
        assert ckt.simulator.statistics()["num_updates"] == updates
        ckt.close()

    def test_deterministic_collapse_never_branches(self):
        ckt = build_qtask(2, 2, seed=0)
        n1, m1, rst, n2, m2 = (ckt.insert_net() for _ in range(5))
        ckt.insert_gate("h", n1, 0)
        ckt.measure(m1, 0, 0)
        ckt.reset(rst, 0)  # q0 is collapsed: one side has zero mass
        ckt.insert_gate("h", n2, 1)
        ckt.measure(m2, 1, 1)  # the last measurement keeps the reset in
        counts = ckt.run_shots(64, seed=11)
        assert counts == replay_shots(ckt, 64, 11)
        assert len(counts) == 4
        assert trajectories_of(ckt) == 2  # one per first outcome, none per reset
        ckt.close()

    def test_forced_outcomes_never_branch(self):
        ckt = build_qtask(2, 2, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        forced = ckt.measure(n2, 0, 0)
        ckt.measure(n2, 1, 1)
        ckt.outcomes.force_outcomes({forced.gate.op_index: 1})
        counts = ckt.run_shots(40, seed=2)
        assert counts == replay_shots(ckt, 40, 2)
        assert set(counts) == {"01", "11"}
        assert trajectories_of(ckt) == 1  # forced, then the last: a tally
        ckt.close()

    def test_rewritten_clbit_and_c_if_before_its_measurement(self):
        ckt = build_qtask(2, 2, seed=0)
        early, n1, m1, n2, m2, m3 = (ckt.insert_net() for _ in range(6))
        ckt.c_if("x", early, 1, condition=((0,), 1))  # c0 is still 0 here
        ckt.insert_gate("h", n1, 0)
        ckt.measure(m1, 0, 0)
        ckt.insert_gate("h", n2, 0)
        ckt.measure(m2, 0, 0)  # second writer of c0: the later one wins
        ckt.measure(m3, 1, 1)
        expected = replay_shots(ckt, 60, 8)
        assert ckt.run_shots(60, seed=8) == expected
        walked = trajectories_of(ckt)
        assert ckt.run_shots(60, seed=8) == expected
        assert trajectories_of(ckt) == 2 * walked  # the same paths again
        assert set(expected) == {"00", "01"}
        # outcome prefixes are shared: fewer simulated paths than shots
        requested = ckt.telemetry.metrics.get("shots.requested").value
        assert trajectories_of(ckt) < requested == 120
        ckt.close()

    def test_parent_with_pending_modifiers(self):
        ckt = build_qtask(3, 2, seed=4)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.measure(n2, 0, 0)
        # never updated: the fork flushes the pending build
        assert ckt.run_shots(30, seed=6) == replay_shots(ckt, 30, 6)
        n3, n4 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("ry", n3, 1, params=[1.1])
        ckt.measure(n4, 1, 1)
        # updated once, then edited: the edit is part of every shot
        counts = ckt.run_shots(30, seed=6)
        assert counts == replay_shots(ckt, 30, 6)
        assert any(bits[0] == "1" for bits in counts)
        ckt.close()

    def test_reset_trajectory_from_unknown_op_raises(self):
        ckt = build_qtask(1, 1, seed=0)
        ckt.measure(ckt.insert_net(), 0, 0)
        ckt.update_state()
        with pytest.raises(CircuitError, match="op_index 5"):
            ckt.simulator.reset_trajectory(1, from_op=5)
        ckt.close()

    def test_a_failing_fork_leaks_no_earlier_fork(self, monkeypatch):
        """Historical id: the walk's one fork raises mid-walk (after it has
        simulated and published a path) and is closed on the way out.  Two
        random measurements: a branch at the first is a second path."""
        ckt = build_qtask(3, 2, seed=0, num_workers=3)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        ckt.measure(n2, 0, 0)
        ckt.measure(n3, 1, 1)
        ckt.update_state()
        real_fork, built = QTask.fork, []
        real_reset = QTaskSimulator.reset_trajectory

        def recording_fork(self, **kwargs):
            built.append(real_fork(self, **kwargs))
            return built[-1]

        def second_path_fails(self, *args, **kwargs):
            if kwargs.get("from_op") is not None:
                raise RuntimeError("walk failed")
            return real_reset(self, *args, **kwargs)

        monkeypatch.setattr(QTask, "fork", recording_fork)
        monkeypatch.setattr(QTaskSimulator, "reset_trajectory", second_path_fails)
        with pytest.raises(RuntimeError, match="walk failed"):
            ckt.run_shots(9, seed=1)
        (child,) = built
        assert child.simulator.statistics()["num_updates"] > (
            ckt.simulator.statistics()["num_updates"]
        )
        # closed: off its circuit, and its stores hold nothing
        assert child.simulator.stages not in child.circuit._observers
        assert not any(s.store.stored_blocks() for s in child.simulator.graph.stages)
        ckt.close()

    def test_gates_no_measurement_sees_are_pruned(self):
        ckt = build_qtask(4, 2, seed=0, tracing=True)
        n1, m1, fix, rot, m2, tail = (ckt.insert_net() for _ in range(6))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        ckt.measure(m1, 0, 0)
        ckt.c_if("x", fix, 3, condition=((0,), 1))  # q3 is never measured
        ckt.insert_gate("ry", rot, 3, params=[0.4])
        ckt.measure(m2, 1, 1)
        ckt.insert_gate("h", tail, 1)  # after the last measurement
        ckt.insert_gate("x", tail, 2)
        ckt.reset(tail, 0)
        counts = ckt.run_shots(48, seed=5)
        (prune,) = [r for r in ckt.telemetry.tracer.spans() if r.name == "shots.prune"]
        assert prune.attrs == {"gates": 5}
        assert counts == replay_shots(ckt, 48, 5)
        assert len(counts) == 4
        assert trajectories_of(ckt) == 2  # one per first outcome
        ckt.close()

    @pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
    def test_a_correction_coupled_to_a_measured_qubit_is_kept(self, pair):
        ckt = build_qtask(3, 2, seed=0, tracing=True)
        n1, m1, fix, couple, m2 = (ckt.insert_net() for _ in range(5))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("ry", n1, 2, params=[0.9])
        ckt.measure(m1, 0, 0)
        ckt.c_if("x", fix, 1, condition=((0,), 1))
        ckt.insert_gate("cx", couple, *pair)
        ckt.measure(m2, 2, 1)
        counts = ckt.run_shots(48, seed=9)
        (prune,) = [r for r in ckt.telemetry.tracer.spans() if r.name == "shots.prune"]
        assert prune.attrs == {"gates": 0}
        assert counts == replay_shots(ckt, 48, 9)
        ckt.close()

    def test_a_reset_outside_the_cone_is_kept(self):
        """A reset is a collapse: on a qubit entangled with a measured one it
        decides that measurement, though nothing measures its own qubit."""
        ckt = build_qtask(2, 1, seed=0, tracing=True)
        n1, n2, rst, m1 = (ckt.insert_net() for _ in range(4))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("cx", n2, 0, 1)
        ckt.reset(rst, 1)
        ckt.measure(m1, 0, 0)
        counts = ckt.run_shots(48, seed=2)
        (prune,) = [r for r in ckt.telemetry.tracer.spans() if r.name == "shots.prune"]
        assert prune.attrs == {"gates": 0}
        assert counts == replay_shots(ckt, 48, 2)
        assert trajectories_of(ckt) == 2  # one per reset outcome
        ckt.close()

    def test_the_base_is_never_edited(self):
        ckt = build_qtask(4, 2, seed=3)
        n1, m1, fix, m2, tail = (ckt.insert_net() for _ in range(5))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        ckt.measure(m1, 0, 0)
        ckt.c_if("x", fix, 3, condition=((0,), 1))
        ckt.measure(m2, 1, 1)
        ckt.insert_gate("h", tail, 2)
        ckt.update_state()
        before = (ckt.state(), ckt.simulator.state_epoch,
                  ckt.simulator.collapse_path(), ckt.num_gates)
        assert ckt.run_shots(32, seed=1) == replay_shots(ckt, 32, 1)
        after = (ckt.state(), ckt.simulator.state_epoch,
                 ckt.simulator.collapse_path(), ckt.num_gates)
        assert np.array_equal(before[0], after[0])
        assert before[1:] == after[1:]
        ckt.close()

    def test_concurrent_walks_lose_no_shot_counts(self):
        """``shots.*`` are bumped by every walk on a shared base at once."""
        ckt = build_qtask(3, 2, seed=0, block_size=2)
        n1, m1, m2 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        ckt.measure(m1, 0, 0)
        ckt.measure(m2, 1, 1)
        ckt.update_state()
        expected = [ckt.run_shots(8, seed=s) for s in range(20)]
        requested = ckt.telemetry.metrics.get("shots.requested")
        before = requested.value
        seen, errors = [], []

        def walk():
            try:
                seen.append([ckt.run_shots(8, seed=s) for s in range(20)])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert seen == [expected] * 4
        assert requested.value - before == 4 * 20 * 8
        ckt.close()

    def test_shot_counts_wait_on_the_counter_lock(self):
        """The stress test above cannot force an interleaving, so this pins
        the mechanism: ``shots.*`` are bumped by ``Counter.inc``, which a
        held counter lock stalls."""
        ckt = build_qtask(1, 1, seed=0)
        ckt.measure(ckt.insert_net(), 0, 0)
        ckt.update_state()
        done = []
        thread = threading.Thread(target=lambda: done.append(ckt.run_shots(4, seed=0)))
        with metrics._INC_LOCK:
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive() and not done
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert done == [{"0": 4}]
        ckt.close()


class TestStatistics:
    def test_dynamic_stage_count_in_statistics(self):
        ckt = build_qtask(2, 1)
        n1 = ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        n2 = ckt.insert_net()
        m = ckt.measure(n2, 0, 0)
        stats = ckt.statistics()
        assert stats["num_dynamic_stages"] == 1
        ckt.remove_gate(m)
        assert ckt.statistics()["num_dynamic_stages"] == 0
        ckt.close()


class TestReviewRegressions:
    """Regressions from the PR's code review, pinned."""

    def test_removed_measure_clears_classical_bit(self):
        # the stale bit must not keep firing a downstream c_if after the
        # measurement that wrote it was removed from the circuit
        for seed in range(8):
            ckt = build_qtask(2, 1, seed=seed)
            n1, n2, n3 = (ckt.insert_net() for _ in range(3))
            ckt.insert_gate("h", n1, 0)
            m = ckt.measure(n2, 0, 0)
            ckt.c_if("x", n3, 1, condition=((0,), 1))
            ckt.update_state()
            drew_one = ckt.outcomes.get_bit(0) == 1
            ckt.remove_gate(m)
            ckt.update_state()
            assert ckt.outcomes.get_bit(0) == 0
            np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)
            ckt.close()
            if drew_one:
                break
        else:  # pragma: no cover - 2^-8
            pytest.fail("never drew outcome 1; test exercised nothing")

    def test_removed_measure_falls_back_to_earlier_writer(self):
        # two measures of the same clbit: removing the later one restores
        # the earlier one's recorded outcome
        ckt = build_qtask(2, 1, seed=0)
        n1, n2, n3, n4 = (ckt.insert_net() for _ in range(4))
        ckt.insert_gate("x", n1, 0)
        first = ckt.measure(n2, 0, 0)       # deterministically 1
        ckt.insert_gate("x", n3, 0)         # q0 back to |0>
        second = ckt.measure(n4, 0, 0)      # deterministically 0
        ckt.update_state()
        assert ckt.outcomes.get_bit(0) == 0
        ckt.remove_gate(second)
        ckt.update_state()
        assert ckt.outcomes.get_bit(0) == 1  # first measure's outcome again
        ckt.close()

    def test_all_baselines_run_dynamic_circuits(self):
        from repro.baselines.statevector import QulacsLikeSimulator
        from repro.qasm import parse_qasm
        from repro.qasm.levelize import program_to_circuit

        prog = parse_qasm(
            "qreg q[2]; creg c[2]; h q[0]; measure q -> c; if (c==1) x q[1];"
        )
        ckt = program_to_circuit(prog)
        sim = QulacsLikeSimulator(ckt)
        sim.update_state()
        state = sim.state()
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(state, dense_state(sim), atol=1e-10)
        sim.close()

    def test_op_reuse_across_circuits_rejected(self):
        a = Circuit(1, num_clbits=1)
        net_a = a.insert_net()
        handle = a.insert_measure(net_a, 0, 0)
        b = Circuit(1, num_clbits=1)
        net_b = b.insert_net()
        b.insert_measure(net_b, 0, 0)  # takes op_index 0 in b
        with pytest.raises(CircuitError):
            b.insert_operation(handle.gate, b.insert_net())

    def test_removed_op_can_be_reinserted(self):
        ckt = Circuit(1, num_clbits=1)
        net = ckt.insert_net()
        handle = ckt.insert_measure(net, 0, 0)
        op = handle.gate
        ckt.remove_gate(handle)
        net2 = ckt.insert_net()
        again = ckt.insert_operation(op, net2)  # synthesis-loop move
        assert again.gate.op_index == 0


class TestProgramPointConditions:
    """c_if reads its bits as of its program point, not the final register."""

    def test_cif_before_writer_ignores_previous_pass(self):
        # the c_if precedes the only measure writing its bit: every
        # (re-)execution must read 0, even after the measure drew 1
        for seed in range(10):
            ckt = build_qtask(2, 1, seed=seed)
            n1, n2, n3 = (ckt.insert_net() for _ in range(3))
            ry = ckt.insert_gate("ry", n1, 0, params=[1.2])
            ckt.c_if("x", n2, 1, condition=((0,), 1))
            ckt.measure(n3, 0, 0)
            ckt.update_state()
            ckt.update_gate(ry, 2.6)
            ckt.update_state()
            np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)
            ckt.close()

    def test_removed_writer_does_not_leak_later_writer_value(self):
        # after removing the earlier measure, the re-executed c_if must not
        # read the value the *later* measure (same clbit) left behind
        for seed in range(10):
            ckt = build_qtask(3, 1, seed=seed)
            n1, n2, n3, n4 = (ckt.insert_net() for _ in range(4))
            ckt.insert_gate("h", n1, 0)
            ckt.insert_gate("h", n1, 2)
            m1 = ckt.measure(n2, 0, 0)
            ckt.c_if("x", n3, 1, condition=((0,), 1))
            ckt.measure(n4, 2, 0)
            ckt.update_state()
            ckt.remove_gate(m1)
            ckt.update_state()
            np.testing.assert_allclose(ckt.state(), dense_state(ckt), atol=1e-10)
            ckt.close()

    def test_dense_repeated_passes_start_bits_clean(self):
        # full re-sim passes are fresh trajectories: a c_if preceding its
        # bit's only writer reads 0 on every pass
        ckt = Circuit(2, num_clbits=1)
        n1, n2, n3 = (ckt.insert_net() for _ in range(3))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_cgate("x", n2, 1, condition=((0,), 1))
        ckt.insert_measure(n3, 0, 0)
        dense = DenseReferenceSimulator(ckt, seed=0)
        for _ in range(5):
            dense.update_state()
            probs = (np.abs(dense.state()) ** 2).reshape(2, 2).sum(axis=1)
            assert probs[1] == pytest.approx(0.0, abs=1e-12)  # q1 never flips

    def test_forked_collapse_stage_outcome_is_none(self):
        """Historical id: a forked collapse stage is its parent's -- the
        fork holds the blocks the collapse wrote, so it answers with the
        same outcome and masses before it has executed anything."""
        from repro.core.stage import MeasureStage

        ckt = build_qtask(1, 1, seed=0)
        n1, n2 = ckt.insert_net(), ckt.insert_net()
        ckt.insert_gate("h", n1, 0)
        ckt.measure(n2, 0, 0)
        ckt.update_state()
        child = ckt.fork()
        (mine, theirs) = (
            [s for s in sim.graph.stages if isinstance(s, MeasureStage)]
            for sim in (child.simulator, ckt.simulator)
        )
        assert len(mine) == len(theirs) == 1 and mine[0] is not theirs[0]
        assert mine[0].outcome == theirs[0].outcome is not None
        assert mine[0].masses == theirs[0].masses is not None
        child.close()
        ckt.close()


# ---------------------------------------------------------------------------
# collapses inside coalesced runs
# ---------------------------------------------------------------------------


def build_collapse_run(seed, **knobs):
    """H on three qubits, then one run of seven members: measure q0, cx,
    reset q0, rz q1, rz q2, measure q1, measure q2 (handles returned by
    name)."""
    ckt = build_qtask(3, 3, seed=seed, block_size=2, num_workers=1, **knobs)
    nets = [ckt.insert_net() for _ in range(6)]
    for q in range(3):
        ckt.insert_gate("h", nets[0], q)
    handles = {"m0": ckt.measure(nets[1], 0, 0)}
    handles["cx"] = ckt.insert_gate("cx", nets[2], 1, 2)
    handles["r0"] = ckt.reset(nets[2], 0)
    handles["rz1"] = ckt.insert_gate("rz", nets[3], 1, params=(0.4,))
    handles["rz2"] = ckt.insert_gate("rz", nets[4], 2, params=(0.9,))
    handles["m1"] = ckt.measure(nets[4], 1, 1)
    handles["m2"] = ckt.measure(nets[5], 2, 2)
    return ckt, handles


def _streams(session):
    """Every keyed stream's position: what a redraw would move."""
    return {
        op: gen.bit_generator.state
        for op, gen in session.outcomes._streams.items()
    }


def _assert_replays_densely(session):
    np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)


class TestCollapseRuns:
    """A drawn measure / reset is a projector that coalesces with its
    diagonal / monomial neighbours; coalescing never changes which
    collapses draw."""

    def test_the_collapses_share_one_run_and_one_draw_step(self):
        ckt, h = build_collapse_run(3)
        with ckt:
            ckt.update_state()
            (run,) = ckt.simulator.graph.runs()
            assert [s.label() for s in run.members] == [
                "measure[q0->c0]", "cx[q1, q2]", "reset[q0]", "rz(0.4)[q1]",
                "rz(0.9)[q2]", "measure[q1->c1]", "measure[q2->c2]",
            ]
            assert ckt.statistics()["plans_built"] == 2  # the H stage, the run
            assert [op for op, *_ in ckt.simulator.collapse_path()] == [
                h[k].gate.op_index for k in ("m0", "r0", "m1", "m2")
            ]
            # the reset right after a measure of its qubit has an empty side
            assert 0.0 in ckt.simulator.collapse_path()[1][1:3]
            _assert_replays_densely(ckt)

    @pytest.mark.parametrize("seed", range(4))
    def test_gates_in_the_run_move_the_masses_later_collapses_draw(self, seed):
        """Reset q0, flip it, copy it onto q1: the measurements after them,
        in the same run, see all the mass on the |1> side."""
        ckt = build_qtask(2, 3, seed=seed, block_size=2, num_workers=1)
        nets = [ckt.insert_net() for _ in range(6)]
        ckt.insert_gate("h", nets[0], 0)
        ckt.measure(nets[1], 0, 0)
        ckt.reset(nets[2], 0)
        ckt.insert_gate("x", nets[3], 0)
        ckt.insert_gate("cx", nets[4], 0, 1)
        ckt.measure(nets[5], 0, 1)
        ckt.measure(nets[5], 1, 2)
        with ckt:
            ckt.update_state()
            assert [len(run.members) for run in ckt.simulator.graph.runs()] == [6]
            assert (ckt.outcomes.get_bit(1), ckt.outcomes.get_bit(2)) == (1, 1)
            for _, p0, p1, _ in ckt.simulator.collapse_path()[2:]:
                assert (p0, p1) == (0.0, pytest.approx(1.0, abs=1e-12))
            _assert_replays_densely(ckt)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_retune_after_a_measurement_keeps_its_draw(self, seed):
        """(a) Retuning a gate after a measurement in the same run re-runs
        the run, but the collapses before the gate replay: same outcomes,
        same stream positions; those after it draw again."""
        ckt, h = build_collapse_run(seed)
        with ckt:
            ckt.update_state()
            before, streams = ckt.outcomes.recorded_outcomes(), _streams(ckt)
            ckt.update_gate(h["rz1"], 1.3)
            ckt.update_state()
            assert len(ckt.simulator.graph.runs()[0].members) == 7  # re-ran whole
            after, moved = ckt.outcomes.recorded_outcomes(), _streams(ckt)
            for key in ("m0", "r0"):
                op = h[key].gate.op_index
                assert after[op] == before[op]
                assert moved[op] == streams[op]
            for key in ("m1", "m2"):
                assert moved[h[key].gate.op_index] != streams[h[key].gate.op_index]
            _assert_replays_densely(ckt)

    @pytest.mark.parametrize("seed", range(6))
    def test_branching_mid_run_keeps_every_earlier_outcome(self, seed, monkeypatch):
        """(b) ``reset_trajectory(seed, from_op=k)`` with ``k`` inside a run
        re-runs the run from its head; the earlier collapses replay (they
        build no stream) and keep their outcomes and bits."""
        ckt, h = build_collapse_run(seed)
        with ckt:
            ckt.update_state()
            before = ckt.outcomes.recorded_outcomes()
            bit0 = ckt.outcomes.get_bit(0)
            keyed = []
            stream = OutcomeRecord.keyed_stream
            monkeypatch.setattr(
                OutcomeRecord, "keyed_stream",
                staticmethod(lambda s, op: keyed.append(op) or stream(s, op)),
            )
            k = h["m1"].gate.op_index
            ckt.simulator.reset_trajectory((seed, 1), from_op=k)
            ckt.update_state()
            assert sorted(keyed) == [k, h["m2"].gate.op_index]
            after = ckt.outcomes.recorded_outcomes()
            for key in ("m0", "r0"):
                op = h[key].gate.op_index
                assert after[op] == before[op]
            assert ckt.outcomes.get_bit(0) == bit0
            _assert_replays_densely(ckt)

    def test_a_checkpoint_restores_runs_holding_collapses(self, tmp_path):
        """(c) The run records, the collapse path and the state survive a
        checkpoint; an edit inside a restored run re-runs it, and the
        collapses before the edit replay their saved outcomes."""
        path = str(tmp_path / "runs.qtckpt")
        ckt, _ = build_collapse_run(5)
        with ckt:
            ckt.update_state()
            saved = (
                ckt.state(), ckt.simulator.collapse_path(),
                [[s.seq for s in run.members] for run in ckt.simulator.graph.runs()],
            )
            ckt.checkpoint(path)
        with QTask.restore(path, num_workers=1) as restored:
            sim = restored.simulator
            np.testing.assert_array_equal(restored.state(), saved[0])
            assert sim.collapse_path() == saved[1]
            assert [[s.seq for s in run.members] for run in sim.graph.runs()] == saved[2]
            rz2 = next(
                g for g in restored.circuit.gates()
                if g.gate.name == "rz" and g.gate.qubits == (2,)
            )
            restored.update_gate(rz2, 0.2)
            restored.update_state()
            assert len(sim.graph.runs()[0].members) == 7
            outcomes = [(op, outcome) for op, _, _, outcome in sim.collapse_path()]
            assert outcomes[:2] == [(op, outcome) for op, _, _, outcome in saved[1][:2]]
            _assert_replays_densely(restored)

    @pytest.mark.parametrize("site", ["executor.task", "kernel.run", "cow.publish"])
    def test_a_fault_inside_a_collapse_run_redraws_nothing(self, no_plan, site):
        """(d) Whatever fault hits the run's chunk (it re-executes run by
        run), the session ends where a clean one does: same outcomes, same
        stream positions, same state.  ``executor.task`` names the deleted
        executor site, which a plan now rejects."""
        if site not in faults.FAULT_SITES:
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan(script=[(site, 1)])
            return
        clean, _ = build_collapse_run(7)
        with clean:
            clean.update_state()
            want = (clean.outcomes.recorded_outcomes(), _streams(clean), clean.state())
        for occurrence in (1, 2, 3):
            faulted, _ = build_collapse_run(7)
            faults.install(FaultPlan(script=[(site, occurrence)]))
            try:
                faulted.update_state()
            finally:
                faults.install(None)
            with faulted:
                assert faulted.outcomes.recorded_outcomes() == want[0]
                assert _streams(faulted) == want[1]
                np.testing.assert_allclose(faulted.state(), want[2], atol=1e-12)
