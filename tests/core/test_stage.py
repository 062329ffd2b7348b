"""Tests for UnitaryStage and MatVecStage behaviour."""

import numpy as np
import pytest

from repro.core.blocks import BlockRange
from repro.core.classical import OutcomeRecord
from repro.core.cow import BlockStore, InitialStateStore
from repro.core.exec_plan import RUN_ACTION, RUN_COPY, RUN_DENSE
from repro.core.gates import Gate, embed_gate_matrix
from repro.core.kernels import NumpyBatchBackend
from repro.core.ops import CGate, MeasureOp, ResetOp
from repro.core.stage import (
    ClassicallyControlledStage,
    MatVecStage,
    MeasureStage,
    ResetStage,
    UnitaryStage,
    draw_collapses,
)

from ..conftest import ReferenceLoop, StoreChain, emit_runs, execute_run, iter_table_runs


def make_chain(n, block=4, state=None):
    init = InitialStateStore(1 << n, block)
    if state is not None:
        for b in range(init.n_blocks):
            init._blocks[b] = np.array(state[b * block : (b + 1) * block], dtype=complex)
    return StoreChain([init])


def run_stage(stage, reader):
    for spec in stage.partition_specs():
        for run in emit_runs(stage, spec.block_range):
            execute_run(reader, stage.store, run)


def resolved_output(stage, reader_chain):
    """Stage output with untouched blocks falling through to the input."""
    chain = StoreChain([reader_chain._stores[0], stage.store])
    return chain.full_vector()


# ---------------------------------------------------------------------------
# UnitaryStage
# ---------------------------------------------------------------------------


def test_unitary_stage_rejects_superposition_gates():
    with pytest.raises(ValueError):
        UnitaryStage(Gate("h", (0,)), 3, 4)


def test_unitary_stage_applies_cx_to_initial_state():
    n = 3
    gate = Gate("x", (0,))
    stage = UnitaryStage(gate, n, 4)
    chain = make_chain(n)
    run_stage(stage, chain)
    out = resolved_output(stage, chain)
    expected = embed_gate_matrix(gate, n) @ chain.full_vector()
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_unitary_stage_on_random_state():
    n = 4
    rng = np.random.default_rng(3)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    gate = Gate("cx", (3, 1))
    stage = UnitaryStage(gate, n, 4)
    chain = make_chain(n, 4, psi)
    run_stage(stage, chain)
    np.testing.assert_allclose(
        resolved_output(stage, chain), embed_gate_matrix(gate, n) @ psi, atol=1e-12
    )


def test_unitary_stage_writes_only_partition_blocks():
    n = 5
    gate = Gate("cz", (4, 3))   # touches the top quarter only
    stage = UnitaryStage(gate, n, 4)
    chain = make_chain(n)
    run_stage(stage, chain)
    assert stage.store.stored_blocks() == (6, 7)


def test_unitary_stage_total_block_count():
    stage = UnitaryStage(Gate("cx", (4, 3)), 5, 4)
    assert stage.total_block_count() == 4
    stage2 = UnitaryStage(Gate("cx", (3, 2)), 5, 4)
    assert stage2.total_block_count() == 4  # two partitions of two blocks


def test_unitary_stage_label_and_gate_list():
    gate = Gate("swap", (0, 2))
    stage = UnitaryStage(gate, 3, 4)
    assert stage.gate_list() == (gate,)
    assert "swap" in stage.label()
    assert not stage.reads_all_blocks()


# ---------------------------------------------------------------------------
# MatVecStage
# ---------------------------------------------------------------------------


def test_matvec_stage_single_hadamard():
    n = 3
    gate = Gate("h", (1,))
    stage = MatVecStage([gate], n, 4)
    chain = make_chain(n)
    run_stage(stage, chain)
    expected = embed_gate_matrix(gate, n) @ chain.full_vector()
    np.testing.assert_allclose(resolved_output(stage, chain), expected, atol=1e-12)


def test_matvec_stage_multiple_gates_disjoint_qubits():
    n = 4
    gates = [Gate("h", (0,)), Gate("ry", (2,), (0.8,))]
    stage = MatVecStage(gates, n, 4)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    chain = make_chain(n, 4, psi)
    run_stage(stage, chain)
    expected = psi
    for g in gates:
        expected = embed_gate_matrix(g, n) @ expected
    np.testing.assert_allclose(resolved_output(stage, chain), expected, atol=1e-12)


def test_matvec_stage_rejects_overlapping_qubits():
    stage = MatVecStage([Gate("h", (1,))], 3, 4)
    with pytest.raises(ValueError):
        stage.add_gate(Gate("rx", (1,), (0.3,)))


def test_matvec_stage_add_remove_gate_membership():
    stage = MatVecStage([Gate("h", (0,))], 3, 4)
    g = Gate("h", (2,))
    stage.add_gate(g)
    assert len(stage.gate_list()) == 2
    stage.remove_gate(g)
    assert len(stage.gate_list()) == 1
    stage.remove_gate(stage.gate_list()[0])
    assert stage.is_empty
    assert stage.partition_specs() == []


def test_matvec_stage_reads_and_writes_all_blocks():
    """Members spanning every qubit mix every block: one partition reads and
    writes them all -- as a partition, with no barrier in front of it."""
    stage = MatVecStage([Gate("h", (q,)) for q in (3, 0, 2, 1)], 4, 4)
    (spec,) = stage.partition_specs()
    assert spec.block_range == BlockRange(0, 3)
    assert not stage.reads_all_blocks()
    assert stage.qubits == (0, 1, 2, 3)


def test_matvec_stage_partitions_follow_its_highest_qubit():
    """A low member mixes neighbouring blocks only: windows of
    ``2**(max qubit + 1)`` amplitudes, chunked by the block size."""
    stage = MatVecStage([Gate("h", (0,))], 5, 4)
    assert [s.block_range.to_tuple() for s in stage.partition_specs()] == [
        (0, 1), (2, 3), (4, 5), (6, 7)
    ]
    stage.add_gate(Gate("ry", (3,), (0.3,)))  # windows of 16 amplitudes
    assert [s.block_range.to_tuple() for s in stage.partition_specs()] == [
        (0, 3), (4, 7)
    ]


def test_matvec_stage_writes_every_block():
    n = 4
    stage = MatVecStage([Gate("h", (3,))], n, 4)
    chain = make_chain(n)
    run_stage(stage, chain)
    assert stage.store.stored_blocks() == tuple(range(4))


# ---------------------------------------------------------------------------
# the one emitter: every stage kind is one operation over shared bounds
# ---------------------------------------------------------------------------


def _dynamic(cls, op, *, bits=(), forced=None):
    op.op_index = 0
    record = OutcomeRecord(1, seed=3, forced=forced)
    for bit, value in bits:
        record.set_bit(bit, value)
    return cls(op, 4, 4, record=record)


#: kind -> (stage factory, the operation kind its table holds)
STAGE_KINDS = {
    "unitary-monomial": (lambda: UnitaryStage(Gate("cx", (3, 1)), 4, 4), RUN_ACTION),
    "unitary-diagonal": (
        lambda: UnitaryStage(Gate("rz", (0,), (0.7,)), 4, 4), RUN_ACTION),
    # one 2x2 step; one Kronecker step over qubits 1..3; a tensordot step
    "matvec-single": (lambda: MatVecStage([Gate("h", (2,))], 4, 4), RUN_DENSE),
    "matvec-combined": (
        lambda: MatVecStage([Gate("h", (1,)), Gate("rx", (3,), (0.4,))], 4, 4),
        RUN_DENSE,
    ),
    "matvec-tensordot": (
        lambda: MatVecStage(
            [Gate("ch", (3, 1)), Gate("rxx", (2, 0), (0.7,))], 4, 4
        ),
        RUN_DENSE,
    ),
    # drawn, a collapse is its projector action (times 1/sqrt(mass))
    "measure": (lambda: _dynamic(MeasureStage, MeasureOp(2, 0)), RUN_ACTION),
    "reset": (
        lambda: _dynamic(ResetStage, ResetOp(1), forced={0: 1}), RUN_ACTION),
    "c_if-taken": (
        lambda: _dynamic(
            ClassicallyControlledStage, CGate(Gate("x", (2,)), (0,), 1), bits=[(0, 1)]
        ),
        RUN_ACTION,
    ),
    "c_if-not-taken": (
        lambda: _dynamic(
            ClassicallyControlledStage, CGate(Gate("x", (2,)), (0,), 1), bits=[(0, 0)]
        ),
        RUN_COPY,
    ),
    "c_if-superposition": (
        lambda: _dynamic(
            ClassicallyControlledStage, CGate(Gate("h", (1,)), (0,), 1), bits=[(0, 1)]
        ),
        RUN_DENSE,
    ),
}


def _same_payload(a, b) -> bool:
    # a dense stage's steps are built once and handed out by reference
    return a is b or a == b


@pytest.mark.parametrize("kind", sorted(STAGE_KINDS))
def test_emit_table_is_the_per_partition_runs_under_one_operation(kind):
    """``emit_table`` == the partition-by-partition ``emit_runs`` reference,
    row for row, whichever partitions are asked for; it holds one operation;
    and the slab backend executes it bit for bit like the run-granular loop."""
    factory, op_kind = STAGE_KINDS[kind]
    stage = factory()
    rng = np.random.default_rng(11)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    reader = make_chain(4, 4, psi)
    if stage.reads_all_blocks():  # a collapse is drawn first
        draw_collapses((stage,), reader)
    every = [spec.block_range for spec in stage.partition_specs()]
    assert every
    for ranges in (every, every[::2], every[-1:]):
        table = stage.emit_table(ranges)
        rows = list(iter_table_runs(table))
        reference = [run for br in ranges for run in emit_runs(stage, br)]
        assert table.op.kind == op_kind
        assert [r[:4] for r in rows] == [r[:4] for r in reference]
        assert all(_same_payload(r.op, ref.op) for r, ref in zip(rows, reference))
        # the bounds are shared per range tuple: asking again builds nothing
        assert stage.emit_table(list(ranges)).los is table.los
        outputs = []
        for backend in (ReferenceLoop(), NumpyBatchBackend()):
            out = BlockStore(16, 4)
            backend.execute_plan(reader, out, table)
            outputs.append(out)
        loop, slab = outputs
        assert loop.stored_blocks() == slab.stored_blocks() != ()
        for block in loop.stored_blocks():
            assert loop.get_block(block).tobytes() == slab.get_block(block).tobytes()


def test_combined_matvec_builds_one_action_per_table(monkeypatch):
    """The members' combined steps are formed once per membership, not once
    per partition or per table; a retune re-forms them, keeping the layout."""
    from repro.core import stage as stage_module

    stage_module.dense_op.cache_clear()
    calls = []
    steps = stage_module.dense_steps
    monkeypatch.setattr(
        stage_module, "dense_steps", lambda m: calls.append(1) or steps(m)
    )
    h, rx = Gate("h", (1,)), Gate("rx", (3,), (0.4,))
    stage = MatVecStage([h, rx], 5, 4)  # two partitions of 16 amplitudes
    ranges = [s.block_range for s in stage.partition_specs()]
    table = stage.emit_table(ranges)
    assert table.num_runs == 2 and len(calls) == 1
    assert stage.emit_table(ranges[:1]).op is table.op
    layout = stage.partition_layout()
    assert stage.retune_gate(rx, Gate("rx", (3,), (0.9,)))
    assert stage.emit_table(ranges).op is not table.op and len(calls) == 2
    assert stage.partition_layout() is layout
