"""Tests for composing adjacent gates: the ``compose_run`` algebra, the one
table a coalesced run executes, the slab backend, and what a session does
with a run of diagonal / monomial stages.

Several names say "fuse": they predate the deletion of insert-time fusion
and are what the test floor pins.  Composition happens at plan time only
(``tests/core/test_coalesced_runs.py`` pins its scoping rules)."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core.blocks import mask_ranges
from repro.core.cow import BlockStore, InitialStateStore
from repro.core.compose import compose_run, run_structure, scale_action
from repro.core.gates import DiagonalAction, Gate, MonomialAction, embed_gate_matrix
from repro.core.exec_plan import RUN_ACTION
from repro.core.kernels import NumpyBatchBackend
from repro.core.simulator import DURABLE_KNOBS, QTaskSimulator
from repro.core.stage import _PROJECTORS, _RESETS, UnitaryStage, coalesced_table

from ..conftest import StoreChain, coefficients, on_slabs, reference_compose
from .test_coalesced_runs import assert_computed, built, run_lengths
from .test_composite_cache import runs


def dense_op(gates, n):
    m = np.eye(1 << n, dtype=complex)
    for g in gates:
        m = embed_gate_matrix(g, n) @ m
    return m


def action_as_matrix(action, qubits, n):
    """Dense operator of a classified action: its columns are the slab
    backend's output on the basis states."""
    cols = [on_slabs(e, RUN_ACTION, qubits, action, [(0, e.size - 1)]) for e in np.eye(1 << n)]
    return np.stack(cols, axis=1)


def assert_is_reference(composed, parts):
    """``compose_run``'s ``(action, union)`` for ``parts`` is the pull-form
    oracle's, array for array."""
    (action, union), (factors, perm, expected) = composed, reference_compose(parts)
    assert union == expected and isinstance(action, DiagonalAction) == (perm is None)
    assert np.array_equal(coefficients(action), factors)
    assert perm is None or np.array_equal(action.perm, perm)


def compose(*gates, n=None, atol=1e-12):
    """``compose_run`` over ``gates``; with ``n``, checked against the dense
    product on ``n`` qubits."""
    action, qubits = compose_run([(g.action(), g.qubits) for g in gates])
    if n is not None:
        np.testing.assert_allclose(
            action_as_matrix(action, qubits, n), dense_op(gates, n), atol=atol
        )
    return action, qubits


# ---------------------------------------------------------------------------
# compose_run: the algebra
# ---------------------------------------------------------------------------


def test_diagonal_diagonal_composes_to_diagonal():
    action, qubits = compose(Gate("s", (0,)), Gate("t", (1,)), n=2)
    assert isinstance(action, DiagonalAction)
    assert qubits == (0, 1)


def test_monomial_monomial_composes_to_monomial():
    action, qubits = compose(Gate("cx", (0, 1)), Gate("swap", (1, 2)), n=3)
    assert isinstance(action, MonomialAction)
    assert qubits == (0, 1, 2)


def test_diagonal_absorbs_into_monomial_factors():
    action, _ = compose(Gate("x", (0,)), Gate("rz", (0,), (0.7,)), n=1)
    assert isinstance(action, MonomialAction)


def test_involution_collapses_to_identity_diagonal():
    a = Gate("x", (1,))
    action, qubits = compose(a, a)
    # x . x == identity: permutation vanishes, classified back to diagonal
    assert isinstance(action, DiagonalAction)
    assert action.touched_locals() == ()


def test_composition_is_order_sensitive():
    a, b = Gate("x", (0,)), Gate("s", (0,))
    ab, q = compose(a, b)
    ba, _ = compose(b, a)
    assert not np.allclose(
        action_as_matrix(ab, q, 1), action_as_matrix(ba, q, 1), atol=1e-12
    )


def test_fuse_gate_actions_rejects_superposition():
    # (a historical name: the algebra is ``compose_run``)
    with pytest.raises(TypeError):
        compose(Gate("h", (0,)))
    with pytest.raises(TypeError):
        compose(Gate("z", (0,)), Gate("h", (0,)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_fuse_gate_actions_random_runs(data):
    """(a historical name) Runs of 1-64 members on 3-8 qubits, drawn
    collapse projectors among them: ``compose_run`` and ``scale_action`` of
    it are the pull-form oracle's composite, its tuples the arrays'."""
    n = data.draw(st.integers(3, 8))
    parts = [(g.action(), g.qubits) for g in data.draw(runs(n, 1, 64))]
    for i in data.draw(st.lists(st.integers(0, len(parts)), max_size=4)):
        projector = data.draw(st.sampled_from(_PROJECTORS + _RESETS[1:]))
        parts.insert(i, (projector, (data.draw(st.integers(0, n - 1)),)))
    action, union = compose_run(parts)
    assert_is_reference((action, union), parts)
    scaled = scale_action(action, 0.5)
    assert np.array_equal(coefficients(scaled), reference_compose(parts)[0] * 0.5)
    assert getattr(scaled, "perm", None) is getattr(action, "perm", None)
    tuples = scaled.phases if isinstance(scaled, DiagonalAction) else scaled.factors
    assert tuples == tuple(coefficients(scaled).tolist())


def test_compose_run_is_the_one_algebra(rng):
    """Any number of parts in one call == the dense product == the oracle;
    a retuned member recomposes over the cached structure exactly as over a
    cold one; a composite is array-backed, read-only, tuples not built."""
    pool = [
        Gate("z", (0,)), Gate("s", (4,)), Gate("x", (3,)), Gate("y", (1,)),
        Gate("cx", (0, 4)), Gate("cz", (1, 2)), Gate("swap", (2, 3)),
        Gate("rz", (1,), (0.3,)), Gate("cp", (4, 0), (1.1,)), Gate("ccx", (3, 1, 2)),
    ]
    for length in (1, 2, 7, 40):
        gates = [rng.choice(pool) for _ in range(length)] + [Gate("rz", (2,), (0.4,))]
        action, _ = compose(*gates, n=5, atol=1e-10)
        assert not {"factors", "phases"} & set(vars(action))
        assert not coefficients(action).flags.writeable
        retuned = [(g.action(), g.qubits) for g in gates[:-1]]
        retuned.append((Gate("rz", (2,), (1.9,)).action(), (2,)))
        warm = compose_run(retuned)
        run_structure.cache_clear()
        for composed in (warm, compose_run(retuned)):
            assert_is_reference(composed, retuned)


# ---------------------------------------------------------------------------
# the one table of a coalesced run (what a fused stage used to be)
# ---------------------------------------------------------------------------


def run_table(gates, n, block_size):
    members = [UnitaryStage(g, n, block_size) for g in gates]
    cover = 0
    for stage in members:
        cover |= stage.partition_layout().cover
    table, _recomposed = coalesced_table(members, mask_ranges(cover))
    return table, cover


def test_fused_stage_matches_dense(np_rng):
    n = 4
    gates = [Gate("z", (3,)), Gate("cx", (3, 1)), Gate("s", (1,))]
    table, _ = run_table(gates, n, 4)
    psi = np_rng.normal(size=16) + 1j * np_rng.normal(size=16)
    init = InitialStateStore(16, 4)
    for b in range(4):
        init._blocks[b] = psi[b * 4 : (b + 1) * 4].copy()
    out = BlockStore(16, 4)
    NumpyBatchBackend().execute_plan(StoreChain([init]), out, table)
    np.testing.assert_allclose(
        StoreChain([init, out]).full_vector(), dense_op(gates, n) @ psi, atol=1e-10
    )


def test_fused_stage_label_and_gate_list():
    # (a historical name) one operation, over the members' union, and only
    # the blocks some member writes: x(1) permutes inside every block, a
    # lone z(2) would leave the blocks with bit 2 clear alone
    table, cover = run_table([Gate("z", (2,)), Gate("x", (1,))], 3, 4)
    assert table.op.qubits == (1, 2)
    assert cover == 0b11 and table.num_runs == 1
    table, cover = run_table([Gate("z", (2,)), Gate("s", (2,))], 3, 4)
    assert cover == 0b10 and (table.los[0], table.his[0]) == (4, 7)


# ---------------------------------------------------------------------------
# the slab backend on every block size and on unaligned runs (the ids name
# the deleted strided range kernels and their gather fallback)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,qubits", [
    ("z", (0,)), ("z", (5,)), ("x", (0,)), ("x", (5,)), ("y", (3,)),
    ("cz", (1, 4)), ("cx", (4, 1)), ("cx", (1, 4)), ("swap", (0, 5)),
    ("ccx", (0, 3, 5)), ("cp", (5, 4)),
])
def test_strided_kernels_match_dense_per_block(name, qubits, np_rng):
    n = 6
    params = (0.9,) if name == "cp" else ()
    gate = Gate(name, qubits, params)
    action = gate.action()
    psi = np_rng.normal(size=64) + 1j * np_rng.normal(size=64)
    ref = embed_gate_matrix(gate, n) @ psi
    for block in (4, 8, 32, 64):
        runs = [(b * block, (b + 1) * block - 1) for b in range(64 // block)]
        out = on_slabs(psi, RUN_ACTION, qubits, action, runs, block)
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_unaligned_range_falls_back_to_gather(np_rng):
    gate = Gate("cz", (0, 3))
    psi = np_rng.normal(size=64) + 1j * np_rng.normal(size=64)
    ref = embed_gate_matrix(gate, 6) @ psi
    # ten blocks of four from block 1: no power-of-two length, no alignment
    out = on_slabs(psi, RUN_ACTION, gate.qubits, gate.action(), [(4, 43)], 4)
    np.testing.assert_allclose(out[4:44], ref[4:44], atol=1e-12)


# ---------------------------------------------------------------------------
# sessions: a swept run of diagonal / monomial stages is one plan
# ---------------------------------------------------------------------------


def test_consecutive_diagonal_run_fuses_into_one_stage():
    # (a historical name: three stages stay three stages, and run as one plan)
    session, _ = built(
        [[("z", (0,), ())], [("s", (0,), ())], [("cp", (0, 1), (0.4,))]], 3
    )
    with session:
        session.update_state()
        stats = session.statistics()
        assert (stats["num_stages"], stats["plans_built"]) == (3, 1)
        assert run_lengths(session) == [3]
        assert_computed(session)


def test_superposition_gate_breaks_the_run():
    # (it closes the z's run as its last member; the s starts anew)
    session, _ = built([[("z", (0,), ())], [("h", (1,), ())], [("s", (0,), ())]], 3)
    with session:
        session.update_state()
        assert session.statistics()["plans_built"] == 2
        assert run_lengths(session) == [2]
        assert_computed(session)


def test_removing_a_member_dissolves_the_fused_stage():
    # (a historical name: the record of the run is what dissolves)
    session, handles = built(
        [[("z", (0,), ())], [("cx", (0, 1), ())], [("s", (1,), ())]], 3
    )
    with session:
        session.update_state()
        assert run_lengths(session) == [3]
        session.remove_gate(handles[1])
        assert run_lengths(session) == []
        assert session.statistics()["num_stages"] == 2
        session.update_state()
        assert run_lengths(session) == [2]
        assert_computed(session)


def test_mid_circuit_insert_dissolves_conflicting_fusion():
    # (a historical name) z and cx coalesce across the empty net between them
    with QTask(3, block_size=4, num_workers=1) as session:
        n1, n2, n3 = (session.insert_net() for _ in range(3))
        session.insert_gate("z", n1, 0)
        session.insert_gate("cx", n3, 0, 1)
        session.update_state()
        assert run_lengths(session) == [2]
        # a gate on qubit 0 lands between the members: the run must split
        session.insert_gate("x", n2, 0)
        assert run_lengths(session) == []
        session.update_state()
        assert [s.label() for s in session.simulator.graph.stages] == [
            "z[q0]", "x[q0]", "cx[q0, q1]"
        ]
        assert run_lengths(session) == [3]
        assert_computed(session)


def test_fusion_knob_in_statistics_and_facade():
    # (a historical name) the knobs are gone from every surface
    for knob in ({"fusion": True}, {"max_fused_qubits": 5}, {"executor": None}):
        with pytest.raises(TypeError):
            QTask(3, **knob)
    keywords = inspect.signature(QTaskSimulator.__init__).parameters.values()
    assert sum(p.kind is p.KEYWORD_ONLY for p in keywords) == 4
    assert DURABLE_KNOBS == ("block_size",)
    with QTask(3) as session:
        stats = session.statistics()
        assert not {"fusion", "max_fused_qubits", "num_fused_stages"} & set(stats)
        with pytest.raises(TypeError):
            session.fork(fusion=True)
