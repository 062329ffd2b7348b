"""Tests for the numpy gate kernels against the dense oracle (the ids naming
deleted range kernels run the slab backend or the baseline's kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.statevector import apply_matrix_dense
from repro.core.exec_plan import RUN_ACTION, RUN_DENSE
from repro.core.gates import Gate, MatVecAction, embed_gate_matrix, extract_local, replace_local
from repro.core.kernels import dense_steps

from ..conftest import on_slabs


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def run_one(psi, lo, hi, gate, block_size=None):
    """``gate`` on ``[lo, hi]`` of ``psi``, a one-row table on the slab backend."""
    kind, qubits, op = RUN_ACTION, gate.qubits, gate.action()
    if isinstance(op, MatVecAction):
        kind, qubits, op = RUN_DENSE, sorted(qubits), dense_steps([(qubits, gate.matrix())])
    return on_slabs(psi, kind, qubits, op, [(lo, hi)], block_size)[lo : hi + 1]


# ---------------------------------------------------------------------------
# bit helpers
# ---------------------------------------------------------------------------


def test_extract_local_single_qubit():
    idx = np.array([0b000, 0b010, 0b110])
    np.testing.assert_array_equal(extract_local(idx, (1,)), [0, 1, 1])


def test_extract_local_two_qubits_order():
    idx = np.array([0b101])
    # qubits (0, 2): local bit0 = q0 = 1, local bit1 = q2 = 1 -> local 3
    np.testing.assert_array_equal(extract_local(idx, (0, 2)), [3])
    # qubits (2, 0): local bit0 = q2 = 1, local bit1 = q0 = 1 -> local 3
    np.testing.assert_array_equal(extract_local(idx, (2, 0)), [3])
    idx = np.array([0b100])
    np.testing.assert_array_equal(extract_local(idx, (0, 2)), [2])
    np.testing.assert_array_equal(extract_local(idx, (2, 0)), [1])


def test_replace_local_roundtrip():
    idx = np.arange(32, dtype=np.int64)
    qubits = (1, 3)
    local = extract_local(idx, qubits)
    np.testing.assert_array_equal(replace_local(idx, qubits, local), idx)


def test_replace_local_sets_bits():
    idx = np.array([0], dtype=np.int64)
    out = replace_local(idx, (0, 2), np.array([3]))
    assert out[0] == 0b101


# ---------------------------------------------------------------------------
# slab kernels and the baseline's dense kernel vs. dense oracle
# ---------------------------------------------------------------------------

GATE_CASES = [
    ("x", (0,), ()), ("x", (3,), ()), ("y", (2,), ()), ("z", (1,), ()),
    ("h", (2,), ()), ("s", (0,), ()), ("t", (4,), ()), ("sdg", (3,), ()),
    ("rx", (1,), (0.73,)), ("ry", (2,), (1.21,)), ("rz", (3,), (2.9,)),
    ("cx", (0, 4), ()), ("cx", (4, 0), ()), ("cx", (2, 3), ()),
    ("cz", (1, 3), ()), ("swap", (0, 3), ()), ("cp", (2, 4), (0.61,)),
    ("rzz", (1, 2), (0.41,)), ("ccx", (0, 2, 4), ()), ("cswap", (1, 0, 3), ()),
    ("u3", (2,), (0.3, 0.7, 1.1)),
]


@pytest.mark.parametrize("name,qubits,params", GATE_CASES)
def test_apply_action_range_full_vector(name, qubits, params):
    n = 5
    gate = Gate(name, qubits, params)
    psi = random_state(n, seed=hash((name, qubits)) % 1000)
    expected = embed_gate_matrix(gate, n) @ psi
    np.testing.assert_allclose(run_one(psi, 0, (1 << n) - 1, gate), expected, atol=1e-10)


@pytest.mark.parametrize("name,qubits,params", GATE_CASES)
def test_apply_gate_dense_matches_oracle(name, qubits, params):
    n = 5
    gate = Gate(name, qubits, params)
    psi = random_state(n, seed=hash((name, qubits, "d")) % 1000)
    expected = embed_gate_matrix(gate, n) @ psi
    out = apply_matrix_dense(psi, gate.matrix(), gate.qubits, n)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_apply_action_range_subrange_diagonal():
    """Diagonal kernels can be applied to any subrange independently."""
    n = 4
    gate = Gate("cz", (1, 3))
    psi = random_state(n, 7)
    expected = embed_gate_matrix(gate, n) @ psi
    out = run_one(psi, 4, 11, gate, block_size=4)
    np.testing.assert_allclose(out, expected[4:12], atol=1e-12)


def test_apply_action_range_subrange_monomial_orbit_closed():
    """A monomial kernel applied to an orbit-closed range matches the oracle."""
    n = 4
    gate = Gate("cx", (3, 1))  # control q3, target q1: orbit within upper half
    psi = random_state(n, 8)
    expected = embed_gate_matrix(gate, n) @ psi
    out = run_one(psi, 8, 15, gate, block_size=8)
    np.testing.assert_allclose(out, expected[8:16], atol=1e-12)


def test_apply_diagonal_range_uses_phases():
    gate = Gate("z", (0,))
    psi = np.ones(4, dtype=complex)
    np.testing.assert_allclose(run_one(psi, 0, 3, gate), [1, -1, 1, -1])


def test_apply_monomial_range_swaps():
    gate = Gate("x", (1,))
    psi = np.array([1, 2, 3, 4], dtype=complex)
    np.testing.assert_allclose(run_one(psi, 0, 3, gate), [3, 4, 1, 2])


def test_apply_matvec_range_single_block():
    n = 3
    gate = Gate("h", (2,))
    psi = random_state(n, 5)
    expected = embed_gate_matrix(gate, n) @ psi
    # compute only the second half of the output (its window is the state)
    out = run_one(psi, 4, 7, gate, block_size=4)
    np.testing.assert_allclose(out, expected[4:], atol=1e-12)


def test_apply_matrix_dense_two_qubit_nonadjacent():
    n = 6
    gate = Gate("swap", (1, 5))
    psi = random_state(n, 11)
    expected = embed_gate_matrix(gate, n) @ psi
    np.testing.assert_allclose(
        apply_matrix_dense(psi, gate.matrix(), gate.qubits, n), expected, atol=1e-10
    )


# ---------------------------------------------------------------------------
# composition property: applying two gates sequentially == product operator
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    first=st.sampled_from(["h", "x", "t", "rz"]),
    second=st.sampled_from(["cx", "cz", "swap"]),
    q1=st.integers(0, 3),
)
def test_sequential_application_matches_operator_product(seed, first, second, q1):
    n = 4
    params = (0.37,) if first == "rz" else ()
    g1 = Gate(first, (q1,), params)
    g2 = Gate(second, (0, 3) if q1 not in (0, 3) else (1, 2))
    psi = random_state(n, seed)
    expected = embed_gate_matrix(g2, n) @ (embed_gate_matrix(g1, n) @ psi)
    for g in (g1, g2):
        psi = apply_matrix_dense(psi, g.matrix(), g.qubits, n)
    np.testing.assert_allclose(psi, expected, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(["x", "z", "cx", "swap", "ccx"]))
def test_non_superposition_kernels_preserve_norm(seed, name):
    n = 5
    rng = np.random.default_rng(seed)
    arity = {"x": 1, "z": 1, "cx": 2, "swap": 2, "ccx": 3}[name]
    qubits = tuple(rng.choice(n, size=arity, replace=False).tolist())
    gate = Gate(name, qubits)
    psi = random_state(n, seed)
    assert abs(np.linalg.norm(run_one(psi, 0, 31, gate)) - 1.0) < 1e-10
