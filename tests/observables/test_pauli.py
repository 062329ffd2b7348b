"""Unit tests for the Pauli observable vocabulary."""

import numpy as np
import pytest

from repro.observables import (
    PauliString,
    PauliSum,
    as_pauli_sum,
    dense_expectation,
    ising_hamiltonian,
    maxcut_hamiltonian,
)
from repro.observables.pauli import pauli_phases

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def pauli_matrix(term: PauliString, num_qubits: int) -> np.ndarray:
    """Dense operator of a Pauli string (independent ground truth)."""
    letters = dict(term.paulis)
    mat = np.eye(1, dtype=complex)
    for q in range(num_qubits - 1, -1, -1):
        mat = np.kron(mat, _MATS[letters.get(q, "I")])
    return term.coefficient * mat


def pauli_sum_matrix(obs: PauliSum, num_qubits: int) -> np.ndarray:
    out = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)
    for term in obs.terms:
        out += pauli_matrix(term, num_qubits)
    return out


class TestPauliString:
    def test_label_round_trip(self):
        p = PauliString.from_label("XIZY")
        assert p.paulis == ((0, "Y"), (1, "Z"), (3, "X"))
        assert p.to_label(4) == "XIZY"
        assert p.support == (0, 1, 3)
        assert p.weight == 3

    def test_mapping_and_identity_letters(self):
        p = PauliString({0: "z", 3: "x", 2: "I"})
        assert p.paulis == ((0, "Z"), (3, "X"))
        assert PauliString(()).is_identity

    def test_invalid_letters_and_qubits(self):
        with pytest.raises(ValueError):
            PauliString({0: "Q"})
        with pytest.raises(ValueError):
            PauliString([(0, "Z"), (0, "X")])
        with pytest.raises(ValueError):
            PauliString({-1: "Z"})
        with pytest.raises(ValueError):
            PauliString.from_label("ZZ").to_label(1)

    def test_diagonality_and_masks(self):
        assert PauliString.from_label("ZIZ").is_diagonal
        assert not PauliString.from_label("ZIX").is_diagonal
        p = PauliString({0: "Z", 2: "X", 3: "Y"})
        assert p.z_mask() == 0b0001
        assert p.flip_mask() == 0b1100

    @pytest.mark.parametrize("label", ["Z", "ZZ", "IZ"])
    def test_z_strings_are_diagonal_actions(self, label):
        """A Z-only string flips nothing: its phases are the diagonal."""
        p = PauliString.from_label(label)
        assert p.flip_mask() == 0
        phases = pauli_phases(p.paulis, 1 << len(label))
        np.testing.assert_allclose(np.diag(phases), pauli_matrix(p, len(label)),
                                   atol=1e-12)

    @pytest.mark.parametrize("label", ["X", "Y", "XY", "XZ", "YZ", "XYZ"])
    def test_xy_strings_are_monomial_actions(self, label):
        """With X or Y in it, a string moves amplitude ``x ^ flip`` to ``x``
        times the phase ``pauli_phases`` gives ``x`` (the engine's form)."""
        p = PauliString.from_label(label)
        flip, dim = p.flip_mask(), 1 << p.weight
        assert flip
        phases = pauli_phases(p.paulis, dim, flip)
        m = np.zeros((dim, dim), dtype=complex)
        for x in range(dim):
            m[x, x ^ flip] = phases[x]
        # support == (0..k-1) here, so the local operator is the full one
        np.testing.assert_allclose(m, pauli_matrix(p, p.weight), atol=1e-12)

    def test_dense_expectation_matches_the_operator(self):
        """The tests' oracle on random X / Y / Z strings of up to 5 qubits."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            label = "".join(rng.choice(list("IXYZ"), size=n))
            term = PauliString.from_label(label, coefficient=rng.normal())
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            want = np.vdot(psi, pauli_matrix(term, n) @ psi).real
            assert abs(dense_expectation(psi, term) - want) < 1e-12, label

    def test_algebra(self):
        p = PauliString.from_label("Z", coefficient=2.0)
        assert (3 * p).coefficient == 6.0
        assert (-p).coefficient == -2.0
        s = p + PauliString.from_label("X")
        assert isinstance(s, PauliSum) and s.num_terms == 2


class TestPauliSum:
    def test_combines_like_terms(self):
        s = PauliSum(
            [
                PauliString.from_label("ZZ", coefficient=1.0),
                PauliString.from_label("ZZ", coefficient=2.0),
                PauliString.from_label("XX", coefficient=-1.0),
            ]
        )
        assert s.num_terms == 2
        coeffs = {t.key: t.coefficient for t in s.terms}
        assert coeffs[PauliString.from_label("ZZ").key] == 3.0

    def test_zero_terms_dropped(self):
        s = PauliString.from_label("Z") + PauliString.from_label("Z", coefficient=-1.0)
        assert s.num_terms == 0

    def test_sub_mul_support(self):
        s = PauliSum.from_labels({"ZI": 1.0, "IX": 0.5}) - PauliString.from_label("IX")
        s = 2.0 * s
        coeffs = {t.key: t.coefficient for t in s.terms}
        assert coeffs[PauliString.from_label("ZI").key] == 2.0
        assert coeffs[PauliString.from_label("IX").key] == -1.0
        assert s.support() == (0, 1)

    def test_as_pauli_sum_coercions(self):
        assert as_pauli_sum("ZZ").num_terms == 1
        p = PauliString.from_label("X")
        assert as_pauli_sum(p).terms[0] == p
        s = PauliSum([p])
        assert as_pauli_sum(s) is s
        with pytest.raises(TypeError):
            as_pauli_sum(42)
        with pytest.raises(TypeError):
            PauliSum(["ZZ"])


class TestHamiltonians:
    def test_maxcut_counts_cut_edges_on_basis_states(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        h = pauli_sum_matrix(maxcut_hamiltonian(edges), 3)
        np.testing.assert_allclose(h, np.diag(np.diag(h)))
        for state in range(8):
            cut = sum(
                1 for a, b in edges if ((state >> a) & 1) != ((state >> b) & 1)
            )
            assert abs(h[state, state].real - cut) < 1e-12

    def test_ising_hamiltonian_shape(self):
        h = ising_hamiltonian(3, coupling=1.0, field=0.5)
        assert h.num_terms == 2 + 3
        m = pauli_sum_matrix(h, 3)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)  # Hermitian
