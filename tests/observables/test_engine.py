"""Tests for the block-wise observables engine and its shot sampling."""

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.exceptions import QubitIndexError
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.observables import (
    ObservablesEngine,
    PauliString,
    PauliSum,
    dense_expectation,
    maxcut_hamiltonian,
)

from ..conftest import random_levels
from .test_pauli import pauli_sum_matrix


def reference_expectation(state: np.ndarray, obs: PauliSum) -> float:
    """<psi|H|psi> via the dense operator matrix (independent ground truth)."""
    n = state.shape[0].bit_length() - 1
    return float(np.real(np.vdot(state, pauli_sum_matrix(obs, n) @ state)))


def random_observable(rng, num_qubits: int, num_terms: int = 4) -> PauliSum:
    terms = []
    for _ in range(num_terms):
        weight = rng.randint(1, min(3, num_qubits))
        qubits = rng.sample(range(num_qubits), weight)
        letters = {q: rng.choice("XYZ") for q in qubits}
        terms.append(PauliString(letters, coefficient=rng.uniform(-2, 2)))
    return PauliSum(terms)


def build_sim(rng, num_qubits, levels=4, **kwargs):
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, num_workers=1, **kwargs)
    ckt.from_levels(random_levels(rng, num_qubits, levels))
    sim.update_state()
    return ckt, sim


class TestPrefixSumTree:
    """Block masses are the identity term's cached partials; a shot's block
    is ``searchsorted`` over their cumulative sum (the ids are historical:
    a Fenwick tree answered both once)."""

    def test_build_set_and_prefix(self, rng):
        ckt, sim = build_sim(rng, 4, block_size=2)
        engine = sim.observables
        masses = sim.probabilities().reshape(sim.n_blocks, -1).sum(axis=1)
        for b in range(sim.n_blocks):
            assert abs(engine.block_probability(b) - masses[b]) < 1e-12
        assert abs(engine.total_probability() - masses.sum()) < 1e-12
        # the masses are the identity term's partials, not a second cache
        assert engine.cached_partials == sim.n_blocks
        np.testing.assert_allclose(
            engine._terms[PauliString().key].partials.real, masses, atol=1e-12
        )
        # a retune dirties some blocks; their masses follow the new state
        net = ckt.insert_net()
        h = ckt.insert_gate("rx", net, 3, params=[0.4])
        sim.update_state()
        ckt.update_gate(h, 2.1)
        sim.update_state()
        masses = sim.probabilities().reshape(sim.n_blocks, -1).sum(axis=1)
        for b in range(sim.n_blocks):
            assert abs(engine.block_probability(b) - masses[b]) < 1e-12
        assert abs(engine.total_probability() - 1.0) < 1e-10
        sim.close()

    def test_find_matches_searchsorted(self):
        ckt = Circuit(5)
        sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
        # h on qubits 0, 2, 4: every block with qubit 1 or 3 set has no mass,
        # and zero-mass blocks must never be drawn
        ckt.append_level([Gate("h", (q,)) for q in (0, 2, 4)])
        ckt.append_level([Gate("ry", (2,), (0.7,))])
        sim.update_state()
        engine = sim.observables
        engine.total_probability()
        masses = engine._terms[PauliString().key].partials.real.copy()
        cum = np.cumsum(masses)
        for seed in (0, 1, 7):
            samples = sim.sample(200, seed=seed)
            draws = np.random.default_rng(seed).random(200) * cum[-1]
            expected = np.searchsorted(cum, draws, side="right")
            np.testing.assert_array_equal(samples // sim.block_size, expected)
            assert np.all(masses[samples // sim.block_size] > 0)
        sim.close()

    def test_validation(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=2)
        engine = sim.observables
        for block in (-1, sim.n_blocks):
            with pytest.raises(IndexError, match="out of range"):
                engine.block_probability(block)
        with pytest.raises(ValueError, match="non-negative"):
            engine.sample(-1)
        with pytest.raises(ValueError, match="out of range"):
            engine.marginal_probabilities((3,))
        # rejected before anything was read or cached
        assert engine.cached_partials == 0
        sim.close()


class TestExpectation:
    @pytest.mark.parametrize("block_size", [2, 8, 64])
    def test_matches_dense_reference(self, rng, block_size):
        for _ in range(5):
            num_qubits = rng.randint(2, 5)
            ckt, sim = build_sim(rng, num_qubits, block_size=block_size)
            obs = random_observable(rng, num_qubits)
            expected = reference_expectation(sim.state(), obs)
            assert abs(sim.expectation(obs) - expected) < 1e-10
            assert abs(dense_expectation(sim.state(), obs) - expected) < 1e-10
            sim.close()

    def test_identity_term_is_squared_norm(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=2)
        assert abs(sim.expectation(PauliString(())) - 1.0) < 1e-10
        assert abs(sim.expectation("III") - 1.0) < 1e-10
        sim.close()

    def test_label_and_string_inputs(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=4)
        expected = reference_expectation(
            sim.state(), PauliSum([PauliString.from_label("ZIZ")])
        )
        assert abs(sim.expectation("ZIZ") - expected) < 1e-10
        sim.close()

    def test_cache_tracks_incremental_edits(self, rng):
        """Cached partials must be invalidated by inserts/removes/retunes."""
        num_qubits = 4
        ckt, sim = build_sim(rng, num_qubits, block_size=2)
        obs = random_observable(rng, num_qubits)
        assert abs(sim.expectation(obs) - reference_expectation(sim.state(), obs)) < 1e-10
        # insert
        net = ckt.insert_net()
        ckt.insert_gate("h", net, 0)
        sim.update_state()
        assert abs(sim.expectation(obs) - reference_expectation(sim.state(), obs)) < 1e-10
        # retune
        net2 = ckt.insert_net()
        h = ckt.insert_gate("rz", net2, 1, params=[0.3])
        sim.update_state()
        sim.expectation(obs)
        ckt.update_gate(h, 1.9)
        sim.update_state()
        assert abs(sim.expectation(obs) - reference_expectation(sim.state(), obs)) < 1e-10
        # removal of the final gate: no downstream nodes re-execute, yet the
        # resolved state changes -- the removal hook must invalidate alone
        ckt.remove_gate(h)
        sim.update_state()
        assert abs(sim.expectation(obs) - reference_expectation(sim.state(), obs)) < 1e-10
        sim.close()

    def test_flip_partner_blocks_invalidated(self):
        """An X/Y term's partial for block b reads block b ^ flip; dirtying
        only the partner must still evict b's cached partial (regression)."""
        ckt = Circuit(4)
        sim = QTaskSimulator(ckt, block_size=4, num_workers=1)
        ckt.append_level([Gate("h", (q,)) for q in range(4)])
        # cp's diagonal touches only the |11> local of qubits (3, 2): its
        # partitions cover only the last block, so a retune dirties block 3
        # alone while the XIII partial of block 1 reads amplitudes there.
        _, (h,) = ckt.append_level([Gate("cp", (3, 2), (0.3,))])
        sim.update_state()
        obs = PauliString.from_label("XIII")
        assert abs(sim.expectation(obs) - dense_expectation(sim.state(), obs)) < 1e-10
        ckt.update_gate(h, 2.5)
        sim.update_state()
        assert abs(sim.expectation(obs) - dense_expectation(sim.state(), obs)) < 1e-10
        sim.close()

    def test_cache_disabled_matches_cached(self, rng):
        """A cold query -- after ``invalidate()`` -- equals the cached one."""
        ckt, sim = build_sim(rng, 3, block_size=2)
        obs = random_observable(rng, 3)
        sim.expectation(obs)
        cached = sim.expectation(obs)
        sim.observables.invalidate()
        assert sim.statistics()["cached_observable_partials"] == 0
        assert abs(sim.expectation(obs) - cached) < 1e-12
        sim.close()

    def test_cached_partials_reported_in_statistics(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=2)
        assert sim.statistics()["cached_observable_partials"] == 0
        sim.expectation("ZII")
        assert sim.statistics()["cached_observable_partials"] == sim.n_blocks
        sim.close()


class TestSupportValidation:
    """A Pauli on a qubit the register lacks used to be a silent identity (Z)
    or an incidental reader error (X/Y)."""

    @pytest.mark.parametrize(
        "observable",
        [
            PauliString({7: "Z"}),
            PauliString({7: "X"}),
            PauliString({0: "Z", 4: "Y"}),
            PauliSum([PauliString({0: "Z"}), PauliString({1: "X", 9: "Z"})]),
            "ZIIII",
        ],
    )
    @pytest.mark.parametrize("cache", [True, False])
    def test_pauli_beyond_the_register_is_rejected(self, rng, observable, cache):
        ckt, sim = build_sim(rng, 4, block_size=4)
        if not cache:  # a cold engine
            sim.observables.invalidate()
        with pytest.raises(QubitIndexError, match="outside"):
            sim.expectation(observable)
        # rejected before anything was read or cached
        assert sim.statistics()["cached_observable_partials"] == 0
        top = PauliString({3: "Z"})
        assert abs(sim.expectation(top) - dense_expectation(sim.state(), top)) < 1e-10
        sim.close()


class TestNormAndMarginals:
    def test_blockwise_norm_is_one(self, rng):
        for block_size in (2, 16):
            ckt, sim = build_sim(rng, 4, block_size=block_size)
            assert abs(sim.norm() - 1.0) < 1e-10
            sim.close()

    @pytest.mark.parametrize("cache", [True, False])
    def test_block_probability_is_the_blocks_mass(self, rng, cache):
        ckt, sim = build_sim(rng, 4, block_size=4)
        masses = sim.probabilities().reshape(sim.n_blocks, -1).sum(axis=1)
        engine = sim.observables
        for warm in (False, True):  # missing, then the cached partials
            for b in range(sim.n_blocks):
                if not cache:  # every query cold
                    engine.invalidate()
                assert abs(engine.block_probability(b) - masses[b]) < 1e-12
            assert abs(engine.total_probability() - 1.0) < 1e-10
        with pytest.raises(IndexError):
            engine.block_probability(sim.n_blocks)
        sim.close()

    def test_marginals_match_full_distribution(self, rng):
        ckt, sim = build_sim(rng, 4, block_size=4)
        probs = sim.probabilities()
        idx = np.arange(probs.shape[0])
        for qubits in [(0,), (2, 0), (1, 3), (3, 2, 1, 0)]:
            local = np.zeros_like(idx)
            for j, q in enumerate(qubits):
                local |= ((idx >> q) & 1) << j
            expected = np.bincount(local, weights=probs, minlength=1 << len(qubits))
            got = sim.marginal_probabilities(qubits)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            assert abs(got.sum() - 1.0) < 1e-10
        sim.close()

    def test_marginal_validation(self, rng):
        ckt, sim = build_sim(rng, 3)
        with pytest.raises(ValueError):
            sim.marginal_probabilities((0, 0))
        with pytest.raises(ValueError):
            sim.marginal_probabilities((5,))
        sim.close()


class TestSampling:
    def test_seeded_samples_are_deterministic(self, rng):
        ckt, sim = build_sim(rng, 4, block_size=4)
        a = sim.sample(100, seed=5)
        b = sim.sample(100, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < sim.dim
        sim.close()

    def test_counts_total_and_keys(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=2)
        counts = sim.counts(500, seed=1)
        assert sum(counts.values()) == 500
        assert all(len(k) == 3 and set(k) <= {"0", "1"} for k in counts)
        sim.close()

    def test_sampling_zero_shots_and_validation(self, rng):
        ckt, sim = build_sim(rng, 3)
        assert sim.sample(0, seed=1).shape == (0,)
        with pytest.raises(ValueError):
            sim.sample(-1)
        sim.close()

    def test_counts_match_probabilities_chi_square(self, rng):
        """Sampled histogram fits |psi|^2 under a chi-square bound (satellite)."""
        ckt, sim = build_sim(rng, 5, levels=5, block_size=8)
        probs = sim.probabilities()
        shots = 20_000
        samples = sim.sample(shots, seed=2024)
        observed = np.bincount(samples, minlength=sim.dim).astype(float)
        expected = probs * shots
        # Pool bins with small expectation into one (standard chi-square rule).
        big = expected >= 5.0
        obs_binned = np.concatenate((observed[big], [observed[~big].sum()]))
        exp_binned = np.concatenate((expected[big], [expected[~big].sum()]))
        keep = exp_binned > 0
        obs_binned, exp_binned = obs_binned[keep], exp_binned[keep]
        chi2 = float((((obs_binned - exp_binned) ** 2) / exp_binned).sum())
        dof = int(keep.sum()) - 1
        # Generous deterministic bound: mean + 5 sigma of a chi-square(dof).
        assert chi2 < dof + 5.0 * np.sqrt(2.0 * dof), (chi2, dof)
        sim.close()

    def test_sampling_after_retune_follows_new_state(self, rng):
        ckt, sim = build_sim(rng, 3, block_size=2)
        net = ckt.insert_net()
        h = ckt.insert_gate("rx", net, 0, params=[0.2])
        sim.update_state()
        sim.sample(10, seed=0)  # populate the tree
        ckt.update_gate(h, np.pi)  # crosses into a bit-flip: new distribution
        sim.update_state()
        probs = sim.probabilities()
        samples = sim.sample(5000, seed=3)
        emp = np.bincount(samples, minlength=sim.dim) / 5000.0
        assert np.abs(emp - probs).max() < 0.06
        sim.close()


class TestEngineOwnership:
    def test_engine_is_lazy_and_shared(self, rng):
        ckt, sim = build_sim(rng, 3)
        assert sim._observables is None
        engine = sim.observables
        assert isinstance(engine, ObservablesEngine)
        assert sim.observables is engine
        sim.close()

    def test_maxcut_on_qaoa_like_circuit(self, rng):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        obs = maxcut_hamiltonian(edges)
        ckt = Circuit(4)
        sim = QTaskSimulator(ckt, num_workers=1, block_size=4)
        ckt.append_level([Gate("h", (q,)) for q in range(4)])
        sim.update_state()
        # uniform superposition cuts half of the edges in expectation
        assert abs(sim.expectation(obs) - len(edges) / 2) < 1e-10
        sim.close()


def test_queries_and_fork_clones_wait_on_the_engine_lock(rng):
    """Readers of one settled session share its caches (the service reads
    a warm base from several threads): every query, and a fork's copy of
    the caches, holds the engine's lock."""
    import threading

    _, sim = build_sim(rng, 5, block_size=4)
    try:
        engine = sim.observables
        done = []
        reads = [
            lambda: sim.counts(8, seed=1),
            lambda: sim.expectation("ZZIXI"),
            lambda: sim.fork().close(),
        ]
        threads = [
            threading.Thread(target=lambda read=read: done.append(read()))
            for read in reads
        ]
        with engine._lock:
            for t in threads:
                t.start()
            for t in threads:
                t.join(0.1)
                assert t.is_alive()  # waiting for the lock
        for t in threads:
            t.join(10)
        assert len(done) == len(reads)
    finally:
        sim.close()
