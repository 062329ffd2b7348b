"""The slab observables engine equals the dense evaluation, whatever happened.

``ObservablesEngine.expectation_value`` computes every missing (term, block)
partial from one gather and one matmul per flip mask, and keeps the partials
in per-term arrays invalidated by the update's dirty frontier.  Three answers
must agree to 1e-10 after every step of the state machine in
``tests/machine.py`` -- inserts, removals, retunes, measure / reset /
``c_if``, forks with edits on either side, checkpoint -> restore, injected
faults, queries with modifiers still pending:

* the session's own (caching) engine,
* a second engine on the same simulator, invalidated before each query
  (the same code with nothing valid), and
* the dense path, term by term on ``state()`` (``dense_expectation``, which
  shares no code with the slab routine).

The drawn Pauli sums mix X / Y / Z with an identity term and complex
coefficients, on supports below, above and straddling the block boundary;
block sizes run from 2 to 256, so a register smaller than one block is
included.  The deterministic half pins what one query costs: one
``read_blocks`` when anything is missing, none when nothing is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QTask
from repro.observables import PauliString, PauliSum, dense_expectation

from ..machine import MODIFIERS, run_machine


# ---------------------------------------------------------------------------
# the property: the state machine's expectation invariant
# ---------------------------------------------------------------------------


def test_slab_engine_equals_dense_and_uncached(tmp_path):
    # the session's own engine caches (the cold one is the machine's)
    run_machine(tmp_path, rules=MODIFIERS | {"expectation", "inject_fault"},
                max_examples=25, steps=24)


# ---------------------------------------------------------------------------
# what one query costs
# ---------------------------------------------------------------------------


def count_reads(sim):
    """Route ``sim.state_reader()`` through a reader that offers *only*
    ``read_blocks`` and records every call's block ids."""
    calls = []
    real = type(sim).state_reader

    class OnlyReadBlocks:
        def read_blocks(self, blocks):
            calls.append(list(blocks))
            return real(sim).read_blocks(blocks)

    sim.state_reader = OnlyReadBlocks
    return calls


def layered_session(num_qubits=6, block_size=4, **kwargs):
    session = QTask(num_qubits, block_size=block_size, num_workers=1, **kwargs)
    net = session.insert_net()
    for q in range(num_qubits):
        session.insert_gate("h", net, q)
    net = session.insert_net()
    for q in range(0, num_qubits - 1, 2):
        session.insert_gate("cx", net, q, q + 1)
    net = session.insert_net()
    handles = [
        session.insert_gate("ry", net, q, params=[0.3 + 0.2 * q])
        for q in range(num_qubits)
    ]
    session.update_state()
    return session, handles


MIXED = PauliSum([
    PauliString((), coefficient=0.5),
    PauliString({0: "Z", 1: "Z"}, coefficient=-0.5),
    PauliString({1: "Z", 4: "Z"}, coefficient=0.75),
    PauliString({0: "X", 5: "Y"}, coefficient=1.25),   # flips block bit 3
    PauliString({1: "Y", 3: "Z"}, coefficient=-2.0),   # flips inside a block
    PauliString({2: "X", 3: "X"}, coefficient=0.3),    # flips block bit 0 and 1
])


def test_one_gather_when_dirty_none_when_clean(no_plan):
    session, handles = layered_session()
    with session:
        sim = session.simulator
        calls = count_reads(sim)
        want = dense_expectation(sim.state(), MIXED)
        assert abs(session.expectation(MIXED) - want) < 1e-10
        assert calls == [list(range(sim.n_blocks))]      # fully dirty: one gather
        assert abs(session.expectation(MIXED) - want) < 1e-10
        assert len(calls) == 1                           # clean: none
        session.update_gate(handles[-1], 1.1)            # ry on the top qubit
        session.update_state()
        assert abs(
            session.expectation(MIXED) - dense_expectation(sim.state(), MIXED)
        ) < 1e-10
        assert len(calls) == 2


def test_uncached_engine_runs_the_same_slab_routine(no_plan):
    session, _ = layered_session()
    twin, _ = layered_session()
    with session, twin:
        cached_calls = count_reads(session.simulator)
        uncached_calls = count_reads(twin.simulator)
        assert session.expectation(MIXED) == twin.expectation(MIXED)
        assert cached_calls == uncached_calls == [list(range(16))]
        # nothing is valid after invalidate(): the same gather again
        twin.simulator.observables.invalidate()
        assert twin.statistics()["cached_observable_partials"] == 0
        assert twin.expectation(MIXED) == session.expectation(MIXED)
        assert len(cached_calls) == 1 and len(uncached_calls) == 2


@pytest.mark.parametrize("masses", ["counts", "norm"])
def test_block_masses_and_the_identity_term_are_one_cache(masses, no_plan):
    """``counts`` / ``norm`` read block masses, ``expectation("I")`` the
    identity term's partials: the same cached array, so whichever query
    comes second gathers nothing for it, in either order and after an
    edit that dirtied half the blocks."""
    session, _ = layered_session(tracing=True)
    with session:
        sim = session.simulator
        n_blocks = sim.n_blocks
        gathered = sim.telemetry.metrics.counter("observe.blocks_gathered")

        def cost(query):
            """``(blocks_missing, blocks_gathered, hit)`` of one query; ``hit``
            is the blocks a sample's draws landed in."""
            before = gathered.value
            result = query()
            span = [r for r in session.telemetry.tracer.spans() if r.name == "observe"][-1]
            assert span.attrs["blocks_gathered"] == gathered.value - before
            hit = (
                {int(k, 2) // sim.block_size for k in result}
                if isinstance(result, dict) else set()
            )
            return span.attrs["blocks_missing"], span.attrs["blocks_gathered"], hit

        def read_masses():
            if masses == "counts":
                return session.counts(64, seed=9)
            return session.norm()

        def identity():
            return session.expectation(PauliString())

        # masses first: the identity term is already cached
        missing, read, hit = cost(read_masses)
        assert (missing, read) == (n_blocks, n_blocks + len(hit))
        assert cost(identity) == (0, 0, set())
        # a phase on the top qubit dirties the upper half of the blocks
        session.insert_gate("p", session.insert_net(), 5, params=[0.4])
        session.update_state()
        assert cost(identity) == (n_blocks // 2, n_blocks // 2, set())
        # identity first: the masses are already cached (a sample still
        # reads the blocks its draws hit, and nothing else)
        missing, read, hit = cost(read_masses)
        assert (missing, read) == (0, len(hit))
        assert abs(identity() - 1.0) < 1e-10


def test_partial_query_gathers_missing_blocks_and_their_partners(no_plan):
    session, _ = layered_session()
    with session:
        sim = session.simulator
        engine = sim.observables
        term = PauliString({0: "X", 5: "Y"})             # partner = block ^ 8
        want = dense_expectation(sim.state(), term)
        session.expectation(term)
        calls = count_reads(sim)
        engine.mark_blocks_dirty([3])
        assert abs(session.expectation(term) - want) < 1e-10
        # partials 3 and 11 were dropped; each reads the other's block
        assert calls == [[3, 11]]
        # the fill does not lean on partials having been dropped in pairs:
        # one missing partial still brings its partner block along
        engine._terms[term.key].valid[3] = False
        assert abs(session.expectation(term) - want) < 1e-10
        assert calls == [[3, 11], [3, 11]]


def test_cached_partials_counts_exactly_the_valid_entries(no_plan):
    session, _ = layered_session()
    with session:
        sim = session.simulator
        engine = sim.observables
        n_terms, n_blocks = len(MIXED.terms), sim.n_blocks
        session.expectation(MIXED)
        assert engine.cached_partials == n_terms * n_blocks
        assert session.statistics()["cached_observable_partials"] == n_terms * n_blocks
        # any iterable of ints; X0*Y5 also loses 2 ^ 8 and 5 ^ 8, X2*X3 also
        # loses 2 ^ 3 and 5 ^ 3, the other four lose blocks 2 and 5 only
        engine.mark_blocks_dirty(iter({2, 5}))
        assert engine.cached_partials == n_terms * n_blocks - (4 * 2 + 4 + 4)
        entry = engine._terms[PauliString({2: "X", 3: "X"}).key]
        assert sorted(np.flatnonzero(~entry.valid)) == [1, 2, 5, 6]
        session.expectation(MIXED)
        assert engine.cached_partials == n_terms * n_blocks
        engine.invalidate()
        assert engine.cached_partials == 0


def test_fork_owns_its_partials_and_validity(no_plan):
    session, handles = layered_session()
    with session:
        before = session.expectation(MIXED)
        warm = session.simulator.observables.cached_partials
        with session.fork() as child:
            child.update_gate(child.handle_for(handles[0]), 2.2)
            child.update_state()
            assert child.simulator.observables.cached_partials < warm
            assert abs(
                child.expectation(MIXED)
                - dense_expectation(child.state(), MIXED)
            ) < 1e-10
            # nothing the child dropped or recomputed shows on the parent
            assert session.simulator.observables.cached_partials == warm
            assert session.expectation(MIXED) == before


# ---------------------------------------------------------------------------
# sampling keeps its draw arithmetic
# ---------------------------------------------------------------------------


def reference_sample(sim, shots, seed):
    """``sample`` as a per-block loop: one read and one ``.sum()`` per block
    for the masses, a ``cumsum`` over them for each draw's block, one read
    per hit block for its index."""
    reader = sim.state_reader()
    size = min(sim.dim, sim.block_size)

    def probs(block):
        lo = block * sim.block_size
        amps = reader.read_range(lo, lo + size - 1)
        return (amps.conj() * amps).real

    cum = np.cumsum([float(probs(b).sum()) for b in range(sim.n_blocks)])
    draws = np.random.default_rng(seed).random(shots) * cum[-1]
    blocks = np.minimum(np.searchsorted(cum, draws, side="right"), sim.n_blocks - 1)
    residuals = draws - np.concatenate(([0.0], cum))[blocks]
    out = np.empty(shots, dtype=np.int64)
    for b in np.unique(blocks):
        sel = np.flatnonzero(blocks == b)
        local = np.searchsorted(np.cumsum(probs(int(b))), residuals[sel], side="right")
        out[sel] = b * sim.block_size + np.minimum(local, size - 1)
    return out


@pytest.mark.parametrize("block_size", [2, 4, 16, 256])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 2024])
def test_samples_equal_the_per_block_loop(block_size, seed, no_plan):
    session, _ = layered_session(num_qubits=6, block_size=block_size)
    with session:
        sim = session.simulator
        np.testing.assert_array_equal(
            session.sample(300, seed=seed), reference_sample(sim, 300, seed)
        )
        # the block masses sampling drew from are the identity term's
        # partials: the per-block sums, and what expectation("I") adds up
        state = sim.state().reshape(sim.n_blocks, -1)
        masses = sim.observables._terms[PauliString().key].partials
        np.testing.assert_allclose(
            masses.real, [(row.conj() * row).real.sum() for row in state],
            rtol=0, atol=1e-15,
        )
        assert not masses.imag.any()
        assert session.expectation(PauliString()) == masses.sum().real


def test_counts_equal_the_parent_commits(no_plan):
    """Histograms recorded at the commit before the slab engine."""
    session, handles = layered_session(num_qubits=3, block_size=2)
    with session:
        assert session.counts(500, seed=1) == {
            "000": 4, "001": 18, "010": 22, "011": 47,
            "100": 33, "101": 81, "110": 103, "111": 192,
        }
        session.update_gate(handles[0], 2.0)
        session.update_state()
        assert session.counts(200, seed=3) == {
            "000": 2, "001": 3, "010": 1, "011": 23,
            "100": 1, "101": 43, "110": 8, "111": 119,
        }
