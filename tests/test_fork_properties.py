"""Property tests for session forking (copy-on-write children).

The fork invariants:

* a fresh fork's state, expectations and samples are identical to the
  parent's, with zero amplitude copies (all blocks shared);
* edits on the child never perturb the parent, and edits on the parent
  never perturb the child -- in both directions, to machine precision;
* ``fork + retune`` equals a fresh build of the edited circuit to 1e-10,
  built in one update or stepwise, of a live or a restored parent;
* ``memory_report()`` shows forked sessions *sharing* blocks: a fleet of
  forks owns (almost) nothing beyond the parent until it diverges, i.e.
  memory grows sublinearly in the number of forks.
"""

import numpy as np
import pytest

from repro import QTask
from repro.observables import dense_expectation

from .conftest import BUILD_CORNERS, circuit_levels, open_session, reference_state
from .machine import EDITS, run_machine

N_QUBITS = 5
OBSERVABLE = "ZZ" + "I" * (N_QUBITS - 2)


def _build_workload(session):
    """An H layer, an entangling layer and two retunable rotation layers."""
    n = session.num_qubits
    net_h = session.insert_net()
    for q in range(n):
        session.insert_gate("h", net_h, q)
    net_cx = session.insert_net()
    for q in range(0, n - 1, 2):
        session.insert_gate("cx", net_cx, q, q + 1)
    net_rz = session.insert_net()
    rz_handles = [
        session.insert_gate("rz", net_rz, q, params=[0.3 + 0.1 * q])
        for q in range(n)
    ]
    net_rx = session.insert_net()
    rx_handles = [
        session.insert_gate("rx", net_rx, q, params=[0.8 - 0.05 * q])
        for q in range(n)
    ]
    return rz_handles, rx_handles


def _parent(stepwise, restored, tmp_path):
    """The workload, built and updated -- and, ``restored``, round-tripped
    through a checkpoint -- with its rz and rx handles."""
    parent = open_session(N_QUBITS, num_workers=1, stepwise=stepwise)
    _build_workload(parent)
    parent.update_state()
    if restored:
        path = parent.checkpoint(str(tmp_path / "parent.qtckpt"))
        parent.close()
        parent = QTask.restore(path, num_workers=1)
    nets = parent.nets()
    return parent, nets[2].gates, nets[3].gates


@pytest.mark.parametrize("stepwise,restored", BUILD_CORNERS)
def test_fresh_fork_matches_parent_exactly(stepwise, restored, tmp_path):
    parent, _, _ = _parent(stepwise, restored, tmp_path)
    with parent:
        parent_state = parent.state()
        np.testing.assert_allclose(
            parent_state,
            reference_state(N_QUBITS, circuit_levels(parent.circuit)),
            atol=1e-10,
        )
        with parent.fork() as child:
            assert child.is_fork and not parent.is_fork
            np.testing.assert_allclose(child.state(), parent_state, atol=1e-14)
            assert child.expectation(OBSERVABLE) == pytest.approx(
                parent.expectation(OBSERVABLE), abs=1e-12
            )
            np.testing.assert_array_equal(
                child.sample(64, seed=7), parent.sample(64, seed=7)
            )


@pytest.mark.parametrize("stepwise,restored", BUILD_CORNERS)
def test_fork_retune_equals_fresh_build(stepwise, restored, tmp_path):
    """fork + update_gate == building the edited circuit from scratch."""
    parent, rz_handles, rx_handles = _parent(stepwise, restored, tmp_path)
    with parent:
        with parent.fork() as child:
            for i, h in enumerate(rz_handles):
                child.update_gate(child.handle_for(h), 1.1 + 0.2 * i)
            for i, h in enumerate(rx_handles):
                child.update_gate(child.handle_for(h), 0.25 + 0.1 * i)
            report = child.update_state()
            assert report.was_incremental

            with open_session(N_QUBITS, num_workers=1, stepwise=stepwise) as fresh:
                rz2, rx2 = _build_workload(fresh)
                for i, h in enumerate(rz2):
                    fresh.update_gate(h, 1.1 + 0.2 * i)
                for i, h in enumerate(rx2):
                    fresh.update_gate(h, 0.25 + 0.1 * i)
                fresh.update_state()
                np.testing.assert_allclose(
                    child.state(), fresh.state(), atol=1e-10
                )
                assert child.expectation(OBSERVABLE) == pytest.approx(
                    fresh.expectation(OBSERVABLE), abs=1e-10
                )


def test_edits_never_cross_fork_boundary():
    """Edits on either side of a fork (and closing one) leave every other
    session bit-identical: the machine's untouched-session check."""
    run_machine(rules=EDITS | {"fork", "close_fork"}, max_examples=10, steps=12)


def test_fork_of_fork_is_isolated():
    with QTask(4, num_workers=1) as parent:
        rz_handles, _ = _build_workload(parent)
        parent.update_state()
        child = parent.fork()
        grandchild = child.fork()
        try:
            grandchild.update_gate(grandchild.handle_for(
                child.handle_for(rz_handles[0])), 2.5)
            grandchild.update_state()
            np.testing.assert_allclose(
                grandchild.state(),
                reference_state(4, circuit_levels(grandchild.circuit)),
                atol=1e-9,
            )
            np.testing.assert_allclose(child.state(), parent.state(), atol=1e-14)
        finally:
            grandchild.close()
            child.close()


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------


def test_memory_report_shows_forks_sharing_blocks():
    """A fork fleet owns ~nothing until it diverges: sublinear memory."""
    num_forks = 8
    with QTask(6, num_workers=1, block_size=8) as parent:
        rz_handles, _ = _build_workload(parent)
        parent.update_state()
        parent_report = parent.memory_report()
        assert parent_report.shared_blocks == 0
        assert parent_report.owned_bytes == parent_report.allocated_bytes > 0

        forks = [parent.fork() for _ in range(num_forks)]
        try:
            for fork in forks:
                report = fork.memory_report()
                # Every materialised block references the parent's memory.
                assert report.allocated_bytes == parent_report.allocated_bytes
                assert report.shared_blocks == report.stored_blocks
                assert report.shared_bytes == report.allocated_bytes
                assert report.owned_bytes == 0
            # Fleet-wide footprint: one parent's worth of amplitudes, not
            # (num_forks + 1) of them.
            total_owned = parent_report.owned_bytes + sum(
                f.memory_report().owned_bytes for f in forks
            )
            assert total_owned == parent_report.allocated_bytes

            # Each fork marks exactly the blocks its stage holds as shared.
            for fork in forks:
                for stage in fork.simulator.graph.stages:
                    assert stage.store.shared == stage.store.held

            # Divergence: one fork rewrites its retuned cone and now owns
            # those blocks, unmarked; the parent owns all of its own.
            diverging = forks[0]
            diverging.update_gate(diverging.handle_for(rz_handles[0]), 3.0)
            diverging.update_state()
            diverged = diverging.memory_report()
            assert 0 < diverged.owned_bytes < diverged.allocated_bytes
            stores = [stage.store for stage in diverging.simulator.graph.stages]
            assert any(s.held & ~s.shared for s in stores)
            assert parent.memory_report().owned_bytes == parent_report.allocated_bytes
            # The other forks still share everything.
            assert forks[1].memory_report().owned_bytes == 0
        finally:
            for fork in forks:
                fork.close()


def test_closing_a_fork_leaves_parent_usable():
    with QTask(4, num_workers=1) as parent:
        _build_workload(parent)
        parent.update_state()
        child = parent.fork()
        expected = parent.state()
        child.close()
        parent.update_state()
        np.testing.assert_allclose(parent.state(), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# observables cache handoff
# ---------------------------------------------------------------------------


def test_fork_inherits_warm_observable_cache():
    with QTask(N_QUBITS, num_workers=1) as parent:
        _build_workload(parent)
        parent.update_state()
        expected = parent.expectation(OBSERVABLE)  # warm the cache
        warm = parent.simulator.observables.cached_partials
        assert warm > 0
        with parent.fork() as child:
            engine = child.simulator._observables
            assert engine is not None and engine.cached_partials == warm
            assert child.expectation(OBSERVABLE) == pytest.approx(
                expected, abs=1e-12
            )
            # The caches are independent: invalidating the child's leaves
            # the parent's untouched.
            engine.invalidate()
            assert parent.simulator.observables.cached_partials == warm


def test_handle_for_rejects_foreign_and_non_fork_sessions():
    from repro.core.exceptions import CircuitError, StaleHandleError

    with QTask(3, num_workers=1) as parent:
        net = parent.insert_net()
        g = parent.insert_gate("h", net, 0)
        with pytest.raises(CircuitError):
            parent.handle_for(g)
        parent.update_state()
        with parent.fork() as child:
            late_net = parent.insert_net()
            late = parent.insert_gate("x", late_net, 1)
            with pytest.raises(StaleHandleError):
                child.handle_for(late)
            assert child.handle_for(g).gate == g.gate


def test_fork_flushes_pending_modifiers():
    with QTask(3, num_workers=1) as parent:
        net = parent.insert_net()
        parent.insert_gate("h", net, 0)
        # No update_state() yet: fork must flush so the child inherits H|000>.
        with parent.fork() as child:
            amp = 1.0 / np.sqrt(2.0)
            np.testing.assert_allclose(
                child.state()[[0, 1]], [amp, amp], atol=1e-12
            )
            assert parent.simulator.last_update.affected_partitions > 0


def test_fork_matches_dense_expectation_ground_truth():
    """Block-wise expectations on a retuned fork match dense evaluation."""
    with open_session(N_QUBITS, num_workers=1, stepwise=True) as parent:
        rz_handles, _ = _build_workload(parent)
        parent.update_state()
        parent.expectation(OBSERVABLE)
        with parent.fork() as child:
            child.update_gate(child.handle_for(rz_handles[2]), 1.9)
            child.update_state()
            dense = dense_expectation(child.state(), OBSERVABLE)
            assert child.expectation(OBSERVABLE) == pytest.approx(
                dense, abs=1e-10
            )
