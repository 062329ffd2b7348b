"""Tests for the batched parameter-sweep scheduler (SweepRunner)."""

import numpy as np
import pytest

from repro import QTask, SweepRunner

N_QUBITS = 5
OBSERVABLE = "Z" * N_QUBITS


def _build(session):
    n = session.num_qubits
    net_h = session.insert_net()
    for q in range(n):
        session.insert_gate("h", net_h, q)
    net_cx = session.insert_net()
    for q in range(n - 1):
        net = session.insert_net()
        session.insert_gate("cx", net, q, q + 1)
    net_rz = session.insert_net()
    rz = [
        session.insert_gate("rz", net_rz, q, params=[0.4]) for q in range(n)
    ]
    net_rx = session.insert_net()
    rx = [
        session.insert_gate("rx", net_rx, q, params=[0.7]) for q in range(n)
    ]
    return rz + rx


def _grid(handles, steps):
    return [
        tuple(0.1 + 0.07 * s + 0.01 * i for i in range(len(handles)))
        for s in range(steps)
    ]


def _sequential_reference(points, handles_builder=_build):
    """The PR 3-style loop: one session, retune + update per point."""
    with QTask(N_QUBITS, num_workers=1) as session:
        handles = handles_builder(session)
        session.update_state()
        session.expectation(OBSERVABLE)
        out = []
        for point in points:
            for h, v in zip(handles, point):
                session.update_gate(h, v)
            session.update_state()
            out.append(session.expectation(OBSERVABLE))
        return out


@pytest.mark.parametrize("num_workers", [1, 4])
def test_sweep_matches_sequential_reference(num_workers):
    with QTask(N_QUBITS, num_workers=num_workers) as session:
        handles = _build(session)
        session.update_state()
        session.expectation(OBSERVABLE)
        points = _grid(handles, 9)
        with SweepRunner(session, handles, observable=OBSERVABLE) as runner:
            results = runner.run(points)
        expected = _sequential_reference(points)
        assert [r.index for r in results] == list(range(len(points)))
        assert [r.params for r in results] == points
        for r, e in zip(results, expected):
            assert r.expectation == pytest.approx(e, abs=1e-10)


def test_sweep_gathers_in_submission_order_across_forks():
    """Historical id: there is one fork, and it serves the points in
    submission order -- the first point's update re-simulates from the base
    state, every later one only the cone its retune dirtied."""
    with QTask(N_QUBITS, num_workers=4) as session:
        handles = _build(session)
        points = _grid(handles, 11)
        with SweepRunner(session, handles, observable=OBSERVABLE) as runner:
            results = runner.run(points)
            child, _ = runner._fork
            assert [r.index for r in results] == list(range(11))
            assert [r.params for r in results] == points
            # one incremental update per point, all of them on the one fork
            assert child.simulator.statistics()["num_updates"] == (
                session.simulator.statistics()["num_updates"] + len(points)
            )
            assert child.simulator.pool is session.simulator.pool
            assert child.simulator.num_workers == session.simulator.num_workers


def test_sweep_results_independent_of_fleet_size():
    """Historical id: results do not depend on the base session's width."""
    points = None
    runs = []
    for num_workers in (1, 2, 4):
        with QTask(N_QUBITS, num_workers=num_workers) as session:
            handles = _build(session)
            points = points or _grid(handles, 6)
            with SweepRunner(session, handles, observable=OBSERVABLE) as runner:
                runs.append(runner.run(points, shots=128, seed=99))
    first = runs[0]
    for other in runs[1:]:
        for a, b in zip(first, other):
            assert a.expectation == pytest.approx(b.expectation, abs=1e-10)
            # shot seeds are per point index, so histograms agree too
            assert a.counts == b.counts


def test_sweep_per_point_updates_are_incremental():
    with QTask(N_QUBITS, num_workers=2) as session:
        handles = _build(session)
        session.update_state()
        with SweepRunner(session, handles, observable=OBSERVABLE) as runner:
            results = runner.run(_grid(handles, 4))
        assert all(0.0 < r.affected_fraction < 1.0 for r in results)


def test_sweep_scalar_points_and_observable_override():
    with QTask(N_QUBITS, num_workers=1) as session:
        net = session.insert_net()
        g = session.insert_gate("rx", net, 0, params=[0.1])
        session.update_state()
        with SweepRunner(session, [g]) as runner:
            # scalar points (one handle), observable passed at run() time
            results = runner.run([0.0, np.pi], observable="I" * 4 + "Z")
        assert results[0].expectation == pytest.approx(1.0, abs=1e-10)
        assert results[1].expectation == pytest.approx(-1.0, abs=1e-10)
        assert results[0].counts is None


def test_sweep_without_observable_returns_counts_only():
    with QTask(N_QUBITS, num_workers=1) as session:
        handles = _build(session)
        session.update_state()
        with SweepRunner(session, handles) as runner:
            results = runner.run(_grid(handles, 2), shots=64, seed=5)
        for r in results:
            assert r.expectation is None
            assert sum(r.counts.values()) == 64


def test_sweep_validation_and_lifecycle():
    with QTask(N_QUBITS, num_workers=1) as session:
        handles = _build(session)
        session.update_state()
        runner = SweepRunner(session, handles, observable=OBSERVABLE)
        assert runner.run([]) == []
        with pytest.raises(ValueError, match="parameter entries"):
            runner.run([(0.1,)])  # wrong arity
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.run(_grid(handles, 1))
        for removed in ("num_forks", "nested_parallelism", "kernel_backend",
                        "store_transport"):
            with pytest.raises(TypeError, match=removed):
                SweepRunner(session, handles, **{removed: None})


def test_sweep_fleet_refreshes_after_parent_edits():
    """Parent edits between run() calls must not be served from a stale fork."""
    with QTask(N_QUBITS, num_workers=2) as session:
        net = session.insert_net()
        g = session.insert_gate("rx", net, 0, params=[0.2])
        session.update_state()
        obs = "I" * 4 + "Z"
        with SweepRunner(session, [g], observable=obs) as runner:
            first = runner.run([(0.0,), (0.0,)])
            assert first[0].expectation == pytest.approx(1.0, abs=1e-10)
            # Edit the base session: flip qubit 0 -- <Z> changes sign.
            net2 = session.insert_net()
            session.insert_gate("x", net2, 0)
            session.update_state()
            second = runner.run([(0.0,), (0.0,)])
            assert second[0].expectation == pytest.approx(-1.0, abs=1e-10)
            # A pending (un-updated) edit is detected too.
            net3 = session.insert_net()
            session.insert_gate("x", net3, 0)
            third = runner.run([(0.0,), (0.0,)])
            assert third[0].expectation == pytest.approx(1.0, abs=1e-10)
            # Each edit moved the base session's state epoch: a fresh fork.
            child, _ = runner._fork
            assert runner._fork_epoch == session.simulator.state_epoch
            # No edits: the fork is reused, not rebuilt.
            runner.run([(0.1,), (0.2,)])
            assert runner._fork[0] is child
            # A rebuilt fork closes the one it replaces.
            session.insert_gate("x", session.insert_net(), 0)
            runner.run([(0.0,)])
            assert runner._fork[0] is not child
            assert child.simulator._closed


def test_sweep_nested_parallelism_matches_default():
    """Historical id: ``nested_parallelism`` is gone.  The one fork updates
    on its base's pool, whatever its width, and the results equal a
    plain sequential loop's."""
    with QTask(N_QUBITS, num_workers=4) as session:
        handles = _build(session)
        session.update_state()
        session.expectation(OBSERVABLE)
        points = _grid(handles, 5)
        with SweepRunner(session, handles, observable=OBSERVABLE) as runner:
            results = runner.run(points)
            fork = runner._fork[0].simulator
            assert fork.pool is session.simulator.pool and fork.num_workers == 4
        for r, e in zip(results, _sequential_reference(points)):
            assert r.expectation == pytest.approx(e, abs=1e-10)
        with pytest.raises(TypeError, match="nested_parallelism"):
            SweepRunner(session, handles, nested_parallelism=True)


def test_sweep_exceptions_propagate():
    with QTask(N_QUBITS, num_workers=2) as session:
        handles = _build(session)
        session.update_state()
        with SweepRunner(session, [handles[0]],
                         observable=OBSERVABLE) as runner:
            with pytest.raises(Exception):
                # rz takes one parameter; a 2-tuple must blow up in the task
                runner.run([((0.1, 0.2),), ((0.3, 0.4),)])
