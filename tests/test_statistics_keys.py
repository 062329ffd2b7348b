"""Golden-keys contract for ``QTaskSimulator.statistics()``.

``statistics()`` was reimplemented on top of the telemetry registry; this
pins the exact key set (and a few value invariants) so the migration --
and any future one -- cannot silently drop or rename a key downstream
dashboards grab by name.
"""

import numpy as np
import pytest

from repro.core.kernels import NumpyBatchBackend
from repro.qtask import QTask

from . import conftest
from .conftest import ReferenceLoop, running_on

#: the statistics() contract
GOLDEN_KEYS = {
    "amps_swept",
    "backend_fallbacks",
    "block_size",
    "cached_observable_partials",
    "last_affected_partitions",
    "last_elapsed_seconds",
    "num_dynamic_stages",
    "num_edges",
    "num_frontiers",
    "num_nodes",
    "num_stages",
    "num_updates",
    "num_workers",
    "plan_chunks",
    "plans_built",
    "run_retries",
    "runs_batched",
    "runs_per_plan",
    "stages_coalesced",
    "store_bytes_shipped",
    "store_remote_reads",
    "sweeps",
    "updates_planned",
}


def _built_session(**knobs):
    ckt = QTask(5, **knobs)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    ckt.update_state()
    return ckt


@pytest.fixture()
def session():
    """A default session."""
    ckt = _built_session()
    yield ckt
    ckt.close()


def test_statistics_keys_are_exactly_the_golden_set(session):
    assert set(session.simulator.statistics()) == GOLDEN_KEYS


def test_statistics_values_reflect_the_registry_counters():
    # the slab pipeline's counters, pinned
    with _built_session() as session:
        _check_numpy_pipeline_counters(session.simulator.statistics())


def _check_numpy_pipeline_counters(stats):
    assert stats["num_updates"] == 1
    assert stats["plans_built"] == 1
    assert stats["updates_planned"] == 1
    assert stats["runs_batched"] >= 1
    assert stats["plan_chunks"] >= 1
    assert stats["runs_per_plan"] == pytest.approx(
        stats["runs_batched"] / stats["plans_built"]
    )
    assert stats["run_retries"] == 0
    assert stats["backend_fallbacks"] == 0
    assert stats["last_elapsed_seconds"] > 0.0
    # every plain count is a real int, not a Counter/Gauge leaking through
    for key in (
        "plans_built", "runs_batched", "plan_chunks",
        "stages_coalesced", "updates_planned",
        "run_retries", "backend_fallbacks",
        "num_updates",
    ):
        assert isinstance(stats[key], int), key
    # blocks never leave the process
    assert stats["store_remote_reads"] == stats["store_bytes_shipped"] == 0


def test_statistics_keys_stable_across_updates(session):
    net = session.insert_net()
    session.insert_gate("cx", net, 0, 1)
    session.update_state()
    assert set(session.simulator.statistics()) == GOLDEN_KEYS
    assert session.simulator.statistics()["num_updates"] == 2


def _dynamic_session():
    """Every run kind the default pipeline emits, on small blocks."""
    ckt = QTask(6, block_size=4, seed=11)
    c = ckt.add_classical_register("c", 1)
    nets = [ckt.insert_net() for _ in range(6)]
    for q in ckt.qubits():
        ckt.insert_gate("h", nets[0], q)            # one dense stage
    ckt.insert_gate("rz", nets[1], 5, params=(0.3,))  # diagonal above every run
    ckt.insert_gate("cx", nets[1], 0, 4)            # monomial across blocks
    ckt.measure(nets[2], 2, c[0])                   # collapse
    ckt.c_if("x", nets[3], 3, condition=(c, 1))     # action or identity copy
    ckt.reset(nets[4], 5)                           # moving collapse
    ckt.insert_gate("swap", nets[5], 1, 5)
    ckt.update_state()
    return ckt


def test_numpy_backend_hands_no_run_to_the_per_run_path(no_plan):
    """Every run kind the pipeline emits -- dense ones included -- has a
    slab form: each chunk reaches the backend whole, never run by run
    (there is no counter for it)."""
    rows = []
    backend = NumpyBatchBackend()
    execute = backend.execute_plan
    backend.execute_plan = lambda r, s, t: rows.append(t.num_runs) or execute(r, s, t)
    with running_on(backend):
        ckt = _dynamic_session()
    try:
        stats = ckt.statistics()
        assert stats["runs_batched"] > stats["plans_built"]
        assert "runs_fallback" not in stats
        assert (len(rows), sum(rows)) == (stats["plan_chunks"], stats["runs_batched"])
    finally:
        ckt.close()


def test_reference_backend_counts_every_run_as_per_run(monkeypatch):
    """... the runs of a coalesced table included: it is an ordinary table,
    so the per-run loop executes it too -- to the slab path's state, bit for
    bit -- and one plan stands for the two stages it coalesced."""
    calls = []
    run = conftest.execute_run
    monkeypatch.setattr(conftest, "execute_run", lambda *a: calls.append(1) or run(*a))
    with running_on(ReferenceLoop()):
        ckt = _dynamic_session()
    slab = _dynamic_session()
    try:
        stats = ckt.statistics()
        # (chaos legs re-plan on injected faults, hence not an equality)
        assert 0 < len(calls) <= stats["runs_batched"]
        # rz[q5] and cx[q0, q4] share a net: adjacent, static, swept whole;
        # the reset is a projector once drawn, and swap[q1, q5] joins it
        runs = ckt.simulator.graph.runs()
        assert [len(run.members) for run in runs] == [2, 2]
        assert stats["stages_coalesced"] >= 4
        assert stats["plans_built"] >= stats["num_stages"] - 2
        assert np.array_equal(ckt.state(), slab.state())
    finally:
        ckt.close()
        slab.close()


def test_run_shots_counters_live_in_the_registry_not_in_statistics():
    """``shots.*`` are registry counters; the statistics() contract is
    untouched by sampling (the parent session does no update work)."""
    with _dynamic_session() as ckt:
        ckt.run_shots(12, seed=1)
        assert set(ckt.simulator.statistics()) == GOLDEN_KEYS
        counters = ckt.telemetry_report()["counters"]
        assert counters["shots.requested"] == 12
        assert 1 <= counters["shots.trajectories"] <= 12
        text = ckt.telemetry.metrics.prometheus_text()
        assert "qtask_shots_requested" in text
        assert "qtask_shots_trajectories" in text


def test_observe_counters_live_in_the_registry_not_in_statistics(session):
    """``observe.*`` are registry counters next to the one golden key."""
    keys = set(session.simulator.statistics())
    session.expectation("ZZIII")
    stats = session.simulator.statistics()
    assert set(stats) == keys  # the engine adds none
    n_blocks = session.simulator.n_blocks
    assert stats["cached_observable_partials"] == n_blocks
    counters = session.telemetry_report()["counters"]
    assert counters["observe.partials_computed"] == n_blocks
    assert counters["observe.blocks_gathered"] == n_blocks
