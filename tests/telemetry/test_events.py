"""The recovery event log: unit behaviour + engine emission under faults."""

import random

import numpy as np

from repro.core import faults
from repro.core.circuit import Circuit
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.telemetry import EventLog

from ..conftest import random_levels, reference_state


# ---------------------------------------------------------------------------
# EventLog unit behaviour
# ---------------------------------------------------------------------------


def test_event_log_emit_filter_and_since():
    log = EventLog()
    log.emit("fault.injected", site="kernel.run")
    log.emit("run.retry", stage=3, attempt=1)
    mark = log.last_seq
    log.emit("run.retry", stage=3, attempt=2)
    assert len(log) == 3
    assert [e.kind for e in log.events()] == [
        "fault.injected", "run.retry", "run.retry",
    ]
    assert [e.fields["attempt"] for e in log.events(kind="run.retry")] == [1, 2]
    since = log.events(since=mark)
    assert len(since) == 1 and since[0].fields["attempt"] == 2
    assert log.events(kind="run.retry", since=mark)[0].seq == since[0].seq


def test_event_log_is_bounded_and_counts_drops():
    log = EventLog(capacity=3)
    for i in range(5):
        log.emit("e", i=i)
    assert len(log) == 3
    assert [e.fields["i"] for e in log.events()] == [2, 3, 4]
    assert log.dropped == 2
    assert log.last_seq == 5  # seq keeps counting across evictions
    log.clear()
    assert len(log) == 0 and log.dropped == 0


def test_event_as_dict_flattens_fields():
    log = EventLog()
    e = log.emit("chunk.fallback", stage="rz[q0]", reason="x")
    d = e.as_dict()
    assert d["kind"] == "chunk.fallback"
    assert d["stage"] == "rz[q0]" and d["reason"] == "x"
    assert d["seq"] == 1 and "time" in d and "wall_time" in d


# ---------------------------------------------------------------------------
# engine emission: scripted faults must leave a queryable audit trail
# ---------------------------------------------------------------------------


def _build_sim(num_qubits, levels, **kwargs):
    ckt = Circuit(num_qubits)
    ckt.from_levels(levels)
    return QTaskSimulator(ckt, **kwargs)


def test_scripted_fault_leaves_injection_and_retry_events():
    rng = random.Random(12)
    levels = random_levels(rng, 5, 4)
    # One worker: with more, another chunk's publish can take the scripted
    # occurrence 2 and nothing is retried run-granular (~1% of runs).
    sim = _build_sim(5, levels, block_size=4, num_workers=1)
    faults.install(FaultPlan(script=[("cow.publish", 1), ("cow.publish", 2)]))
    try:
        sim.update_state()
        log = sim.telemetry.events
        injected = log.events(kind="fault.injected")
        assert injected and all(
            e.fields["site"] == "cow.publish" for e in injected
        )
        # the chunk fell back to run-granular execution and retried
        assert log.events(kind="chunk.fallback")
        assert log.events(kind="run.retry")
        np.testing.assert_allclose(
            sim.state(), reference_state(5, levels), atol=1e-10, rtol=0
        )
    finally:
        faults.uninstall()
        sim.close()


def test_explain_last_update_renders_recovery_events():
    rng = random.Random(12)
    levels = random_levels(rng, 5, 4)
    sim = _build_sim(5, levels, block_size=4)
    faults.install(FaultPlan(script=[("cow.publish", 1)]))
    try:
        sim.update_state()
        text = sim.explain_last_update()
        assert "update #0" in text
        assert "chunks total" in text and "backend" not in text
        assert "recovery events" in text and "none" not in text
        assert "fault.injected" in text
        assert "site=cow.publish" in text
        assert "ms" in text
    finally:
        faults.uninstall()
        sim.close()


def test_explain_last_update_clean_run_reports_no_events():
    rng = random.Random(7)
    levels = random_levels(rng, 4, 3)
    with _build_sim(4, levels, block_size=4) as sim:
        sim.update_state()
        text = sim.explain_last_update()
        assert "recovery events: none" in text
        # events from update N-1 must not bleed into update N's account
        faults.install(FaultPlan(script=[("cow.publish", 1)]))
        try:
            net = sim.circuit.insert_net()
            sim.circuit.insert_gate("x", net, 0)
            sim.update_state()
        finally:
            faults.uninstall()
        assert "fault.injected" in sim.explain_last_update()
        net2 = sim.circuit.insert_net()
        sim.circuit.insert_gate("x", net2, 1)
        sim.update_state()
        assert "recovery events: none" in sim.explain_last_update()


def test_breaker_transition_is_logged():
    """Historical id: no breaker is left.  A publish storm is absorbed
    chunk by chunk: every fallback is logged with its stage and reason, and
    the log holds only the recovery kinds the engine emits."""
    rng = random.Random(5)
    levels = random_levels(rng, 5, 4)
    sim = _build_sim(5, levels, block_size=4)
    faults.install(FaultPlan(script=[("cow.publish", i) for i in range(1, 40)]))
    try:
        sim.update_state()
    except FaultInjected:
        pass  # a storm past every retry bound surfaces; the trail stays
    finally:
        faults.uninstall()
        sim.close()
    events = sim.telemetry.events
    assert events.events(kind="fault.injected")
    fallbacks = events.events(kind="chunk.fallback")
    assert fallbacks and all(set(e.fields) == {"stage", "reason"} for e in fallbacks)
    assert {e.kind for e in events.events()} <= {
        "fault.injected", "chunk.fallback", "run.retry",
    }


def test_checkpoint_save_and_restore_emit_events(tmp_path):
    from repro.core.snapshot import restore_simulator, save_checkpoint

    rng = random.Random(3)
    levels = random_levels(rng, 4, 3)
    sim = _build_sim(4, levels, block_size=4)
    path = str(tmp_path / "ckpt.qtask")
    try:
        sim.update_state()
        save_checkpoint(sim, path)
        (saved,) = sim.telemetry.events.events(kind="checkpoint.save")
        assert saved.fields["path"] == path
        assert saved.fields["bytes"] > 0
    finally:
        sim.close()

    with restore_simulator(path) as restored:
        (loaded,) = restored.telemetry.events.events(kind="checkpoint.restore")
        assert loaded.fields["path"] == path
        assert loaded.fields["seconds"] >= 0.0
        np.testing.assert_allclose(
            restored.state(), reference_state(4, levels), atol=1e-10, rtol=0
        )
