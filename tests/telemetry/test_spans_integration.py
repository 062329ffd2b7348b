"""End-to-end tracing: spans nest across pool threads.

The acceptance scenario for the telemetry subsystem: a traced incremental
update on a deep cascade must export a valid chrome-trace JSON whose
``run.chunk`` spans nest under ``plan.build``/``update`` even when they
executed on the session's pool thread rather than the caller.
"""

import json
import os
import re

import numpy as np
import pytest

from repro.circuits import build_levels
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.observables import dense_expectation, maxcut_hamiltonian
from repro.qtask import QTask

from ..conftest import replay_shots

_CASCADE = ["rz", "x", "rz", "y"]


def build_cascade(num_qubits, num_stages, *, block_size, **kwargs):
    ckt = Circuit(num_qubits)
    levels = [[Gate("h", (q,)) for q in range(num_qubits)]]
    for i in range(num_stages):
        name = _CASCADE[i % len(_CASCADE)]
        params = (0.1 + 0.001 * i,) if name == "rz" else ()
        levels.append([Gate(name, (i % 3,), params)])
    ckt.from_levels(levels)
    return ckt, QTaskSimulator(ckt, block_size=block_size, **kwargs)


def test_traced_cascade_exports_nested_spans_from_multiple_workers(tmp_path):
    """The ISSUE acceptance criterion: 120 stages, 2 workers, valid export."""
    ckt, sim = build_cascade(10, 120, block_size=16, num_workers=2, tracing=True)
    try:
        sim.update_state()
        handle = next(h for h in ckt.gates() if h.gate.name == "rz")
        ckt.update_gate(handle, 0.7)
        sim.update_state()

        # tracing changes no amplitude: an untraced twin driven through the
        # same build and retune holds the same state bit for bit
        twin_ckt, twin = build_cascade(
            10, 120, block_size=16, num_workers=2, tracing=False
        )
        try:
            twin.update_state()
            twin_ckt.update_gate(
                next(h for h in twin_ckt.gates() if h.gate.name == "rz"), 0.7
            )
            twin.update_state()
            assert np.array_equal(sim.state(), twin.state())
        finally:
            twin.close()

        spans = sim.telemetry.tracer.spans()
        by_name = {}
        for r in spans:
            by_name.setdefault(r.name, []).append(r)
        assert {"update", "plan.build", "run.chunk"} <= set(by_name)

        updates = {r.span_id: r for r in by_name["update"]}
        assert len(updates) == 2  # full build + incremental retune
        for build in by_name["plan.build"]:
            assert build.parent_id in updates
            assert build.attrs["stages"] >= 1
        for chunk in by_name["run.chunk"]:
            assert chunk.parent_id in updates
            assert set(chunk.attrs) == {"stage", "runs", "amps"}
            assert chunk.attrs["runs"] >= 1
            assert chunk.attrs["amps"] >= 1
            # a chunk's time lies inside its parent update's window
            parent = updates[chunk.parent_id]
            assert parent.start <= chunk.start
            assert chunk.start + chunk.duration <= (
                parent.start + parent.duration + 1e-6
            )

        # the export is valid chrome-trace JSON mirroring those spans
        path = str(tmp_path / "cascade.json")
        trace = sim.telemetry.tracer.export_chrome_trace(path)
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh)["traceEvents"]
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(spans)
        assert min(e["ts"] for e in slices) == 0.0

        # chunks really ran on >= 2 distinct threads: the caller and the
        # session's pool thread.  The cascade coalesces into one-run tables,
        # which never split, so an ``h`` on qubit 1 closes its last run and
        # an ``h`` on qubit 0 after it adds a table of one run per block.
        # Whether the pool thread starts its chunk before the caller takes
        # it back is a race it can lose on a loaded host, so it gets a
        # bounded number of further retunes.
        ckt.insert_gate(Gate("h", (1,)), ckt.insert_net())
        ckt.insert_gate(Gate("h", (0,)), ckt.insert_net())

        def chunk_threads():
            return {
                r.thread_name for r in sim.telemetry.tracer.spans()
                if r.name == "run.chunk"
            }

        for attempt in range(200):
            if any(t.startswith("qtask-worker") for t in chunk_threads()):
                break
            ckt.update_gate(handle, 0.7 + 0.01 * (attempt + 1))
            sim.update_state()
        threads = chunk_threads()
        assert len(threads) >= 2
        assert any(t.startswith("qtask-worker") for t in threads)
    finally:
        sim.close()


def test_pool_worker_spans_carry_worker_pids():
    """Historical id: the only workers are the session's pool threads.  Every
    span of a traced multi-worker update carries this process's pid and one
    of the engine's span names -- nothing is timed in another process."""
    ckt, sim = build_cascade(8, 24, block_size=2, num_workers=2, tracing=True)
    try:
        sim.update_state()
        ckt.update_gate(next(h for h in ckt.gates() if h.gate.name == "rz"), 0.77)
        sim.update_state()
        spans = sim.telemetry.tracer.spans()
        # (no collapse: no sync barrier, no ``stage.prepare``)
        assert {r.name for r in spans} == {
            "update", "modify", "plan.build", "plan.compose", "run.chunk",
        }
        assert {r.pid for r in spans} == {os.getpid()}
    finally:
        sim.close()


def test_telemetry_report_is_consistent_with_statistics():
    ckt = QTask(6, num_workers=2, tracing=True)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    ckt.update_state()
    net2 = ckt.insert_net()
    ckt.insert_gate("cx", net2, 0, 1)
    ckt.update_state()
    try:
        stats = ckt.simulator.statistics()
        report = ckt.telemetry_report()
        assert report["session_id"] == ckt.telemetry.session_id
        # the update latency histogram saw exactly one observation per update
        upd = report["histograms"]["update.seconds"]
        assert upd["count"] == stats["num_updates"] == 2
        assert upd["unit"] == "s"
        assert 0 < upd["min"] <= upd["p50"] <= upd["p95"] <= upd["max"]
        assert upd["sum"] == pytest.approx(upd["count"] * upd["mean"])
        # counters mirror the statistics() keys they replaced
        assert report["counters"]["plan.plans_built"] == stats["plans_built"]
        assert report["counters"]["plan.chunks"] == stats["plan_chunks"]
        assert report["gauges"]["update.count"] == stats["num_updates"]
        assert report["gauges"]["graph.num_stages"] == stats["num_stages"]
        assert report["spans"]["enabled"] is True
        assert report["spans"]["recorded"] > 0
    finally:
        ckt.close()


def test_plan_build_span_and_explain_report_the_same_sweep():
    """``plan.build`` covers sweep + coalesce + sources + freeze, and says
    what it swept and what it coalesced."""
    ckt, sim = build_cascade(
        6, 12, block_size=4, num_workers=1, tracing=True,
    )
    try:
        sim.update_state()
        # 13 stages swept; the 12 static ones behind the H stage are one run
        explained = sim.explain_last_update()
        assert "swept stages 0..13, planned 2" in explained
        assert re.search(
            r"coalesced 12 stages \(0 collapses\) into 1 runs \(0 reused, [01] recomposed"
            r" by \d+ gathers, largest 12,"
            r" union <= 3 qubits\)",
            explained,
        )
        handle = [h for h in ckt.gates() if h.gate.name == "rz"][3]
        ckt.update_gate(handle, 0.7)
        seq = sim.stages.stage_of(handle).seq
        report = sim.update_state()
        full, retune = [
            r.attrs for r in sim.telemetry.tracer.spans() if r.name == "plan.build"
        ]
        assert (full["first_seq"], full["stages_swept"], full["stages"]) == (0, 13, 2)
        assert (full["runs"], full["coalesced_stages"], full["collapses"]) == (1, 12, 0)
        # the retune kept the run's record: it is emitted whole, reused
        assert (full["runs_reused"], retune["runs_reused"]) == (0, 1)
        # the retune landed in the run: the sweep starts at the run's first
        # member (seq 1), not at the retuned stage, and re-plans the run whole
        assert seq > 1 and retune["first_seq"] == 1
        assert retune["stages_swept"] == 12
        assert (retune["stages"], retune["runs"], retune["coalesced_stages"]) == (
            1, 1, 12
        )
        assert retune["stages"] == sim.statistics()["plans_built"] - 2
        assert sim.statistics()["stages_coalesced"] == 24
        assert 0 < retune["kernel_runs"] <= report.executed_block_writes
        # all but the H stage's one partition (H on every qubit)
        assert report.affected_partitions == sim.graph.num_nodes() - 1
        explained = sim.explain_last_update()
        assert "swept stages 1..13, planned 1" in explained
        assert "coalesced 12 stages (0 collapses) into 1 runs" in explained
    finally:
        sim.close()


def test_plan_build_counts_the_records_it_reused():
    """12q QFT: removing a gate from the middle of the first run record
    dissolves that record alone; every later one the dirt reaches is
    emitted whole from its record."""
    n, levels = build_levels("qft", num_qubits=12)
    with QTask(n, num_workers=1, tracing=True) as session:
        handles = []
        for level in levels:
            net = session.insert_net()
            handles += [session.insert_gate(g, net) for g in level]
        session.update_state()
        sim = session.simulator
        records = sim.graph.runs()
        first = records[0]
        middle = first.members[len(first.members) // 2]
        (handle,) = [h for h in handles if sim.stages.stage_of(h) is middle]
        session.remove_gate(handle)
        session.update_state()
        build = [r for r in session.telemetry.tracer.spans() if r.name == "plan.build"]
        assert [r.attrs["runs_reused"] for r in build] == [0, len(records) - 1]
        assert f"({len(records) - 1} reused," in session.explain_last_update()
        assert sim.graph.runs()[1:] == records[1:]


def covered(children, start, end):
    """The length of the union of ``children``'s intervals within
    ``[start, end]``, by sweeping every interval boundary."""
    cuts = sorted({start, end} | {
        t for r in children for t in (r.start, r.start + r.duration)
        if start <= t <= end
    })
    return sum(
        b - a for a, b in zip(cuts, cuts[1:])
        if any(r.start <= a and b <= r.start + r.duration for r in children)
    )


def assert_unattributed(spans, root):
    children = [r for r in spans if r.parent_id == root.span_id]
    assert children
    want = root.duration - covered(children, root.start, root.start + root.duration)
    assert root.attrs["unattributed_s"] >= 0
    assert abs(root.attrs["unattributed_s"] - max(0.0, want)) < 1e-9


def test_update_and_job_spans_report_their_unattributed_time():
    """``unattributed_s`` on ``update`` and ``job.run``: the span's duration
    minus the union of its direct children, worker-thread children
    included."""
    from repro.service import Backend

    ckt, sim = build_cascade(6, 40, block_size=4, num_workers=2, tracing=True)
    try:
        sim.update_state()
        spans = sim.telemetry.tracer.spans()
        (update,) = [r for r in spans if r.name == "update"]
        assert_unattributed(spans, update)
        assert "unattributed_s" not in (
            next(r for r in spans if r.name == "plan.build").attrs
        )
    finally:
        sim.close()
    text = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"
    with Backend({"max_concurrent_jobs": 1}, num_workers=1, tracing=True) as be:
        be.run(text, shots=8, seed=1).result(timeout=60)
        spans = be.telemetry.tracer.spans()
    (job,) = [r for r in spans if r.name == "job.run"]
    assert_unattributed(spans, job)


def test_plan_build_counts_the_collapses_it_coalesced():
    """A drawn measure / reset is a projector: it joins its diagonal /
    monomial neighbours' run, one ``stage.prepare`` draws them all, and
    ``plan.build`` and ``explain_last_update()`` count the collapses."""
    ckt = QTask(3, num_clbits=2, block_size=2, num_workers=1, tracing=True, seed=4)
    nets = [ckt.insert_net() for _ in range(4)]
    for q in range(3):
        ckt.insert_gate("h", nets[0], q)
    ckt.measure(nets[1], 0, 0)
    ckt.insert_gate("cx", nets[2], 1, 2)
    ckt.reset(nets[2], 0)
    ckt.measure(nets[3], 1, 1)
    try:
        ckt.update_state()
        spans = ckt.telemetry.tracer.spans()
        (build,) = [r for r in spans if r.name == "plan.build"]
        assert (build.attrs["stages"], build.attrs["runs"]) == (2, 1)
        assert (build.attrs["coalesced_stages"], build.attrs["collapses"]) == (4, 3)
        (prepare,) = [r for r in spans if r.name == "stage.prepare"]
        assert prepare.attrs["stage"] == "measure[q0->c0] (+3 coalesced)"
        assert "coalesced 4 stages (3 collapses) into 1 runs" in (
            ckt.explain_last_update()
        )
        assert [len(run.members) for run in ckt.simulator.graph.runs()] == [4]
    finally:
        ckt.close()


def test_one_modify_span_per_wired_batch():
    """Inserts are queued and wired in one batch at the next graph read:
    a whole build is one ``modify`` span inside its ``update`` (ahead of
    ``plan.build``), a stepwise build one per gate, and a queued batch a
    closing session drops unwired is none."""
    levels = [
        [Gate("h", (q,)) for q in range(5)],
        [Gate("cx", (0, 1)), Gate("rz", (3,), (0.4,))],
        [Gate("cp", (1, 4), (0.2,)), Gate("x", (2,))],
    ]

    def build(stepwise):
        session = QTask(5, block_size=4, num_workers=1, tracing=True)
        for level in levels:
            net = session.insert_net()
            for gate in level:
                session.insert_gate(gate, net)
                if stepwise:
                    session.update_state()
        if not stepwise:
            session.update_state()
        return session

    with build(stepwise=False) as whole:
        spans = whole.telemetry.tracer.spans()
        (modify,) = [r for r in spans if r.name == "modify"]
        (update,) = [r for r in spans if r.name == "update"]
        (plan,) = [r for r in spans if r.name == "plan.build"]
        # the five H gates are one matvec stage
        assert modify.attrs == {
            "inserted": whole.num_gates, "stages": 5, "nets": 3,
            "removed": 0, "retuned": 0,
        }
        assert modify.parent_id == update.span_id == plan.parent_id
        assert modify.start + modify.duration <= plan.start
        assert "wired 9 inserted gates as 5 stages in 3 nets" in (
            whole.explain_last_update()
        )
        # modifier-only updates: one span each, counting what they did
        rz = next(h for h in whole.circuit.gates() if h.gate.name == "rz")
        whole.update_gate(rz, 0.9)
        whole.update_gate(rz, 1.1)
        whole.update_state()
        assert "wired 0 inserted gates as 0 stages in 0 nets, 0 removed, 2 retuned" in (
            whole.explain_last_update()
        )
        for handle in whole.circuit.gates()[-2:]:
            whole.remove_gate(handle)
        whole.update_state()
        assert ", 2 removed, 0 retuned" in whole.explain_last_update()
        modifies = [r for r in whole.telemetry.tracer.spans() if r.name == "modify"]
        assert [(r.attrs["inserted"], r.attrs["removed"], r.attrs["retuned"])
                for r in modifies] == [(9, 0, 0), (0, 0, 2), (0, 2, 0)]
        whole.update_state()  # nothing to wire, nothing to count: no span
        assert len([r for r in whole.telemetry.tracer.spans()
                    if r.name == "modify"]) == 3
    with build(stepwise=True) as stepwise:
        spans = stepwise.telemetry.tracer.spans()
        updates = {r.span_id for r in spans if r.name == "update"}
        modifies = [r for r in spans if r.name == "modify"]
        # the four later H gates each re-file the wired matvec stage, whose
        # layout a new member changes
        assert [r.attrs["stages"] for r in modifies] == [1] * 9
        assert all(r.attrs["inserted"] == 1 for r in modifies)
        assert {r.parent_id for r in modifies} == updates
    session = QTask(3, num_workers=1, tracing=True)
    session.insert_gate("x", session.insert_net(), 0)
    session.close()
    assert session.telemetry.tracer.spans() == []


def test_service_spans_attribute_a_cold_and_a_warm_job():
    """A cold job parses, pins and builds; a warm one only pins: one
    ``qasm.parse`` (at submission), one top-level ``service.queue_wait``
    per job ending before its ``job.run``, two ``service.lease`` under
    their ``job.run``, one ``service.build`` under the cold lease."""
    from repro.service import Backend

    text = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
    with Backend({"max_concurrent_jobs": 1}, num_workers=1, tracing=True) as be:
        cold = be.run(text, shots=8, seed=1).result(timeout=60)
        warm = be.run(text, shots=8, seed=2).result(timeout=60)
        spans = be.telemetry.tracer.spans()
    by_name = {}
    for r in spans:
        by_name.setdefault(r.name, []).append(r)
    (parse,) = by_name["qasm.parse"]
    (build,) = by_name["service.build"]
    jobs = by_name["job.run"]
    leases = by_name["service.lease"]
    assert len(jobs) == len(leases) == 2
    assert parse.parent_id is None
    assert parse.attrs == {"bytes": len(text.encode()), "ops": 3}
    assert [r.parent_id for r in leases] == [r.span_id for r in jobs]
    assert [r.attrs for r in leases] == [
        {"key": cold.key, "hit": False}, {"key": warm.key, "hit": True},
    ]
    assert build.parent_id == leases[0].span_id
    assert build.attrs == {"key": cold.key}
    waits = by_name["service.queue_wait"]
    assert [r.attrs for r in waits] == [{"job": cold.job_id}, {"job": warm.job_id}]
    for wait, job, result in zip(waits, jobs, (cold, warm)):
        assert wait.parent_id is None
        assert wait.duration == result.queue_seconds
        assert wait.start + wait.duration <= job.start


def test_forked_sessions_keep_their_own_tagged_registry():
    # plan.* counters belong to the plan pipeline: pin a backend that has one
    parent = QTask(5, num_workers=2)
    net = parent.insert_net()
    for q in parent.qubits():
        parent.insert_gate("h", net, q)
    parent.update_state()
    child = parent.fork()
    try:
        base_plans = parent.simulator.statistics()["plans_built"]
        cnet = child.insert_net()
        child.insert_gate("x", cnet, 0)
        child.update_state()
        ctel = child.simulator.telemetry
        ptel = parent.simulator.telemetry
        assert ctel.session_id != ptel.session_id
        assert ctel.parent_session_id == ptel.session_id
        assert ctel.metrics.session_id == ctel.session_id
        # the child's work landed in the child's registry, not the parent's
        assert ctel.metrics.get("plan.plans_built").value >= 1
        assert parent.simulator.statistics()["plans_built"] == base_plans
    finally:
        child.close()
        parent.close()


def test_sweep_runner_merges_fleet_metrics():
    from repro.parallel.sweep import SweepRunner

    # counts plan.updates_planned: pin a backend with a plan pipeline
    ckt = QTask(5, num_workers=2)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    theta = ckt.insert_net()
    handle = ckt.insert_gate("rz", theta, 0, params=[0.1])
    ckt.update_state()

    with SweepRunner(ckt, [handle], observable="Z" * 5) as runner:
        results = runner.run([(0.2,), (0.4,), (0.6,), (0.8,)])
        assert len(results) == 4
        merged = runner.merged_metrics()
        base = ckt.simulator.telemetry.metrics
        assert merged.session_id == base.session_id
        child, _ = runner._fork
        fork_updates = child.simulator.telemetry.metrics.get(
            "plan.updates_planned"
        ).value
        assert fork_updates == 4  # one update per point, all on the one fork
        assert merged.counter("plan.updates_planned").value == (
            base.counter("plan.updates_planned").value + fork_updates
        )
        # merging is a pure read: live registries are untouched
        assert base.counter("plan.updates_planned").value < (
            merged.counter("plan.updates_planned").value
        )
    ckt.close()


def test_run_shots_records_one_shot_span_per_executed_trajectory(tmp_path):
    """A ``shot`` span is a simulated outcome path, not a requested shot;
    the walk's fork, its pruning and its close are one span each."""
    with QTask(3, num_clbits=2, block_size=2, num_workers=2, tracing=True) as ckt:
        n1, n2, n3, n4 = (ckt.insert_net() for _ in range(4))
        ckt.insert_gate("h", n1, 0)
        ckt.insert_gate("h", n1, 1)
        first = ckt.measure(n2, 0, 0).gate.op_index
        ckt.c_if("x", n3, 2, condition=((0,), 1))  # q2 is never measured
        ckt.measure(n4, 1, 1)
        counts = ckt.run_shots(40, seed=3)
        assert sum(counts.values()) == 40 and len(counts) == 4

        spans = ckt.telemetry.tracer.spans()
        by_name = {name: [r for r in spans if r.name == name]
                   for name in ("fork", "shots.prune", "fork.close", "shot")}
        (fork,), (prune,), (close,) = (
            by_name[name] for name in ("fork", "shots.prune", "fork.close"))
        assert fork.attrs["stages"] == ckt.simulator.graph.num_stages()
        assert fork.attrs["blocks"] > 0
        assert prune.attrs == {"gates": 1}  # the correction on q2
        shot_spans = by_name["shot"]
        assert fork.start < prune.start < shot_spans[0].start
        assert close.start > shot_spans[-1].start
        metrics = ckt.telemetry.metrics
        assert metrics.get("shots.requested").value == 40
        assert metrics.get("shots.trajectories").value == len(shot_spans)
        # one fork, two outcome paths of the first measurement: one update
        # per path, not per shot; a different last draw is a tally
        assert len(shot_spans) == 2
        assert sum(r.attrs["shots"] + r.attrs["tallied"] for r in shot_spans) == 40
        for r in shot_spans:
            assert set(r.attrs) == {"shot", "from_op", "shots", "tallied"}
            assert r.attrs["shots"] >= 1
        assert sum(r.attrs["tallied"] for r in shot_spans) > 0
        # the fork starts one path from scratch and branches into the other
        assert shot_spans[0].attrs["shot"] == 0
        assert [r.attrs["from_op"] for r in shot_spans] == [None, first]

        text = metrics.prometheus_text()
        assert re.search(r"^qtask_shots_requested\{[^}]*\} 40$", text, re.M)
        assert re.search(
            rf"^qtask_shots_trajectories\{{[^}}]*\}} {len(shot_spans)}$", text, re.M
        )
        path = str(tmp_path / "shots.json")
        ckt.export_trace(path)
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        assert sum(e["name"] == "shot" for e in events) == len(shot_spans)
        # sharing outcome prefixes changes no histogram (what CI's "Shots
        # share their outcome prefix" step scripted): every shot replayed
        # from scratch on a fork tallies the same
        assert counts == replay_shots(ckt, 40, 3)


def test_engine_queries_record_one_observe_span_each():
    """Every observables query is one ``observe`` span saying what it read."""
    with QTask(6, block_size=4, num_workers=1, tracing=True) as ckt:
        net = ckt.insert_net()
        for q in ckt.qubits():
            ckt.insert_gate("h", net, q)
        angle = ckt.insert_gate("p", ckt.insert_net(), 5, params=[0.4])
        ckt.update_state()
        n_blocks = ckt.simulator.n_blocks
        observable = "ZZIIII"
        tracer = ckt.telemetry.tracer

        def observe_spans():
            return [r for r in tracer.spans() if r.name == "observe"]

        ckt.expectation(observable)               # everything missing
        ckt.expectation(observable)               # everything cached
        ckt.update_gate(angle, 1.3)               # a phase on the top qubit ...
        ckt.update_state()                        # ... rewrites the upper half
        ckt.expectation(observable)
        ckt.counts(16, seed=2)
        ckt.marginal_probabilities((0, 5))
        spans = observe_spans()
        assert [r.attrs["query"] for r in spans] == [
            "expectation", "expectation", "expectation",
            "sample", "marginal_probabilities",
        ]
        for r in spans:
            assert set(r.attrs) == {
                "query", "terms", "blocks_missing", "blocks_gathered",
            }
        full, cached, half, sample, marginal = (r.attrs for r in spans)
        assert (full["terms"], full["blocks_missing"], full["blocks_gathered"]) == (
            1, n_blocks, n_blocks
        )
        assert (cached["blocks_missing"], cached["blocks_gathered"]) == (0, 0)
        assert half["blocks_missing"] == half["blocks_gathered"] == n_blocks // 2
        # the block masses (the identity term's partials) read every block,
        # the draws a few more
        assert sample["blocks_missing"] == n_blocks
        assert n_blocks < sample["blocks_gathered"] <= 2 * n_blocks
        assert marginal["blocks_gathered"] == n_blocks

        counters = ckt.telemetry_report()["counters"]
        # ZZ on every block, then on the dirty half; the sample's masses
        # are the identity term's partials, one per block
        assert counters["observe.partials_computed"] == (
            n_blocks + n_blocks // 2 + n_blocks
        )
        assert counters["observe.blocks_gathered"] == sum(
            r.attrs["blocks_gathered"] for r in spans
        )
        text = ckt.telemetry.metrics.prometheus_text()
        assert re.search(
            rf"^qtask_observe_partials_computed\{{[^}}]*\}} {n_blocks * 5 // 2}$",
            text, re.M,
        )
        assert "qtask_observe_blocks_gathered" in text

        # a many-term observable still reads each dirty block once, for all
        # of its terms, and lands on the dense evaluation of state() (what
        # CI's "Slab observables" step scripted)
        maxcut = maxcut_hamiltonian([(q, (q + 1) % 6) for q in range(6)])
        ckt.expectation(maxcut)
        ckt.update_gate(angle, 0.5)
        ckt.update_state()
        got = ckt.expectation(maxcut)
        assert abs(got - dense_expectation(ckt.state(), maxcut)) < 1e-10
        first, retuned = (r.attrs for r in observe_spans()[-2:])
        assert first["terms"] == retuned["terms"] == len(maxcut.terms) > 1
        assert first["blocks_gathered"] == n_blocks
        assert retuned["blocks_missing"] == retuned["blocks_gathered"] == n_blocks // 2
