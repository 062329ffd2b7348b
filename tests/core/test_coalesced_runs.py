"""Coalesced runs: a swept run of static stages executes as one composed
slab, only the last declarer of each block publishes, and a run is
recomputed whole or not at all.

The property half lives in ``test_writer_index.py`` (sweep == the widened
oracle, state == dense, held blocks == prefix states, run records consistent,
after every completed update of a random session).  Here is one named case
per way the scoping rule or the publish rule can go wrong -- each fails under
the hand mutation its docstring names, and where the mutation's consequence is
a wrong state or a broken invariant the test checks that (``assert_computed``)
*before* it checks the bookkeeping that explains it -- plus what the update
reports about coalescing and the two 12q / 10q QFT checks CI used to run as
inline scripts.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import QTask
from repro.baselines import QulacsLikeSimulator
from repro.circuits import build_levels
from repro.core import faults
from repro.core.blocks import MAX_RUN_QUBITS, MAX_RUN_STAGES
from repro.core.classical import OutcomeRecord
from repro.core.exceptions import CheckpointError
from repro.core.faults import FaultPlan
from repro.core.compose import composed_runs

from ..conftest import (
    FrontierOracle,
    assert_held_blocks_are_prefix_states,
    assert_held_blocks_declared,
    assert_runs_are_consistent,
    dense_state,
    failing_update,
    swept_nodes,
)
from ..machine import update_and_check_planned_sources
from .test_snapshot import _rewrite_header


def built(levels, num_qubits=5, **knobs):
    """A session with ``levels`` (lists of ``(name, qubits, params)``), one
    net each, inserted and -- unless a level is ``"update"`` -- not yet run."""
    knobs.setdefault("block_size", 2)
    knobs.setdefault("num_workers", 1)
    session = QTask(num_qubits, **knobs)
    handles = []
    for level in levels:
        if level == "update":
            session.update_state()
            continue
        net = session.insert_net()
        for name, qubits, params in level:
            handles.append(session.insert_gate(name, net, *qubits, params=params))
    return session, handles


def hadamards(n=5):
    return [("h", (q,), ()) for q in range(n)]


def run_lengths(session):
    return [len(run.members) for run in session.simulator.graph.runs()]


def affected_stages(session):
    return sorted({seq for seq, _, _ in swept_nodes(session)})


def assert_computed(session):
    """Everything a completed update has to leave behind."""
    assert not session.simulator.graph.has_pending
    np.testing.assert_allclose(session.state(), dense_state(session), atol=1e-10)
    assert_held_blocks_declared(session)
    assert_held_blocks_are_prefix_states(session)
    assert_runs_are_consistent(session)


#: four diagonal / permutation stages behind one superposition stage: the
#: first update runs stages 1-4 as one run
RUN_OF_FOUR = [
    hadamards(),
    [("rz", (0,), [0.3])],
    [("cx", (1, 3), ())],
    [("cp", (2, 4), [0.7])],
    [("rz", (4,), [1.1])],
]


# ---------------------------------------------------------------------------
# the scoping rule: a run is recomputed whole or not at all
# ---------------------------------------------------------------------------


def test_removing_the_last_stage_recomputes_the_run_it_was_the_tail_of():
    """Mutation: skip the dissolve when the removed stage is the circuit's
    last -> the run-mates keep holding nothing and the final state is stale."""
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        assert run_lengths(session) == [4]
        tail = session.simulator.graph.stages[-1]
        assert set(tail.store.stored_blocks()) == set(range(16))  # rz: every block
        oracle = FrontierOracle(session)
        session.remove_gate(handles[-1])
        pending = run_lengths(session), affected_stages(session)
        swept, expected = swept_nodes(session), oracle.expected()
        session.update_state()
        assert_computed(session)
        assert pending == ([], [1, 2, 3]) and swept == expected
        assert run_lengths(session) == [3]


def test_insert_inside_a_run_widens_and_insert_next_to_it_does_not():
    """Mutation: dissolve on any insert touching a run -> the adjacent
    inserts below affect the whole run instead of the new stage alone."""
    session, handles = built(RUN_OF_FOUR + [hadamards(1)])
    with session:
        session.update_state()
        graph = session.simulator.graph
        assert run_lengths(session) == [5]  # the H stage closes the run
        nets = session.nets()
        oracle = FrontierOracle(session)

        # right behind the tail (its own net): the run stays one unit, only
        # the new stage runs
        session.insert_gate("z", session.insert_net(nets[5]), 3)
        assert run_lengths(session) == [5]
        assert affected_stages(session) == [6]
        assert swept_nodes(session) == oracle.expected()
        report = session.update_state()
        assert report.affected_partitions == len(graph.stage_nodes(graph.stages[6]))
        assert_computed(session)
        oracle.expected()

        # right before the head, on blocks the run declares: the new stage
        # is not *in* the run, but its dirt reaches it -- whole -- and it
        # joins the run it opens; the z behind the tail runs alone
        session.insert_gate("z", session.insert_net(nets[0]), 2)
        assert run_lengths(session) == [5]
        assert affected_stages(session) == [1, 2, 3, 4, 5, 6, 7]
        assert swept_nodes(session) == oracle.expected()
        session.update_state()
        assert_computed(session)
        assert run_lengths(session) == [6]
        oracle.expected()

        # strictly between two members: the record dissolves, every member
        # recomputes whatever the new stage's blocks are
        session.insert_gate("cz", session.insert_net(session.nets()[3]), 3, 4)
        assert run_lengths(session) == []
        assert affected_stages(session) == [1, 2, 3, 4, 5, 6, 7, 8]
        assert swept_nodes(session) == oracle.expected()
        session.update_state()
        assert_computed(session)
        assert run_lengths(session) == [7]


def test_retuning_one_member_recomputes_the_run():
    """Mutation: ``touch_stage`` marks the retuned stage instead of the run's
    union cover at its head -> the sweep starts inside the run, and the
    retuned member reads an input its predecessor never published."""
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        oracle = FrontierOracle(session)
        (record,) = session.simulator.graph.runs()
        session.update_gate(handles[-2], 1.9)  # cp(2,4): third member of four
        pending = run_lengths(session), affected_stages(session)
        swept, expected = swept_nodes(session), oracle.expected()
        report = session.update_state()
        assert_computed(session)
        # the retune keeps the record: the run is re-planned whole from it
        assert pending == ([4], [1, 2, 3, 4]) and swept == expected
        graph = session.simulator.graph  # all but the H stage's partition
        assert report.affected_partitions == graph.num_nodes() - 1
        assert graph.runs() == [record]


def test_dirt_that_misses_the_head_still_reaches_the_run():
    """Mutation: the sweep tests the head's cover instead of the union cover.

    ``swap(3,4)`` declares blocks 4-11 and ``cx(3,4)`` one partition over
    4-15: as a run the swap keeps nothing (the cx declares its blocks last).
    Dirt on 12-15 misses the swap but hits the cx's partition, whose other
    blocks 4-11 are clean -- recomputing the cx alone would read them from
    whoever held them before the swap.
    """
    # (q3 and q4 start out different: the swap has to matter)
    first = hadamards(3) + [("ry", (3,), [0.4]), ("ry", (4,), [1.2])]
    session, handles = built(
        [first, [("cp", (3, 4), [0.4])], "update",
         [("swap", (3, 4), ())], [("cx", (3, 4), ())]],
    )
    with session:
        session.update_state()
        graph = session.simulator.graph
        source, swap, cx = graph.stages[1:]
        assert [run.members for run in graph.runs()] == [(swap, cx)]
        assert swap.store.stored_blocks() == ()
        assert set(cx.store.stored_blocks()) == set(range(4, 16))
        oracle = FrontierOracle(session)
        session.update_gate(handles[5], 2.2)  # the cp: blocks 12-15 only
        layout = graph._layouts
        assert layout[source.uid].cover & layout[swap.uid].cover == 0
        affected, swept, expected = (
            affected_stages(session), swept_nodes(session), oracle.expected()
        )
        session.update_state()
        assert_computed(session)
        assert affected == [1, 2, 3] and swept == expected
        assert run_lengths(session) == [3]


def test_failed_update_keeps_the_old_run_record_and_its_dirt(no_plan):
    """Mutation: record the runs before executing -> after the failure the
    graph believes in a run that never published."""
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        graph = session.simulator.graph
        old = [run.members for run in graph.runs()]
        assert [len(members) for members in old] == [4]
        oracle = FrontierOracle(session)
        session.insert_gate("z", session.insert_net(session.nets()[0]), 2)
        pending = swept_nodes(session)
        assert len(affected_stages(session)) == 5 and pending == oracle.expected()
        # every publish fails: all four update attempts raise mid-run
        failing_update(session, FaultPlan(probabilities={"cow.publish": 1.0}))
        assert [run.members for run in graph.runs()] == old
        assert graph.has_pending and swept_nodes(session) == pending
        session.update_state()
        assert_computed(session)
        assert run_lengths(session) == [5]


def test_fork_inherits_the_run_records_on_both_sides():
    """Mutation: ``mirror_from`` does not translate the records -> an edit
    inside an inherited run recomputes one member from a store that holds
    nothing."""
    parent, handles = built(RUN_OF_FOUR)
    with parent:
        parent.update_state()
        with parent.fork() as child:
            inherited = run_lengths(child)
            child.update_gate(child.simulator.forked_gate_map[handles[-2].uid], 0.1)
            retuned = run_lengths(child), run_lengths(parent)
            child.update_state()
            assert_computed(child)
            # (a retune keeps the record it lands in)
            assert inherited == [4] and retuned == ([4], [4])
            assert child.simulator.graph.runs()[0].members == tuple(
                child.simulator.graph.stages[1:]
            )
            parent.remove_gate(handles[6])  # the cx: second member
            assert run_lengths(parent) == [] and run_lengths(child) == [4]
            parent.update_state()
            assert_computed(parent)
            assert_computed(child)


def test_checkpoint_carries_the_run_records(tmp_path):
    """Mutation: the header does not list the runs -> a restored session
    edits inside a former run as if every member held its blocks.  Members
    holding nothing restore holding nothing, one publish per stage."""
    path = str(tmp_path / "runs.ckpt")
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.checkpoint(path)
        assert run_lengths(session) == [4]
        held = [stage.store.held for stage in session.simulator.graph.stages]
        state = session.state().copy()
    with QTask.restore(path, num_workers=1) as restored:
        assert [s.store.held for s in restored.simulator.graph.stages] == held
        assert held.count(0) == 3 and np.array_equal(restored.state(), state)
        carried = run_lengths(restored)
        tuned = [h for net in restored.nets() for h in net.gates][-2]
        restored.update_gate(tuned, 2.5)  # the cp: third member of four
        affected = affected_stages(restored)
        restored.update_state()
        assert_computed(restored)
        assert carried == [4] and affected == [1, 2, 3, 4]
    # a run table that does not fit the stage list is a corrupt file
    _rewrite_header(path, lambda header: header.update(runs=[[3, 40]]))
    with pytest.raises(CheckpointError, match="run table"):
        QTask.restore(path, num_workers=1)


def test_a_run_table_adopts_only_runs_an_update_could_form(tmp_path):
    """A record is executed whole as its own plan, so a well-formed span an
    update could not have formed is a corrupt file, not a restore that fails
    at the first edit.  Mutation: ``adopt_runs`` checks only the span's shape
    -> each case below restores, and the first edit raises or goes wrong."""

    def rejected(levels, runs, num_qubits=5, measure=None):
        path = str(tmp_path / "table.ckpt")
        session, _ = built(levels, num_qubits=num_qubits, num_clbits=1)
        with session:
            if measure is not None:
                session.measure(session.insert_net(session.nets()[measure]), 0, 0)
            session.update_state()
            session.checkpoint(path)
        _rewrite_header(path, lambda header: header.update(runs=runs))
        with pytest.raises(CheckpointError, match="run table"):
            QTask.restore(path, num_workers=1)

    rejected(RUN_OF_FOUR, [[0, 2]])  # the superposition (matvec) stage
    rejected(RUN_OF_FOUR, [[1, 4], [3, 2]])  # overlapping spans
    rejected(RUN_OF_FOUR, [[1, 2], [3, 2]])  # a split: members lack what they own
    # the rz, measure, rz: a collapse in a run starting before it
    rejected(RUN_OF_FOUR[:2] + [[("rz", (4,), [0.2])]], [[1, 3]], measure=1)
    # the caps: one stage over MAX_RUN_STAGES, one qubit over MAX_RUN_QUBITS
    tall = [[("rz", (s % 5,), [0.1 * s])] for s in range(MAX_RUN_STAGES + 1)]
    rejected([hadamards()] + tall, [[1, MAX_RUN_STAGES + 1]])
    wide = [[("rz", (q,), [0.1 * q])] for q in range(MAX_RUN_QUBITS + 1)]
    rejected(
        [hadamards(MAX_RUN_QUBITS + 1)] + wide, [[1, MAX_RUN_QUBITS + 1]],
        num_qubits=MAX_RUN_QUBITS + 1,
    )

    # stages that ran alone hold every block they declare: a run over them
    # is taken, and its members drop the copies a later member owns
    # (mutation: no ``keep_only`` -> the held blocks are not the owned ones)
    path = str(tmp_path / "merged.ckpt")
    levels = [level for stage in RUN_OF_FOUR for level in (stage, "update")]
    session, _ = built(levels)
    with session:
        session.checkpoint(path)
    _rewrite_header(path, lambda header: header.update(runs=[[1, 4]]))
    with QTask.restore(path, num_workers=1) as restored:
        assert run_lengths(restored) == [4]
        assert_runs_are_consistent(restored)
        tuned = [h for net in restored.nets() for h in net.gates][-2]
        restored.update_gate(tuned, 2.5)
        restored.update_state()
        assert_computed(restored)
        assert reused(restored) == (1, 1)


def test_checkpoint_without_a_run_table_restores_and_edits(tmp_path):
    """A file from before there were runs: every stage holds every block it
    declares, no key in the header, and that means no runs."""
    path = str(tmp_path / "old.ckpt")
    # one update per stage: nothing coalesces, every declarer holds its blocks
    levels = [level for stage in RUN_OF_FOUR for level in (stage, "update")]
    session, _ = built(levels)
    with session:
        assert run_lengths(session) == []
        session.checkpoint(path)
    _rewrite_header(path, lambda header: header.pop("runs"))
    with QTask.restore(path, num_workers=1) as restored:
        assert run_lengths(restored) == []
        assert_computed(restored)
        tuned = [h for net in restored.nets() for h in net.gates][-2]
        restored.update_gate(tuned, 2.5)
        assert affected_stages(restored) == [3, 4]  # the paper's cone, no wider
        restored.update_state()
        assert_computed(restored)
        # (the rz behind the cp was swept in part: nothing to coalesce)
        assert run_lengths(restored) == []


# ---------------------------------------------------------------------------
# the publish rule: only the last declarer of a block holds it
# ---------------------------------------------------------------------------


def test_older_interior_copies_are_dropped_when_stages_join_a_run():
    """Mutation: skip ``RoutedStore.settle`` -> stages that ran alone before
    keep their old copies, which are no prefix state of the new circuit."""
    levels = [level for stage in RUN_OF_FOUR for level in (stage, "update")]
    session, handles = built(levels)
    with session:
        stages = session.simulator.graph.stages
        assert run_lengths(session) == []
        assert all(stage.store.num_stored_blocks for stage in stages)
        before = session.memory_report().allocated_bytes
        session.update_gate(handles[5], 2.0)  # the first rz: everything behind it
        session.update_state()
        assert_computed(session)
        assert run_lengths(session) == [4]
        # rz(4) declares every block last: the three before it hold nothing
        assert [s.store.num_stored_blocks for s in stages] == [16, 0, 0, 0, 16]
        assert session.memory_report().allocated_bytes < before


def test_each_block_goes_to_its_last_declarer_not_to_the_tail():
    """Mutation: route every block to the run's tail -> the tail holds blocks
    it never declared (``held <= declared`` is what reads rest on)."""
    session, _ = built(
        [hadamards(), [("rz", (0,), [0.3])], [("cx", (1, 3), ())],
         [("cp", (3, 4), [0.7])]],
    )
    with session:
        session.update_state()
        assert_held_blocks_declared(session)
        assert_computed(session)
        graph = session.simulator.graph
        rz, cx, cp = graph.stages[1:]
        assert run_lengths(session) == [3]
        declared = [
            {b for node in graph.partition_nodes(stage) for b in node.block_range}
            for stage in (rz, cx, cp)
        ]
        assert declared[2] == {12, 13, 14, 15} and declared[0] == set(range(16))
        # the tail keeps what it declares, the cx what the tail does not
        # declare too, the rz the rest: every block held exactly once
        assert set(cp.store.stored_blocks()) == declared[2]
        assert set(cx.store.stored_blocks()) == declared[1] - declared[2]
        assert set(rz.store.stored_blocks()) == declared[0] - declared[1] - declared[2]
        assert cx.store.stored_blocks() and rz.store.stored_blocks()


def test_a_run_is_cut_at_the_member_and_qubit_caps():
    """The two constants bound what one composed table has to hold."""
    n = MAX_RUN_QUBITS + 1
    levels = [hadamards(n)] + [
        [("rz", (q % 3,), [0.01 * (q + 1)])] for q in range(MAX_RUN_STAGES + 6)
    ] + [[("cz", (q, q + 1), ())] for q in range(n - 1)]
    session, _ = built(levels, num_qubits=n, block_size=256)
    with session:
        session.update_state()
        runs = session.simulator.graph.runs()
        # the member cap cuts the rz stages; the last cz would be the 13th
        # qubit of the second run and runs alone
        assert [len(run.members) for run in runs] == [MAX_RUN_STAGES, 6 + n - 2]
        for run in runs:
            qubits = {q for stage in run.members for q in stage.qubits}
            assert len(qubits) <= MAX_RUN_QUBITS
        assert session.statistics()["stages_coalesced"] == len(levels) - 2
        probs = session.probabilities()
        assert probs == pytest.approx(np.full(1 << n, 1 / (1 << n)), abs=1e-12)


# ---------------------------------------------------------------------------
# what an update says about it, and the QFT checks CI used to script
# ---------------------------------------------------------------------------


def qft_session(num_qubits, **knobs):
    """A QFT inserted level by level, not updated; blocks of 256 (the counts
    asserted below are facts of that geometry, not of the default rule)."""
    n, levels = build_levels("qft", num_qubits=num_qubits)
    session = QTask(n, num_workers=1, block_size=256, **knobs)
    nets, handles = [], []
    for level in levels:
        nets.append(session.insert_net())
        handles.append([session.insert_gate(g, nets[-1]) for g in level])
    return session, levels, nets, handles


def test_span_counter_and_explanation_agree_on_what_was_coalesced(no_plan):
    """12q QFT: 348 of 361 stages sit in 13 runs between the 13 H stages,
    and each H stage but the first closes the run before it: 14 plans (26
    before runs closed), each one pass over the state, each publishing
    only to its last member."""
    session, *_ = qft_session(12, tracing=True)
    with session:
        report = session.update_state()
        stats = session.statistics()
        spans = session.telemetry.tracer.spans()
        (span,) = [r.attrs for r in spans if r.name == "plan.build"]
        (update,) = [r.attrs for r in spans if r.name == "update"]
        runs = session.simulator.graph.runs()
        largest = max(len(run.members) for run in runs)
        widest = max(len(run.qubits) for run in runs)  # (a tail's not counted)
        assert (stats["num_stages"], stats["stages_coalesced"], len(runs)) == (
            361, 360, 13
        )
        assert (span["coalesced_stages"], span["runs"], span["stages"]) == (360, 13, 14)
        assert stats["plans_built"] == stats["plan_chunks"] == 14
        assert session.plan_report().stages_coalesced == 360
        assert session.telemetry.metrics.get("plan.stages_coalesced").value == 360
        assert (largest, widest) == (53, 12)
        assert sum(run.tail is not None for run in runs) == 12
        assert (stats["sweeps"], stats["amps_swept"]) == (14, 14 * 4096)
        assert (update["sweeps"], update["amps_swept"]) == (14, 14 * 4096)
        assert session.memory_report().stored_blocks == 14 * 16
        # how many of the 13 were composed now depends on what this process
        # planned before; the span and the explanation count the same lookups
        assert 0 <= span["runs_recomposed"] <= 13
        explained = session.explain_last_update()
        assert (
            f"coalesced 360 stages (0 collapses) into 13 runs (0 reused,"
            f" {span['runs_recomposed']} recomposed by {span['gathers']} gathers,"
            f" largest {largest},"
            f" union <= {widest} qubits), 12 closed by a superposition stage"
        ) in explained
        assert "swept 57344 amplitudes, 14 passes over the state" in explained
        # member partitions are still what "affected" counts; block writes
        # are what was published: each run's union cover, once
        assert report.affected_partitions == report.total_partitions == 2201
        assert report.executed_block_writes == 16 + sum(
            bin(run.cover).count("1") for run in runs
        ) == 14 * 16


def test_qft_sweep_is_the_widened_oracle_and_stays_partial():
    """The stage covers are the partition graph: a 12q QFT built gate by gate
    has 2201 nodes, all affected on the first update; one mid-circuit remove
    + re-insert sweeps exactly what the from-scratch closest-writer closure,
    widened to the recorded runs it meets, reaches -- fewer than all."""
    session, levels, nets, handles = qft_session(12)
    with session:
        report, stats = session.update_state(), session.statistics()
        assert (
            report.affected_partitions, report.total_partitions, stats["num_nodes"]
        ) == (2201, 2201, 2201)
        oracle, mid = FrontierOracle(session), len(levels) // 2
        for handle in handles[mid]:
            session.remove_gate(handle)
        session.insert_gate(levels[mid][0], nets[mid])
        swept = swept_nodes(session)
        assert swept == oracle.expected() and 0 < len(swept) < 2201
        assert session.update_state().affected_partitions == len(swept)
        assert_runs_are_consistent(session)
        dense = QulacsLikeSimulator(session.circuit, num_workers=1)
        dense.update_state()
        np.testing.assert_allclose(session.state(), dense.state(), atol=1e-10)


def test_numpy_backend_batches_every_run_of_a_qft(no_plan):
    """No quiet per-run path: composed tables are ordinary slab work."""
    session, *_ = qft_session(10)
    with session:
        session.update_state()
        stats = session.statistics()
        assert stats["runs_batched"] > 0 and stats["stages_coalesced"] > 0
        assert stats["backend_fallbacks"] == 0


# ---------------------------------------------------------------------------
# a run record is its own plan: reused where the greedy pass would form it
# ---------------------------------------------------------------------------


def reused(session):
    """``(runs, reused)`` of the last update, as the session explains it."""
    found = re.search(
        r"into (\d+) runs(?: \((\d+) reused)?", session.explain_last_update()
    )
    return int(found.group(1)), int(found.group(2) or 0)


def run_spans(session):
    return [(run.members[0].seq, len(run.members)) for run in session.simulator.graph.runs()]


def test_removing_a_gate_regroups_only_its_record():
    """(a) Every other record the dirt reaches is emitted as it is (the same
    object), and the records equal a fresh session's."""
    session, levels, nets, handles = qft_session(8)
    with session:
        session.update_state()
        graph = session.simulator.graph
        records = graph.runs()
        oracle = FrontierOracle(session)
        first = records[0]
        stage = first.members[len(first.members) // 2]
        (handle,) = [
            h for level in handles for h in level
            if session.simulator.stages.stage_of(h) is stage
        ]
        session.remove_gate(handle)
        update_and_check_planned_sources(session, oracle)
        assert_computed(session)
        assert reused(session) == (len(records), len(records) - 1)
        assert graph.runs()[1:] == records[1:]
        fresh = QTask(session.num_qubits, num_workers=1)
        with fresh:
            for net in session.nets():
                fresh_net = fresh.insert_net()
                for h in net.gates:
                    fresh.insert_gate(h.gate, fresh_net)
            fresh.update_state()
            assert run_spans(fresh) == run_spans(session)


def test_a_stage_the_open_group_takes_in_expands_the_record():
    """(b) Mutation: emit a record whole whatever group is open before its
    head -> the new stage plans alone, the update's runs are not the rule's."""
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        (record,) = session.simulator.graph.runs()
        oracle = FrontierOracle(session)
        # a diagonal right before the head, swept whole: it opens the group
        session.insert_gate("z", session.insert_net(session.nets()[0]), 1)
        plan = update_and_check_planned_sources(session, oracle)
        assert_computed(session)
        assert [len(sp.members) for sp in plan.stage_plans] == [5]
        assert reused(session) == (1, 0) and run_lengths(session) == [5]
        assert session.simulator.graph.runs() != [record]


def test_a_follower_that_would_join_expands_the_record():
    """Mutation: emit a record whole whatever plan follows it -> a stage that
    ran alone behind the tail, swept whole now, is left out of the run."""
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        session.insert_gate("z", session.insert_net(session.nets()[4]), 3)
        session.update_state()  # the z alone: the dirt starts behind the run
        assert run_lengths(session) == [4]
        oracle = FrontierOracle(session)
        session.update_gate(handles[-2], 1.9)  # the cp
        plan = update_and_check_planned_sources(session, oracle)
        assert_computed(session)
        assert [len(sp.members) for sp in plan.stage_plans] == [5]
        assert reused(session) == (1, 0) and run_lengths(session) == [5]


def test_a_collapse_run_behind_the_new_first_dynamic_stage_expands():
    """Mutation: drop the collapse rule from the reuse test -> removing the
    ``c_if`` in front of a record makes its measure the first dynamic stage,
    but the record starting before it is emitted whole."""
    session = QTask(3, num_clbits=1, block_size=2, num_workers=1, seed=2)
    with session:
        net = session.insert_net()
        for q in range(3):
            session.insert_gate("h", net, q)
        c_if = session.c_if("x", session.insert_net(), 1, condition=((0,), 1))
        session.insert_gate("rz", session.insert_net(), 2, params=(0.3,))
        session.measure(session.insert_net(), 0, 0)
        session.insert_gate("cx", session.insert_net(), 1, 2)
        session.update_state()
        assert run_lengths(session) == [3]
        oracle = FrontierOracle(session)
        session.remove_gate(c_if)
        update_and_check_planned_sources(session, oracle)
        assert_computed(session)
        # the rz alone, then the measure and the cx
        assert run_spans(session) == [(2, 2)] and reused(session) == (1, 0)


def test_a_record_reused_after_a_failed_regroup_is_settled(no_plan):
    """Mutation: a reused record's stores are never settled -> the copy the
    failed update's other grouping published stays behind in a member that
    owns nothing of it."""
    session = QTask(3, num_clbits=1, block_size=2, num_workers=1, seed=2)
    with session:
        net = session.insert_net()
        for q in range(3):
            session.insert_gate("h", net, q)
        c_if = session.c_if("x", session.insert_net(), 1, condition=((0,), 1))
        session.insert_gate("rz", session.insert_net(), 2, params=(0.3,))
        session.measure(session.insert_net(), 0, 0)
        session.insert_gate("cx", session.insert_net(), 1, 2)
        session.update_state()
        (record,) = session.simulator.graph.runs()
        rz = record.members[0]
        assert rz.store.stored_blocks() == ()
        # the rz plans alone and publishes, then every later publish fails
        session.remove_gate(c_if)
        failing_update(session, FaultPlan(script=[("cow.publish", i) for i in range(2, 400)]))
        assert rz.store.stored_blocks() and session.simulator.graph.runs() == [record]
        # the c_if back in front: the record is emitted whole again
        session.c_if("x", session.insert_net(session.nets()[0]), 1, condition=((0,), 1))
        session.update_state()
        assert_computed(session)
        assert reused(session) == (1, 1) and rz.store.stored_blocks() == ()


def streams(session):
    """Every keyed stream's position: what a draw would move."""
    return {
        op: gen.bit_generator.state
        for op, gen in session.outcomes._streams.items()
    }


def collapse_record(seed=3, **knobs):
    """H on three qubits, then one run: measure q0, rz q1, cp(1, 2), rz q2."""
    session = QTask(3, num_clbits=1, block_size=2, num_workers=1, seed=seed, **knobs)
    net = session.insert_net()
    for q in range(3):
        session.insert_gate("h", net, q)
    session.measure(session.insert_net(), 0, 0)
    session.insert_gate("rz", session.insert_net(), 1, params=(0.4,))
    cp = session.insert_gate("cp", session.insert_net(), 1, 2, params=(0.7,))
    session.insert_gate("rz", session.insert_net(), 2, params=(0.9,))
    return session, cp


def test_a_retune_keeps_its_record_and_the_earlier_measure(monkeypatch):
    """(c) The retuned run is the same record, recomposed once, and the
    measure before the retuned member replays: same outcome, no new stream
    and no draw.  Mutation: ``touch_stage`` counts the head as edited -> the
    measure draws again."""
    composed_runs.clear()
    session, cp = collapse_record()
    with session:
        session.update_state()
        (record,) = session.simulator.graph.runs()
        assert len(record.members) == 4
        (op,) = [p[0] for p in session.simulator.collapse_path()]
        outcome, position = session.outcomes.outcome_of(op), streams(session)[op]
        keyed = []
        stream = OutcomeRecord.keyed_stream
        monkeypatch.setattr(
            OutcomeRecord, "keyed_stream",
            staticmethod(lambda s, k: keyed.append(k) or stream(s, k)),
        )
        session.update_gate(cp, 1.3)
        session.update_state()
        assert_computed(session)
        assert session.simulator.graph.runs() == [record]
        assert "(1 reused, 1 recomposed by " in session.explain_last_update()
        assert session.outcomes.outcome_of(op) == outcome and keyed == []
        assert streams(session)[op] == position


def test_forks_and_restored_sessions_reuse_their_records(tmp_path):
    """(d) A mirrored and an adopted record derive their plan parts on first
    reuse and land where the session they came from lands."""
    path = str(tmp_path / "record.qtckpt")
    session, cp = collapse_record()
    with session:
        session.update_state()
        session.checkpoint(path)
        with session.fork() as child:
            child.update_gate(child.simulator.forked_gate_map[cp.uid], 1.3)
            child.update_state()
            assert_computed(child)
            assert reused(child) == (1, 1)
            session.update_gate(cp, 1.3)
            session.update_state()
            np.testing.assert_array_equal(child.state(), session.state())
            assert child.simulator.collapse_path() == session.simulator.collapse_path()
        with QTask.restore(path, num_workers=1) as restored:
            tuned = [h for h in restored.circuit.gates() if h.gate.name == "cp"]
            restored.update_gate(tuned[0], 1.3)
            restored.update_state()
            assert_computed(restored)
            assert reused(restored) == (1, 1)
            np.testing.assert_allclose(restored.state(), session.state(), atol=1e-12)
            assert (
                restored.simulator.collapse_path() == session.simulator.collapse_path()
            )


@pytest.mark.parametrize("site", ["executor.task", "kernel.run", "cow.publish"])
def test_a_fault_inside_a_reused_run_leaves_the_record(site, no_plan):
    """(e) Recovery re-executes the reused run; state and record survive.
    ``executor.task`` names the deleted executor site, which a plan now
    rejects."""
    if site not in faults.FAULT_SITES:
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(script=[(site, 1)])
        return
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        (record,) = session.simulator.graph.runs()
        session.update_gate(handles[-2], 1.9)
        plan = FaultPlan(script=[(site, 1)])
        faults.install(plan)
        try:
            session.update_state()
        finally:
            faults.install(None)
        assert plan.total_injected() == 1
        assert_computed(session)
        assert session.simulator.graph.runs() == [record]
        assert reused(session) == (1, 1)
