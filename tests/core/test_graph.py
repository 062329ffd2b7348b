"""Tests for the partition graph: connections, modifiers, frontiers (§III.D/E).

Connections are the graph's derived view (``edges()``: closest-overlap pairs
derived from the stage covers); the affected set is the frontier sweep.
"""

import io

import pytest

from repro.core.blocks import BlockRange
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.graph import PartitionGraph
from repro.core.simulator import QTaskSimulator
from repro.core.stage import MatVecStage, UnitaryStage

from ..conftest import assert_states_close, declarers, plan_nodes, reference_state


def build_paper_simulator(block=4):
    """The Figure-2 circuit on 5 qubits with block size 4."""
    ckt = Circuit(5)
    sim = QTaskSimulator(ckt, block_size=block, num_workers=1)
    nets = [ckt.insert_net() for _ in range(5)]
    handles = {}
    for q in (4, 3, 2, 1, 0):
        ckt.insert_gate("h", nets[0], q)
    # Gate arguments are (control, target); the paper's G6 flips q3 when q4=1.
    handles["G6"] = ckt.insert_gate("cx", nets[1], 4, 3)
    handles["G7"] = ckt.insert_gate("cx", nets[2], 4, 1)
    handles["G8"] = ckt.insert_gate("cx", nets[3], 3, 2)
    handles["G9"] = ckt.insert_gate("cx", nets[4], 2, 0)
    return ckt, sim, nets, handles


def node_ranges(graph, stage):
    return sorted(
        (n.block_range.first, n.block_range.last) for n in graph.partition_nodes(stage)
    )


def stage_of(sim, handle):
    return sim.stages.stage_of(handle)


def preds_of(graph, node):
    return [pred for pred, succ in graph.edges() if succ == node]


def affected_nodes(sim):
    """The partitions (and sync barriers) the next update would re-simulate."""
    return plan_nodes(sim.graph, sim.graph.sweep())


# ---------------------------------------------------------------------------
# graph construction on the paper example (Figure 4 / Figure 12)
# ---------------------------------------------------------------------------


def test_paper_graph_node_counts():
    ckt, sim, nets, handles = build_paper_simulator()
    graph = sim.graph
    # 1 MxV partition (H on every qubit mixes every block; the paper draws 8
    # behind a sync) + 1 (G6) + 2 (G7) + 2 (G8) + 2 (G9) = 8 nodes
    assert len(graph.all_nodes()) == graph.num_nodes() == 8
    stats = graph.stats()
    assert stats.num_stages == 5
    assert stats.num_frontiers == 5   # nothing simulated yet: every stage dirty
    assert len(affected_nodes(sim)) == 8


def test_paper_graph_partition_ranges():
    ckt, sim, nets, handles = build_paper_simulator()
    graph = sim.graph
    assert node_ranges(graph, stage_of(sim, handles["G6"])) == [(4, 7)]
    assert node_ranges(graph, stage_of(sim, handles["G7"])) == [(4, 5), (6, 7)]
    assert node_ranges(graph, stage_of(sim, handles["G8"])) == [(2, 3), (6, 7)]
    assert node_ranges(graph, stage_of(sim, handles["G9"])) == [(1, 3), (5, 7)]


def test_paper_graph_mxv_stage_has_no_sync_barrier():
    """The paper's MxV partitions each read all blocks behind a sync node;
    here a partition reads its own windows, and with H on every qubit that
    is one partition over every block -- a subset of the paper's reads."""
    ckt, sim, nets, handles = build_paper_simulator()
    graph = sim.graph
    h_stage = graph.stages[0]
    assert isinstance(h_stage, MatVecStage)
    assert graph.sync_node(h_stage) is None
    (partition,) = graph.partition_nodes(h_stage)
    assert partition.block_range == BlockRange(0, 7)
    assert preds_of(graph, partition) == []


def test_paper_graph_g6_depends_on_upper_half_mxv_partitions():
    ckt, sim, nets, handles = build_paper_simulator()
    graph = sim.graph
    g6 = graph.partition_nodes(stage_of(sim, handles["G6"]))[0]
    # G6 covers blocks 4..7, whose closest writer is the MxV partition
    # spanning them
    (pred,) = preds_of(graph, g6)
    assert pred.stage is graph.stages[0]
    assert {4, 5, 6, 7} <= set(pred.block_range)


def test_paper_graph_g8_first_partition_successor_of_g6():
    ckt, sim, nets, handles = build_paper_simulator()
    graph = sim.graph
    g6 = graph.partition_nodes(stage_of(sim, handles["G6"]))[0]
    g8_parts = graph.partition_nodes(stage_of(sim, handles["G8"]))
    # the second G8 partition [6,7] overlaps G6's [4,7]... its closest writer
    # could be G7's [6,7]; the first G8 partition [2,3] must read MxV blocks
    g8_low = min(g8_parts, key=lambda p: p.block_range.first)
    assert all(pred.stage is graph.stages[0] for pred in preds_of(graph, g8_low))
    # ... and the second one reads what G7's [6,7] wrote, not G6's [4,7]
    g8_high = max(g8_parts, key=lambda p: p.block_range.first)
    g7_stage = stage_of(sim, handles["G7"])
    assert {pred.stage for pred in preds_of(graph, g8_high)} == {g7_stage}
    assert g6 not in preds_of(graph, g8_high)


def test_paper_graph_edges_always_point_forward():
    ckt, sim, nets, handles = build_paper_simulator()
    edges = sim.graph.edges()
    assert edges and len(edges) == len(set(edges)) == sim.graph.stats().num_edges
    for node, succ in edges:
        assert succ.stage.seq >= node.stage.seq
        assert (succ.stage is node.stage) == node.is_sync


def test_dump_graph_produces_dot():
    ckt, sim, nets, handles = build_paper_simulator()
    buf = io.StringIO()
    sim.dump_graph(buf)
    dot = buf.getvalue()
    assert dot.startswith("digraph")
    assert "->" in dot
    assert "MxV{" in dot and "sync" not in dot  # no collapse, no barrier


# ---------------------------------------------------------------------------
# circuit modifiers: removal and insertion (Figures 7-9)
# ---------------------------------------------------------------------------


def cx_stages(sim, handles):
    return [stage_of(sim, handles[name]) for name in ("G6", "G7", "G8", "G9")]


def test_remove_gate_reconnects_and_sets_frontier():
    ckt, sim, nets, handles = build_paper_simulator()
    sim.update_state()
    assert not sim.graph.has_pending and sim.graph.stats().num_frontiers == 0
    # G6-G9 are consecutive permutation stages: the update ran them as one
    # coalesced run, and that is on record
    g6_stage, g7_stage, g8_stage, g9_stage = cx_stages(sim, handles)
    (run,) = sim.graph.runs()
    assert run.members == (g6_stage, g7_stage, g8_stage, g9_stage)

    (g6,) = sim.graph.partition_nodes(g6_stage)
    g7_low, g7_high = sim.graph.partition_nodes(g7_stage)
    g8_high = sim.graph.partition_nodes(g8_stage)[1]
    g9_low, g9_high = sim.graph.partition_nodes(g9_stage)
    # G9's [5,7] reads block 5 from G7's [4,5] and blocks 6-7 from G8's [6,7]
    assert set(preds_of(sim.graph, g9_high)) == {g7_low, g8_high}
    ckt.remove_gate(handles["G8"])

    # the paper's frontier = successors of the removed partitions (G9
    # partitions here) ...
    affected = affected_nodes(sim)
    assert sim.graph.has_pending and {g9_low, g9_high} <= set(affected)
    # ... widened to the run the removal landed in, exactly: G8 held what
    # G9 read but G6 and G7 kept nothing G8 declared too, so the dissolved
    # run's remaining members all recompute (one dirt anchor each)
    assert affected == [g6, g7_low, g7_high, g9_low, g9_high]
    assert sim.graph.stats().num_frontiers == 3 and sim.graph.runs() == []
    assert g8_stage not in sim.graph.stages
    # the removed stage's nodes are gone, its neighbours reconnected (Fig. 7)
    assert all(g8_stage is not n.stage for n in sim.graph.all_nodes())
    assert all(
        g8_stage is not n.stage for edge in sim.graph.edges() for n in edge
    )
    assert set(preds_of(sim.graph, g9_high)) == {g7_low, g7_high}


def test_insert_gate_after_removal_matches_paper_frontier():
    """Figure 10(b): after remove(G8) + insert(G10) the affected set is
    G10's partitions plus G9's partitions (4 partitions, 24 amplitudes)."""
    ckt, sim, nets, handles = build_paper_simulator()
    sim.update_state()
    g6_stage, g7_stage, _, g9_stage = cx_stages(sim, handles)
    ckt.remove_gate(handles["G8"])
    g10 = ckt.insert_gate("cx", nets[3], 2, 1)
    affected = affected_nodes(sim)
    g10_stage = stage_of(sim, g10)
    # the paper's frontier, as a subset: G10's and G9's partitions
    paper = [n for n in affected if n.stage in (g10_stage, g9_stage)]
    assert len(paper) == 4
    assert paper == (
        sim.graph.partition_nodes(g10_stage) + sim.graph.partition_nodes(g9_stage)
    )
    # G10 partitions span blocks [1,3] and [5,7] as in Figure 8
    assert node_ranges(sim.graph, g10_stage) == [(1, 3), (5, 7)]
    # the exact widened set: that frontier plus the members of the run
    # G6-G9 the removal dissolved (G6: 1 partition, G7: 2)
    assert {n.stage for n in affected} == {g6_stage, g7_stage, g10_stage, g9_stage}
    assert len(affected) == 7
    sim.update_state()
    levels = [[h.gate for h in net.gates] for net in ckt.nets()]
    assert_states_close(sim.state(), reference_state(5, levels))


def test_affected_nodes_cleared_after_update():
    ckt, sim, nets, handles = build_paper_simulator()
    sim.update_state()
    assert affected_nodes(sim) == []
    ckt.remove_gate(handles["G7"])
    assert affected_nodes(sim) != []
    # sweeping is a pure function of the pending dirt: asking changes nothing
    assert affected_nodes(sim) == affected_nodes(sim)
    report = sim.update_state()
    assert report.affected_partitions > 0
    assert affected_nodes(sim) == []


def test_removing_final_gate_affects_nothing_downstream():
    """Removing the last gate leaves no downstream partition to recompute;
    the output simply resolves through the remaining stages -- when those
    hold it.  The members of a coalesced run keep nothing of a block a later
    member declares, so removing a run's tail makes the others recompute."""
    ckt, sim, nets, handles = build_paper_simulator()
    # last stages that ran alone (a superposition stage an update after the
    # cx run's leaves alone -- it closes no run -- and a gate that stage
    # keeps out of the cx run): the paper's statement as it stands
    sim.update_state()
    barrier = ckt.insert_gate("h", ckt.insert_net(), 4)
    alone = ckt.insert_gate("cx", ckt.insert_net(), 1, 0)
    sim.update_state()
    g6_stage, g7_stage, g8_stage, g9_stage = cx_stages(sim, handles)
    assert [run.members for run in sim.graph.runs()] == [
        (g6_stage, g7_stage, g8_stage, g9_stage)
    ]
    for handle in (alone, barrier):
        ckt.remove_gate(handle)
        assert affected_nodes(sim) == [] and not sim.graph.has_pending
        sim.update_state()   # a no-op, and the state query stays consistent
        assert abs(sum(abs(a) ** 2 for a in sim.state()) - 1.0) < 1e-9

    # the final gate as the tail of the run G6-G9: the paper's frontier is
    # empty (nothing is downstream of G9) ...
    ckt.remove_gate(handles["G9"])
    downstream = [n for n in affected_nodes(sim) if n.stage.seq > g9_stage.seq]
    assert downstream == []
    # ... and the exact widened set is the dissolved run's other members,
    # whole: G9 held blocks 1-3 and 5-7 for them
    assert affected_nodes(sim) == [
        node for stage in (g6_stage, g7_stage, g8_stage)
        for node in sim.graph.partition_nodes(stage)
    ]
    sim.update_state()
    levels = [[h.gate for h in net.gates] for net in ckt.nets()]
    assert_states_close(sim.state(), reference_state(5, levels))


def test_inserting_superposition_gate_into_existing_net_touches_stage():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
    net = ckt.insert_net()
    ckt.insert_gate("h", net, 0)
    sim.update_state()
    ckt.insert_gate("h", net, 2)   # joins the existing MatVecStage
    affected = affected_nodes(sim)
    assert affected, "adding a gate to a matvec stage must mark it affected"
    assert all(isinstance(n.stage, MatVecStage) for n in affected)
    # a new member changes the layout: the stage is filed again, whole
    assert affected == sim.graph.stage_nodes(sim.graph.stages[0])
    assert [n.block_range for n in affected] == [BlockRange(0, 3)]
    assert len(sim.graph.stages) == 1


def test_removing_one_of_two_superposition_gates_keeps_stage():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
    net = ckt.insert_net()
    h0 = ckt.insert_gate("h", net, 0)
    ckt.insert_gate("h", net, 2)
    sim.update_state()
    ckt.remove_gate(h0)
    assert len(sim.graph.stages) == 1
    assert affected_nodes(sim), "stage must be re-simulated"


def test_removing_last_superposition_gate_removes_stage():
    ckt = Circuit(3)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
    net = ckt.insert_net()
    h0 = ckt.insert_gate("h", net, 0)
    sim.update_state()
    ckt.remove_gate(h0)
    assert sim.graph.stages == []
    # the graph forgets what the stage registered, not what it answers now
    assert sim.graph.num_nodes() == 0 and not any(declarers(sim.graph))


def test_remove_net_dismantles_all_its_stages():
    ckt, sim, nets, handles = build_paper_simulator()
    before = len(sim.graph.stages)
    ckt.remove_net(nets[0])   # the Hadamard net
    assert len(sim.graph.stages) == before - 1


def test_remove_stage_unknown_raises():
    graph = PartitionGraph(BlockRange(0, 7))
    stage = UnitaryStage(Gate("x", (0,)), 3, 4)
    with pytest.raises(KeyError):
        graph.remove_stage(stage)


def test_insert_stage_position_out_of_range():
    graph = PartitionGraph(BlockRange(0, 7))
    stage = UnitaryStage(Gate("x", (0,)), 3, 4)
    with pytest.raises(IndexError):
        graph.insert_stage(stage, 5)


def test_graph_stats_dict_keys():
    ckt, sim, nets, handles = build_paper_simulator()
    stats = sim.graph.stats().as_dict()
    assert set(stats) == {"num_stages", "num_nodes", "num_edges", "num_frontiers"}
