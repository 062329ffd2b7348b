"""A fork and a checkpoint restore rebuild their parent's stage table.

The table is a product of the session's edit history (a retune that crosses
the superposition boundary moves a gate into its net's matrix--vector stage),
so a copy must take it over as it is: the same stage kinds, members and
within-net order, and the same matvec stage per net -- which the next
superposition gate inserted into that net joins.
"""

from __future__ import annotations

import math

import numpy as np

from repro import QTask

from ..conftest import dense_state


def _edited_session() -> QTask:
    session = QTask(4, num_clbits=1, block_size=4, num_workers=1, seed=3)
    sup, mixed, meas, cond = (session.insert_net() for _ in range(4))
    session.insert_gate("h", sup, 0)
    session.insert_gate("h", sup, 2)
    session.insert_gate("cz", mixed, 0, 1)
    retuned = session.insert_gate("rx", mixed, 2, params=[math.pi])
    session.insert_gate("t", mixed, 3)
    session.measure(meas, 0, 0)
    session.c_if("x", cond, 3, condition=([0], 1))
    session.update_state()
    # rx(pi) is a permutation; rx(pi/2) joins its net's matvec stage
    session.update_gate(retuned, math.pi / 2)
    session.update_state()
    return session


def _table(session: QTask):
    """Per net, its stages as ``(kind, member positions)`` in within-net
    order, a position being ``(net index, index in the net)``; then the
    global order the same way."""
    nets = session.nets()
    index = {net.uid: i for i, net in enumerate(nets)}
    table = session.simulator.stages

    def entry(stage):
        members = [
            (index[h.net.uid], h.net.gates.index(h)) for h in table.members(stage)
        ]
        return stage.kind, members

    per_net = [[entry(s) for s in table.net_stages(net)] for net in nets]
    return per_net, [entry(s) for s in session.simulator.graph.stages]


def _matvec(session: QTask, net):
    (stage,) = [
        s for s in session.simulator.stages.net_stages(net) if s.kind == "matvec"
    ]
    return stage


def test_fork_and_restore_rebuild_the_stage_table(tmp_path):
    with _edited_session() as parent:
        per_net, order = _table(parent)
        assert [kind for kind, _ in per_net[1]][0] == "matvec"  # the retuned rx
        assert {kind for net in per_net for kind, _ in net} == {
            "matvec", "unitary", "measure", "c_if"
        }
        path = parent.checkpoint(str(tmp_path / "table.qtckpt"))
        with parent.fork() as child, QTask.restore(path, num_workers=1) as restored:
            copies = (parent, child, restored)
            for copy in copies:
                assert _table(copy) == (per_net, order)
            # one more edit on each: an h joins the first net's matvec stage,
            # a z lands in a stage of its own
            for copy in copies:
                sup, mixed = copy.nets()[:2]
                table = copy.simulator.stages
                assert table.stage_of(mixed.gates[1]) is _matvec(copy, mixed)
                stage = _matvec(copy, sup)
                added = copy.insert_gate("h", sup, 1)
                assert table.stage_of(added) is stage
                lone = copy.insert_gate("z", copy.nets()[2], 2)
                assert table.stage_of(lone).kind == "unitary"
                copy.update_state()
            tables = [_table(copy) for copy in copies]
            assert tables[0] == tables[1] == tables[2]
            for copy in copies:
                np.testing.assert_allclose(copy.state(), dense_state(copy), atol=1e-10)
            # the parent redraws the re-collapsed measurement from its stream's
            # second value; a fork and a restore both from the first
            np.testing.assert_array_equal(restored.state(), child.state())
