"""Property tests: writer-index resolution == naive reversed-chain walk.

Two oracles back block resolution through the partition graph's index:

* a *twin simulator* running the legacy ``block_directory=False`` store-chain
  mode through the same random modifier sequence must produce identical
  states, and
* after every update, an :class:`IndexReader` built "as of" each stage
  must agree with a freshly constructed naive :class:`StoreChain` over the
  same stage prefix -- block by block, for the full vector and for gathers.

Both are exercised with and without fusion and copy-on-write, on the
sequential and the work-stealing executor.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.cow import IndexReader, StoreChain
from repro.core.simulator import QTaskSimulator

from .test_properties import _apply_modifier, levels_strategy, modifier_strategy

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_directory_matches_naive_walk(sim: QTaskSimulator) -> None:
    """Index-resolved reads == reversed-chain walk, for every stage view."""
    stages = sim.graph.stages
    stores = [s.store for s in stages]
    for prefix in range(len(stages) + 1):
        chain = StoreChain([sim._initial] + stores[:prefix])
        reader = IndexReader(sim.graph, sim._initial, prefix)
        np.testing.assert_array_equal(reader.full_vector(), chain.full_vector())
        for b in range(sim.n_blocks):
            np.testing.assert_array_equal(
                reader.resolve_block(b), chain.resolve_block(b)
            )
    idx = np.arange(sim.dim, dtype=np.int64)[:: max(1, sim.dim // 16)]
    full = IndexReader(sim.graph, sim._initial, sys.maxsize)
    np.testing.assert_array_equal(
        full.gather(idx), StoreChain([sim._initial] + stores).gather(idx)
    )


@pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("cow", [True, False], ids=["cow", "dense"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_matches_chain_under_modifiers(fusion, cow, num_qubits, data):
    """Directory and legacy chain modes stay bit-identical through modifiers."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=5))
    ckt_d, ckt_c = Circuit(num_qubits), Circuit(num_qubits)
    sim_d = QTaskSimulator(ckt_d, block_size=2, num_workers=1,
                           copy_on_write=cow, fusion=fusion,
                           block_directory=True)
    sim_c = QTaskSimulator(ckt_c, block_size=2, num_workers=1,
                           copy_on_write=cow, fusion=fusion,
                           block_directory=False)
    ckt_d.from_levels(lv)
    ckt_c.from_levels(lv)
    sim_d.update_state()
    sim_c.update_state()
    np.testing.assert_array_equal(sim_d.state(), sim_c.state())
    for mod in mods:
        _apply_modifier(ckt_d, mod, num_qubits)
        _apply_modifier(ckt_c, mod, num_qubits)
        sim_d.update_state()
        sim_c.update_state()
        np.testing.assert_array_equal(sim_d.state(), sim_c.state())
        for basis in (0, sim_d.dim - 1):
            assert sim_d.amplitude(basis) == sim_c.amplitude(basis)
        assert_directory_matches_naive_walk(sim_d)
    sim_d.close()
    sim_c.close()


@pytest.mark.parametrize("workers", [1, 3], ids=["sequential", "workstealing"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_consistent_on_both_executors(workers, num_qubits, data):
    """Resolution stays exact under parallel block writes."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=4))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=workers,
                         block_directory=True)
    ckt.from_levels(lv)
    sim.update_state()
    for mod in mods:
        _apply_modifier(ckt, mod, num_qubits)
        sim.update_state()
        assert_directory_matches_naive_walk(sim)
    sim.close()


@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_purged_after_clearing_circuit(num_qubits, data):
    """Removing every net leaves no ownership entries behind."""
    lv = data.draw(levels_strategy(num_qubits))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1, block_directory=True)
    ckt.from_levels(lv)
    sim.update_state()
    for net in list(ckt.nets()):
        ckt.remove_net(net)
    sim.update_state()
    for b in range(sim.n_blocks):
        assert sim.graph.holder(b, sys.maxsize) is None
    assert not any(sim.graph._writers)
    state = sim.state()
    assert state[0] == 1.0
    assert np.all(state[1:] == 0.0)
    sim.close()
