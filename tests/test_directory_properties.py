"""Property tests: writer-index resolution == naive reversed-chain walk.

Two oracles back block resolution through the partition graph's index,
after every update of a random modifier sequence:

* the session's state and amplitudes are bit-identical to a freshly
  constructed naive :class:`StoreChain` over its *actual* stage stores (and
  match the dense reference), and
* an :class:`IndexReader` built "as of" each stage agrees with the chain over
  the same stage prefix -- block by block, for the full vector and for
  gathers.

Both are exercised built in one update and stepwise, with and without
copy-on-write, on the sequential and the work-stealing executor.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.cow import IndexReader
from repro.core.simulator import QTaskSimulator

from .conftest import StoreChain, circuit_levels, open_session, reference_state
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
    chain = StoreChain([sim._initial] + stores)
    np.testing.assert_array_equal(full.gather(idx), chain.gather(idx))
    # what the session serves is the walk's answer, bit for bit
    np.testing.assert_array_equal(sim.state(), chain.full_vector())
    for basis in (0, sim.dim - 1):
        assert sim.amplitude(basis) == chain.read_range(basis, basis)[0]


# the ids are historical: the axis is ``conftest.open_session``'s build order
@pytest.mark.parametrize("stepwise", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("cow", [True, False], ids=["cow", "dense"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_matches_chain_under_modifiers(stepwise, cow, num_qubits, data):
    """Index reads equal the chain walk (and dense) through modifiers."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=5))
    ckt = Circuit(num_qubits)
    sim = open_session(ckt, block_size=2, num_workers=1,
                       copy_on_write=cow, stepwise=stepwise)
    ckt.from_levels(lv)
    sim.update_state()
    assert_directory_matches_naive_walk(sim)
    for mod in mods:
        _apply_modifier(ckt, mod, num_qubits)
        sim.update_state()
        assert_directory_matches_naive_walk(sim)
        np.testing.assert_allclose(
            sim.state(), reference_state(num_qubits, circuit_levels(ckt)),
            atol=1e-10,
        )
    sim.close()


@pytest.mark.parametrize("workers", [1, 3], ids=["sequential", "workstealing"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_consistent_on_both_executors(workers, num_qubits, data):
    """Resolution stays exact under parallel block writes."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=4))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=workers)
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
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
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
