"""Property tests: however a circuit's updates are cut, the state is one.

Adjacent diagonal / monomial stages swept by one update execute as a single
composed run; the same circuit built one update per gate
(``conftest.open_session(stepwise=True)``) runs every stage by itself.  For
any circuit, block size and executor the two must agree with each other and
with the dense oracle, also across incremental modifier sequences.  (The
file and test names predate the deletion of insert-time fusion, whose
on/off comparison this used to be; the test floor pins them.)
"""

import random

import numpy as np
import pytest

from repro.core.circuit import Circuit
from .conftest import assert_states_close, open_session, random_levels, reference_state
from .machine import EDITS, run_machine

#: executor width per leg; the ids are historical (the test floor pins them)
EXECUTORS = {"sequential": 1, "workstealing": 2}


def simulate(n, levels, *, stepwise, block_size, num_workers=1):
    ckt = Circuit(n)
    sim = open_session(
        ckt, block_size=block_size, num_workers=num_workers, stepwise=stepwise
    )
    try:
        ckt.from_levels(levels)
        sim.update_state()
        return sim.state()
    finally:
        sim.close()


@pytest.mark.parametrize("executor_kind", sorted(EXECUTORS))
def test_fused_equals_unfused_on_random_circuits(executor_kind):
    """~50 random circuits per executor: identical final states (atol 1e-10)."""
    rng = random.Random(20230419 + sorted(EXECUTORS).index(executor_kind))
    for trial in range(50):
        n = rng.randint(2, 7)
        levels = random_levels(rng, n, rng.randint(1, 8))
        block_size = rng.choice([2, 4, 16, 64, 256])
        coalesced, stepwise = (
            simulate(n, levels, stepwise=flag, block_size=block_size,
                     num_workers=EXECUTORS[executor_kind])
            for flag in (False, True)
        )
        np.testing.assert_allclose(
            coalesced, stepwise, atol=1e-10, rtol=0.0,
            err_msg=f"trial {trial}: n={n} B={block_size}",
        )


def test_fused_matches_dense_reference_on_random_circuits(rng):
    """Both cuts also agree with the independent dense ground truth."""
    for trial in range(15):
        n = rng.randint(2, 6)
        levels = random_levels(rng, n, rng.randint(1, 6))
        state = simulate(
            n, levels, stepwise=bool(trial % 2), block_size=rng.choice([4, 16, 64])
        )
        assert_states_close(state, reference_state(n, levels), atol=1e-9)


def test_fused_equals_unfused_across_incremental_modifiers():
    """Random insert / remove / retune sequences on a stepwise session (one
    update per inserted gate) land on the dense oracle after every update
    (the other ``EDITS`` ids draw it and the batched corner alike)."""
    run_machine(rules=EDITS, stepwise=True, max_examples=12, steps=8)
