"""Property tests: writer-index resolution == naive reversed-chain walk.

After every update of a random modifier sequence the session's reads --
as of every stage seq, gathers and single amplitudes -- resolve to the
newest holder a scan over its *actual* stage stores finds, read the naive
:class:`StoreChain` walk's amplitudes, and match the dense reference
(``tests/machine.py``'s ``update_state`` rule and invariants).  Each id
pins the machine to the corner it names.
"""

import pytest

from .machine import CLEAR, EDITS, run_machine


# the ids are historical: the axes are the machine's ``stepwise`` knob and
# its block size -- drawn, or one block holding the whole state, so that
# every stage that runs stores a full vector (what the deleted dense
# storage mode kept for every stage)
@pytest.mark.parametrize("stepwise", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("blocks", [{}, {"block_size": 256}], ids=["cow", "dense"])
def test_directory_matches_chain_under_modifiers(stepwise, blocks):
    run_machine(rules=EDITS, stepwise=stepwise, max_examples=15, steps=8, **blocks)


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "workstealing"])
def test_directory_consistent_on_both_executors(workers):
    """Resolution stays exact under parallel block writes."""
    run_machine(rules=EDITS, num_workers=workers, max_examples=15, steps=8)


def test_directory_purged_after_clearing_circuit():
    """Removing every net leaves no writer entries behind and the state at
    |0> (the ``clear_circuit`` rule), and inserts after it start afresh."""
    run_machine(rules={"insert_gate", "remove", "remove_net", CLEAR},
                max_examples=15, steps=8)
