"""Property-based equivalence tests for the retune modifier and observables.

The retune invariant: for any circuit and any parameter change,

    ``update_gate``  ==  ``remove_gate`` + ``insert_gate``  ==  dense baseline

to 1e-10, built in one update or stepwise -- and the block-wise
expectation engine must agree with the dense ground truth on the
resulting states.  Both ids are thin calls of the state
machine in ``tests/machine.py``.
"""

from .machine import run_machine


def test_retune_equals_reinsert_equals_dense():
    """Retunes (0 / pi crossovers rebuild the stage through remove +
    insert, a return to earlier values hits a cached run) between inserts,
    each against the dense oracle."""
    run_machine(rules={"insert_net", "insert_gate", "update_gate"},
                max_examples=15, steps=8)


def test_expectation_tracks_retunes():
    """Cached block-wise expectations match the dense ground truth per edit."""
    run_machine(rules={"insert_net", "insert_gate", "update_gate", "expectation"},
                max_examples=15, steps=8)
