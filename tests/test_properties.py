"""Property-based end-to-end tests of the incrementality invariant.

The central invariant of qTask: after any sequence of circuit modifiers,
``update_state`` must leave the simulator in exactly the state a from-scratch
simulation of the current circuit would produce.  Each id is a thin call of
the one differential state machine (``tests/machine.py``), pinned to the
rules and knob corner it names.
"""

from .machine import EDITS, run_machine


def test_full_simulation_matches_reference():
    """A circuit built whole and updated once."""
    run_machine(rules={"insert_net", "insert_gate"}, stepwise=False,
                max_examples=25, steps=4)


def test_incremental_always_matches_from_scratch():
    """The headline invariant: incremental == from-scratch after any modifiers."""
    run_machine(rules=EDITS, max_examples=25, steps=8)


def test_cow_and_dense_storage_agree_under_modifiers():
    """The dense-storage corner: one block holds the whole state, so every
    stage that runs stores a full vector (other runs draw smaller blocks)."""
    run_machine(rules=EDITS, block_size=256, max_examples=25, steps=8)


def test_parallel_and_sequential_execution_agree():
    """The two-wide executor corner (every other run draws either width)."""
    run_machine(rules=EDITS, num_workers=2, max_examples=25, steps=8)
