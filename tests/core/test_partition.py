"""Tests for partition derivation (§III.C), including the paper's examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockRange
from repro.core.gates import Gate, MatVecAction, classify_matrix, gate_matrix
from repro.core.partition import (
    PartitionSpec,
    dense_layout,
    derive_partitions,
    matvec_partitions,
    unit_layout_of,
)


def parts(gate: Gate, n: int, block: int):
    return derive_partitions(gate.action(), gate.qubits, n, block)


def ranges(specs):
    return [(p.block_range.first, p.block_range.last) for p in specs]


# ---------------------------------------------------------------------------
# The paper's Figure 4/5 example: 5 qubits, block size 4
# ---------------------------------------------------------------------------


def test_paper_g6_one_partition_four_blocks_two_tasks():
    specs = parts(Gate("cx", (4, 3)), 5, 4)     # G6: swap 10xxx <-> 11xxx
    assert ranges(specs) == [(4, 7)]
    assert specs[0].num_unit_tasks == 2


def test_paper_g7_two_partitions_of_two_blocks():
    specs = parts(Gate("cx", (4, 1)), 5, 4)     # G7
    assert ranges(specs) == [(4, 5), (6, 7)]
    assert all(p.num_unit_tasks == 1 for p in specs)


def test_paper_g8_two_partitions_of_two_blocks():
    specs = parts(Gate("cx", (3, 2)), 5, 4)     # G8: first partition blocks [2,3]
    assert ranges(specs) == [(2, 3), (6, 7)]


def test_paper_g9_two_partitions_of_three_blocks():
    specs = parts(Gate("cx", (2, 0)), 5, 4)     # G9
    assert ranges(specs) == [(1, 3), (5, 7)]


def test_paper_hadamard_net_one_partition_per_block():
    specs = matvec_partitions(5, 4)
    assert ranges(specs) == [(b, b) for b in range(8)]
    assert all(p.num_unit_tasks == 1 for p in specs)


def test_superposition_gate_gets_windows_of_its_qubit():
    """A dense gate mixes an aligned window of ``2**(q+1)`` amplitudes:
    ``h`` on qubit 2 pairs blocks, on qubit 4 the whole vector."""
    specs = parts(Gate("h", (2,)), 5, 4)
    assert ranges(specs) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert ranges(parts(Gate("h", (4,)), 5, 4)) == [(0, 7)]
    assert ranges(parts(Gate("h", (0,)), 5, 4)) == ranges(specs)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 9),
    log_block=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_dense_layout_partitions_are_whole_windows(n, log_block, seed):
    """Every dense layout covers every block once, and each partition is a
    run of whole aligned windows of its highest qubit: closed under the
    action, and read by nobody else."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    block = 1 << log_block
    specs = dense_layout(qubits, n, block)
    dim = 1 << n
    blocks = [b for s in specs.specs for b in s.block_range.blocks()]
    assert blocks == list(range(max(1, dim // block)))
    window = 1 << (max(qubits) + 1)
    for spec in specs.specs:
        lo, hi = spec.block_range.index_bounds(block, dim)
        assert lo % window == 0 and (hi + 1) % window == 0


# ---------------------------------------------------------------------------
# unit layouts
# ---------------------------------------------------------------------------


def test_unit_layout_of_diagonal_z():
    layout = unit_layout_of(classify_matrix(gate_matrix("z")))
    assert layout.unit_locals == ((1,),)


def test_unit_layout_of_rz_touches_both_locals():
    layout = unit_layout_of(classify_matrix(gate_matrix("rz", 0.7)))
    assert layout.unit_locals == ((0,), (1,))


def test_unit_layout_of_cx_is_one_pair():
    layout = unit_layout_of(classify_matrix(gate_matrix("cx")))
    assert layout.unit_locals == ((1, 3),)


def test_unit_layout_of_identity_is_empty():
    layout = unit_layout_of(classify_matrix(gate_matrix("id")))
    assert layout.num_types == 0


def test_unit_layout_rejects_superposition_actions():
    with pytest.raises(TypeError):
        unit_layout_of(MatVecAction(num_qubits=1, matrix=gate_matrix("h")))


# ---------------------------------------------------------------------------
# structural behaviour
# ---------------------------------------------------------------------------


def test_identity_gate_has_no_partitions():
    assert parts(Gate("id", (0,)), 5, 4) == []


def test_x_gate_low_qubit_small_blocks():
    # X on qubit 0 with B=2: tasks of 2 amplitude pairs span 2 blocks each,
    # giving one partition per pair of consecutive blocks.
    specs = parts(Gate("x", (0,)), 3, 2)
    assert ranges(specs) == [(0, 1), (2, 3)]
    assert all(p.num_unit_tasks == 1 for p in specs)


def test_x_gate_high_qubit_merges_everything():
    # X on the top qubit pairs the two halves of the vector: one partition.
    specs = parts(Gate("x", (4,)), 5, 4)
    assert ranges(specs) == [(0, 7)]


def test_z_gate_high_qubit_touches_upper_half_only():
    specs = parts(Gate("z", (4,)), 5, 4)
    assert ranges(specs) == [(4, 4), (5, 5), (6, 6), (7, 7)]


def test_cz_touches_quarter_of_blocks():
    specs = parts(Gate("cz", (4, 3)), 5, 4)
    assert ranges(specs) == [(6, 6), (7, 7)]


def test_block_size_larger_than_state_gives_single_partition():
    specs = parts(Gate("cx", (0, 1)), 3, 256)
    assert ranges(specs) == [(0, 0)]


def test_partition_block_count_and_num_blocks():
    specs = parts(Gate("cx", (4, 3)), 5, 4)
    assert specs[0].num_blocks == 4


def test_enumeration_guard_raises_for_huge_requests():
    from repro.core import partition as partition_module

    original = partition_module.MAX_ENUMERATED_UNITS
    partition_module.MAX_ENUMERATED_UNITS = 4
    # the guard protects the enumerator, i.e. the miss path of the layout cache
    partition_module._enumerate_partitions.cache_clear()
    try:
        with pytest.raises(MemoryError):
            derive_partitions(Gate("x", (0,)).action(), (0,), 5, 2)
    finally:
        partition_module.MAX_ENUMERATED_UNITS = original


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

GATE_POOL = ["x", "y", "z", "s", "t", "cx", "cz", "swap", "rz", "ccx"]


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(GATE_POOL),
    n=st.integers(3, 8),
    log_block=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_partition_invariants(name, n, log_block, seed):
    """Partitions are sorted, disjoint, and cover every touched amplitude."""
    rng = np.random.default_rng(seed)
    arity = {"cx": 2, "cz": 2, "swap": 2, "ccx": 3}.get(name, 1)
    if arity > n:
        return
    qubits = tuple(rng.choice(n, size=arity, replace=False).tolist())
    params = (0.37,) if name == "rz" else ()
    gate = Gate(name, qubits, params)
    block = 1 << log_block
    specs = derive_partitions(gate.action(), gate.qubits, n, block)

    # sorted and pairwise disjoint
    for a, b in zip(specs, specs[1:]):
        assert a.block_range.last < b.block_range.first

    # every touched amplitude lies inside some partition, together with its
    # whole orbit (partitions are orbit-closed)
    action = gate.action()
    dim = 1 << n
    covered = np.zeros(dim, dtype=bool)
    for p in specs:
        lo, hi = p.block_range.index_bounds(block, dim)
        covered[lo : hi + 1] = True

    from repro.core.gates import extract_local, replace_local

    idx = np.arange(dim, dtype=np.int64)
    local = extract_local(idx, gate.qubits)
    if hasattr(action, "touched_locals"):
        touched_mask = np.isin(local, action.touched_locals())
        assert covered[touched_mask].all()
    # orbit closure: for monomial actions the permutation image of a covered
    # index is also covered
    if hasattr(action, "perm"):
        perm = np.asarray(action.perm)
        image = replace_local(idx, gate.qubits, perm[local])
        assert covered[image[covered]].all()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), log_block=st.integers(0, 8))
def test_matvec_partitions_cover_every_block_exactly_once(n, log_block):
    block = 1 << log_block
    specs = matvec_partitions(n, block)
    blocks = [b for p in specs for b in p.block_range.blocks()]
    expected = max(1, (1 << n) // block)
    assert blocks == list(range(expected))
