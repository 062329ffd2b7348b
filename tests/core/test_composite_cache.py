"""The composite cache: a run's composed operation is looked up by the value
of what was composed (``compose.composed_runs``), so re-planning a run whose
members did not change composes nothing -- in this session, a fork, a
restored session or a fresh build of the same circuit -- and anything else
misses and is composed by ``compose_run``, the one algebra.

Three hand mutations of the key, each named in the docstring of the test
that fails under it: the key drops ``qubits``, the key ignores member order,
the key uses ``id(action)``.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QTask
from repro.core.blocks import MAX_RUN_QUBITS
from repro.core.compose import (
    RUN_STRUCTURES,
    ComposedRuns,
    _member_shape,
    compose_run,
    composed_runs,
    run_structure,
)
from repro.core.gates import Gate, MonomialAction
from repro.core import stage as stage_module
from repro.core.stage import gate_action

from ..conftest import coefficients
from .test_coalesced_runs import RUN_OF_FOUR, assert_computed, built, run_lengths

# new hypothesis draws would shift the seeded fault streams of later tests
pytestmark = pytest.mark.usefixtures("no_plan")

SETTINGS = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)

#: angles on both sides of every classification crossover: rx / ry are
#: diagonal at 0 and 2 pi, monomial at pi, and never drawn in between (a
#: superposition action is not a run member)
CROSSOVERS = [0.0, math.pi, 2 * math.pi]
ANGLES = [0.3, -1.1, 2.5, math.pi / 4] + CROSSOVERS
SHAPES = [
    ("z", 1, None), ("s", 1, None), ("x", 1, None), ("y", 1, None),
    ("rz", 1, ANGLES), ("p", 1, ANGLES), ("rx", 1, CROSSOVERS),
    ("ry", 1, CROSSOVERS), ("cx", 2, None), ("cz", 2, None), ("swap", 2, None),
    ("cp", 2, ANGLES), ("rzz", 2, ANGLES), ("ccx", 3, None),
]


@st.composite
def runs(draw, num_qubits=5, min_size=2, max_size=6):
    """A run of ``min_size``-``max_size`` non-superposition gates on
    ``num_qubits`` qubits."""
    gates = []
    for _ in range(draw(st.integers(min_size, max_size))):
        name, arity, angles = draw(st.sampled_from(SHAPES))
        qubits = draw(
            st.lists(st.integers(0, num_qubits - 1), min_size=arity,
                     max_size=arity, unique=True)
        )
        params = () if angles is None else (draw(st.sampled_from(angles)),)
        gates.append(Gate(name, tuple(qubits), params))
    return gates


def parts_of(gates, *, shared=True):
    """The cache key / ``compose_run`` input of a run of gates.  ``shared``
    takes the engine's per-shape action objects, otherwise every action is
    a fresh object of equal value."""
    action = gate_action if shared else Gate.action
    return tuple((action(g), g.qubits) for g in gates)


def as_bytes(action, qubits):
    """Everything a composed operation is, down to the bits -- but for the
    sign of zero: the key is the value, and rz(0) and p(0) classify to equal
    phases (1-0j, 1+0j) and (1+0j, 1+0j), so what another test cached first
    may carry either sign.  (``+ 0.0`` turns -0.0 into 0.0.)"""
    perm = getattr(action, "perm", None)
    return action.num_qubits, tuple(qubits), perm, (coefficients(action) + 0.0).tobytes()


def assert_lookup_is_compose_run(cache, gates):
    fresh = compose_run(parts_of(gates))
    for _ in range(2):  # the miss, then the hit
        action, qubits, _ = cache.lookup(parts_of(gates))
        assert as_bytes(action, qubits) == as_bytes(*fresh), gates


def variants(draw, gates):
    """Runs that differ from ``gates`` in exactly one thing a key could
    wrongly ignore."""
    relabel = draw(st.permutations(range(5)))
    i, j = draw(st.lists(st.integers(0, len(gates) - 1), min_size=2,
                         max_size=2, unique=True))
    swapped = list(gates)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    retuned = [
        Gate(g.name, g.qubits, tuple(
            draw(st.sampled_from(CROSSOVERS if g.name in ("rx", "ry") else ANGLES))
            for _ in g.params
        ))
        for g in gates
    ]
    return [
        # same gate shapes, other qubits
        [Gate(g.name, tuple(relabel[q] for q in g.qubits), g.params) for g in gates],
        # same qubits, other angles (0 / pi crossovers among them)
        retuned,
        # two members swapped
        swapped,
    ]


@settings(**SETTINGS)
@given(st.data())
def test_cached_composite_is_compose_run_bit_for_bit(data):
    """Mutations: the key drops ``qubits`` (the relabelled variant gets the
    first run's composite), the key ignores member order (the swapped variant
    does), either way the bytes differ from a fresh ``compose_run``."""
    gates = data.draw(runs())
    cache = ComposedRuns(maxsize=8)  # its own: no other test's entries
    family = [gates] + variants(data.draw, gates)
    for member in data.draw(st.permutations(family)):
        assert_lookup_is_compose_run(cache, member)
    # and through the process-wide instance, whatever it already holds
    for member in family:
        assert_lookup_is_compose_run(composed_runs, member)


def test_key_keeps_the_qubits():
    """Mutation: the key drops ``qubits`` -> cz(0, 1) answers for cz(2, 3)."""
    cache = ComposedRuns()
    first = [Gate("cz", (0, 1)), Gate("x", (0,))]
    other = [Gate("cz", (2, 3)), Gate("x", (2,))]
    assert cache.lookup(parts_of(first))[1:] == ((0, 1), True)
    assert cache.lookup(parts_of(other))[1:] == ((2, 3), True)
    assert cache.lookup(parts_of(first))[1:] == ((0, 1), False)


def test_key_keeps_the_member_order():
    """Mutation: the key ignores member order (a sorted tuple, a frozenset)
    -> z then x answers for x then z, which differ by a sign."""
    cache = ComposedRuns()
    zx = [Gate("z", (0,)), Gate("x", (0,))]
    xz = [Gate("x", (0,)), Gate("z", (0,))]
    first, _, missed = cache.lookup(parts_of(zx))
    second, _, missed_too = cache.lookup(parts_of(xz))
    assert missed and missed_too
    assert first.factors == (1, -1) and second.factors == (-1, 1)


def test_key_is_the_value_not_the_object():
    """Mutation: the key uses ``id(action)`` -> equal actions in other
    objects miss (a restored process, an evicted classification), and an
    address reused by another action would hit a stale composite."""
    cache = ComposedRuns()
    gates = [Gate("rz", (1,), (0.3,)), Gate("cx", (1, 2)), Gate("cp", (0, 2), (0.7,))]
    one, other = parts_of(gates, shared=False), parts_of(gates, shared=False)
    assert all(a is not b for (a, _), (b, _) in zip(one, other))
    assert cache.lookup(one)[2] is True
    action, qubits, missed = cache.lookup(other)
    assert missed is False and len(cache) == 1
    assert as_bytes(action, qubits) == as_bytes(*compose_run(one))


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def test_entry_bound_and_its_byte_ceiling():
    """64 composites and ``RUN_STRUCTURES`` structures, least recently used
    first out.  The widest composite there can be (``MAX_RUN_QUBITS``
    qubits, permuting) owns one 64 KB array, and shares its structure's
    permutation (under 0.2 MB): the cache holds under 16 MB whatever is
    planned.  A structure of ``MAX_RUN_STAGES`` members is under 0.75 MB, so
    the structure cache holds under 24 MB."""
    assert composed_runs.maxsize == 64
    ring = [Gate("cx", (q, (q + 1) % MAX_RUN_QUBITS)) for q in range(MAX_RUN_QUBITS)]
    widest = [ring[q % 12] if q % 2 else Gate("rz", (q % 12,), (0.1 * q,)) for q in range(64)]
    action, qubits = compose_run(parts_of(widest))
    assert isinstance(action, MonomialAction) and len(qubits) == MAX_RUN_QUBITS
    assert set(vars(action)) == {"num_qubits", "perm", "perm_array", "factor_array"}
    structure = run_structure(tuple(_member_shape(a, q) for a, q in parts_of(widest)))
    assert action.perm is structure.perm and action.perm_array is structure.perm_array
    # the tuple and its boxed entries (small ints are interned: an upper bound)
    shared = sum(map(sys.getsizeof, action.perm)) + sys.getsizeof(action.perm)
    shared += action.perm_array.nbytes
    assert action.factor_array.nbytes == 2**16 and shared < 200_000
    assert composed_runs.maxsize * (2**16 + shared) <= 16 * 2**20
    entry = shared + sum(table.nbytes for table in structure.tables)
    assert len(structure.tables) == 64 and entry < 750_000 and RUN_STRUCTURES * entry <= 24 * 2**20
    for k in range(RUN_STRUCTURES + 8):  # distinct structures: more than the bound
        compose_run(parts_of([Gate("cx", (k % 5, 5 + k // 5)), Gate("z", (0,))]))
        assert run_structure.cache_info().currsize <= RUN_STRUCTURES

    cache = ComposedRuns(maxsize=3)
    keys = [parts_of([Gate("rz", (0,), (0.1 * k,)), Gate("x", (0,))]) for k in range(5)]
    for key in keys[:3]:
        assert cache.lookup(key)[2]
    assert not cache.lookup(keys[0])[2]  # 0 is now the most recently used
    assert cache.lookup(keys[3])[2] and len(cache) == 3  # evicts 1, not 0
    assert not cache.lookup(keys[0])[2]
    assert cache.lookup(keys[1])[2]
    cache.clear()
    assert len(cache) == 0 and cache.lookup(keys[0])[2]


def test_nothing_is_composed_before_a_run_is_planned():
    """The cache fills lazily: building a session composes nothing."""
    before = len(composed_runs)
    session, _ = built(RUN_OF_FOUR)
    with session:
        assert len(composed_runs) == before


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def coalesced(session):
    """``(runs, recomposed)`` of the last update, as the session explains it."""
    found = re.search(
        r"coalesced \d+ stages \(\d+ collapses\) into (\d+) runs"
        r"(?: \(\d+ reused, (\d+) recomposed)?",
        session.explain_last_update(),
    )
    return int(found.group(1)), int(found.group(2) or 0)


#: RUN_OF_FOUR behind a retunable superposition level: retuning the ``ry``
#: re-plans the whole run without changing a member
BEHIND_RY = [[("ry", (q,), [0.4 + 0.1 * q]) for q in range(5)]] + RUN_OF_FOUR[1:]


def retune_there_and_back(levels, name, there, back):
    """Update, retune the ``name`` member to ``there`` and update, retune it
    back and update: ``(runs, recomposed)`` of each update, every state the
    dense oracle's."""
    composed_runs.clear()
    session, handles = built(levels)
    with session:
        session.update_state()
        seen = [coalesced(session)]
        handle = next(h for h in handles if h.gate.name == name)
        for angle in (there, back):
            handle = session.update_gate(handle, angle)
            session.update_state()
            assert_computed(session)
            seen.append(coalesced(session))
        return seen, run_lengths(session)


def test_retune_and_back_recomposes_once():
    """Retuning a member is another key (a miss); retuning it back is the
    first key again -- the second plan composes nothing -- and both states
    are the dense oracle's."""
    assert retune_there_and_back(RUN_OF_FOUR, "cp", 2.5, 0.7) == (
        [(1, 1), (1, 1), (1, 0)], [4])


def test_retune_across_a_classification_crossover_misses_and_is_right():
    """rx(pi) permutes, rx(2 pi) is diagonal: same gate name, same qubits,
    other member action, so another key."""
    levels = [RUN_OF_FOUR[0], [("rx", (0,), [math.pi])]] + RUN_OF_FOUR[1:]
    seen, _ = retune_there_and_back(levels, "rx", 2 * math.pi, math.pi)
    assert seen == [(1, 1), (1, 1), (1, 0)]


def retune_the_first_ry(session):
    ry = next(h for net in session.nets() for h in net.gates if h.gate.name == "ry")
    session.update_gate(ry, 1.9)
    session.update_state()
    assert_computed(session)


def test_fork_restore_and_fresh_build_replan_without_recomposing(tmp_path):
    """The key names no session and no stage: a fork, a restored session and
    a second build of the same circuit find the run the first build
    composed.  Mutation: the key uses ``id(action)`` of actions the restored
    / rebuilt stages classified anew -> they recompose."""
    composed_runs.clear()
    path = str(tmp_path / "built.ckpt")
    session, _ = built(BEHIND_RY)
    with session:
        session.update_state()
        assert coalesced(session) == (1, 1)
        session.checkpoint(path)
        with session.fork() as child:
            retune_the_first_ry(child)
            assert coalesced(child) == (1, 0)
        retune_the_first_ry(session)
        assert coalesced(session) == (1, 0)
    # classify every gate anew: the members are equal values in new objects
    stage_module.gate_shape.cache_clear()
    stage_module._classified.cache_clear()
    with QTask.restore(path, num_workers=1) as restored:
        retune_the_first_ry(restored)
        assert coalesced(restored) == (1, 0)
    again, _ = built(BEHIND_RY)
    with again:
        again.update_state()
        assert_computed(again)
        assert coalesced(again) == (1, 0)
    assert len(composed_runs) == 1


def compose_spans(session, *retune):
    """``plan.build``'s ``runs_recomposed``, ``plan.compose``'s attrs."""
    session.telemetry.tracer.clear()
    session.update_gate(*retune)
    session.update_state()
    spans = session.telemetry.tracer.spans()
    return ([r.attrs["runs_recomposed"] for r in spans if r.name == "plan.build"],
            [r.attrs for r in spans if r.name == "plan.compose"])


def test_span_and_explanation_count_the_same_lookups():
    """``plan.build`` and the explanation count the lookups that missed, and
    each miss is one ``plan.compose`` span whose gathers are its members not
    all 1: a 12-qubit run with one ``rz`` retuned gathers its 12 ``rz`` and
    none of its 12 ``cx``; a 64-member run retuned at its last member
    gathers at most once per member.  A run re-planned unchanged (behind a
    retuned ``ry``) composes nothing."""
    composed_runs.clear()
    ring = [[("cx", (q, (q + 1) % 12), ())] for q in range(12)]
    rzs = [[("rz", (q,), [0.1 * (q + 1)])] for q in range(12)]
    long = [[("rz", (k % 3,), [0.1 * k])] if k % 2 else [("cx", (k % 3, (k + 1) % 3), ())]
            for k in range(64)]
    for levels, n, member, expected in [
        (ring + rzs, 12, 27, {"members": 24, "qubits": 12, "gathers": 12}),
        (long, 3, -1, {"members": 64, "qubits": 3, "gathers": 32}),
    ]:
        rys = [[("ry", (q,), [0.4]) for q in range(n)]]
        session, handles = built(rys + levels, n, block_size=256, tracing=True)
        with session:
            session.update_state()
            assert compose_spans(session, handles[0], 1.9) == ([0], [])
            assert coalesced(session) == (1, 0)
            assert compose_spans(session, handles[member], 2.5) == ([1], [expected])
            assert f"(1 reused, 1 recomposed by {expected['gathers']} gathers," in (
                session.explain_last_update())


def test_concurrent_planners_agree():
    """Sessions plan concurrently (forks, service jobs): lookups from many
    threads over more runs than the cache holds return ``compose_run``'s
    answer every time and never grow it past the bound."""
    import threading

    cache = ComposedRuns(maxsize=4)
    family = [
        [Gate("rz", (0,), (0.1 * k,)), Gate("cx", (0, 1)), Gate("x", (k % 2,))]
        for k in range(12)
    ]
    expected = [as_bytes(*compose_run(parts_of(g))) for g in family]
    failures = []

    def planner(seed):
        order = np.random.default_rng(seed).integers(0, len(family), 400)
        for k in order:
            action, qubits, _ = cache.lookup(parts_of(family[k]))
            if as_bytes(action, qubits) != expected[k] or len(cache) > 4:
                failures.append(k)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=planner, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    assert not failures and len(cache) <= 4
