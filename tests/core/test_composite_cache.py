"""The composite cache: a run's composed operation is looked up by the value
of what was composed (``gates.composed_runs``), so re-planning a run whose
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
from repro.core.gates import (
    ComposedRuns,
    DiagonalAction,
    Gate,
    MonomialAction,
    compose_run,
    composed_runs,
)
from repro.core import stage as stage_module
from repro.core.stage import gate_action

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
def runs(draw, num_qubits=5):
    """A run of 2-6 non-superposition gates on ``num_qubits`` qubits."""
    gates = []
    for _ in range(draw(st.integers(2, 6))):
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
    if isinstance(action, DiagonalAction):
        body = ("diag", action.phases, (action.phase_array + 0.0).tobytes())
    else:
        assert isinstance(action, MonomialAction)
        body = (
            "mono", action.perm, action.factors,
            (action.factor_array + 0.0).tobytes(),
        )
    return (action.num_qubits, tuple(qubits)) + body


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


def deep_bytes(action) -> int:
    """Bytes of a composed action in tuple + array form, every boxed entry
    counted (small ints are interned: an upper bound)."""
    fields = [action.phases] if isinstance(action, DiagonalAction) else [
        action.perm, action.factors
    ]
    array = (
        action.phase_array if isinstance(action, DiagonalAction)
        else action.factor_array
    )
    return array.nbytes + sum(
        sys.getsizeof(field) + sum(sys.getsizeof(entry) for entry in field)
        for field in fields
    )


def test_entry_bound_and_its_byte_ceiling():
    """64 entries, least recently used first out; the widest composite there
    can be (``MAX_RUN_QUBITS`` qubits, permuting) is under 0.4 MB, so the
    cache holds under 32 MB whatever is planned."""
    assert composed_runs.maxsize == 64
    widest = [Gate("cx", (q, (q + 1) % MAX_RUN_QUBITS)) for q in range(MAX_RUN_QUBITS)]
    widest += [Gate("rz", (q,), (0.1 * (q + 1),)) for q in range(MAX_RUN_QUBITS)]
    action, qubits = compose_run(parts_of(widest))
    assert isinstance(action, MonomialAction) and len(qubits) == MAX_RUN_QUBITS
    assert deep_bytes(action) <= 400_000
    diagonal, _ = compose_run(parts_of(widest[MAX_RUN_QUBITS:]))
    assert deep_bytes(diagonal) < deep_bytes(action)
    assert composed_runs.maxsize * deep_bytes(action) <= 32 * 2**20

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


def test_retune_and_back_recomposes_once():
    """Retuning a member is another key (a miss); retuning it back is the
    first key again -- the second plan composes nothing -- and both states
    are the dense oracle's."""
    composed_runs.clear()
    session, handles = built(RUN_OF_FOUR)
    with session:
        session.update_state()
        assert coalesced(session) == (1, 1)
        cp = next(h for h in handles if h.gate.name == "cp")
        cp = session.update_gate(cp, 2.5)
        session.update_state()
        assert_computed(session)
        assert coalesced(session) == (1, 1)
        session.update_gate(cp, 0.7)
        session.update_state()
        assert_computed(session)
        assert coalesced(session) == (1, 0)
        assert run_lengths(session) == [4]


def test_retune_across_a_classification_crossover_misses_and_is_right():
    """rx(pi) permutes, rx(2 pi) is diagonal: same gate name, same qubits,
    other member action, so another key."""
    composed_runs.clear()
    levels = [RUN_OF_FOUR[0], [("rx", (0,), [math.pi])]] + RUN_OF_FOUR[1:]
    session, handles = built(levels)
    with session:
        session.update_state()
        assert coalesced(session) == (1, 1)
        rx = next(h for h in handles if h.gate.name == "rx")
        rx = session.update_gate(rx, 2 * math.pi)
        session.update_state()
        assert_computed(session)
        assert coalesced(session) == (1, 1)
        session.update_gate(rx, math.pi)
        session.update_state()
        assert_computed(session)
        assert coalesced(session) == (1, 0)


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


def test_span_and_explanation_count_the_same_lookups():
    composed_runs.clear()
    session, _ = built(BEHIND_RY, tracing=True)
    with session:
        session.update_state()
        retune_the_first_ry(session)
        spans = [
            r.attrs for r in session.telemetry.tracer.spans() if r.name == "plan.build"
        ]
        assert [s["runs_recomposed"] for s in spans] == [1, 0]
        assert [s["runs"] for s in spans] == [1, 1]
        assert coalesced(session) == (1, 0)


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
