"""One differential state machine for every session-level equivalence.

qTask's contract (§III.C-F) is that an incremental update lands on exactly
the state a from-scratch simulation of the current circuit has, whatever
modifiers, forks, checkpoints, retunes, dynamic operations and injected
faults came before.  :class:`SessionMachine` drives :class:`~repro.QTask`
sessions through hypothesis-drawn rule sequences over the whole knob space
and holds every live session against oracles that share no code with the
engine (``tests/conftest.py``).  After every step:

* in every session the step touched, the frontier sweep names exactly what
  :class:`FrontierOracle` derives from outside, the declarers the covers
  give each block are the declaring stages by seq, and every store's held
  mask and memory report add up to its blocks;
* a session with nothing pending has the dense oracle's state (1e-10), its
  held blocks are declared ones and prefix states, its run records agree
  with its stores, and every read resolves to the newest-holder scan; a
  session no rule touched has not moved by a bit;
* every Pauli sum asked so far gets the same answer from the session's
  engine, an engine invalidated before each query and ``dense_expectation``;
* ``memory_report()`` adds up, and fresh, forked and restored simulators
  have one attribute set (``forked_gate_map`` is a fork's alone).

The rules check what they alone can see: an update's planned sources and
every as-of view against the scan, a cleared circuit's empty declarer view,
``run_shots`` against one replay per shot, and recovery from a scripted
:class:`~repro.core.faults.FaultPlan`.
The machine parks the ambient (chaos-mode) plan for its whole run, so its
draws never shift the seeded fault streams later tests see.

A property is a thin call: ``run_machine(rules=..., max_examples=...,
**pins)`` names the rules that may fire and fixes the knobs it pins.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import QTask
from repro.core import faults
from repro.core.blocks import mask_blocks
from repro.core.circuit import CircuitObserver
from repro.core.cow import IndexReader, MemoryReport
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.gates import Gate
from repro.core.stage import MatVecStage
from repro.observables import (
    ObservablesEngine,
    PauliString,
    PauliSum,
    dense_expectation,
)

from .conftest import (
    FrontierOracle,
    StoreChain,
    assert_held_blocks_are_prefix_states,
    assert_held_blocks_declared,
    assert_runs_are_consistent,
    assert_sources_come_from_earlier_plans,
    block_mask,
    declarers,
    dense_state,
    greedy_runs,
    newest_holder,
    random_gate,
    replay_trajectories,
    session_handles,
    swept_nodes,
    walked_paths,
)

NUM_CLBITS = 2
#: sessions open at once (root, forks, restores)
MAX_LIVE = 3
SHOTS = 24

#: the knob space: ``QTaskSimulator``'s keywords, the register width,
#: ``stepwise`` (one update per inserted gate instead of per update rule)
#: and ``ladder`` (QAOA-like layers prebuilt instead of random nets)
KNOBS = dict(
    num_qubits=st.integers(3, 6),
    block_size=st.sampled_from([2, 2, 4, 4, 8, 16, 64, 256]),
    num_workers=st.sampled_from([1, 2]),
    seed=st.integers(0, 999),
    tracing=st.booleans(),
    stepwise=st.booleans(),
    ladder=st.booleans(),
)

#: circuit edits (``update_state`` may always fire)
EDITS = frozenset(
    {"insert_net", "insert_gate", "remove", "remove_net", "update_gate", "edit_tail"}
)
DYNAMIC = frozenset({"measure", "reset", "c_if"})
#: everything that changes a circuit or makes a session: the ids below pin
#: this and add what they check (faults, expectations, shots)
MODIFIERS = EDITS | DYNAMIC | {"fork", "close_fork", "checkpoint_restore"}
RULES = MODIFIERS | {"run_shots", "expectation", "inject_fault"}
#: the budget the ids driving the ``MODIFIERS`` rules share
MODIFIERS_BUDGET = dict(max_examples=25, steps=30)
#: fires only where named: emptying the circuit every few steps would keep
#: every other run's circuits shallow
CLEAR = "clear_circuit"

#: seeds of the ``random.Random`` a rule draws gates and observables from
SEEDS = st.integers(0, 2**32 - 1)

#: 0 / pi / 2 pi are where a gate's classification (diagonal, monomial,
#: identity) can flip under a retune
ANGLES = st.sampled_from([0.0, np.pi, 2 * np.pi]) | st.floats(0.0, 2 * np.pi)

#: the recovery counters ``statistics()`` reports; a fault absorbed at
#: either site grows the first (its chunk re-executed run by run)
RETRIES = ("backend_fallbacks", "run_retries")


def run_machine(tmp_path=None, *, rules=RULES, max_examples=25, steps=30, **pins):
    """Run :class:`SessionMachine` ``max_examples`` times.

    ``tmp_path`` is where ``checkpoint_restore`` writes; ``rules`` names the
    rules that may fire besides ``update_state`` (the others are hidden from
    hypothesis, which then never draws and rejects them); ``pins`` fixes
    :data:`KNOBS` by name.
    """
    every = RULES | {CLEAR}
    unknown = set(pins) - set(KNOBS) or set(rules) - every
    assert not unknown, unknown
    assert tmp_path is not None or "checkpoint_restore" not in rules
    machine = type(
        "SessionMachine",
        (SessionMachine,),
        {
            **dict.fromkeys(every - set(rules)),
            "enabled": frozenset(rules),
            "pins": pins,
            "tmp_path": tmp_path,
        },
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )


# ---------------------------------------------------------------------------
# drawing gates and observables
# ---------------------------------------------------------------------------


def mostly_classical_gate(rng, qubits):
    """Diagonal and permutation gates, now and then anything.

    A stage that reads everything is affected whole by any dirt upstream and
    dirties everything downstream: circuits full of them hide scoping bugs.
    """
    if rng.random() < 0.1:
        return random_gate(rng, qubits)
    if len(qubits) >= 2 and rng.random() < 0.5:
        name = rng.choice(["cx", "cz", "swap", "cp", "crz", "rzz"])
        params = () if name in ("cx", "cz", "swap") else (rng.uniform(0, 2 * np.pi),)
        return Gate(name, tuple(rng.sample(list(qubits), 2)), params)
    name = rng.choice(["x", "y", "z", "s", "t", "rz", "p"])
    params = (rng.uniform(0, 2 * np.pi),) if name in ("rz", "p") else ()
    return Gate(name, (rng.choice(list(qubits)),), params)


def build_ladder(session, rng, levels):
    """``levels`` QAOA-like layers after an H on every qubit: two nets of
    ``rzz`` on neighbouring pairs and one of ``rx`` on every qubit, whose
    superposition stage closes the ``rzz`` run before it."""
    n = session.num_qubits
    layers = [[Gate("h", (q,)) for q in range(n)]]
    for _ in range(levels):
        layers += [[Gate("rzz", (q, q + 1), (rng.uniform(0, 2 * np.pi),))
                    for q in range(first, n - 1, 2)] for first in (0, 1)]
        layers.append([Gate("rx", (q,), (rng.uniform(0.1, 3.0),)) for q in range(n)])
    for layer in layers:
        net = session.insert_net()
        for gate in layer:
            session.insert_gate(gate, net)


def _pick_net(session, rng):
    """A random net with its free qubits and clbits; None when it has none."""
    nets = session.nets()
    if not nets:
        return None
    net = rng.choice(nets)
    free = sorted(set(range(session.num_qubits)) - net.qubits_in_use())
    clbits = sorted(set(range(NUM_CLBITS)) - net.clbits_in_use())
    return (net, free, clbits) if free else None


def _measure(session, net, free, clbits, rng):
    session.measure(net, rng.choice(free), rng.choice(clbits))


def _reset(session, net, free, clbits, rng):
    session.reset(net, rng.choice(free))


def _c_if(session, net, free, clbits, rng):
    bits = rng.sample(clbits, rng.randint(1, len(clbits)))
    session.c_if(
        random_gate(rng, free), net, condition=(bits, rng.randrange(1 << len(bits)))
    )


#: a dynamic operation into a net with free qubits and clbits
DYNAMIC_OPS = {"measure": _measure, "reset": _reset, "c_if": _c_if}


def _draw_term(rng, qubits, max_weight=3):
    support = rng.sample(qubits, rng.randint(1, min(max_weight, len(qubits))))
    return PauliString(
        {q: rng.choice("XYZ") for q in support},
        coefficient=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    )


def draw_observable(rng, num_qubits, block_len):
    """Identity + supports below / above / straddling the block boundary."""
    bits = min(block_len, 1 << num_qubits).bit_length() - 1
    low, high = list(range(bits)), list(range(bits, num_qubits))
    terms = [PauliString((), coefficient=complex(rng.uniform(-1, 1), 0.5))]
    if low:
        terms.append(_draw_term(rng, low))
    if high:
        terms.append(_draw_term(rng, high))
    if low and high:
        straddling = {rng.choice(low): rng.choice("XYZ"),
                      rng.choice(high): rng.choice("XY")}
        terms.append(PauliString(straddling, coefficient=1.5 - 0.25j))
    terms += [_draw_term(rng, list(range(num_qubits))) for _ in range(2)]
    return PauliSum(terms)


def dense_value(state, obs) -> complex:
    """``sum_t c_t <P_t>`` with every ``<P_t>`` from the dense path."""
    return sum(
        t.coefficient * dense_expectation(state, PauliString(t.paulis))
        for t in obs.terms
    )


def assert_close(actual, desired, *, atol=0.0, rtol=0.0):
    """``np.testing.assert_allclose``, whose bookkeeping costs more than the
    comparison at these sizes: it runs only to report a mismatch.  (The
    defaults ask for bit-identical arrays.)"""
    if actual.shape != desired.shape or not np.all(
        np.abs(actual - desired) <= atol + rtol * np.abs(desired)
    ):
        np.testing.assert_allclose(actual, desired, atol=atol, rtol=rtol)


# ---------------------------------------------------------------------------
# the declared covers and block sources, against the newest-holder scan
# ---------------------------------------------------------------------------


def assert_index_matches_stage_order(graph):
    """The declarers the covers give each block are exactly its declaring
    partitions' stages, by seq; the edge count is the edge view's length;
    every store's held mask is its blocks, and the memory report is their
    bytes."""
    expected = [[] for _ in range(graph._full_range.last + 1)]
    for stage in graph.stages:
        for node in graph.partition_nodes(stage):
            for block in node.block_range:
                expected[block].append(stage)
    assert declarers(graph) == expected
    assert graph.num_nodes() == len(graph.all_nodes())
    assert graph.num_edges() == len(graph.edges())
    stores = [stage.store for stage in graph.stages]
    for store in stores:
        assert store.held == block_mask(store.stored_blocks())
    report = MemoryReport.from_stores(stores)
    assert report.allocated_bytes == sum(
        store.get_block(b).nbytes for store in stores for b in store.stored_blocks()
    )
    assert report.shared_bytes == sum(
        store.get_block(b).nbytes for store in stores for b in mask_blocks(store.shared)
    )


def owner_per_block(reader, n_blocks):
    """The store ``reader`` resolves each block to, off its owner runs."""
    return [
        store
        for store, first, last in reader.owner_runs(range(n_blocks))
        for _ in range(first, last + 1)
    ]


def assert_reads_equal_the_scan(sim, *, every_view=True):
    """Reads as of every stage seq (or only the final state's) resolve to
    the newest holder a forward scan over the stage stores finds, and read
    the naive reversed chain walk's amplitudes."""
    stages = sim.graph.stages
    holders = [sim._initial] * sim.n_blocks

    def check(view):
        reader = IndexReader(sim.graph, sim._initial, view)
        for block, store in enumerate(owner_per_block(reader, sim.n_blocks)):
            assert store is holders[block], (view, block)

    for seq, stage in enumerate(stages):
        if every_view:
            check(seq)
        for block in stage.store.stored_blocks():
            holders[block] = stage.store
    check(sys.maxsize)
    chain = StoreChain([sim._initial] + [s.store for s in stages])
    assert_close(sim.state(), chain.full_vector())
    assert_close(sim.state_reader().full_vector(), chain.full_vector())
    for basis in (0, sim.dim - 1):
        assert sim.amplitude(basis) == chain.read_range(basis, basis)[0]


def update_and_check_planned_sources(session, oracle=None):
    """Run the pending update, look at the plan it executed (the last one it
    built: a recovery re-plans), and compare every planned source with the
    scan over the updated stores -- and, given the session's
    :class:`FrontierOracle`, its runs with the coalescing rule applied from
    scratch to what the oracle says is affected."""
    sim = session.simulator
    runs = None if oracle is None else greedy_runs(session, oracle.expected())
    built = []
    build = sim.updater.build_plan
    sim.updater.build_plan = lambda: built.append(build()) or built[-1]
    try:
        session.update_state()
    finally:
        del sim.updater.build_plan  # the instance attribute shadowing the method
    plan = built[-1]
    assert runs is None or [sp.members for sp in plan.stage_plans] == runs
    for sp in plan.stage_plans:
        # O(affected blocks): exactly the recomputed ranges are planned -- of
        # a coalesced run, the union of its members' covers, once -- as
        # disjoint (store, mask) pairs
        union = 0
        for store, mask in sp.reader.sources:
            assert mask and not union & mask, (sp.stage, mask)
            union |= mask
            for block in range(mask.bit_length()):
                if mask >> block & 1:
                    # ... read as of the plan's first stage: a source inside
                    # an earlier run is that run's last declarer, the one
                    # that holds it
                    want = newest_holder(
                        sim._initial, sim.graph.stages, block, sp.stage.seq
                    )
                    assert store is want, (sp.stage, block)
        assert union == block_mask(b for r in sp.block_ranges for b in r)
    # the plans run in list order: each reads only what earlier plans wrote
    assert_sources_come_from_earlier_plans(
        plan.stage_plans, [sp.reader.sources for sp in plan.stage_plans]
    )
    return plan


def _recoveries(session) -> dict:
    stats = session.statistics()
    return {key: stats[key] for key in RETRIES}


class _Stepwise(CircuitObserver):
    """``stepwise``: an update after every inserted gate, the sweep checked
    just before it (``conftest.open_session``'s observer would update
    before the frontier oracle saw the insert)."""

    def __init__(self, session, oracle) -> None:
        self.session = session
        self.oracle = oracle

    def on_gate_inserted(self, circuit, handle) -> None:
        assert swept_nodes(self.session) == self.oracle.expected()
        self.session.update_state()
        # the oracle reads the runs of an update before the next modifier
        assert not swept_nodes(self.session) and not self.oracle.expected()


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------


class SessionMachine(RuleBasedStateMachine):
    """Sessions, their oracles, and the rules that drive them."""

    #: set per run by :func:`run_machine`
    enabled = RULES
    pins: dict = {}
    tmp_path = None
    #: checkpoint file names, never reused (replacing a synced file is slow)
    checkpoints = itertools.count()

    sessions = Bundle("sessions")

    def __init__(self) -> None:
        super().__init__()
        self.live = []
        self.oracles = {}
        #: an engine shadowing each session's own, invalidated before each
        #: query: every answer it gives is computed cold
        self.cold = {}
        #: each session's ``state()`` and version when last checked
        self.seen = {}
        self.versions = {}
        #: sessions a rule may have changed since the last check
        self.touched = set()
        #: the Pauli sums asked after every step (with the ``expectation``
        #: rule on), whether one is new, and each session's dense values
        self.observables = []
        self.asked = False
        self.wants = {}
        #: gate uid -> the parameters it had before each retune
        self.earlier = {}
        self.shots_run = 0
        self.parked = faults.install(None)

    def teardown(self) -> None:
        for session in reversed(self.live):
            session.close()
        faults.install(self.parked)

    def _adopt(self, session):
        self.live.append(session)
        self.oracles[session] = FrontierOracle(session)
        self.cold[session] = ObservablesEngine(session.simulator)
        self.touched.add(session)
        return session

    @initialize(
        target=sessions, data=st.data(), levels=st.integers(2, 6), seed=SEEDS,
        classical=st.booleans(),
    )
    def open(self, data, levels, seed, classical):
        """A session on drawn knobs, prebuilt with ``levels`` random nets
        (something to remove and retune from the first step on).

        With dynamic rules on, every qubit is put in superposition first and
        most nets are followed by a measure / reset / ``c_if``: collapses
        are coin flips and shots spread over many outcome paths.  With the
        ``expectation`` rule on, two Pauli sums are asked from the start.
        """
        pinned = {name: st.just(value) for name, value in self.pins.items()}
        knobs = data.draw(st.fixed_dictionaries({**KNOBS, **pinned}), label="knobs")
        self.knobs = dict(knobs)
        stepwise, ladder = knobs.pop("stepwise"), knobs.pop("ladder")
        session = QTask(knobs.pop("num_qubits"), num_clbits=NUM_CLBITS, **knobs)
        self.attrs = set(vars(session.simulator))
        self._adopt(session)
        if stepwise:
            session.circuit.register_observer(
                _Stepwise(session, self.oracles[session])
            )
        rng = random.Random(seed)
        draw = mostly_classical_gate if classical else random_gate
        dynamic = sorted(DYNAMIC & self.enabled)
        n = session.num_qubits
        if ladder:
            build_ladder(session, rng, (levels + 1) // 2)
            levels = 0
        elif dynamic:
            spread = session.insert_net()
            for q in range(n):
                session.insert_gate(Gate("ry", (q,), (rng.uniform(0.8, 2.4),)), spread)
        for _ in range(levels):
            net, free = session.insert_net(), list(range(n))
            while free and rng.random() < 0.7:
                placed = session.insert_gate(draw(rng, free), net).gate
                free = [q for q in free if q not in placed.qubits]
            if dynamic and rng.random() < 0.6:
                kind = rng.choice(dynamic + ["measure"] * ("measure" in dynamic))
                net = session.insert_net()
                DYNAMIC_OPS[kind](session, net, list(range(n)), range(NUM_CLBITS), rng)
        if "expectation" in self.enabled:
            first = self._draw_observable(rng)
            self.observables = [first, self._sharing(first, rng)]
            self.asked = True
        assert swept_nodes(session) == self.oracles[session].expected()
        update_and_check_planned_sources(session, self.oracles[session])
        return session

    # -- circuit edits ------------------------------------------------------

    @rule(session=sessions, after=st.none() | st.integers(0, 63))
    def insert_net(self, session, after):
        """Append a net, or insert one mid-circuit after net ``after``."""
        nets = session.nets()
        session.insert_net(None if after is None or not nets else nets[after % len(nets)])
        self.touched.add(session)

    @rule(
        session=sessions, seed=SEEDS, count=st.integers(1, 6),
        classical=st.booleans(),
    )
    def insert_gate(self, session, seed, count, classical):
        """``count`` random gates (or mostly diagonal / permutation ones),
        each into a random net -- a new one when that net is full."""
        rng = random.Random(seed)
        draw = mostly_classical_gate if classical else random_gate
        for _ in range(count):
            picked = _pick_net(session, rng)
            if picked is None:
                session.insert_gate(draw(rng, range(session.num_qubits)),
                                    session.insert_net())
            else:
                net, free, _ = picked
                session.insert_gate(draw(rng, free), net)
        self.touched.add(session)

    @rule(session=sessions, at=st.integers(0, 63), count=st.integers(1, 4))
    def remove(self, session, at, count):
        """Remove ``count`` neighbours in circuit order: dirt handed on from
        anchor to anchor (the sweep is checked after each)."""
        for _ in range(count):
            handles = session_handles(session)
            if not handles:
                break
            session.remove_gate(handles[at % len(handles)])
            assert swept_nodes(session) == self.oracles[session].expected()
        self.touched.add(session)

    @rule(session=sessions, at=st.integers(0, 63))
    def remove_net(self, session, at):
        """Remove a net with gates, never the last one: later inserts land
        at global positions past the gap it leaves."""
        nets = [net for net in session.nets() if net.gates]
        if len(nets) > 1:
            session.remove_net(nets[at % len(nets)])
        self.touched.add(session)

    @rule(session=sessions)
    def clear_circuit(self, session):
        """Remove every net: the update leaves no declarer behind and lands
        on |0>."""
        for net in session.nets():
            session.remove_net(net)
        session.update_state()
        sim = session.simulator
        assert not any(declarers(sim.graph))
        assert sim.graph.holders((1 << sim.n_blocks) - 1, sys.maxsize) == []
        state = session.state()
        assert state[0] == 1.0 and not state[1:].any()
        self.touched.add(session)

    @rule(
        session=sessions, at=st.integers(0, 63),
        angles=st.lists(ANGLES, min_size=3, max_size=3), back=st.booleans(),
    )
    def update_gate(self, session, at, angles, back):
        """Retune to new angles (0 / pi crossovers included), or back to the
        ones a gate had before its last retune (a cached composite)."""
        tunable = [
            h for h in session_handles(session)
            if isinstance(h.gate, Gate) and h.gate.params
        ]
        if not tunable:
            return
        handle = tunable[at % len(tunable)]
        history = self.earlier.setdefault(handle.uid, [])
        params = history[-1] if back and history else angles[: len(handle.gate.params)]
        history.append(handle.gate.params)
        session.update_gate(handle, *params)
        self.touched.add(session)

    @rule(session=sessions, at=st.integers(0, 63), angle=ANGLES, remove=st.booleans())
    def edit_tail(self, session, at, angle, remove):
        """Retune a gate of a superposition stage closing a run (the run
        recomputes from its head), or remove its net (the run dissolves);
        with no run closed, of any superposition stage."""
        sim = session.simulator
        tails = [run.tail for run in sim.graph.runs() if run.tail is not None] or [
            stage for stage in sim.graph.stages if isinstance(stage, MatVecStage)
        ]
        if tails:
            tail = tails[at % len(tails)]
            members = sim.stages.members(tail)
            handles = [h for h in members if h.gate.params]
            if remove or not handles:
                session.remove_net(members[0].net)
            else:
                handle = handles[at % len(handles)]
                session.update_gate(handle, *[angle] * len(handle.gate.params))
        self.touched.add(session)

    # -- dynamic operations and updates -----------------------------------------

    def _dynamic(self, session, seed, kind):
        rng = random.Random(seed)
        picked = _pick_net(session, rng)
        if picked is None or not picked[2]:
            session.insert_net()
        else:
            DYNAMIC_OPS[kind](session, *picked, rng)
        self.touched.add(session)

    @rule(session=sessions, seed=SEEDS)
    def measure(self, session, seed):
        self._dynamic(session, seed, "measure")

    @rule(session=sessions, seed=SEEDS)
    def reset(self, session, seed):
        self._dynamic(session, seed, "reset")

    @rule(session=sessions, seed=SEEDS)
    def c_if(self, session, seed):
        self._dynamic(session, seed, "c_if")

    @rule(session=sessions)
    def update_state(self, session):
        """The update's planned sources and every as-of view are the scan's."""
        update_and_check_planned_sources(session, self.oracles[session])
        assert_reads_equal_the_scan(session.simulator)
        self.touched.add(session)

    @rule(
        session=sessions, site=st.sampled_from(faults.FAULT_SITES),
        count=st.sampled_from([1, 3, 8, 40, 400]),
    )
    def inject_fault(self, session, site, count):
        """The first ``count`` evaluations of ``site`` fail in one update."""
        pending = swept_nodes(session)
        before = _recoveries(session)
        plan = FaultPlan(script=[(site, i) for i in range(1, count + 1)])
        previous = faults.install(plan)
        try:
            session.update_state()
            failed = False
        except FaultInjected:
            failed = True
        finally:
            faults.install(previous)
        self.touched.add(session)
        if failed:
            # retries ran out: the dirt is still pending, the next update lands
            assert plan.total_injected() and swept_nodes(session) == pending
            session.update_state()
        else:
            after = _recoveries(session)
            assert not plan.total_injected() or (
                after["backend_fallbacks"] > before["backend_fallbacks"]
            ), (site, count, before, after)
        assert_close(session.state(), dense_state(session), atol=1e-10, rtol=1e-7)

    # -- sessions -----------------------------------------------------------------

    @precondition(lambda self: len(self.live) < MAX_LIVE)
    @rule(target=sessions, session=sessions)
    def fork(self, session):
        """A fork (edited later from either side) owns nothing yet."""
        child = session.fork()
        report = child.memory_report()
        assert report.owned_bytes == 0
        assert report.allocated_bytes == session.memory_report().allocated_bytes
        self.touched.add(session)
        return self._adopt(child)

    @rule(target=sessions, session=consumes(sessions))
    def close_fork(self, session):
        if not session.is_fork:
            return session  # only forks close: the session goes back
        session.close()
        self.live.remove(session)
        self.touched.discard(session)
        return multiple()

    @precondition(lambda self: len(self.live) < MAX_LIVE)
    @rule(target=sessions, session=sessions)
    def checkpoint_restore(self, session):
        path = os.path.join(self.tmp_path, f"{next(self.checkpoints)}.qtckpt")
        session.checkpoint(path)
        restored = QTask.restore(path, num_workers=self.knobs["num_workers"])
        assert_close(restored.state(), session.state())
        # the collapses travel with their masses and outcomes
        assert restored.simulator.collapse_path() == session.simulator.collapse_path()
        self.touched.add(session)
        return self._adopt(restored)

    @precondition(lambda self: self.shots_run < 2)
    @rule(session=sessions, seed=st.integers(0, 9972), force=st.booleans())
    def run_shots(self, session, seed, force):
        """``run_shots`` is one replay per shot, and simulates one path per
        distinct outcome record of the collapses before the last
        measurement.  (Two dozen replays make it the costliest rule: it
        fires at most twice a run.)"""
        self.shots_run += 1
        record = session.outcomes
        forced = None
        if force:
            # A forced operation never branches.  (The first collapse's
            # masses hang on no earlier outcome, so the side it just took
            # has mass on every trajectory.)
            session.update_state()
            collapses = [op for op, *_ in session.simulator.collapse_path()]
            forced = record.replace_forced({
                **record._forced,
                **{op: record.outcome_of(op) for op in collapses[:1]},
            })
        try:
            trajectories = list(replay_trajectories(session, SHOTS, seed))
            walked = session.telemetry.metrics.counter("shots.trajectories")
            before = walked.value
            counts = session.run_shots(SHOTS, seed=seed)
            assert counts == Counter(bits for bits, _ in trajectories)
            assert walked.value - before == walked_paths(session, trajectories) <= SHOTS
        finally:
            if forced is not None:
                record.replace_forced(forced)
        self.touched.add(session)

    def _draw_observable(self, rng):
        n = self.knobs["num_qubits"]
        return draw_observable(rng, n, min(1 << n, self.knobs["block_size"]))

    def _sharing(self, first, rng):
        """A Pauli sum sharing terms with ``first``: within one flip mask,
        terms first seen at different times carry different validity
        bitmaps."""
        return PauliSum(first.terms[::2]) + self._draw_observable(rng)

    @rule(session=sessions, seed=SEEDS)
    def expectation(self, session, seed):
        """A new second Pauli sum, asked of ``session`` now and of every
        session after every step, modifiers pending or not."""
        obs = self._sharing(self.observables[0], random.Random(seed))
        want = dense_value(session.state(), obs)
        assert abs(session.simulator.observables.expectation_value(obs) - want) < 1e-10
        self.observables[1] = obs
        self.asked = True

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def sessions_hold(self):
        """Every check, in this order: the first two read which sessions
        the step touched, and that is reset last."""
        self._sweep_is_the_frontier_oracle()
        self._sessions_equal_their_oracles()
        self._memory_reports_add_up()
        self._sessions_share_one_attribute_set()
        self.touched.clear()
        self.asked = False

    def _sweep_is_the_frontier_oracle(self):
        # (an untouched session's graph has not moved: the next check holds
        # its state to the bit)
        for session in self.touched:
            assert swept_nodes(session) == self.oracles[session].expected()
            assert_index_matches_stage_order(session.simulator.graph)

    def _sessions_equal_their_oracles(self):
        """An untouched session has not moved a bit; a touched one that did
        is held against the dense oracle (when computed) and the scan.
        Every session's cached expectations equal the dense values, and --
        when those may have moved -- its cold engine's."""
        for session in self.live:
            sim = session.simulator
            state = session.state()
            seen = self.seen.get(session)
            moved = seen is None or not np.array_equal(state, seen)
            if session not in self.touched:
                assert_close(state, seen)
            else:
                self._check_touched(session, state)
            self.seen[session] = state
            if moved or self.asked:
                self.wants[session] = [dense_value(state, obs) for obs in self.observables]
            engine = sim.observables
            cold = self.cold[session]
            for obs, want in zip(self.observables, self.wants.get(session, ())):
                assert abs(engine.expectation_value(obs) - want) < 1e-10
                # a query leaves every partial of its terms valid
                assert all(engine._terms[t.key].valid.all() for t in obs.terms)
                if moved or self.asked:
                    cold.invalidate()
                    assert cold.cached_partials == 0
                    assert abs(cold.expectation_value(obs) - want) < 1e-10

    def _check_touched(self, session, state):
        sim = session.simulator
        # the update count, anything pending, and which stages there are:
        # unchanged, the checks below cannot answer differently
        version = (sim.state_epoch, tuple(map(id, sim.graph.stages)))
        if self.versions.get(session) == version:
            return
        self.versions[session] = version
        computed = not sim.graph.has_pending and sim.state_epoch[0]
        if computed:
            assert_close(state, dense_state(session), atol=1e-10, rtol=1e-7)
            assert_held_blocks_declared(session)
            assert_held_blocks_are_prefix_states(session)
            assert_runs_are_consistent(session)
        assert_reads_equal_the_scan(sim, every_view=False)

    def _memory_reports_add_up(self):
        for session in self.live:
            sim = session.simulator
            report = sim.memory_report()
            stages = sim.graph.stages
            block_bytes = min(sim.dim, sim.block_size) * 16
            assert report.num_stores == len(stages)
            assert report.dense_bytes == len(stages) * sim.dim * 16
            assert report.allocated_bytes == report.stored_blocks * block_bytes
            assert report.shared_bytes == report.shared_blocks * block_bytes
            assert 0 <= report.owned_bytes <= report.allocated_bytes

    def _sessions_share_one_attribute_set(self):
        for session in self.live:
            attrs = set(vars(session.simulator))
            assert attrs - {"forked_gate_map"} == self.attrs
            assert ("forked_gate_map" in attrs) == session.is_fork
