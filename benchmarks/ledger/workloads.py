"""The five ledger workloads.

Every workload drives the program only through its public API, and every
call goes through a :class:`harness.Probe` so the traced pass can see it.
The protocol :func:`harness.measure` expects:

``setup(seed, probe, traced, m)``
    generate inputs from ``seed``, build the qTask side and the dense
    baseline, run ``WARMUP_TRIPS`` checked round trips;
``run_round(budget, min_trips, m)``
    run round trips for ``budget`` seconds (at least ``min_trips``), each
    on the qTask side and on the dense baseline back to back, compare the
    two outside the timed interval, append one :class:`harness.Round`;
``layer_probes(probe)``
    direct timings of layers the round trips do not call by themselves;
``teardown()``
    close everything ``setup`` built.

The engine workloads share :class:`EngineWorkload`; ``service_mix`` has
its own loop because its clients run concurrently.
"""

from __future__ import annotations

import random
import statistics
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import Backend, QTask, SessionPool
from repro.baselines import QulacsLikeSimulator
from repro.circuits import build_levels
from repro.core.blocks import DEFAULT_BLOCK_SIZE
from repro.core.circuit import Circuit
from repro.core.classical import OutcomeRecord
from repro.core.gates import Gate
from repro.observables import maxcut_hamiltonian
from repro.qasm import parse_qasm, to_qasm
from repro.qasm.levelize import program_to_circuit

from harness import (
    TOLERANCE, WARMUP_TRIPS, Measurement, Probe, Round, Trip,
    drain_program_spans, median, yardstick_seconds,
)

BLOCK_SIZE = DEFAULT_BLOCK_SIZE
#: the dense baseline and the untraced twin call straight through
NO_PROBE = Probe(False)


# ---------------------------------------------------------------------------
# sampling a session between trips (never inside a timed interval)
# ---------------------------------------------------------------------------


class Sampler:
    """Reads a qTask session's counters after a trip.

    Plan counters are cumulative per session, so the sampler keeps the last
    reading and reports per-trip deltas.  Untraced, only the memory report
    is read (``peak_state_bytes`` needs it); traced, everything is.
    """

    _PLAN = (("plan.plans_built", "plans_built"),
             ("plan.runs_batched", "runs_batched"),
             ("plan.chunks", "plan_chunks"),
             ("kernel.backend_fallbacks", "backend_fallbacks"))

    def __init__(self, traced: bool, m: Measurement) -> None:
        self.traced = traced
        self.m = m
        self._last_plan: Dict[str, int] = {}

    def new_session(self) -> None:
        self._last_plan = {}

    def sample(self, session: QTask, t: Trip) -> None:
        report = session.memory_report()
        t.facts["cow.allocated_bytes"] = report.allocated_bytes
        if not self.traced:
            return
        t.facts["cow.owned_bytes"] = report.owned_bytes
        t.facts["cow.shared_bytes"] = report.shared_bytes
        t.facts["cow.savings_fraction"] = report.savings_fraction
        last = session.simulator.last_update
        t.facts["update.affected_partitions"] = last.affected_partitions
        t.facts["update.total_partitions"] = last.total_partitions
        t.facts["update.block_writes"] = last.executed_block_writes
        stats = session.statistics()
        t.facts["graph.nodes"] = stats["num_nodes"]
        t.facts["graph.edges"] = stats["num_edges"]
        t.facts["graph.stages"] = stats["num_stages"]
        t.facts["store.remote_reads"] = stats["store_remote_reads"]
        t.facts["store.bytes_shipped"] = stats["store_bytes_shipped"]
        t.facts["observe.cached_partials"] = stats["cached_observable_partials"]
        for fact, key in self._PLAN:
            t.facts[fact] = stats[key] - self._last_plan.get(key, 0)
            self._last_plan[key] = stats[key]
        self.drain(session.telemetry.tracer, t)

    def drain(self, tracer, t: Optional[Trip]) -> None:
        """Empty the program's span ring buffer into ``t`` and the totals."""
        totals, counts, dropped, records = drain_program_spans(tracer)
        if t is not None:
            t.program = (totals, counts)
        self.m.spans_dropped += dropped
        self.m.spans_recorded += len(records)
        self.m.all_program_spans.extend(records)


def close_enough(a, b) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= TOLERANCE)


# ---------------------------------------------------------------------------
# engine workloads
# ---------------------------------------------------------------------------


class EngineWorkload:
    """Round trips on one qTask session against one dense simulator.

    Subclasses provide ``prepare`` (input generation), ``open_qtask`` /
    ``open_dense`` (build one side; a side has ``trip(inp, t)`` returning
    what the user observed, and ``close()``) and ``next_input`` (the
    seeded edit).  In the traced pass a second, untraced qTask side runs
    the same inputs so tracing overhead is measured, not assumed.
    """

    name = ""
    #: how many values one trip compares with the oracle
    checks_per_trip = 1

    def __init__(self, quick: bool) -> None:
        self.quick = quick

    # -- protocol ----------------------------------------------------------

    def setup(self, seed: int, probe: Probe, traced: bool, m: Measurement) -> None:
        self.rng = random.Random(seed)
        self.probe = probe
        self.sampler = Sampler(traced, m)
        self.trip_id = 0
        self.prepare()
        self.qtask = self.open_qtask(probe, traced, self.sampler)
        self.twin = (
            self.open_qtask(NO_PROBE, False, Sampler(False, m))
            if traced else None
        )
        self.dense = self.open_dense()
        for _ in range(WARMUP_TRIPS):
            self.one_trip(m)

    def teardown(self) -> None:
        for side in (self.qtask, self.twin, self.dense):
            if side is not None:
                side.close()

    def run_round(self, budget: float, min_trips: int, m: Measurement) -> None:
        trips: List[Trip] = []
        start = perf_counter()
        while perf_counter() - start < budget or len(trips) < min_trips:
            trips.append(self.one_trip(m))
        m.rounds.append(Round(trips))

    def layer_probes(self, probe: Probe) -> Dict[str, float]:
        return {}

    # -- one checked round trip ---------------------------------------------

    def one_trip(self, m: Measurement) -> Trip:
        inp = self.next_input()
        t = Trip()
        self.probe.begin_trip(self.trip_id)
        self.trip_id += 1
        m.attempted += 1
        try:
            observed = self.qtask.trip(inp, t)
            if self.twin is not None:
                twin_trip = Trip()
                self.twin.trip(inp, twin_trip)
                t.untraced_seconds = twin_trip.seconds
            dense_trip = Trip()
            expected = self.dense.trip(inp, dense_trip)
            t.dense_seconds = dense_trip.seconds
            if self.sampler.traced:
                t.yardstick_seconds = yardstick_seconds()
            t.ok = self.agree(observed, expected)
            m.checks += self.checks_per_trip
        except Exception as exc:  # a miss is a failed trip, not an abort
            t.ok = False
            m.errors.append(f"{self.name}#{self.trip_id - 1}: {exc!r}")
        if not t.ok:
            m.failed += 1
        t.spans = self.probe.drain()
        m.all_harness_spans.extend(t.spans)
        m.peak_state_bytes = max(
            m.peak_state_bytes, int(t.facts.get("cow.allocated_bytes", 0)))
        return t

    def agree(self, observed, expected) -> bool:
        return all(close_enough(a, b) for a, b in zip(observed, expected))


class _Side:
    """One simulator under test: ``mod`` takes modifiers, ``sim`` updates."""

    def __init__(self, mod, sim, probe: Optional[Probe] = None,
                 sampler: Optional[Sampler] = None) -> None:
        self.mod = mod
        self.sim = sim
        self.probe = probe or NO_PROBE
        self.sampler = sampler
        if sampler is not None:
            sampler.new_session()

    def close(self) -> None:
        self.sim.close()

    def sample(self, t: Trip, **facts: float) -> None:
        """Untimed: read the session's counters into ``t`` (qTask side only)."""
        if self.sampler is not None:
            self.sampler.sample(self.sim, t)
            t.facts.update(facts)


def insert_levels(side: _Side, levels) -> tuple:
    """Insert ``levels`` net by net; returns (nets, handles per level)."""
    probe, mod = side.probe, side.mod
    nets, handles = [], []
    for level in levels:
        net = probe("modify.insert", mod.insert_net)
        nets.append(net)
        handles.append(
            [probe("modify.insert", mod.insert_gate, g, net) for g in level])
    return nets, handles


# -- full_build ---------------------------------------------------------------


class _FullBuildQTask:
    def __init__(self, wl, probe, tracing, sampler) -> None:
        self.wl, self.probe, self.tracing, self.sampler = wl, probe, tracing, sampler

    def trip(self, inp, t: Trip):
        probe = self.probe
        start = perf_counter()
        session = probe("session.open", QTask, self.wl.num_qubits,
                        num_workers=1, tracing=self.tracing)
        insert_levels(_Side(session, session, probe, self.sampler), self.wl.levels)
        probe("update_state", session.update_state)
        probs = probe("observe.probabilities", session.probabilities)
        seconds = perf_counter() - start
        self.sampler.sample(session, t)
        t.facts["modify.gates_inserted"] = self.wl.num_gates
        state = probe("cow.state_read", session.state)
        start = perf_counter()
        probe("session.close", session.close)
        t.seconds = seconds + perf_counter() - start
        return probs, state

    def close(self) -> None:
        pass


class _FullBuildDense:
    def __init__(self, wl) -> None:
        self.wl = wl

    def trip(self, inp, t: Trip):
        start = perf_counter()
        circuit = Circuit(self.wl.num_qubits)
        side = _Side(circuit, QulacsLikeSimulator(circuit, num_workers=1))
        insert_levels(side, self.wl.levels)
        side.sim.update_state()
        probs = side.sim.probabilities()
        side.close()
        t.seconds = perf_counter() - start
        return probs, side.sim.state()

    def close(self) -> None:
        pass


class FullBuild(EngineWorkload):
    name = "full_build"
    checks_per_trip = 2

    def prepare(self) -> None:
        self.num_qubits, self.levels = build_levels(
            "qft", num_qubits=8 if self.quick else 12)
        self.num_gates = sum(len(level) for level in self.levels)

    def open_qtask(self, probe, tracing, sampler):
        return _FullBuildQTask(self, probe, tracing, sampler)

    def open_dense(self):
        return _FullBuildDense(self)

    def next_input(self):
        return None  # the circuit is the input; the seed has nothing to vary


# -- edit_mixed ---------------------------------------------------------------


class _EditSide(_Side):
    """A built circuit whose levels can be emptied and refilled."""

    def build(self, levels) -> "_EditSide":
        self.levels = levels
        self.nets, self.handles = insert_levels(self, levels)
        self.sim.update_state()
        return self

    def trip(self, inp, t: Trip):
        remove, insert = inp
        probe = self.probe
        start = perf_counter()
        for handle in self.handles[remove]:
            probe("modify.remove", self.mod.remove_gate, handle)
        removed = len(self.handles[remove])
        self.handles[remove] = []
        if insert is not None:
            self.handles[insert] = [
                probe("modify.insert", self.mod.insert_gate, g, self.nets[insert])
                for g in self.levels[insert]
            ]
        probe("update_state", self.sim.update_state)
        probs = probe("observe.probabilities", self.sim.probabilities)
        t.seconds = perf_counter() - start
        self.sample(t, **{
            "modify.gates_removed": removed,
            "modify.gates_inserted":
                len(self.levels[insert]) if insert is not None else 0,
        })
        return probs, probe("cow.state_read", self.sim.state)


class EditMixed(EngineWorkload):
    """Remove one level, re-insert the one removed last time, update.

    The edited levels come from the first ``BAND`` of the circuit's depth.
    The cost of an edit is set by the shallowest level it touches (all
    later partitions re-run), so unrestricted random levels give a round
    trip anywhere between 5% and 100% of a full update and a median that
    moves with the seed; inside the band it stays within about +-15%
    (affected fraction ~0.8) while the seed still picks every level.
    """

    name = "edit_mixed"
    checks_per_trip = 2
    BAND = 0.4

    def prepare(self) -> None:
        self.num_qubits, self.levels = build_levels(
            "qft", num_qubits=8 if self.quick else 13)
        self.band = [
            i for i in range(int(len(self.levels) * self.BAND))
            if self.levels[i]
        ]
        self.missing: Optional[int] = None

    def open_qtask(self, probe, tracing, sampler):
        session = QTask(self.num_qubits, num_workers=1, tracing=tracing)
        return _EditSide(session, session, probe, sampler).build(self.levels)

    def open_dense(self):
        circuit = Circuit(self.num_qubits)
        sim = QulacsLikeSimulator(circuit, num_workers=1)
        return _EditSide(circuit, sim).build(self.levels)

    def next_input(self):
        remove = self.rng.choice([i for i in self.band if i != self.missing])
        inp = (remove, self.missing)
        self.missing = remove
        return inp


# -- retune_sweep -------------------------------------------------------------


def ring_edge_groups(num_qubits: int):
    """Ring edges as two structurally parallel groups (even qubit counts)."""
    even = [(q, q + 1) for q in range(0, num_qubits - 1, 2)]
    odd = [(q, q + 1) for q in range(1, num_qubits - 1, 2)]
    odd.append((num_qubits - 1, 0))
    return [even, odd]


class _RetuneSide(_Side):
    """Ring-MaxCut QAOA with handles on the final round's angles."""

    GAMMAS = (0.40, 0.70, 1.00)
    BETAS = (0.90, 0.60, 0.30)

    def build(self, num_qubits: int, rounds: int, observable) -> "_RetuneSide":
        self.observable = observable
        groups = ring_edge_groups(num_qubits)
        levels, final = [[Gate("h", (q,)) for q in range(num_qubits)]], []
        for r in range(rounds):
            g, b = 2.0 * self.GAMMAS[r], 2.0 * self.BETAS[r]
            for group in groups:
                levels.append([Gate("cx", e) for e in group])
                levels.append([Gate("rz", (e[1],), (g,)) for e in group])
                levels.append([Gate("cx", e) for e in group])
            levels.append([Gate("rx", (q,), (b,)) for q in range(num_qubits)])
            if r == rounds - 1:
                final = [len(levels) - 6, len(levels) - 3, len(levels) - 1]
        _, handles = insert_levels(self, levels)
        self.gamma_handles = handles[final[0]] + handles[final[1]]
        self.beta_handles = handles[final[2]]
        self.sim.update_state()
        self.sim.expectation(observable)  # fill the per-term caches
        return self

    def trip(self, inp, t: Trip):
        gamma, beta = inp
        probe = self.probe
        start = perf_counter()
        for handle in self.gamma_handles:
            probe("modify.retune", self.mod.update_gate, handle, 2.0 * gamma)
        for handle in self.beta_handles:
            probe("modify.retune", self.mod.update_gate, handle, 2.0 * beta)
        probe("update_state", self.sim.update_state)
        value = probe("observe.expectation", self.sim.expectation, self.observable)
        t.seconds = perf_counter() - start
        self.sample(t, **{
            "modify.gates_retuned":
                len(self.gamma_handles) + len(self.beta_handles),
        })
        return (value,)


class RetuneSweep(EngineWorkload):
    name = "retune_sweep"

    def prepare(self) -> None:
        self.num_qubits, self.rounds = (8, 2) if self.quick else (14, 3)
        self.observable = maxcut_hamiltonian(
            [e for group in ring_edge_groups(self.num_qubits) for e in group])

    def open_qtask(self, probe, tracing, sampler):
        session = QTask(self.num_qubits, num_workers=1, tracing=tracing)
        return _RetuneSide(session, session, probe, sampler).build(
            self.num_qubits, self.rounds, self.observable)

    def open_dense(self):
        circuit = Circuit(self.num_qubits)
        sim = QulacsLikeSimulator(circuit, num_workers=1)
        return _RetuneSide(circuit, sim).build(
            self.num_qubits, self.rounds, self.observable)

    def next_input(self):
        return self.rng.uniform(0.1, 1.5), self.rng.uniform(0.1, 1.5)


# -- shots_dynamic ------------------------------------------------------------


def dynamic_qasm(num_qubits: int, rounds: int) -> str:
    """A measure / conditioned-correction / reset circuit, ``rounds`` deep."""
    n = num_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"creg m{r}[1];" for r in range(rounds)]
    lines.append("creg out[2];")
    lines += [f"h q[{q}];" for q in range(n)]
    lines += [f"cx q[{q}],q[{q + 1}];" for q in range(n - 1)]
    lines += [f"rz({0.1 * (q + 1):.3f}) q[{q}];" for q in range(n)]
    lines += [f"rx({0.2 * (q + 1):.3f}) q[{q}];" for q in range(n)]
    for r in range(rounds):
        a, b = r, n - 1 - r
        lines += [
            f"measure q[{a}] -> m{r}[0];",
            f"if(m{r}==1) x q[{b}];",
            f"reset q[{a}];",
            f"h q[{a}];",
            f"cx q[{a}],q[{a + 1}];",
            f"ry({0.3 * (r + 1):.3f}) q[{b}];",
        ]
    lines += [f"measure q[{n // 2}] -> out[0];",
              f"measure q[{n // 2 + 1}] -> out[1];"]
    return "\n".join(lines) + "\n"


def dense_trajectories(sim: QulacsLikeSimulator, shots: int, seed: int) -> Dict[str, int]:
    """``run_shots`` on the dense baseline: one full replay per shot, keyed
    with the same ``(seed, shot)`` randomness qTask's trajectories use."""
    base = OutcomeRecord._materialise_seed(seed)
    bits = range(sim.circuit.num_clbits)
    counts: Dict[str, int] = {}
    for shot in range(shots):
        sim.outcomes.reseed((base, shot))
        sim.update_state()
        key = sim.outcomes.bitstring(bits)
        counts[key] = counts.get(key, 0) + 1
    return counts


class _ShotsQTask:
    def __init__(self, wl, probe, tracing, sampler) -> None:
        self.wl, self.probe, self.sampler = wl, probe, sampler
        program = probe("qasm.parse", parse_qasm, wl.source)
        self.session = probe("qasm.load", QTask.from_program, program,
                             num_workers=1, tracing=tracing)
        sampler.new_session()
        probe("update_state", self.session.update_state)

    def trip(self, inp, t: Trip):
        start = perf_counter()
        counts = self.probe("shots.run", self.session.run_shots,
                            self.wl.shots, seed=inp)
        t.seconds = perf_counter() - start
        self.sampler.sample(self.session, t)
        t.facts["shots"] = self.wl.shots
        if self.probe.enabled:  # run_shots forks inside; time one by hand
            child = self.probe("fork", self.session.fork)
            self.probe("fork.close", child.close)
        return counts

    def close(self) -> None:
        self.session.close()


class _ShotsDense:
    def __init__(self, wl) -> None:
        self.wl = wl
        circuit = program_to_circuit(parse_qasm(wl.source))
        self.sim = QulacsLikeSimulator(circuit, num_workers=1)

    def trip(self, inp, t: Trip):
        start = perf_counter()
        counts = dense_trajectories(self.sim, self.wl.shots, inp)
        t.seconds = perf_counter() - start
        return counts

    def close(self) -> None:
        self.sim.close()


class ShotsDynamic(EngineWorkload):
    name = "shots_dynamic"

    def prepare(self) -> None:
        qubits, rounds, self.shots = (6, 2, 8) if self.quick else (10, 3, 32)
        self.source = dynamic_qasm(qubits, rounds)

    def open_qtask(self, probe, tracing, sampler):
        return _ShotsQTask(self, probe, tracing, sampler)

    def open_dense(self):
        return _ShotsDense(self)

    def next_input(self):
        return self.rng.randrange(1 << 31)

    def agree(self, observed, expected) -> bool:
        return observed == expected

    def layer_probes(self, probe: Probe) -> Dict[str, float]:
        return qasm_probes(probe, [self.source])


def qasm_probes(probe: Probe, sources: Sequence[str], repeats: int = 5) -> Dict[str, float]:
    """Direct timings of the QASM front end on the workload's own sources."""
    parse_s, load_s, ops = [], [], []
    for source in sources:
        for _ in range(repeats):
            start = perf_counter()
            program = probe("qasm.parse", parse_qasm, source)
            parse_s.append(perf_counter() - start)
            start = perf_counter()
            session = probe("qasm.load", QTask.from_program, program, num_workers=1)
            load_s.append(perf_counter() - start)
            session.close()
        ops.append(program.num_gates)
    return {
        "qasm.parse_s": median(parse_s),
        "qasm.load_s": median(load_s),
        "qasm.ops_parsed": float(sum(ops)),
    }


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------


def static_qasm(name: str, num_qubits: int) -> str:
    """A catalog circuit as QASM without a ``creg``: the writer always
    declares one, and a circuit with classical bits is sampled by
    trajectories, which on a measurement-free circuit yields only zeros."""
    qubits, levels = build_levels(name, num_qubits=num_qubits)
    text = to_qasm(levels, qubits)
    return "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("creg"))


def dense_answer(source: str, shots: int, seed: int) -> Dict[str, int]:
    """The job a service client submits, answered by a fresh dense simulator."""
    circuit = program_to_circuit(parse_qasm(source))
    sim = QulacsLikeSimulator(circuit, num_workers=1)
    try:
        if circuit.num_clbits > 0:
            return dense_trajectories(sim, shots, seed)
        sim.update_state()
        return sim.counts(shots, seed=seed)
    finally:
        sim.close()


class _ServiceSide:
    """A ``Backend`` with every family's base session already warm."""

    def __init__(self, wl, probe: Probe, tracing: bool, sampler: Sampler,
                 width: int = 1) -> None:
        self.wl, self.probe, self.sampler = wl, probe, sampler
        #: ``width`` dispatchers over ``width`` executor workers
        self.backend = Backend(
            {"max_concurrent_jobs": width, "max_queued_jobs": 16},
            num_workers=width, tracing=tracing,
        )
        for family in sorted(wl.families):  # cold leases: build the bases
            self.run(family, 0, "warm")

    def run(self, family: str, job_seed: int, tenant: str):
        """``(submit seconds, JobResult)`` of one job, submit to result."""
        source, shots = self.wl.families[family]
        start = perf_counter()
        job = self.probe("service.submit", self.backend.run, source,
                         shots=shots, seed=job_seed, tenant=tenant)
        submit = perf_counter() - start
        return submit, self.probe("service.result", job.result, 60.0)

    def trip(self, inp, t: Trip):
        family, job_seed = inp
        t.group = family
        start = perf_counter()
        submit, result = self.run(family, job_seed, "client-0")
        t.seconds = perf_counter() - start
        status = self.backend.status()
        t.facts["cow.allocated_bytes"] = status["pool"]["owned_bytes"]
        if self.sampler.traced:
            t.facts.update({
                "service.submit_s": submit,
                "service.queue_wait_s": result.queue_seconds,
                "service.exec_s": result.seconds,
                "service.pool_hit": 1.0 if result.pool_hit else 0.0,
                "service.jobs_rejected": status["jobs"]["rejected"],
                "service.jobs_failed": status["jobs"]["failed"],
                "pool.sessions": status["pool"]["sessions"],
            })
            self.sampler.drain(self.backend.telemetry.tracer, t)
        return result.counts

    def close(self) -> None:
        self.backend.close()


class _ServiceDense:
    def __init__(self, wl) -> None:
        self.wl = wl

    def trip(self, inp, t: Trip):
        family, job_seed = inp
        t.group = family
        source, shots = self.wl.families[family]
        start = perf_counter()
        counts = dense_answer(source, shots, job_seed)
        t.seconds = perf_counter() - start
        return counts

    def close(self) -> None:
        pass


class ServiceMix(EngineWorkload):
    """One closed-loop client against a warm ``Backend``, job by job.

    The client submits a job, waits for ``result()``, and -- the service
    now idle -- answers the same job with a fresh dense simulator before
    submitting the next, so each job is paired with its baseline inside
    one host phase.  Jobs come from freshly shuffled decks of all four
    families, so every seed serves the same mix.

    One client, one dispatcher, one worker on purpose.  With two clients
    the service gains no throughput (23-33 jobs/s either way: the
    interpreter lock serialises the jobs) but its latency becomes a
    measurement of lock handoffs between virtual CPUs, which this kind of
    host changes by itself: ten runs agreed within 5% and the next ten,
    half an hour later, sat 26% higher.  The two-client closed loop is
    still run, as a per-layer probe (``service.two_client_*``).
    """

    name = "service_mix"

    def prepare(self) -> None:
        qubits, dyn_qubits, shots, dyn_shots = (
            (6, 5, 64, 8) if self.quick else (10, 8, 256, 16))
        self.families = {
            name: (static_qasm(name, qubits), shots)
            for name in ("qft", "qaoa", "ising")
        }
        self.families["dynamic"] = (dynamic_qasm(dyn_qubits, 3), dyn_shots)
        self.deck: List[str] = []

    def open_qtask(self, probe, tracing, sampler):
        return _ServiceSide(self, probe, tracing, sampler)

    def open_dense(self):
        return _ServiceDense(self)

    def next_input(self):
        if not self.deck:
            self.deck = sorted(self.families)
            self.rng.shuffle(self.deck)
        return self.deck.pop(), self.rng.randrange(1 << 31)

    def agree(self, observed, expected) -> bool:
        return observed == expected

    def two_client_probe(self, bursts: int = 6) -> Dict[str, float]:
        """The closed loop the ISSUE asked for, as information: two clients
        each play whole decks against a two-dispatcher, two-worker backend."""
        side = _ServiceSide(self, NO_PROBE, False,
                            Sampler(False, Measurement()), width=2)
        latencies: List[float] = []
        wall = 0.0

        def client(index: int) -> None:
            for seed, family in enumerate(sorted(self.families)):
                start = perf_counter()
                side.run(family, seed, f"client-{index}")
                latencies.append(perf_counter() - start)

        try:
            for _ in range(bursts):
                threads = [threading.Thread(target=client, args=(c,))
                           for c in range(2)]
                start = perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall += perf_counter() - start
        finally:
            side.close()
        return {
            "service.two_client_jobs_per_s": len(latencies) / wall,
            "service.two_client_latency_s": statistics.fmean(latencies),
        }

    def layer_probes(self, probe: Probe) -> Dict[str, float]:
        out = qasm_probes(probe, [src for src, _ in self.families.values()],
                          repeats=3)
        source, shots = self.families["qft"]
        pool = SessionPool()
        cold, warm, fork_s, close_s = [], [], [], []
        try:
            for k in range(3):
                start = perf_counter()
                fork, _ = probe("pool.lease", pool.lease, f"cold-{k}",
                                lambda: QTask.from_qasm(source, num_workers=1))
                cold.append(perf_counter() - start)
                fork.close()
                pool.release(f"cold-{k}")
            for _ in range(10):
                start = perf_counter()
                fork, _ = probe("pool.lease", pool.lease, "cold-0", None)
                warm.append(perf_counter() - start)
                fork.close()
                pool.release("cold-0")
        finally:
            pool.close()
        session = QTask.from_qasm(source, num_workers=1)
        try:
            session.update_state()
            counts_s = []
            for k in range(10):
                start = perf_counter()
                probe("observe.counts", session.counts, shots, seed=k)
                counts_s.append(perf_counter() - start)
                start = perf_counter()
                child = probe("fork", session.fork)
                fork_s.append(perf_counter() - start)
                start = perf_counter()
                probe("fork.close", child.close)
                close_s.append(perf_counter() - start)
        finally:
            session.close()
        out.update(self.two_client_probe())
        out.update({
            "pool.lease_cold_s": median(cold),
            "pool.lease_warm_s": median(warm),
            "observe.counts_s": median(counts_s),
            "fork.seconds": median(fork_s),
            "fork.close_s": median(close_s),
        })
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (FullBuild, EditMixed, RetuneSweep, ShotsDynamic, ServiceMix)
}
