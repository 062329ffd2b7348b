"""The user-facing qTask facade (the paper's Table-II API).

:class:`QTask` bundles a :class:`~repro.core.circuit.Circuit` with a
:class:`~repro.core.simulator.QTaskSimulator` behind the exact programming
model of Listing 1:

>>> from repro import QTask
>>> ckt = QTask(5)
>>> q4, q3, q2, q1, q0 = ckt.qubits()
>>> net1 = ckt.insert_net()
>>> net2 = ckt.insert_net(net1)
>>> G1 = ckt.insert_gate("h", net1, q4)
>>> G6 = ckt.insert_gate("cnot", net2, q3, q4)
>>> ckt.update_state()        # full simulation          # doctest: +ELLIPSIS
UpdateReport(...)
>>> ckt.remove_gate(G6)
>>> ckt.update_state()        # incremental simulation   # doctest: +ELLIPSIS
UpdateReport(...)
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .core.circuit import Circuit, GateHandle, NetHandle
from .core.classical import ClassicalRegister, OutcomeRecord, primed_seeds
from .core.cow import MemoryReport
from .core.exceptions import CircuitError, StaleHandleError
from .core.gates import Gate
from .core.simulator import QTaskSimulator, UpdateReport
from .observables.pauli import PauliLike

__all__ = ["QTask"]


class QTask:
    """Incremental quantum circuit simulator with the paper's API surface."""

    def __init__(self, num_qubits: int, *, num_clbits: int = 0, **knobs) -> None:
        """A fresh session; ``knobs`` are the
        :class:`~repro.core.simulator.QTaskSimulator` keywords (``block_size``,
        ``num_workers``, ``seed``, ``tracing``)."""
        self.circuit = Circuit(num_qubits, num_clbits=num_clbits)
        self.simulator = QTaskSimulator(self.circuit, **knobs)
        #: parent handle uid -> this session's handle (forked sessions only)
        self._fork_gate_map: Optional[Dict[int, GateHandle]] = None

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def from_program(cls, program, **knobs) -> "QTask":
        """A session pre-loaded with a parsed OpenQASM program.

        ``program`` is a :class:`~repro.qasm.ParsedProgram`; it is levelized
        QASMBench-style (one net per structural level, dynamic operations
        serialised per classical bit) and loaded into a fresh session.
        ``knobs`` are the :class:`QTask` constructor keywords (``block_size``,
        ``num_workers``, ``seed``, ``tracing``).  Call ``update_state()`` to
        simulate.
        """
        from .qasm.levelize import program_to_circuit

        session = cls.__new__(cls)
        session.circuit = program_to_circuit(program)
        session.simulator = QTaskSimulator(session.circuit, **knobs)
        session._fork_gate_map = None
        return session

    @classmethod
    def from_qasm(cls, text: str, **knobs) -> "QTask":
        """A session pre-loaded from OpenQASM 2.0 source text.

        Convenience over :func:`repro.qasm.parse_qasm` +
        :meth:`from_program`::

            ckt = QTask.from_qasm(open("bv_n14.qasm").read())
            ckt.update_state()
        """
        from .qasm import parse_qasm

        return cls.from_program(parse_qasm(text), **knobs)

    def fork(self) -> "QTask":
        """A cheap child session sharing this session's state copy-on-write.

        The child has its own circuit (fresh handles), simulator, partition
        graph and observables cache, but its stage stores reference the
        parent's computed blocks until first write -- forking copies no
        amplitudes.  Edits on either session never perturb the other.  The
        child shares its parent's thread pool (closing the child leaves it
        running).

        Translate parent gate handles with :meth:`handle_for`::

            g = ckt.insert_gate("rz", net, q0, params=[0.1])
            ckt.update_state()
            child = ckt.fork()
            child.update_gate(child.handle_for(g), 0.7)
            child.update_state()          # incremental, parent untouched

        Pending modifiers on this session are flushed (``update_state``)
        before forking so the inherited state is well defined.
        """
        child = QTask.__new__(QTask)
        child.simulator = self.simulator.fork()
        child.circuit = child.simulator.circuit
        child._fork_gate_map = child.simulator.forked_gate_map
        return child

    @property
    def is_fork(self) -> bool:
        """True when this session was created by :meth:`fork`."""
        return self._fork_gate_map is not None

    def handle_for(self, parent_handle: GateHandle) -> GateHandle:
        """This forked session's gate handle mirroring a parent's handle.

        Only gates that existed at fork time have a mirror; handles inserted
        into the parent afterwards (or into a non-forked session) raise.
        """
        if self._fork_gate_map is None:
            raise CircuitError("handle_for() is only available on forked sessions")
        mapped = self._fork_gate_map.get(parent_handle.uid)
        if mapped is None:
            raise StaleHandleError(
                f"gate handle {parent_handle!r} has no counterpart in this fork "
                "(inserted after the fork?)"
            )
        return mapped

    # -- durable checkpoints ---------------------------------------------------

    def checkpoint(self, path: str) -> str:
        """Serialize this session to ``path`` so it can survive a crash.

        The checkpoint captures the circuit, every configuration knob, the
        global stage order, all materialised copy-on-write blocks (each with
        a CRC) and the trajectory's classical state (seed, bits, recorded
        outcomes) in a versioned binary format.  Pending modifiers are
        flushed first, and the file is written atomically, so an existing
        checkpoint at ``path`` is never clobbered by a crash mid-write.
        Returns ``path``.
        """
        from .core.snapshot import save_checkpoint

        return save_checkpoint(self.simulator, path)

    @classmethod
    def restore(
        cls,
        path: str,
        *,
        num_workers: Optional[int] = None,
    ) -> "QTask":
        """Resume a session from a :meth:`checkpoint` file, without re-simulating.

        The restored session holds the checkpointed computed state and is
        immediately editable -- subsequent modifiers re-simulate
        incrementally from the loaded blocks.  The worker count is not
        durable state: pass ``num_workers`` as to a new session.
        Raises :class:`~repro.core.exceptions.CheckpointError` on corrupt,
        truncated or incompatible files.
        """
        from .core.snapshot import restore_simulator

        session = cls.__new__(cls)
        session.simulator = restore_simulator(path, num_workers=num_workers)
        session.circuit = session.simulator.circuit
        session._fork_gate_map = None
        return session

    def close(self) -> None:
        self.simulator.close()

    def __enter__(self) -> "QTask":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structural queries ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def num_gates(self) -> int:
        return self.circuit.num_gates

    @property
    def num_nets(self) -> int:
        return self.circuit.num_nets

    def qubits(self) -> Tuple[int, ...]:
        """Qubit indices from most to least significant (as in Listing 1)."""
        return self.circuit.qubits()

    def nets(self) -> List[NetHandle]:
        return self.circuit.nets()

    # -- circuit modifiers (Table II) -----------------------------------------

    def insert_net(self, after: Optional[NetHandle] = None) -> NetHandle:
        """Insert a new empty net (after ``after``, or at the end)."""
        return self.circuit.insert_net(after)

    def remove_net(self, net: NetHandle) -> None:
        """Remove a net and all its gates from the circuit."""
        self.circuit.remove_net(net)

    def insert_gate(
        self,
        gate: Union[Gate, str],
        net: NetHandle,
        *qubits: int,
        params: Sequence[float] = (),
    ) -> GateHandle:
        """Insert a gate into an existing net."""
        return self.circuit.insert_gate(gate, net, *qubits, params=params)

    def remove_gate(self, handle: GateHandle) -> None:
        """Remove a gate from its net and the circuit."""
        self.circuit.remove_gate(handle)

    def update_gate(self, handle: GateHandle, *params: float) -> GateHandle:
        """Retune an existing gate's parameters in place (retune modifier).

        Unlike ``remove_gate`` + ``insert_gate``, the gate keeps its handle,
        its stage and the partition-graph topology; the next
        :meth:`update_state` re-simulates only the retuned stage's downstream
        cone.  This is the natural modifier for variational parameter sweeps::

            g = ckt.insert_gate("rz", net, q0, params=[0.1])
            ckt.update_state()
            ckt.update_gate(g, 0.2)      # same gate, new angle
            ckt.update_state()           # incremental re-simulation
        """
        return self.circuit.update_gate(handle, *params)

    # -- dynamic circuits (Table II extensions) --------------------------------

    @property
    def num_clbits(self) -> int:
        return self.circuit.num_clbits

    def add_classical_register(self, name: str, size: int) -> ClassicalRegister:
        """Declare ``size`` new classical bits under ``name``."""
        return self.circuit.add_classical_register(name, size)

    def creg(self, name: str) -> ClassicalRegister:
        """Look up a declared classical register by name."""
        return self.circuit.creg(name)

    def measure(self, net: NetHandle, qubit: int, clbit: int) -> GateHandle:
        """Measure ``qubit`` (Z basis) into classical bit ``clbit``.

        The measurement is a first-class circuit operation: the next
        :meth:`update_state` collapses and renormalises the state block-wise
        at that point of the circuit, writes the observed bit into
        :attr:`outcomes`, and invalidates downstream incremental caches
        exactly like a gate update at the same depth.
        """
        return self.circuit.insert_measure(net, qubit, clbit)

    def reset(self, net: NetHandle, qubit: int) -> GateHandle:
        """Reset ``qubit`` to |0> (projective measurement + conditional flip)."""
        return self.circuit.insert_reset(net, qubit)

    def c_if(
        self,
        gate: Union[Gate, str],
        net: NetHandle,
        *qubits: int,
        params: Sequence[float] = (),
        condition: Tuple[object, int],
    ) -> GateHandle:
        """Insert a classically-conditioned gate (``if (c == k) gate ...``).

        ``condition`` is ``(bits, value)``: a
        :class:`~repro.core.classical.ClassicalRegister` (or explicit clbit
        sequence, LSB first) compared against the integer ``value`` at
        execution time::

            c = ckt.add_classical_register("c", 1)
            ckt.measure(net1, q0, c[0])
            ckt.c_if("x", net2, q1, condition=(c, 1))   # X iff c == 1
        """
        return self.circuit.insert_cgate(
            gate, net, *qubits, params=params, condition=condition
        )

    @property
    def outcomes(self) -> OutcomeRecord:
        """This session's classical state (bits, outcomes, trajectory seed)."""
        return self.simulator.outcomes

    def classical_value(self, bits) -> int:
        """The integer a register (or clbit sequence) currently holds."""
        if isinstance(bits, ClassicalRegister):
            bits = bits.bits
        return self.simulator.outcomes.value_of(bits)

    def run_shots(self, shots: int, *, seed: Optional[int] = None) -> Dict[str, int]:
        """Sample ``shots`` trajectories of a dynamic circuit.

        Returns a histogram over the classical register bits (leftmost
        character = highest clbit), one entry per shot.  Each shot is an
        independent trajectory keyed ``(seed, shot_index)``: its outcomes
        depend only on those two -- never on the worker count or
        scheduling.  The session is forked once, copy-on-write (the unitary
        prefix before the first measurement is computed once and shared),
        and the fork walks every shot on the calling thread.  This session is never
        edited.

        The walk simulates only what a measurement can see.  The fork first
        drops every gate outside the collapses' backward light cone: those
        after the last measurement, and those whose qubits no later
        measure, reset or kept gate touches (they commute with every later
        collapse).  Then it walks the outcome tree instead of replaying
        shots one by one.  Collapse masses depend only on the outcomes
        before them and draws only on ``(seed, shot, op)``, so after
        simulating one shot the fork knows, without executing anything, at
        which operation every other shot first draws a different outcome.
        Shots that never do are tallied with the simulated one, and so are
        shots that first differ at the last measurement, with its bit
        flipped.  The rest branch off at their operation -- deepest first,
        so the prefix held in the fork stays the one they share --
        re-simulating from there only.  So one path is simulated per
        distinct outcome record of the collapses before the last
        measurement, and none when nothing is measured: every bit stays 0.
        Every shot's seed and its first draw at every collapse come from one
        vectorised pass (:func:`~repro.core.classical.primed_seeds`),
        bit-identical to building each keyed stream, so neither finding the
        branches nor simulating a path builds a generator for a first draw.
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        num_clbits = self.circuit.num_clbits
        if num_clbits == 0:
            raise CircuitError(
                "run_shots needs classical bits; declare them with "
                "QTask(num_clbits=...) or add_classical_register()"
            )
        if shots == 0:
            return {}
        # Trajectory spans land on the *parent* session's tracer.
        tracer = self.simulator.telemetry.tracer
        last, unobserved = self.simulator._light_cone()
        if last is None:  # nothing writes a bit: one tally, no walk
            with tracer.span("shot", {"shot": 0, "from_op": None,
                                      "shots": shots, "tallied": 0}):
                self._count_shots(shots, 1)
            return {"0" * num_clbits: shots}
        base_seed = OutcomeRecord._materialise_seed(seed)
        clbits = range(num_clbits)
        flip = num_clbits - 1 - last.clbit  # the last measurement's character
        counts: Dict[str, int] = {}
        trajectories = 0
        with self.fork() as child:
            with tracer.span("shots.prune", {"gates": len(unobserved)}):
                for handle in unobserved:
                    child.remove_gate(child.handle_for(handle))
            sim, record = child.simulator, child.outcomes
            # every shot's seed and first draw at every collapse, at once
            ops = sim.collapse_ops()
            with tracer.span("shots.keys", {"keys": shots * len(ops), "shots": shots}):
                keys = primed_seeds(base_seed, shots, ops)
            # (op to branch at, the shots that branch there); popping the
            # last entry visits the deepest pending branch first
            pending: List[Tuple[Optional[int], List[int]]] = [
                (None, list(range(shots)))
            ]
            while pending:
                from_op, group = pending.pop()
                lead = group[0]
                with tracer.span("shot") as span:
                    sim.reset_trajectory(keys[lead], from_op=from_op)
                    child.update_state()
                    path = sim.collapse_path(from_op)
                    if from_op is not None:
                        # the whole group drew the same (other) outcome there
                        path = path[1:]
                    branches: Dict[int, List[int]] = {}
                    for shot in group[1:]:
                        for op, p0, p1, outcome in path:
                            if record.first_choice(keys[shot], op, p0, p1) != outcome:
                                branches.setdefault(op, []).append(shot)
                                break
                    # a different last draw changes one bit and nothing else
                    tallied = len(branches.pop(last.op_index, ()))
                    followers = len(group) - tallied - sum(map(len, branches.values()))
                    bits = record.bitstring(clbits)
                    counts[bits] = counts.get(bits, 0) + followers
                    if tallied:
                        other = bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1:]
                        counts[other] = counts.get(other, 0) + tallied
                    trajectories += 1
                    pending += [
                        (op, branches[op]) for op, *_ in path if op in branches
                    ]
                    span.set("shot", lead)
                    span.set("from_op", from_op)
                    span.set("shots", followers)
                    span.set("tallied", tallied)
        self._count_shots(shots, trajectories)
        return counts

    def _count_shots(self, shots: int, trajectories: int) -> None:
        """Bump the ``shots.*`` counters; concurrent walks share them."""
        metrics = self.simulator.telemetry.metrics
        metrics.counter(
            "shots.requested", help="shots asked of run_shots"
        ).inc(shots)
        metrics.counter(
            "shots.trajectories",
            help="outcome paths run_shots simulated",
        ).inc(trajectories)

    # -- state update -------------------------------------------------------------

    def update_state(self) -> UpdateReport:
        """Update state amplitudes, incrementally when possible."""
        return self.simulator.update_state()

    # -- queries ------------------------------------------------------------------

    def dump_graph(self, stream: Optional[TextIO] = None) -> str:
        """Dump the current partition graph in DOT format.

        Returns the DOT text; also writes it to ``stream`` when given.
        """
        buf = io.StringIO()
        self.simulator.dump_graph(buf)
        text = buf.getvalue()
        if stream is not None:
            stream.write(text)
        return text

    def state(self) -> np.ndarray:
        return self.simulator.state()

    def amplitude(self, basis_state: int) -> complex:
        return self.simulator.amplitude(basis_state)

    def probabilities(self) -> np.ndarray:
        return self.simulator.probabilities()

    def probability(self, basis_state: int) -> float:
        return self.simulator.probability(basis_state)

    def norm(self) -> float:
        """The state's 2-norm from the cached per-block masses (the identity
        term's partials; the state is never materialised)."""
        return self.simulator.norm()

    # -- observables & measurement --------------------------------------------

    def expectation(self, observable: PauliLike) -> float:
        """``<psi|H|psi>`` of a Hermitian Pauli observable.

        ``observable`` is a :class:`~repro.observables.PauliSum`,
        :class:`~repro.observables.PauliString` or a dense label string such
        as ``"ZZI"``.  Evaluation is block-wise against the copy-on-write
        stores with per-(term, block) caching invalidated by the incremental
        update's dirty frontier -- repeated evaluations during a variational
        sweep only recompute what the circuit edits actually changed.
        """
        return self.simulator.expectation(observable)

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        """Draw ``shots`` measurement samples (basis-state indices)."""
        return self.simulator.sample(shots, seed=seed)

    def counts(self, shots: int, *, seed: Optional[int] = None) -> Dict[str, int]:
        """Measurement histogram ``{bitstring: count}`` over ``shots`` draws."""
        return self.simulator.counts(shots, seed=seed)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome distribution of measuring ``qubits`` (qubits[0] = bit 0)."""
        return self.simulator.marginal_probabilities(qubits)

    def memory_report(self) -> MemoryReport:
        """Logical copy-on-write storage accounting across all stage stores.

        The returned :class:`~repro.core.cow.MemoryReport` compares the
        blocks actually materialised (``allocated_bytes``, ``stored_blocks``)
        with what dense per-stage vectors would cost (``dense_bytes``);
        ``savings_fraction`` is the §III.F.3 copy-on-write saving.
        """
        return self.simulator.memory_report()

    def plan_report(self):
        """Dispatch-overhead accounting of the execution-plan pipeline.

        The returned :class:`~repro.core.exec_plan.PlanReport` counts the
        plans compiled across every update so far, the kernel runs batched
        into them, the chunks their tables were split into and any
        fallbacks -- ``runs_per_plan`` is the dispatch work one plan
        absorbs.
        """
        return self.simulator.plan_report()

    def statistics(self) -> dict:
        """A flat dict snapshot of the simulator's incremental state.

        Includes the partition-graph shape (stages/nodes/edges/frontiers),
        every configuration knob (block size, workers) and
        the last update's outcome plus the plan-pipeline counters -- the
        record benchmarks and bug reports attach to a run.
        """
        return self.simulator.statistics()

    # -- observability ---------------------------------------------------------

    @property
    def telemetry(self):
        """This session's :class:`~repro.telemetry.Telemetry` bundle.

        One per session (forks get their own, tagged with the parent's
        session id): the metrics registry behind :meth:`statistics`, the
        tracer behind :meth:`export_trace` and the recovery event log
        behind :meth:`explain_last_update`.
        """
        return self.simulator.telemetry

    def telemetry_report(self) -> dict:
        """Everything the telemetry subsystem knows, as one nested dict.

        Session ids, every counter, every gauge (refreshed from the live
        graph state first), every histogram's
        count/sum/min/mean/max/p50/p95, and span/event buffer health.  The
        flat legacy view with stable keys remains :meth:`statistics`;
        Prometheus text exposition is
        ``session.telemetry.metrics.prometheus_text()``.
        """
        self.simulator.statistics()  # refresh point-in-time gauges
        return self.simulator.telemetry.report()

    def explain_last_update(self) -> str:
        """A human-readable account of the most recent update.

        Shows what the update touched, how many chunks it ran, and the
        time-ordered recovery events (injected faults, chunk fallbacks, run
        retries) that fired during it.
        """
        return self.simulator.explain_last_update()

    def export_trace(self, path: Optional[str] = None):
        """Export recorded spans as chrome-trace JSON (Perfetto-loadable).

        Requires the session to have been created with ``tracing=True`` (or
        ``QTASK_TRACING=1``); returns the trace dict and, when ``path`` is
        given, also writes it there.  Load the file at
        https://ui.perfetto.dev or ``chrome://tracing``.
        """
        return self.simulator.telemetry.tracer.export_chrome_trace(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QTask(qubits={self.num_qubits}, nets={self.num_nets}, "
            f"gates={self.num_gates}, B={self.simulator.block_size})"
        )
