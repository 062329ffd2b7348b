"""The Backend facade: qTask as a multi-tenant async service.

``Backend.run(circuit, ...)`` validates the request against the declarative
:class:`~repro.service.config.BackendConfiguration`, wraps it in an async
:class:`~repro.service.job.Job` and admits it to a **bounded** queue --
full queue means a typed :class:`~repro.service.errors.QueueFullError`
*now*, not unbounded latency later, and health-based load shedding
(:class:`~repro.service.errors.BackpressureError`) kicks in before the hard
bound when the rolled-up ``update.seconds`` p95 or the recovery event
stream says the engine is struggling.

A warm job is a lookup.  QASM text is parsed, validated and keyed once:
its parse is cached by the text's digest, so a resubmitted circuit skips
the parser.  A small dispatcher pool (``max_concurrent_jobs`` threads)
drains the queue; each job pins the warm base session of its circuit
family in the :class:`~repro.service.pool.SessionPool` and reads it
directly -- ``counts``, ``expectation`` and ``state`` need no fork, since a
pinned base is warm and never edited, and a dynamic job's ``run_shots``
forks once for its own walk.  Concurrency lives at the job level, in the
dispatcher threads: jobs share no writes.  Each base session is
``num_workers`` wide (inline at 1, the default; above it a plan's chunks
fan out over the session's thread pool), and a job's walk fork shares its
base's pool; the session pool evicts a base only when nothing holds it, so
no thread pool shuts down under a running job.

Telemetry is first-class: every request runs under a ``job.run`` span
(with ``service.lease`` / ``service.build`` under it and ``qasm.parse`` at
submission), each base build's session metrics merge into a per-tenant
:class:`~repro.telemetry.metrics.MetricsRegistry` rollup
(:meth:`Backend.tenant_metrics`), every finished job folds the recovery
events it recorded into the backend's health, and
:meth:`Backend.prometheus_text` exposes the whole backend -- service
counters, pool gauges, latency histograms and the engine's rolled-up
``update.seconds`` -- in Prometheus text format.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import queue
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.exceptions import QTaskError
from ..core.simulator import QTaskSimulator, _worker_count
from ..qasm.parser import ParsedProgram, parse_qasm
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.session import Telemetry, collect_forks
from ..qtask import QTask
from .config import BackendConfiguration
from .errors import (
    BackendClosedError,
    BackpressureError,
    CircuitValidationError,
    QueueFullError,
)
from .job import Job, JobResult, JobStatus
from .pool import SessionPool, recovery_events

__all__ = ["Backend"]

#: what ``Backend.run`` accepts as a circuit: OpenQASM 2.0 source, a parsed
#: program, or a builder callable ``(session: QTask) -> None`` that inserts
#: gates into a fresh session of ``num_qubits`` qubits
CircuitLike = Union[str, ParsedProgram, Callable[[QTask], None]]

#: the session keywords ``session_knobs`` may name: the engine's own, less
#: the worker count (the backend's own ``num_workers`` sets every session's)
SESSION_KNOBS = frozenset(inspect.signature(QTaskSimulator).parameters) - {
    "circuit", "num_workers"}

#: QASM requests whose parse a backend keeps (by text digest, least
#: recently submitted out first)
PARSE_CACHE_SIZE = 256


def _op_fingerprint(op) -> str:
    """A stable textual identity of one parsed operation (for pool keys)."""
    inner = getattr(op, "gate", None)  # CGate wraps its unitary
    name = op.name if inner is None else f"c-{inner.name}"
    qubits = tuple(getattr(op, "qubits", ()) or ())
    if not qubits and hasattr(op, "qubit"):
        qubits = (op.qubit,)
    params = tuple(getattr(op, "params", ()) or ())
    clbit = getattr(op, "clbit", None)
    return f"{name}{qubits}{params}{'' if clbit is None else f'->{clbit}'}"


def _program_key(program: ParsedProgram) -> str:
    digest = hashlib.sha256()
    digest.update(str(program.num_qubits).encode())
    digest.update(str(program.num_classical_bits).encode())
    for op in program.gates:
        digest.update(_op_fingerprint(op).encode())
    return f"program:{digest.hexdigest()[:16]}"


class _JobRequest:
    """Everything a dispatcher thread needs to execute one admitted job."""

    __slots__ = (
        "job", "key", "factory", "shots", "seed",
        "observable", "return_state", "tenant",
    )

    def __init__(self, job, key, factory, shots, seed, observable,
                 return_state, tenant):
        self.job = job
        self.key = key
        self.factory = factory
        self.shots = shots
        self.seed = seed
        self.observable = observable
        self.return_state = return_state
        self.tenant = tenant


class Backend:
    """Async multi-tenant facade over warm qTask sessions.

    >>> from repro.service import Backend
    >>> be = Backend()
    >>> job = be.run("OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];",
    ...              shots=100, seed=7)
    >>> sorted(job.result(timeout=60).counts)
    ['00', '11']
    >>> be.close()
    """

    def __init__(
        self,
        configuration: Union[None, Dict[str, object], BackendConfiguration] = None,
        *,
        num_workers: Optional[int] = None,
        tracing: Optional[bool] = None,
        session_knobs: Optional[Dict[str, object]] = None,
    ) -> None:
        _worker_count(num_workers)  # refused here, before any thread starts
        self.configuration = BackendConfiguration.coerce(configuration)
        cfg = self.configuration
        #: QTask constructor knobs applied to every pooled base session
        #: (``block_size``, ``seed``, ... and the backend's ``num_workers``)
        self._session_knobs = dict(session_knobs or {})
        unknown = sorted(set(self._session_knobs) - SESSION_KNOBS)
        if unknown:
            raise ValueError(
                f"unknown session knob(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(SESSION_KNOBS))})"
            )
        self._session_knobs["num_workers"] = num_workers
        self.telemetry = Telemetry(tracing=tracing)
        m = self.telemetry.metrics
        self._jobs_submitted = m.counter(
            "service.jobs_submitted", help="jobs admitted to the queue")
        self._jobs_completed = m.counter(
            "service.jobs_completed", help="jobs finished successfully")
        self._jobs_failed = m.counter(
            "service.jobs_failed", help="jobs that raised during execution")
        self._jobs_rejected = m.counter(
            "service.jobs_rejected", help="submissions rejected by admission control")
        self._jobs_cancelled = m.counter(
            "service.jobs_cancelled", help="jobs cancelled before running")
        self._gauge_queue = m.gauge(
            "service.queue_depth", help="jobs waiting in the admission queue")
        self._gauge_active = m.gauge(
            "service.active_jobs", help="jobs currently executing")
        self._gauge_degraded = m.gauge(
            "service.degraded",
            help="1 while recent jobs recorded recovery events")
        self._gauge_p95 = m.gauge(
            "service.update_p95_seconds", unit="s",
            help="rolled-up update.seconds p95 across base builds")
        self._hist_job = m.histogram(
            "service.job_seconds", unit="s",
            help="job execution wall time (excludes queue wait)")
        self._hist_queue_wait = m.histogram(
            "service.queue_wait_seconds", unit="s",
            help="time jobs spent waiting in the admission queue")
        #: engine-latency rollup merged from every base session's warming
        #: build (a warm read updates nothing); drives p95-based load
        #: shedding (same name as the per-session histogram so fleet
        #: dashboards aggregate naturally)
        self._update_rollup = m.histogram(
            "update.seconds", unit="s",
            help="update_state wall time, rolled up across base builds")

        self.pool = SessionPool(
            max_sessions=cfg.max_pool_sessions,
            memory_budget_bytes=cfg.pool_memory_budget_bytes,
            registry=m,
        )
        #: sha256 of QASM text -> (pool key, base factory) of its parsed,
        #: validated program
        self._parsed: "OrderedDict[bytes, Tuple[str, Callable[[], QTask]]]" = (
            OrderedDict()
        )
        self._parsed_lock = threading.Lock()
        self._tenant_registries: Dict[str, MetricsRegistry] = {}
        self._tenant_lock = threading.Lock()
        self._degraded = False
        self._clean_streak = 0
        self._health_lock = threading.Lock()

        self._queue: "queue.Queue[Optional[_JobRequest]]" = queue.Queue(
            maxsize=cfg.max_queued_jobs
        )
        self._closed = False
        #: makes ``_admit``'s closed-check-and-put and ``close``'s
        #: flag-and-sentinels atomic: no job lands behind the sentinels
        self._admit_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._dispatchers: List[threading.Thread] = []
        for i in range(cfg.max_concurrent_jobs):
            t = threading.Thread(
                target=self._dispatch_loop, daemon=True,
                name=f"qtask-backend-{i}",
            )
            t.start()
            self._dispatchers.append(t)

    # -- request validation and normalisation --------------------------------

    def _validate_program(self, program: ParsedProgram) -> None:
        cfg = self.configuration
        if program.num_qubits > cfg.n_qubits:
            raise CircuitValidationError(
                f"circuit needs {program.num_qubits} qubits; this backend's "
                f"memory-derived cap is n_qubits={cfg.n_qubits}"
            )
        if program.has_dynamic_ops and not cfg.conditional:
            raise CircuitValidationError(
                "circuit uses measure/reset/conditioned gates but the "
                "backend configuration disables conditional execution"
            )
        basis = set(cfg.basis_gates)
        for op in program.gates:
            gate = getattr(op, "gate", op)  # CGate wraps its unitary
            name = getattr(gate, "name", "")
            if name in ("measure", "reset"):
                continue
            if name.lower() not in basis:
                raise CircuitValidationError(
                    f"gate {name!r} is outside this backend's basis gates"
                )

    def _program_entry(self, program: ParsedProgram):
        """``(key, factory)`` of a program; raises CircuitValidationError."""
        self._validate_program(program)
        return _program_key(program), lambda: QTask.from_program(
            program, **self._session_knobs)

    def _parse(self, text: str):
        """``(key, factory)`` of QASM text, parsed once per distinct text.

        A hit skips the parser, the validation and the key: the
        configuration is frozen, so a cached validation stays valid.  Text
        that does not parse or validate is not cached and raises every time.
        """
        data = text.encode()
        digest = hashlib.sha256(data).digest()
        with self._parsed_lock:
            entry = self._parsed.get(digest)
            if entry is not None:
                self._parsed.move_to_end(digest)
                return entry
        with self.telemetry.tracer.span("qasm.parse", {"bytes": len(data)}) as span:
            try:
                program = parse_qasm(text)
            except QTaskError as exc:
                raise CircuitValidationError(f"unparsable QASM: {exc}") from exc
            span.set("ops", program.num_gates)
        entry = self._program_entry(program)
        with self._parsed_lock:
            self._parsed[digest] = entry
            if len(self._parsed) > PARSE_CACHE_SIZE:
                self._parsed.popitem(last=False)
        return entry

    def _normalise_circuit(self, circuit: CircuitLike, key, num_qubits):
        """Returns ``(key, factory)``; raises CircuitValidationError."""
        if isinstance(circuit, (str, ParsedProgram)):
            derived, factory = (
                self._parse(circuit) if isinstance(circuit, str)
                else self._program_entry(circuit)
            )
            return (derived if key is None else key), factory
        if callable(circuit):
            if num_qubits is None:
                raise CircuitValidationError(
                    "builder-callable circuits need num_qubits="
                )
            if num_qubits > self.configuration.n_qubits:
                raise CircuitValidationError(
                    f"circuit needs {num_qubits} qubits; this backend's "
                    f"memory-derived cap is n_qubits={self.configuration.n_qubits}"
                )
            if key is None:
                mod = getattr(circuit, "__module__", "anon")
                qual = getattr(circuit, "__qualname__", repr(circuit))
                key = f"builder:{mod}.{qual}/{num_qubits}"
            builder = circuit

            def factory() -> QTask:
                session = QTask(num_qubits, **self._session_knobs)
                builder(session)
                return session

            return key, factory
        raise CircuitValidationError(
            f"circuit must be QASM text, a ParsedProgram or a builder "
            f"callable, got {type(circuit).__name__}"
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        circuit: CircuitLike,
        *,
        shots: int = 0,
        seed: Optional[int] = None,
        observable=None,
        tenant: str = "default",
        key: Optional[str] = None,
        num_qubits: Optional[int] = None,
        return_state: bool = False,
    ) -> Job:
        """Validate, enqueue and return an async :class:`Job`.

        ``shots > 0`` samples a measurement histogram (trajectory sampling
        via ``run_shots`` when the circuit measures, resets or branches on
        classical bits, state sampling via ``counts`` otherwise);
        ``observable`` additionally evaluates an expectation value;
        ``return_state`` attaches the final state vector.  ``key`` overrides
        the derived circuit-family hash (two structurally different builders
        can share a warm base by sharing a key -- don't, unless they really
        build the same circuit).

        Raises :class:`CircuitValidationError` for requests outside the
        declared configuration and :class:`QueueFullError` /
        :class:`BackpressureError` when admission control rejects.
        """
        if self._closed:
            raise BackendClosedError("backend is closed")
        if shots < 0:
            raise CircuitValidationError(f"shots must be non-negative, got {shots}")
        if shots > self.configuration.max_shots:
            raise CircuitValidationError(
                f"shots={shots} exceeds max_shots={self.configuration.max_shots}"
            )
        key, factory = self._normalise_circuit(circuit, key, num_qubits)
        job = Job(self, f"job-{next(self._job_ids):06d}", tenant=tenant)
        job._request = _JobRequest(  # type: ignore[attr-defined]
            job, key, factory, shots, seed, observable, return_state, tenant
        )
        job.submit()
        return job

    def prometheus_text(self) -> str:
        """Prometheus text exposition of every backend metric (gauges fresh)."""
        self._refresh_gauges()
        return self.telemetry.metrics.prometheus_text()

    def tenant_metrics(self, tenant: str) -> MetricsRegistry:
        """The rollup registry accumulated from ``tenant``'s jobs.

        Counters and histograms of every base session ``tenant``'s jobs
        built (update latencies, kernel runs, COW adoption counts, ...),
        accumulated via :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`,
        plus the ``recovery.*`` counters of their ``run_shots`` walks; a
        warm read adds nothing.  Inspect with ``as_dict()`` or
        ``prometheus_text()``.
        """
        with self._tenant_lock:
            reg = self._tenant_registries.get(tenant)
            if reg is None:
                reg = self._tenant_registries[tenant] = MetricsRegistry()
            return reg

    def tenants(self) -> List[str]:
        with self._tenant_lock:
            return sorted(self._tenant_registries)

    def status(self) -> Dict[str, object]:
        """Point-in-time operational snapshot (what an LB health check reads)."""
        self._refresh_gauges()
        return {
            "backend_name": self.configuration.backend_name,
            "closed": self._closed,
            "queue_depth": self._queue.qsize(),
            "max_queued_jobs": self.configuration.max_queued_jobs,
            "active_jobs": int(self._gauge_active.value),
            "max_concurrent_jobs": self.configuration.max_concurrent_jobs,
            "degraded": self._degraded,
            "update_p95_seconds": self._update_rollup.percentile(0.95),
            "jobs": {
                "submitted": self._jobs_submitted.value,
                "completed": self._jobs_completed.value,
                "failed": self._jobs_failed.value,
                "rejected": self._jobs_rejected.value,
                "cancelled": self._jobs_cancelled.value,
            },
            "pool": self.pool.stats(),
        }

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work, drain queued jobs, release the pool.

        Already-queued jobs still run to completion (their ``result()``
        resolves); new ``run()`` calls raise :class:`BackendClosedError`.
        """
        with self._admit_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._dispatchers:
                self._queue.put(None)  # sentinel after all queued work
        for t in self._dispatchers:
            t.join(timeout=timeout)
        self.pool.close()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission control ----------------------------------------------------

    def _admit(self, job: Job) -> None:
        """Called by ``Job.submit``: enforce backpressure, then the bound."""
        cfg = self.configuration
        depth = self._queue.qsize()
        soft = max(1, cfg.max_queued_jobs // 2)
        if depth >= soft:
            p95 = self._update_rollup.percentile(0.95)
            if (
                cfg.p95_reject_seconds is not None
                and self._update_rollup.count > 0
                and p95 > cfg.p95_reject_seconds
            ):
                self._jobs_rejected.inc()
                raise BackpressureError(
                    f"shedding load: update.seconds p95 {p95:.3f}s exceeds "
                    f"{cfg.p95_reject_seconds}s with {depth} jobs queued",
                    queue_depth=depth, limit=cfg.max_queued_jobs,
                    reason="p95", p95_seconds=p95,
                    threshold_seconds=cfg.p95_reject_seconds,
                )
            if self._degraded:
                self._jobs_rejected.inc()
                raise BackpressureError(
                    f"shedding load: backend degraded (recent recovery "
                    f"events) with {depth} jobs queued",
                    queue_depth=depth, limit=cfg.max_queued_jobs,
                    reason="degraded", p95_seconds=p95,
                    threshold_seconds=cfg.p95_reject_seconds,
                )
        with self._admit_lock:
            if self._closed:
                raise BackendClosedError("backend is closed")
            # stamped first: an idle dispatcher may dequeue the job at once
            job.submitted_at = time.perf_counter()
            try:
                self._queue.put_nowait(job._request)  # type: ignore[attr-defined]
            except queue.Full:
                self._jobs_rejected.inc()
                raise QueueFullError(
                    f"admission queue full ({cfg.max_queued_jobs} jobs)",
                    queue_depth=cfg.max_queued_jobs,
                    limit=cfg.max_queued_jobs,
                ) from None
        self._jobs_submitted.inc()
        self._gauge_queue.set(self._queue.qsize())

    def _job_cancelled(self, job: Job) -> None:
        """Job moved to CANCELLED while queued (request skipped on dequeue)."""
        self._jobs_cancelled.inc()

    # -- dispatch -------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            self._gauge_queue.set(self._queue.qsize())
            try:
                self._execute(request)
            except BaseException as exc:  # defensive: never kill a dispatcher
                if not request.job.done():
                    request.job._fail(exc)

    def _execute(self, request: _JobRequest) -> None:
        job = request.job
        if not job._start():  # cancelled while queued
            return
        queue_seconds = time.perf_counter() - job.submitted_at
        self._hist_queue_wait.observe(queue_seconds)
        self._gauge_active.inc(1)
        tracer = self.telemetry.tracer
        if tracer.enabled:
            # measured before any span could be open: adopted, as it was
            thread = threading.current_thread()
            tracer.adopt(
                "service.queue_wait", job.submitted_at, queue_seconds,
                parent_id=None, pid=os.getpid(),
                thread_id=thread.ident or 0, thread_name=thread.name,
                attrs={"job": job.job_id},
            )
        pinned = False
        # recovery events the job recorded: its base build's, if it built
        # one, and its run_shots walk fork's
        troubled = 0
        walks: Sequence[Telemetry] = ()
        started = time.perf_counter()
        try:
            def warmed_factory() -> QTask:
                # Build AND warm here (the pool's own warming update is then
                # a no-op) so the base session's telemetry -- the expensive
                # full update's latency, any recovery events the build hit --
                # feeds the rollup that drives admission control.
                nonlocal troubled
                with tracer.span("service.build", {"key": request.key}):
                    session = request.factory()
                    try:
                        session.update_state()
                    except BaseException:
                        session.close()
                        raise
                    # one observables engine before concurrent readers share it
                    session.simulator.observables
                troubled += self._absorb_build(session, request.tenant)
                return session

            with tracer.span(
                "job.run",
                {"job": job.job_id, "tenant": request.tenant, "key": request.key},
                root=True,
            ):
                with tracer.span("service.lease", {"key": request.key}) as span:
                    base, hit = self.pool.pin(request.key, warmed_factory)
                    pinned = True
                    span.set("hit", hit)
                # The pinned base is warm and nobody edits it: read it.
                counts = None
                if request.shots > 0:
                    # Trajectories only when something collapses or branches:
                    # a declared-but-unused creg must not turn the histogram
                    # into all-zero classical registers.
                    if base.circuit.has_dynamic_ops:
                        with collect_forks() as walks:
                            counts = base.run_shots(request.shots, seed=request.seed)
                    else:
                        counts = base.counts(request.shots, seed=request.seed)
                expectation = (
                    base.expectation(request.observable)
                    if request.observable is not None else None
                )
                statevector = (
                    np.array(base.state(), copy=True)
                    if request.return_state else None
                )
            result = JobResult(
                job_id=job.job_id,
                tenant=request.tenant,
                key=request.key,
                pool_hit=hit,
                shots=request.shots,
                counts=counts,
                expectation=expectation,
                statevector=statevector,
                seconds=time.perf_counter() - started,
                queue_seconds=queue_seconds,
            )
            error = None
        except BaseException as exc:
            result, error = None, exc
        # The job is published last: whoever result() wakes reads the
        # lease, the degraded flag and the gauges as this job left them.
        try:
            if pinned:
                self.pool.unpin(request.key)
                troubled += self._absorb_walks(walks, request.tenant)
                self._fold_health(troubled)
        finally:
            self._gauge_active.inc(-1)
        if error is None:
            self._jobs_completed.inc()
            self._hist_job.observe(result.seconds)
            job._finish(result)
        else:
            self._jobs_failed.inc()
            job._fail(error)

    # -- telemetry plumbing ---------------------------------------------------

    def _absorb_build(self, session: QTask, tenant: str) -> int:
        """Fold a base session, right after its warming build, into the
        per-tenant and rollup views; returns its recovery events."""
        telemetry = session.telemetry
        self.tenant_metrics(tenant).merge(telemetry.metrics)
        update_hist = telemetry.metrics.get("update.seconds")
        if update_hist is not None and update_hist.count > 0:
            try:
                self._update_rollup.merge(update_hist)
            except ValueError:  # pragma: no cover - custom session bounds
                pass
            self._gauge_p95.set(self._update_rollup.percentile(0.95))
        return recovery_events(telemetry)

    def _absorb_walks(self, walks: Sequence[Telemetry], tenant: str) -> int:
        """Fold the ``recovery.*`` counters of a job's walk forks into the
        tenant's rollup; returns their recovery events."""
        troubled = 0
        for telemetry in walks:
            metrics = telemetry.metrics
            for name in metrics.names():
                if name.startswith("recovery."):
                    counter = metrics.get(name)
                    if counter.value:
                        self.tenant_metrics(tenant).counter(
                            name, help=counter.help).inc(counter.value)
            troubled += recovery_events(telemetry)
        return troubled

    def _fold_health(self, troubled: int) -> None:
        """One finished job's step of the degraded flag: recovery events
        set it, ``degraded_grace_jobs`` clean jobs in a row clear it."""
        with self._health_lock:
            if troubled:
                self._degraded = True
                self._clean_streak = 0
            elif self._degraded:
                self._clean_streak += 1
                if self._clean_streak >= self.configuration.degraded_grace_jobs:
                    self._degraded = False
                    self._clean_streak = 0
            self._gauge_degraded.set(1.0 if self._degraded else 0.0)

    def _refresh_gauges(self) -> None:
        self._gauge_queue.set(self._queue.qsize())
        self._gauge_degraded.set(1.0 if self._degraded else 0.0)
        self._gauge_p95.set(self._update_rollup.percentile(0.95))
        self.pool._refresh_gauges()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = self.configuration
        return (
            f"Backend({cfg.backend_name}, n_qubits<={cfg.n_qubits}, "
            f"queue={self._queue.qsize()}/{cfg.max_queued_jobs}, "
            f"pool={len(self.pool)}/{cfg.max_pool_sessions})"
        )
