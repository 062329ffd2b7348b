"""The async Job: one request's lifecycle through the backend.

A job moves ``QUEUED -> RUNNING -> DONE | ERROR | CANCELLED`` (with a brief
``INITIALIZING`` before :meth:`Job.submit` enqueues it, matching the
provider exemplars).  All transitions happen under the job's lock, the
terminal transition sets an event, and :meth:`Job.result` blocks on that
event -- so any number of threads can wait on, poll or cancel the same job
without touching backend internals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional

from .errors import (
    InvalidJobTransition,
    JobCancelledError,
    JobTimeoutError,
)

__all__ = ["JobStatus", "JobResult", "Job"]


class JobStatus(Enum):
    """Lifecycle states of a :class:`Job`."""

    INITIALIZING = "INITIALIZING"
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    ERROR = "ERROR"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.ERROR, JobStatus.CANCELLED)


@dataclass(frozen=True)
class JobResult:
    """What a finished job computed, plus its service-side accounting."""

    job_id: str
    tenant: str
    key: str
    #: True when the job's circuit family was already warm in the session
    #: pool (the job read an existing base session instead of building one)
    pool_hit: bool
    shots: int
    #: measurement histogram (``{bitstring: count}``) when ``shots > 0``
    counts: Optional[Dict[str, int]]
    #: ``<psi|H|psi>`` when an observable was requested
    expectation: Optional[float]
    #: the final state vector when ``return_state=True`` was requested
    statevector: Optional[Any]
    #: wall-clock seconds spent executing (excludes queue wait)
    seconds: float
    #: wall-clock seconds spent waiting in the admission queue
    queue_seconds: float


class Job:
    """An asynchronously executing backend request.

    Created by :meth:`repro.service.Backend.run` (which also submits it);
    hold the object and call :meth:`status`, :meth:`result` or
    :meth:`cancel` from any thread.
    """

    def __init__(self, backend, job_id: str, *, tenant: str) -> None:
        self._backend = backend
        self.job_id = job_id
        self.tenant = tenant
        self._status = JobStatus.INITIALIZING
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._result: Optional[JobResult] = None
        self._exception: Optional[BaseException] = None
        #: perf_counter timestamp taken as the job is queued (queue-wait metric)
        self.submitted_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def submit(self) -> "Job":
        """Enqueue this job on its backend (QUEUED).

        Called by ``Backend.run`` -- calling it twice raises
        :class:`InvalidJobTransition`.  Admission control runs here:
        :class:`~repro.service.errors.QueueFullError` /
        :class:`~repro.service.errors.BackpressureError` propagate and the
        job stays unsubmitted.
        """
        with self._lock:
            if self._status is not JobStatus.INITIALIZING:
                raise InvalidJobTransition(
                    f"job {self.job_id} already submitted (status {self._status.value})"
                )
            self._status = JobStatus.QUEUED
        try:
            self._backend._admit(self)
        except BaseException:
            with self._lock:
                if self._status is JobStatus.QUEUED:
                    self._status = JobStatus.INITIALIZING
            raise
        return self

    def status(self) -> JobStatus:
        return self._status

    def done(self) -> bool:
        return self._status.terminal

    def running(self) -> bool:
        return self._status is JobStatus.RUNNING

    def cancelled(self) -> bool:
        return self._status is JobStatus.CANCELLED

    def cancel(self) -> bool:
        """Cancel the job if it has not started running.

        Returns ``True`` when the job moved to CANCELLED; ``False`` when it
        was already running or finished (a running simulation is never
        interrupted mid-update -- partial COW state must not leak into the
        warm pool).
        """
        with self._lock:
            if self._status in (JobStatus.INITIALIZING, JobStatus.QUEUED):
                self._status = JobStatus.CANCELLED
                self._done.set()
                self._backend._job_cancelled(self)
                return True
            return False

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until the job finishes and return its :class:`JobResult`.

        Raises :class:`JobTimeoutError` when ``timeout`` (seconds) expires,
        :class:`JobCancelledError` for cancelled jobs, and re-raises the
        job's own exception for ERROR jobs.
        """
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"job {self.job_id} not finished after {timeout}s "
                f"(status {self._status.value})"
            )
        if self._status is JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    # -- backend-side transitions (not public API) --------------------------

    def _start(self) -> bool:
        """QUEUED -> RUNNING; False when the job was cancelled in the queue."""
        with self._lock:
            if self._status is not JobStatus.QUEUED:
                return False
            self._status = JobStatus.RUNNING
            return True

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            self._result = result
            self._status = JobStatus.DONE
        self._done.set()

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            self._exception = exc
            self._status = JobStatus.ERROR
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.job_id}, tenant={self.tenant}, {self._status.value})"
