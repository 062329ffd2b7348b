"""Typed errors of the service layer.

Everything the :class:`~repro.service.backend.Backend` rejects or fails is
a subclass of :class:`ServiceError`, so a caller can catch the whole family
with one clause -- but admission-control rejections
(:class:`QueueFullError`, :class:`BackpressureError`) carry structured
fields a load balancer can act on (retry elsewhere, back off), and are
deliberately distinct from *job* failures, which surface through
``Job.result()``.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ServiceError",
    "CircuitValidationError",
    "QueueFullError",
    "BackpressureError",
    "InvalidJobTransition",
    "JobCancelledError",
    "JobTimeoutError",
    "BackendClosedError",
]


class ServiceError(Exception):
    """Base class of every service-layer error."""


class CircuitValidationError(ServiceError):
    """The submitted circuit violates the backend's declared configuration.

    Raised synchronously by ``Backend.run`` (never from inside a job):
    too many qubits for the memory-derived ``n_qubits`` cap, a gate outside
    ``basis_gates``, ``shots`` beyond ``max_shots``, or unparsable QASM.
    """


class QueueFullError(ServiceError):
    """Admission rejected: the bounded job queue is at capacity.

    ``queue_depth`` and ``limit`` describe the queue at rejection time.
    The job was *not* enqueued; retry later or against another backend.
    """

    def __init__(self, message: str, *, queue_depth: int, limit: int) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class BackpressureError(QueueFullError):
    """Admission rejected by load shedding, not a hard queue bound.

    The queue still had room, but the backend's health signals -- the
    rolled-up ``update.seconds`` p95 above the configured threshold, or
    recent recovery events (chunk fallbacks) marking
    the engine degraded -- say accepting more work would only grow latency.
    ``reason`` is ``"p95"`` or ``"degraded"``; ``p95_seconds`` carries the
    gauge reading that tripped (0.0 for degraded-mode rejections).
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int,
        limit: int,
        reason: str,
        p95_seconds: float = 0.0,
        threshold_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message, queue_depth=queue_depth, limit=limit)
        self.reason = reason
        self.p95_seconds = p95_seconds
        self.threshold_seconds = threshold_seconds


class InvalidJobTransition(ServiceError):
    """A job method was called in a state that does not allow it."""


class JobCancelledError(ServiceError):
    """``result()`` was called on a job that was cancelled."""


class JobTimeoutError(ServiceError):
    """``result(timeout=...)`` expired before the job finished."""


class BackendClosedError(ServiceError):
    """The backend was closed; no further jobs are accepted."""
