"""The service layer: qTask as a multi-tenant async backend.

The paper's north star is a simulation *service* for heavy multi-user
traffic; this package is the step from library to service.  The
:class:`Backend` facade validates requests against a declarative
:class:`BackendConfiguration` (basis gates, ``max_shots``, a memory-derived
``n_qubits`` cap), admits them to a bounded queue with health-based
backpressure, executes them as async :class:`Job` objects on a small pool
of dispatcher threads, and serves every job by reading the pinned warm
base session of its circuit family in the :class:`SessionPool` -- see
``docs/service.md``.
"""

from .backend import Backend
from .config import (
    BackendConfiguration,
    DEFAULT_CONFIGURATION,
    available_memory_bytes,
    memory_qubit_cap,
)
from .errors import (
    BackendClosedError,
    BackpressureError,
    CircuitValidationError,
    InvalidJobTransition,
    JobCancelledError,
    JobTimeoutError,
    QueueFullError,
    ServiceError,
)
from .job import Job, JobResult, JobStatus
from .pool import RECOVERY_EVENT_KINDS, SessionPool

__all__ = [
    "Backend",
    "BackendConfiguration",
    "DEFAULT_CONFIGURATION",
    "available_memory_bytes",
    "memory_qubit_cap",
    "Job",
    "JobResult",
    "JobStatus",
    "SessionPool",
    "RECOVERY_EVENT_KINDS",
    "ServiceError",
    "CircuitValidationError",
    "QueueFullError",
    "BackpressureError",
    "InvalidJobTransition",
    "JobCancelledError",
    "JobTimeoutError",
    "BackendClosedError",
]
