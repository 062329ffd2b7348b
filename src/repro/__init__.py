"""repro -- a Python reproduction of qTask (IPDPS 2023).

qTask is a state-vector quantum circuit simulator with first-class support
for *incremental* simulation: after inserting or removing gates, only the
partitions of the state computation affected by the modification are
re-simulated.  See ``docs/architecture.md`` for the system inventory and
``benchmarks/ledger/README.md`` for how it is measured.

Quick start::

    from repro import QTask

    ckt = QTask(5)
    q4, q3, q2, q1, q0 = ckt.qubits()
    net1 = ckt.insert_net()
    net2 = ckt.insert_net(net1)
    for q in (q4, q3, q2, q1, q0):
        ckt.insert_gate("h", net1, q)
    ckt.insert_gate("cnot", net2, q3, q4)
    ckt.update_state()            # full simulation
    ckt.insert_gate("cnot", net2, q0, q1)
    ckt.update_state()            # incremental simulation
"""

from .core.blocks import DEFAULT_BLOCK_SIZE
from .core.circuit import Circuit
from .core.classical import ClassicalRegister, OutcomeRecord
from .core.exceptions import CheckpointError
from .core.faults import FaultInjected, FaultPlan
from .core.gates import Gate, gate_matrix
from .core.simulator import QTaskSimulator, UpdateReport
from .observables import PauliString, PauliSum
from .parallel import SweepResult, SweepRunner
from .qtask import QTask
from .service import (
    Backend,
    BackendConfiguration,
    BackpressureError,
    Job,
    JobResult,
    JobStatus,
    QueueFullError,
    ServiceError,
    SessionPool,
)
from .telemetry import EventLog, MetricsRegistry, Telemetry, Tracer

__version__ = "1.0.0"

__all__ = [
    "QTask",
    "Backend",
    "BackendConfiguration",
    "Job",
    "JobResult",
    "JobStatus",
    "SessionPool",
    "ServiceError",
    "QueueFullError",
    "BackpressureError",
    "ClassicalRegister",
    "OutcomeRecord",
    "SweepRunner",
    "SweepResult",
    "QTaskSimulator",
    "UpdateReport",
    "Circuit",
    "Gate",
    "gate_matrix",
    "PauliString",
    "PauliSum",
    "CheckpointError",
    "FaultInjected",
    "FaultPlan",
    "Telemetry",
    "Tracer",
    "MetricsRegistry",
    "EventLog",
    "DEFAULT_BLOCK_SIZE",
    "__version__",
]
