"""Core qTask machinery: gates, partitions, COW storage, graph, simulator."""

from .blocks import DEFAULT_BLOCK_SIZE, BlockRange
from .circuit import Circuit, CircuitObserver, GateHandle, NetHandle
from .classical import ClassicalRegister, OutcomeRecord
from .cow import (
    BlockStore,
    IndexReader,
    InitialStateStore,
    MemoryReport,
)
from .exceptions import (
    CheckpointError,
    CircuitError,
    GateArityError,
    NetDependencyError,
    QasmSyntaxError,
    QTaskError,
    QubitIndexError,
    StaleHandleError,
    UnknownGateError,
)
from .faults import FaultInjected, FaultPlan
from .gates import (
    Gate,
    GateSpec,
    STANDARD_GATE_NAMES,
    classify_gate,
    classify_matrix,
    gate_matrix,
    is_superposition_gate,
)
from .graph import PartitionGraph, PartitionNode
from .ops import CGate, MeasureOp, ResetOp, is_dynamic_op
from .partition import PartitionSpec, derive_partitions, matvec_partitions
from .simulator import QTaskSimulator, UpdateReport
from .stage import (
    ClassicallyControlledStage,
    DynamicStage,
    MatVecStage,
    MeasureStage,
    ResetStage,
    Stage,
    UnitaryStage,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockRange",
    "Circuit",
    "CircuitObserver",
    "GateHandle",
    "NetHandle",
    "ClassicalRegister",
    "OutcomeRecord",
    "CGate",
    "MeasureOp",
    "ResetOp",
    "is_dynamic_op",
    "DynamicStage",
    "MeasureStage",
    "ResetStage",
    "ClassicallyControlledStage",
    "BlockStore",
    "IndexReader",
    "InitialStateStore",
    "MemoryReport",
    "QTaskError",
    "CircuitError",
    "NetDependencyError",
    "UnknownGateError",
    "GateArityError",
    "QubitIndexError",
    "StaleHandleError",
    "QasmSyntaxError",
    "CheckpointError",
    "FaultInjected",
    "FaultPlan",
    "Gate",
    "GateSpec",
    "STANDARD_GATE_NAMES",
    "classify_gate",
    "classify_matrix",
    "gate_matrix",
    "is_superposition_gate",
    "PartitionGraph",
    "PartitionNode",
    "PartitionSpec",
    "derive_partitions",
    "matvec_partitions",
    "QTaskSimulator",
    "UpdateReport",
    "MatVecStage",
    "Stage",
    "UnitaryStage",
]
