"""Uniform adapters over qTask and the baseline simulators.

The workloads in :mod:`repro.bench.workloads` drive every simulator through
the same tiny interface -- attach to a circuit, ``update_state``, report
memory, close -- so a benchmark row differs between simulators only in which
factory produced the adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..baselines import QiskitLikeSimulator, QulacsLikeSimulator
from ..core.circuit import Circuit, GateHandle
from ..core.simulator import QTaskSimulator
from ..telemetry import MetricsRegistry

__all__ = [
    "SimulatorAdapter",
    "SimulatorFactory",
    "qtask_factory",
    "qulacs_like_factory",
    "qiskit_like_factory",
    "standard_factories",
]


class SimulatorAdapter:
    """Minimal uniform surface over qTask and the baselines.

    Iteration timing is *not* hand-rolled ``perf_counter`` bookkeeping:
    each adapter owns a ``bench.iteration_seconds`` histogram -- registered
    in the wrapped simulator's own telemetry registry when it has one
    (qTask), in a standalone registry otherwise (the baselines) -- so the
    numbers a benchmark row reports and the numbers runtime telemetry
    exposes come from one instrument and cannot drift apart.
    """

    def __init__(
        self,
        name: str,
        impl,
        *,
        incremental: bool,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.impl = impl
        self.incremental = incremental
        if registry is None:
            telemetry = getattr(impl, "telemetry", None)
            registry = (
                telemetry.metrics if telemetry is not None else MetricsRegistry()
            )
        self.metrics = registry
        self._iterations = registry.histogram(
            "bench.iteration_seconds",
            unit="s",
            help="benchmark workload iteration wall time",
            keep_samples=True,
        )

    # -- iteration timing (the workloads' single stopwatch) ------------------

    def iteration(self):
        """``with adapter.iteration(): ...`` times one workload iteration."""
        return self._iterations.time()

    @property
    def iteration_seconds(self) -> List[float]:
        """Per-iteration wall times observed so far, in order."""
        return list(self._iterations.samples or ())

    @property
    def total_iteration_seconds(self) -> float:
        return self._iterations.total

    def update_state(self):
        return self.impl.update_state()

    def state(self):
        return self.impl.state()

    def probabilities(self) -> np.ndarray:
        return self.impl.probabilities()

    def norm(self) -> float:
        return self.impl.norm()

    # -- observables & modifiers (uniform over qTask and the baselines) ------

    def expectation(self, observable) -> float:
        """``<psi|H|psi>`` of a Pauli observable on the current state."""
        return self.impl.expectation(observable)

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        return self.impl.sample(shots, seed=seed)

    def counts(self, shots: int, *, seed: Optional[int] = None) -> Dict[str, int]:
        return self.impl.counts(shots, seed=seed)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        return self.impl.marginal_probabilities(qubits)

    def update_gate(self, handle: GateHandle, *params: float) -> GateHandle:
        """Retune a gate of the shared circuit (every adapter sees the edit)."""
        return self.impl.circuit.update_gate(handle, *params)

    def allocated_bytes(self) -> int:
        if hasattr(self.impl, "memory_report"):
            return self.impl.memory_report().allocated_bytes
        return self.impl.allocated_bytes()

    def close(self) -> None:
        self.impl.close()


@dataclass(frozen=True)
class SimulatorFactory:
    """Creates a :class:`SimulatorAdapter` attached to a circuit."""

    name: str
    builder: Callable[[Circuit], SimulatorAdapter]

    def create(self, circuit: Circuit) -> SimulatorAdapter:
        return self.builder(circuit)


def qtask_factory(*, name: str = "qTask", **knobs) -> SimulatorFactory:
    """A qTask column; ``knobs`` are the :class:`QTaskSimulator` keywords."""

    def build(circuit: Circuit) -> SimulatorAdapter:
        return SimulatorAdapter(
            name, QTaskSimulator(circuit, **knobs), incremental=True
        )

    return SimulatorFactory(name=name, builder=build)


def qulacs_like_factory(
    *, num_workers: Optional[int] = None, name: str = "Qulacs-like"
) -> SimulatorFactory:
    def build(circuit: Circuit) -> SimulatorAdapter:
        sim = QulacsLikeSimulator(circuit, num_workers=num_workers)
        return SimulatorAdapter(name, sim, incremental=False)

    return SimulatorFactory(name=name, builder=build)


def qiskit_like_factory(*, name: str = "Qiskit-like") -> SimulatorFactory:
    def build(circuit: Circuit) -> SimulatorAdapter:
        return SimulatorAdapter(name, QiskitLikeSimulator(circuit), incremental=False)

    return SimulatorFactory(name=name, builder=build)


def standard_factories(
    *,
    block_size: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> List[SimulatorFactory]:
    """The three simulators of Table III, in the paper's column order."""
    return [
        qulacs_like_factory(num_workers=num_workers),
        qiskit_like_factory(),
        qtask_factory(block_size=block_size, num_workers=num_workers),
    ]
