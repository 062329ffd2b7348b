"""Declarative backend configuration, following the provider exemplars.

A backend advertises what it can do *before* any job runs: the basis gate
set, a ``max_shots`` bound, and -- as in the qiskit statevector providers
-- an ``n_qubits`` cap **derived from the machine's available memory** (a
state vector of ``n`` qubits costs ``16 * 2**n`` bytes of complex128
amplitudes; qTask's copy-on-write storage usually materialises much less,
but the cap must hold even for a worst-case dense circuit).

:data:`DEFAULT_CONFIGURATION` is the plain-dict declarative form;
:class:`BackendConfiguration` is the typed object the
:class:`~repro.service.backend.Backend` actually consults, constructible
from any partial dict (unknown keys rejected loudly, missing keys
defaulted).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from math import log2
from typing import Dict, Optional, Tuple

from ..core.gates import GATE_REGISTRY

__all__ = [
    "available_memory_bytes",
    "memory_qubit_cap",
    "BackendConfiguration",
    "DEFAULT_CONFIGURATION",
]

#: bytes per complex128 state-vector amplitude
_AMPLITUDE_BYTES = 16

#: conservative fallback when no memory introspection works (1 GiB)
_FALLBACK_MEMORY_BYTES = 1 << 30


def available_memory_bytes() -> int:
    """Best-effort available physical memory, in bytes.

    Prefers ``MemAvailable`` from ``/proc/meminfo`` (what the kernel says a
    new allocation can actually get), falls back to total physical memory
    via ``sysconf``, then to a conservative 1 GiB constant -- the cap must
    never crash a backend into existence.
    """
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            return pages * page_size
    except (ValueError, OSError, AttributeError):  # pragma: no cover - platform
        pass
    return _FALLBACK_MEMORY_BYTES  # pragma: no cover - platform


def memory_qubit_cap(
    memory_bytes: Optional[int] = None, *, headroom: float = 0.5
) -> int:
    """Largest ``n`` such that a dense ``n``-qubit state fits in memory.

    ``headroom`` keeps a fraction of memory for the engine itself (plans,
    pooled sessions, shot-walk forks); with the default 0.5, half the available
    bytes budget the worst-case dense state vector.
    """
    if memory_bytes is None:
        memory_bytes = available_memory_bytes()
    usable = max(1.0, memory_bytes * headroom)
    return max(1, int(log2(usable / _AMPLITUDE_BYTES)))


#: the declarative configuration dict, exemplar-style: everything a client
#: needs to know to decide whether a circuit can run here, without running it
DEFAULT_CONFIGURATION: Dict[str, object] = {
    "backend_name": "qtask_statevector",
    "backend_version": "1.0.0",
    "description": (
        "Incremental qTask state-vector simulator behind an async "
        "multi-tenant Backend/Job facade with a warm COW session pool"
    ),
    "simulator": True,
    "local": True,
    "conditional": True,  # measure / reset / c_if are first-class
    "memory": True,  # per-shot classical bits are returned (counts)
    "n_qubits": memory_qubit_cap(),
    "max_shots": 65536,
    "basis_gates": tuple(sorted(GATE_REGISTRY)),
    # service knobs (admission control, scheduling, session pool)
    "max_queued_jobs": 64,
    "max_concurrent_jobs": 4,
    "max_pool_sessions": 8,
    "pool_memory_budget_bytes": None,  # None = unbounded
    "p95_reject_seconds": None,  # None = p95-based shedding off
    "degraded_grace_jobs": 4,
}


@dataclass(frozen=True)
class BackendConfiguration:
    """Typed view of :data:`DEFAULT_CONFIGURATION`; see that dict's comments."""

    backend_name: str = "qtask_statevector"
    backend_version: str = "1.0.0"
    description: str = str(DEFAULT_CONFIGURATION["description"])
    simulator: bool = True
    local: bool = True
    conditional: bool = True
    memory: bool = True
    n_qubits: int = int(DEFAULT_CONFIGURATION["n_qubits"])
    max_shots: int = 65536
    basis_gates: Tuple[str, ...] = field(
        default_factory=lambda: tuple(sorted(GATE_REGISTRY))
    )
    max_queued_jobs: int = 64
    max_concurrent_jobs: int = 4
    max_pool_sessions: int = 8
    pool_memory_budget_bytes: Optional[int] = None
    p95_reject_seconds: Optional[float] = None
    degraded_grace_jobs: int = 4

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.max_shots < 1:
            raise ValueError(f"max_shots must be positive, got {self.max_shots}")
        if self.max_queued_jobs < 1:
            raise ValueError(
                f"max_queued_jobs must be positive, got {self.max_queued_jobs}"
            )
        if self.max_concurrent_jobs < 1:
            raise ValueError(
                f"max_concurrent_jobs must be positive, "
                f"got {self.max_concurrent_jobs}"
            )
        if self.max_pool_sessions < 1:
            raise ValueError(
                f"max_pool_sessions must be positive, got {self.max_pool_sessions}"
            )
        object.__setattr__(self, "basis_gates", tuple(g.lower() for g in self.basis_gates))

    @classmethod
    def from_dict(cls, overrides: Optional[Dict[str, object]] = None) -> "BackendConfiguration":
        """Build from a partial dict; unknown keys raise instead of vanishing."""
        overrides = dict(overrides or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown configuration key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**overrides)

    @classmethod
    def coerce(cls, configuration) -> "BackendConfiguration":
        """Accept ``None`` (defaults), a dict, or an existing configuration."""
        if configuration is None:
            return cls()
        if isinstance(configuration, cls):
            return configuration
        if isinstance(configuration, dict):
            return cls.from_dict(configuration)
        raise TypeError(
            f"configuration must be None, a dict or a BackendConfiguration, "
            f"got {type(configuration).__name__}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
