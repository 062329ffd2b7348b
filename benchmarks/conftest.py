"""Shared configuration for the pytest-benchmark suites.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see EXPERIMENTS.md for the index and DESIGN.md for the mapping).
The circuits used here are scaled-down members of the same families so the
whole suite runs in a few minutes on a laptop; the full-size runs are
available through the ``python -m repro.bench.*`` entry points.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import (
    qiskit_like_factory,
    qtask_factory,
    qulacs_like_factory,
)
from repro.circuits import build_levels

#: (circuit, qubit-override) pairs used across the benchmark suites.  They
#: cover the paper's main workload classes: superposition-heavy (qft),
#: CNOT-heavy arithmetic (adder), rotation layers (ising) and oracle circuits
#: (bv).
BENCH_CIRCUITS = [
    ("bv", None),
    ("adder", None),
    ("ising", None),
    ("qft", 10),
]

#: The two circuits the paper uses for Figs. 14-19 (scaled to stay fast).
FIGURE_CIRCUITS = [("qft", 10), ("adder", None)]


def circuit_id(entry) -> str:
    name, qubits = entry
    return name if qubits is None else f"{name}[{qubits}q]"


@pytest.fixture(scope="session")
def levels_cache():
    cache = {}

    def get(name, qubits):
        key = (name, qubits)
        if key not in cache:
            cache[key] = build_levels(name, num_qubits=qubits)
        return cache[key]

    return get


def make_factory(kind: str, **kwargs):
    if kind == "qTask":
        return qtask_factory(num_workers=kwargs.get("num_workers"),
                             block_size=kwargs.get("block_size", 256))
    if kind == "Qulacs-like":
        return qulacs_like_factory(num_workers=kwargs.get("num_workers"))
    if kind == "Qiskit-like":
        return qiskit_like_factory()
    raise ValueError(kind)


SIMULATORS = ["qTask", "Qulacs-like", "Qiskit-like"]
HEAD_TO_HEAD = ["qTask", "Qulacs-like"]
