"""Adapters expose the observable workload uniformly across simulators."""

import numpy as np
import pytest

from repro.bench.adapters import (
    SimulatorFactory,
    qiskit_like_factory,
    qtask_factory,
    qulacs_like_factory,
)
from repro.circuits.variational import qaoa_maxcut
from repro.core.circuit import Circuit
from repro.observables import maxcut_hamiltonian
from repro.qasm.levelize import levelize

def cold_qtask_factory(name: str) -> SimulatorFactory:
    """qTask sessions whose observables engine drops every cached result
    before each query, so every answer is computed from the block stores."""
    base = qtask_factory(name=name)

    def build(circuit):
        adapter = base.create(circuit)
        engine = adapter.impl.observables
        for query in ("expectation_value", "total_probability",
                      "marginal_probabilities", "sample"):
            warm = getattr(engine, query)

            def cold(*args, _warm=warm, **kwargs):
                engine.invalidate()
                return _warm(*args, **kwargs)

            setattr(engine, query, cold)
        return adapter

    return SimulatorFactory(name=name, builder=build)


FACTORIES = [
    qtask_factory(),
    cold_qtask_factory("qTask-nocache"),
    # the id is historical (the knob it named is gone): a many-block corner
    qtask_factory(block_size=4, name="qTask-fused"),
    qulacs_like_factory(),
    qiskit_like_factory(),
]


def _build_circuit(num_qubits=6):
    ckt = Circuit(num_qubits)
    ckt.from_levels(levelize(qaoa_maxcut(num_qubits, rounds=1)))
    return ckt


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.name)
def test_observable_surface_is_uniform(factory):
    num_qubits = 6
    obs = maxcut_hamiltonian([(q, (q + 1) % num_qubits) for q in range(num_qubits)])
    ckt = _build_circuit(num_qubits)
    ref = _build_circuit(num_qubits)
    baseline = qiskit_like_factory().create(ref)
    adapter = factory.create(ckt)
    try:
        adapter.update_state()
        baseline.update_state()
        assert abs(adapter.expectation(obs) - baseline.expectation(obs)) < 1e-10
        assert abs(adapter.norm() - 1.0) < 1e-10
        np.testing.assert_allclose(
            adapter.marginal_probabilities((0, 1)),
            baseline.marginal_probabilities((0, 1)),
            atol=1e-10,
        )
        counts = adapter.counts(200, seed=5)
        assert sum(counts.values()) == 200
        assert adapter.sample(32, seed=1).shape == (32,)
        # retune through the adapter: every simulator sees the shared circuit
        handle = next(h for h in ckt.gates() if h.gate.params)
        ref_handle = next(h for h in ref.gates() if h.gate.params)
        adapter.update_gate(handle, 1.234)
        baseline.update_gate(ref_handle, 1.234)
        adapter.update_state()
        baseline.update_state()
        assert abs(adapter.expectation(obs) - baseline.expectation(obs)) < 1e-10
    finally:
        adapter.close()
        baseline.close()
