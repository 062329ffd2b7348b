"""Observables subsystem: Pauli expectations, marginals and shot sampling.

Everything here evaluates measurement queries *block-wise* against the
simulator's copy-on-write stores -- the same data layout, batched block reads
and dirty frontier the incremental update uses -- so observables inherit
qTask's incrementality: a localised circuit edit invalidates only the
per-block partials its dirty blocks cover.

See :mod:`repro.observables.pauli` for the observable vocabulary and
:mod:`repro.observables.engine` for the evaluation engine.
"""

from .engine import ObservablesEngine, dense_expectation, statevector_counts
from .pauli import (
    PauliString,
    PauliSum,
    as_pauli_sum,
    ising_hamiltonian,
    maxcut_hamiltonian,
)

__all__ = [
    "ObservablesEngine",
    "PauliString",
    "PauliSum",
    "as_pauli_sum",
    "dense_expectation",
    "statevector_counts",
    "ising_hamiltonian",
    "maxcut_hamiltonian",
]
