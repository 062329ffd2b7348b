"""Circuit generators for the QASMBench-family workloads of the evaluation.

QASMBench itself is a collection of OpenQASM files that is not bundled here;
these generators synthesize circuits of the same *families* -- same algorithm,
same qubit count, comparable gate count and gate mix -- which is what drives
the partitioning and incrementality behaviour the paper measures.  Real
QASMBench files can still be loaded through :mod:`repro.qasm` when available.

The catalog (:mod:`repro.circuits.catalog`) maps the 20 benchmark names of
Table III to generator invocations.
"""

from .blocksets import (
    controlled_phase_ladder,
    cuccaro_adder,
    ghz_levels,
    inverse_qft_gates,
    qft_gates,
    toffoli_gates,
)
from .algorithms import (
    bernstein_vazirani,
    counterfeit_coin,
    grover_sat,
    phase_estimation,
    quantum_fourier_transform,
    ripple_adder,
    shor_error_correction,
    shor_factor_21,
    simons_algorithm,
    multiplier,
)
from .variational import (
    bb84,
    deep_neural_network,
    ising_model,
    qaoa_maxcut,
    vqe_uccsd,
)
from .catalog import (
    CATALOG,
    BenchmarkSpec,
    benchmark_names,
    build_benchmark,
    build_levels,
    get_benchmark,
)

__all__ = [
    "controlled_phase_ladder",
    "cuccaro_adder",
    "ghz_levels",
    "inverse_qft_gates",
    "qft_gates",
    "toffoli_gates",
    "bernstein_vazirani",
    "counterfeit_coin",
    "grover_sat",
    "phase_estimation",
    "quantum_fourier_transform",
    "ripple_adder",
    "shor_error_correction",
    "shor_factor_21",
    "simons_algorithm",
    "multiplier",
    "bb84",
    "deep_neural_network",
    "ising_model",
    "qaoa_maxcut",
    "vqe_uccsd",
    "CATALOG",
    "BenchmarkSpec",
    "benchmark_names",
    "build_benchmark",
    "build_levels",
    "get_benchmark",
]
