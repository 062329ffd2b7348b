"""§IV.F ablation: runtime and memory impact of copy-on-write block storage.

Runs the level-by-level incremental protocol on the copy-on-write stores.
The timing is reported by pytest-benchmark; the peak logical memory is
attached as ``extra_info`` next to the peak of one dense vector per stage
(the session's ``MemoryReport.dense_bytes``, byte for byte what the deleted
dense storage mode held), so the 20-50% savings claim of §IV.F can be
checked from the benchmark JSON.
"""

import pytest

from repro.bench.memory import cow_memory_comparison

CIRCUITS = [("qft", 10), ("adder", None), ("ising", None)]


def _id(entry):
    name, qubits = entry
    return name if qubits is None else f"{name}[{qubits}q]"


@pytest.mark.parametrize("entry", CIRCUITS, ids=_id)
def test_cow_ablation(benchmark, entry):
    name, qubits = entry

    def run():
        return cow_memory_comparison(name, num_qubits=qubits)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["peak_memory_bytes"] = result.with_cow_bytes
    benchmark.extra_info["dense_memory_bytes"] = result.without_cow_bytes
