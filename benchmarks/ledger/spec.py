"""What the layer ledger measures: workloads, metrics, bounds, layer map.

This module is the single declaration the harness, ``compare.py``, the
tests and the root ``BENCHMARK.json`` are checked against.  Run it to print
the ``BENCHMARK.json`` it implies::

    python3 benchmarks/ledger/spec.py > BENCHMARK.json
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]
RUN_SECONDS = 12


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: False for timings and anything derived from them; True for counts
    #: that must repeat exactly for a seed (``compare.py`` matches them)
    exact: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "full_build",
        "Table 3 full simulation: fresh session, 12q QFT inserted gate by gate, "
        "one update; half modifier/graph wiring, half kernels",
    ),
    Workload(
        "edit_mixed",
        "Fig. 16 mixed edits on a built 13q QFT: remove one level, re-insert "
        "another, update; frontier, plan, kernels and COW at ~0.8 affected",
    ),
    Workload(
        "retune_sweep",
        "14q 3-round ring-MaxCut QAOA: update_gate on the last round's 28 angles, "
        "update, expectation; small dirty cone, only user of observables cache",
    ),
    Workload(
        "shots_dynamic",
        "10q measure/reset/c_if circuit from QASM, run_shots(32) on a warm "
        "session; fork, collapse kernels, post-measurement cone; no graph wiring",
    ),
    Workload(
        "service_mix",
        "Backend closed loop, four warm QASM families job by job: parsing, "
        "admission queue, pool lease (fork), sampling; kernels do almost nothing",
    ),
)

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + median of repeated set-ups (input generation, session and "
        "baseline builds, pool pre-warm, 3 warm-up round trips)",
    ),
    EndToEnd(
        "vs_dense_ratio", "ratio", "lower", 0.25,
        "seconds per modifier->update_state()->observable round trip / the "
        "dense baseline's seconds for the same round trip run back to back "
        "(base: QulacsLikeSimulator, 1 worker; service: submit->result "
        "latency / a fresh dense simulator answering the same job)",
    ),
    EndToEnd(
        "throughput_vs_dense", "ratio", "higher", 0.25,
        "round trips per busy second / the dense baseline's for the same "
        "round trips; mean-based, so stalls the median ignores show",
    ),
    EndToEnd(
        "peak_state_bytes", "bytes", "lower", 0.05,
        "max MemoryReport.allocated_bytes sampled after each update "
        "(service: pool owned_bytes at the end); Table 3's memory column",
    ),
)

_L = PerLayer
PER_LAYER: Tuple[PerLayer, ...] = (
    # repro.qasm
    _L("qasm.parse_s", "s", "lower", "repro.qasm"),
    _L("qasm.load_s", "s", "lower", "repro.qasm"),
    _L("qasm.ops_parsed", "count", "lower", "repro.qasm", True),
    # modifiers: core.circuit -> core.graph / core.stage / core.partition
    _L("modify.insert_s", "s", "lower", "modifiers"),
    _L("modify.remove_s", "s", "lower", "modifiers"),
    _L("modify.retune_s", "s", "lower", "modifiers"),
    _L("modify.gates_inserted", "count", "lower", "modifiers", True),
    _L("modify.gates_removed", "count", "lower", "modifiers", True),
    _L("modify.gates_retuned", "count", "lower", "modifiers", True),
    _L("graph.nodes", "count", "lower", "modifiers", True),
    _L("graph.edges", "count", "lower", "modifiers", True),
    _L("graph.stages", "count", "lower", "modifiers", True),
    # core.simulator (update orchestration)
    _L("update.seconds", "s", "lower", "core.simulator"),
    _L("update.affected_partitions", "count", "lower", "core.simulator", True),
    _L("update.total_partitions", "count", "lower", "core.simulator", True),
    _L("update.affected_fraction", "fraction", "lower", "core.simulator", True),
    _L("update.block_writes", "count", "lower", "core.simulator", True),
    _L("update.unattributed_fraction", "fraction", "lower", "core.simulator"),
    # core.exec_plan / core.stage
    _L("plan.build_s", "s", "lower", "core.exec_plan"),
    _L("plan.plans_built", "count", "lower", "core.exec_plan", True),
    _L("plan.runs_batched", "count", "lower", "core.exec_plan", True),
    _L("plan.chunks", "count", "lower", "core.exec_plan", True),
    _L("plan.runs_per_plan", "ratio", "higher", "core.exec_plan", True),
    _L("stage.prepare_s", "s", "lower", "core.stage"),
    # core.kernels
    _L("kernel.chunk_s", "s", "lower", "core.kernels"),
    _L("kernel.chunks", "count", "lower", "core.kernels", True),
    _L("kernel.backend_fallbacks", "count", "lower", "core.kernels", True),
    _L("kernel.amps_per_s", "1/s", "higher", "core.kernels"),
    # core.cow / core.transport
    _L("cow.allocated_bytes", "bytes", "lower", "core.cow", True),
    _L("cow.owned_bytes", "bytes", "lower", "core.cow", True),
    _L("cow.shared_bytes", "bytes", "higher", "core.cow", True),
    _L("cow.savings_fraction", "fraction", "higher", "core.cow", True),
    _L("cow.state_read_s", "s", "lower", "core.cow"),
    _L("store.remote_reads", "count", "lower", "core.transport", True),
    _L("store.bytes_shipped", "bytes", "lower", "core.transport", True),
    # repro.observables
    _L("observe.expectation_s", "s", "lower", "repro.observables"),
    _L("observe.probabilities_s", "s", "lower", "repro.observables"),
    _L("observe.counts_s", "s", "lower", "repro.observables"),
    _L("observe.cached_partials", "count", "higher", "repro.observables", True),
    # fork + trajectories: QTask.fork, core.classical
    _L("fork.seconds", "s", "lower", "fork"),
    _L("fork.close_s", "s", "lower", "fork"),
    _L("shots.run_s", "s", "lower", "fork"),
    _L("shots.per_shot_s", "s", "lower", "fork"),
    _L("shots.shot_span_s", "s", "lower", "fork"),
    _L("shots.fleet_overhead_s", "s", "lower", "fork"),
    # repro.service
    _L("service.submit_s", "s", "lower", "repro.service"),
    _L("service.queue_wait_s", "s", "lower", "repro.service"),
    _L("service.exec_s", "s", "lower", "repro.service"),
    _L("service.result_overhead_s", "s", "lower", "repro.service"),
    _L("service.pool_hit_fraction", "fraction", "higher", "repro.service"),
    _L("service.jobs_rejected", "count", "lower", "repro.service"),
    _L("service.jobs_failed", "count", "lower", "repro.service"),
    _L("service.two_client_jobs_per_s", "1/s", "higher", "repro.service"),
    _L("service.two_client_latency_s", "s", "lower", "repro.service"),
    _L("pool.lease_warm_s", "s", "lower", "repro.service"),
    _L("pool.lease_cold_s", "s", "lower", "repro.service"),
    _L("pool.sessions", "count", "lower", "repro.service", True),
    # repro.baselines
    _L("dense.round_trip_s", "s", "lower", "repro.baselines"),
    _L("dense.vs_yardstick_ratio", "ratio", "lower", "repro.baselines"),
    # repro.telemetry + harness: these qualify the other numbers
    _L("trace.overhead_fraction", "fraction", "lower", "harness"),
    _L("trace.spans_recorded", "count", "lower", "harness"),
    _L("trace.spans_dropped", "count", "lower", "harness"),
    _L("trace.harness_unattributed_fraction", "fraction", "lower", "harness"),
    _L("round_trip.p50_s", "s", "lower", "harness"),
    _L("round_trip.per_s", "1/s", "higher", "harness"),
    _L("round_trip.p90_s", "s", "lower", "harness"),
    _L("round_trip.samples", "count", "higher", "harness"),
    _L("round_trip.spread_fraction", "fraction", "lower", "harness"),
    _L("oracle.checks", "count", "higher", "harness"),
    _L("oracle.failed_fraction", "fraction", "lower", "harness"),
    _L("setup.import_s", "s", "lower", "harness"),
)

#: layer -> the end-to-end metric its numbers should move, and where they
#: should not (written down before measuring; README.md has the prose)
LAYER_MOVES: Dict[str, Dict[str, List[str]]] = {
    "repro.qasm": {
        "moves": ["vs_dense_ratio@service_mix", "throughput_vs_dense@service_mix",
                  "setup_s@shots_dynamic"],
        "not": ["full_build", "edit_mixed", "retune_sweep"],
    },
    "modifiers": {
        "moves": ["vs_dense_ratio@full_build", "throughput_vs_dense@full_build",
                  "vs_dense_ratio@retune_sweep"],
        "not": ["edit_mixed", "shots_dynamic"],
    },
    "core.simulator": {
        "moves": ["vs_dense_ratio@edit_mixed", "vs_dense_ratio@full_build",
                  "vs_dense_ratio@retune_sweep"],
        "not": ["service_mix"],
    },
    "core.exec_plan": {
        "moves": ["vs_dense_ratio@edit_mixed", "vs_dense_ratio@retune_sweep"],
        "not": [],
    },
    "core.stage": {
        "moves": ["vs_dense_ratio@edit_mixed", "vs_dense_ratio@retune_sweep"],
        "not": [],
    },
    "core.kernels": {
        "moves": ["vs_dense_ratio@edit_mixed", "vs_dense_ratio@full_build"],
        "not": ["service_mix"],
    },
    "core.cow": {
        "moves": ["peak_state_bytes@*", "vs_dense_ratio@edit_mixed"],
        "not": [],
    },
    "core.transport": {"moves": [], "not": ["*"]},
    "repro.observables": {
        "moves": ["vs_dense_ratio@retune_sweep"],
        "not": ["full_build", "edit_mixed"],
    },
    "fork": {
        "moves": ["vs_dense_ratio@shots_dynamic", "vs_dense_ratio@service_mix"],
        "not": ["full_build", "edit_mixed", "retune_sweep"],
    },
    "repro.service": {
        "moves": ["vs_dense_ratio@service_mix", "throughput_vs_dense@service_mix",
                  "setup_s@service_mix"],
        "not": ["full_build", "edit_mixed", "retune_sweep", "shots_dynamic"],
    },
    "repro.baselines": {"moves": ["vs_dense_ratio@*"], "not": []},
    "harness": {"moves": [], "not": ["*"]},
}

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` (exactly the driver's keys)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
