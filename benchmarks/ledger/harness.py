"""Measurement plumbing shared by every ledger workload.

Three things live here, none of which knows about a particular workload:

* :class:`Probe` -- the harness-side span recorder.  Workloads route every
  call into the program's public API through ``probe(name, fn, *args)``;
  untraced it is a plain call, traced it records ``(name, start, end,
  parent, trip)`` in memory.
* :func:`measure` -- the round loop: repeated set-ups (for ``setup_s``),
  then timed rounds of interleaved qTask / dense round trips, every result
  checked against the dense oracle outside the timed interval.
* the reductions from raw samples to the declared metrics
  (:func:`end_to_end_metrics`, :func:`per_layer_metrics`).

Why the gated timings are ratios: the hosts this runs on have a slow phase
in which every timing -- wall clock and CPU time alike -- is 35-60% longer,
lasting from a second to whole runs (``README.md`` has the profile).  No
reduction of one run's wall-clock samples is steady across such runs, so
seconds are reported per layer, as information.  What is steady is the
ratio between a qTask round trip and the dense baseline's round trip for
the same input run back to back: both sides see the same phase and it
cancels.  Each ratio is reduced per round and reported as the median of
rounds, so a stall cannot set the number.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence

#: each of these silently switches the measured code path
FORBIDDEN_ENV = (
    "QTASK_FAULT_P",
    "QTASK_KERNEL_BACKEND",
    "QTASK_STORE_TRANSPORT",
    "QTASK_TRACING",
    "QTASK_PROCESS_WORKERS",
)

ROUNDS = 6
SETUP_REPEATS = 5
WARMUP_TRIPS = 3
#: deterministic counters are taken over this many leading trips, which
#: every run completes whatever its ``--seconds``
COUNTER_TRIPS = 6
TOLERANCE = 1e-10
#: harness spans the workloads record outside a trip's timed interval
UNTIMED_SPANS = ("cow.state_read", "fork", "fork.close")


def refuse_switched_environment() -> None:
    """Exit non-zero when an env var would change what is measured."""
    found = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if found:
        sys.stderr.write(
            "ledger: refusing to run with " + ", ".join(found) + " set: each "
            "switches the measured code path (fault injection, kernel "
            "backend, store transport, tracing, process workers)\n"
        )
        raise SystemExit(2)


def host_record(seed: int, seconds: float, quick: bool) -> dict:
    """Where and how these numbers were taken (goes into every output)."""
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": has_numba,
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "rounds": ROUNDS,
        "setup_repeats": SETUP_REPEATS,
        "warmup_trips": WARMUP_TRIPS,
        "counter_trips": COUNTER_TRIPS,
    }


def _git_commit() -> str:
    """HEAD of the enclosing repository, read from ``.git`` without a
    subprocess; ``unknown`` in an exported checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# harness spans
# ---------------------------------------------------------------------------


class Probe:
    """Calls into the program, recorded as spans when tracing.

    ``probe(name, fn, *args, **kw)`` returns ``fn(*args, **kw)``.  Spans
    nest per thread; ``trip`` is whatever :meth:`begin_trip` last set on the
    calling thread, so the spans of one round trip share an identifier.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: (name, start, end, parent_index or -1, trip, thread_id)
        self.spans: List[tuple] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def begin_trip(self, trip: int) -> None:
        self._tls.trip = trip
        self._tls.parent = -1

    def __call__(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        tls = self._tls
        parent = getattr(tls, "parent", -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        tls.parent = index
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            tls.parent = parent
            self.spans[index] = (
                name, start, end, parent, getattr(tls, "trip", -1),
                threading.get_ident(),
            )

    def drain(self) -> List[tuple]:
        """Spans recorded since the last drain (top-level and nested)."""
        with self._lock:
            out, self.spans = self.spans, []
        return [s for s in out if s is not None]


def span_totals(spans: Iterable[tuple]) -> Dict[str, float]:
    """Seconds per span name, summed."""
    totals: Dict[str, float] = {}
    for name, start, end, *_ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def top_level_seconds(spans: Sequence[tuple]) -> float:
    """Seconds covered by spans that have no parent span."""
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)


def drain_program_spans(tracer) -> tuple:
    """``(seconds by name, count by name, dropped, records)`` of the
    program's own spans since the last drain; clears the ring buffer."""
    records = tracer.spans()
    dropped = tracer.dropped
    tracer.clear()
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for r in records:
        totals[r.name] = totals.get(r.name, 0.0) + r.duration
        counts[r.name] = counts.get(r.name, 0) + 1
    return totals, counts, dropped, records


# ---------------------------------------------------------------------------
# the yardstick
# ---------------------------------------------------------------------------

_YARD_DIM = 1 << 13


def yardstick_seconds() -> float:
    """Time a fixed numpy + interpreter kernel shaped like a state update.

    It imports nothing from the program, so ``dense.vs_yardstick_ratio``
    shows whether the *baseline* got slower between two commits even when
    the host's phase moved every wall-clock number: a ``vs_dense_ratio``
    that improved because the baseline slowed down is no gain.
    """
    import numpy as np

    start = perf_counter()
    state = np.full(_YARD_DIM, 1.0 / 128.0, dtype=np.complex128)
    idx = np.arange(_YARD_DIM, dtype=np.int64)
    table: Dict[tuple, list] = {}
    for step in range(60):
        q = step % 13
        state *= np.where((idx >> q) & 1 == 1, 1j, 1.0)
        state = (state + state[idx ^ (1 << q)]) * 0.7071067811865476
        table[(step, q)] = [q, step, len(table)]
        for key in list(table)[-8:]:
            table[key][2] += 1
    return perf_counter() - start


# ---------------------------------------------------------------------------
# sample reductions
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Trip:
    """One measured round trip (qTask side) and its dense twin."""

    __slots__ = ("seconds", "dense_seconds", "yardstick_seconds", "ok",
                 "group", "facts", "spans", "program", "untraced_seconds")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.dense_seconds = 0.0
        #: the fixed yardstick kernel, run right after the dense twin
        self.yardstick_seconds = 0.0
        self.ok = False
        #: trips are reduced per group, then averaged (service: family)
        self.group = ""
        #: raw counters sampled after the trip, outside the timed interval
        self.facts: Dict[str, float] = {}
        #: harness spans of this trip
        self.spans: List[tuple] = []
        #: (totals, counts) of the program's own spans during this trip
        self.program: tuple = ({}, {})
        #: same trip on an untraced twin session (traced pass only)
        self.untraced_seconds = 0.0


def grouped_median(trips: Sequence[Trip], key: Callable[[Trip], float]) -> float:
    """Median per group, averaged with equal weight across groups.

    A mix of job families has a multi-modal latency distribution whose
    plain median jumps between modes with the seed's family counts; the
    equal-weight mean of per-family medians does not.
    """
    groups: Dict[str, List[float]] = {}
    for t in trips:
        groups.setdefault(t.group, []).append(key(t))
    return statistics.fmean(median(v) for v in groups.values()) if groups else 0.0


class Round:
    """The trips of one timed round."""

    def __init__(self, trips: List[Trip]) -> None:
        self.trips = trips

    @property
    def busy_seconds(self) -> float:
        return sum(t.seconds for t in self.trips)

    @property
    def dense_seconds(self) -> float:
        return sum(t.dense_seconds for t in self.trips)

    @property
    def p50(self) -> float:
        return grouped_median(self.trips, lambda t: t.seconds)

    @property
    def per_second(self) -> float:
        return len(self.trips) / self.busy_seconds if self.busy_seconds else 0.0

    @property
    def vs_dense(self) -> float:
        """Median of per-trip ratios: each trip's dense twin ran right
        after it, so the pair shares a host phase."""
        return grouped_median(
            [t for t in self.trips if t.dense_seconds],
            lambda t: t.seconds / t.dense_seconds)

    @property
    def throughput_vs_dense(self) -> float:
        """Round trips per busy second over the dense baseline's, i.e. the
        dense seconds for this round's work / the qTask seconds."""
        return self.dense_seconds / self.busy_seconds if self.busy_seconds else 0.0


class Measurement:
    """Everything one ``measure()`` call observed."""

    def __init__(self) -> None:
        self.import_seconds = 0.0
        self.setup_seconds: List[float] = []
        self.rounds: List[Round] = []
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.peak_state_bytes = 0
        self.spans_dropped = 0
        self.spans_recorded = 0
        #: what went wrong on failed trips (first few are printed)
        self.errors: List[str] = []
        #: direct per-layer probes taken once per traced run
        self.layer_probes: Dict[str, float] = {}
        #: everything recorded, for ``--trace-out``
        self.all_harness_spans: List[tuple] = []
        self.all_program_spans: list = []

    @property
    def trips(self) -> List[Trip]:
        return [t for r in self.rounds for t in r.trips]


def end_to_end_rounds(m: Measurement) -> Dict[str, List[float]]:
    """The per-round (per-set-up) values each end-to-end metric reduces."""
    return {
        "setup_s": [m.import_seconds + s for s in m.setup_seconds],
        "vs_dense_ratio": [r.vs_dense for r in m.rounds],
        "throughput_vs_dense": [r.throughput_vs_dense for r in m.rounds],
        "peak_state_bytes": [float(m.peak_state_bytes)],
    }


def end_to_end_metrics(m: Measurement) -> Dict[str, float]:
    return {name: median(values) for name, values in end_to_end_rounds(m).items()}


def per_layer_metrics(m: Measurement, block_size: int) -> Dict[str, float]:
    """Reduce the traced pass to the declared per-layer metrics.

    Timings are medians over all trips of per-trip span totals; counters
    are medians over the first ``COUNTER_TRIPS`` trips, which are the same
    trips for a seed whatever the run length, so they repeat exactly.
    """
    trips = m.trips
    head = trips[:COUNTER_TRIPS]
    harness_s = [span_totals(t.spans) for t in trips]
    out: Dict[str, float] = {}

    def span_s(name: str) -> float:
        return median([totals.get(name, 0.0) for totals in harness_s])

    def program_s(name: str) -> float:
        return median([t.program[0].get(name, 0.0) for t in trips])

    def fact(name: str) -> float:
        return median([t.facts.get(name, 0.0) for t in head])

    for metric, span in (
        ("modify.insert_s", "modify.insert"),
        ("modify.remove_s", "modify.remove"),
        ("modify.retune_s", "modify.retune"),
        ("cow.state_read_s", "cow.state_read"),
        ("observe.expectation_s", "observe.expectation"),
        ("observe.probabilities_s", "observe.probabilities"),
        ("fork.seconds", "fork"),
        ("fork.close_s", "fork.close"),
        ("shots.run_s", "shots.run"),
    ):
        out[metric] = span_s(span)
    for name in (
        "modify.gates_inserted", "modify.gates_removed", "modify.gates_retuned",
        "graph.nodes", "graph.edges", "graph.stages",
        "update.affected_partitions", "update.total_partitions",
        "update.block_writes",
        "plan.plans_built", "plan.runs_batched", "plan.chunks",
        "kernel.backend_fallbacks",
        "cow.allocated_bytes", "cow.owned_bytes", "cow.shared_bytes",
        "cow.savings_fraction",
        "store.remote_reads", "store.bytes_shipped",
        "observe.cached_partials", "pool.sessions",
    ):
        out[name] = fact(name)
    total = out["update.total_partitions"]
    out["update.affected_fraction"] = (
        out["update.affected_partitions"] / total if total else 0.0)
    out["plan.runs_per_plan"] = (
        out["plan.runs_batched"] / out["plan.plans_built"]
        if out["plan.plans_built"] else 0.0)

    out["update.seconds"] = program_s("update")
    out["plan.build_s"] = program_s("plan.build")
    out["stage.prepare_s"] = program_s("stage.prepare")
    out["kernel.chunk_s"] = program_s("run.chunk")
    out["kernel.chunks"] = median(
        [t.program[1].get("run.chunk", 0) for t in head])
    attributed = [
        1.0 - (t.program[0].get("plan.build", 0.0)
               + t.program[0].get("stage.prepare", 0.0)
               + t.program[0].get("run.chunk", 0.0)) / t.program[0]["update"]
        for t in trips if t.program[0].get("update")
    ]
    out["update.unattributed_fraction"] = median(attributed)
    rates = [
        t.facts.get("update.block_writes", 0.0) * block_size
        / t.program[0]["run.chunk"]
        for t in trips if t.program[0].get("run.chunk")
    ]
    out["kernel.amps_per_s"] = median(rates)  # computed, not counted

    shot_runs = [(totals.get("shots.run", 0.0), t)
                 for totals, t in zip(harness_s, trips) if t.facts.get("shots")]
    out["shots.shot_span_s"] = program_s("shot")
    out["shots.per_shot_s"] = median(
        [run_s / t.facts["shots"] for run_s, t in shot_runs])
    out["shots.fleet_overhead_s"] = median(
        [run_s - t.program[0].get("shot", 0.0) for run_s, t in shot_runs])

    jobs = [t for t in trips if "service.exec_s" in t.facts]
    for name in ("service.submit_s", "service.queue_wait_s", "service.exec_s"):
        out[name] = median([t.facts[name] for t in jobs])
    out["service.result_overhead_s"] = median([
        t.seconds - t.facts["service.submit_s"]
        - t.facts["service.queue_wait_s"] - t.facts["service.exec_s"]
        for t in jobs])
    out["service.pool_hit_fraction"] = (
        sum(t.facts["service.pool_hit"] for t in jobs) / len(jobs)
        if jobs else 0.0)
    for name in ("service.jobs_rejected", "service.jobs_failed"):
        out[name] = max((t.facts.get(name, 0.0) for t in trips), default=0.0)

    for name in ("qasm.parse_s", "qasm.load_s", "qasm.ops_parsed",
                 "pool.lease_warm_s", "pool.lease_cold_s", "observe.counts_s",
                 "service.two_client_jobs_per_s", "service.two_client_latency_s"):
        out[name] = m.layer_probes.get(name, 0.0)
    # a layer probed directly wins over an empty per-trip span series
    for name in ("fork.seconds", "fork.close_s"):
        out[name] = out[name] or m.layer_probes.get(name, 0.0)

    out["dense.round_trip_s"] = grouped_median(trips, lambda t: t.dense_seconds)
    out["dense.vs_yardstick_ratio"] = grouped_median(
        [t for t in trips if t.yardstick_seconds],
        lambda t: t.dense_seconds / t.yardstick_seconds)
    untraced = grouped_median(trips, lambda t: t.untraced_seconds)
    traced = grouped_median(trips, lambda t: t.seconds)
    out["round_trip.p50_s"] = untraced or traced
    out["round_trip.per_s"] = median([r.per_second for r in m.rounds])
    out["trace.overhead_fraction"] = (
        (traced - untraced) / untraced if untraced else 0.0)
    out["trace.spans_recorded"] = float(m.spans_recorded)
    out["trace.spans_dropped"] = float(m.spans_dropped)
    out["trace.harness_unattributed_fraction"] = median([
        1.0 - min(1.0, top_level_seconds(
            [s for s in t.spans if s[0] not in UNTIMED_SPANS]) / t.seconds)
        for t in trips if t.seconds
    ])
    out["round_trip.p90_s"] = (
        statistics.quantiles([t.seconds for t in trips], n=10)[-1]
        if len(trips) > 1 else 0.0)
    out["round_trip.samples"] = float(len(trips))
    p50s = [r.p50 for r in m.rounds]
    out["round_trip.spread_fraction"] = (
        (max(p50s) - min(p50s)) / median(p50s) if p50s and median(p50s) else 0.0)
    out["oracle.checks"] = float(m.checks)
    out["oracle.failed_fraction"] = m.failed / m.attempted if m.attempted else 0.0
    out["setup.import_s"] = m.import_seconds
    return out


# ---------------------------------------------------------------------------
# the round loop
# ---------------------------------------------------------------------------


def measure(workload, *, seed: int, seconds: float, traced: bool,
            import_seconds: float) -> Measurement:
    """Set up ``workload`` repeatedly, then run its timed rounds.

    ``workload`` follows the protocol documented in ``workloads.py``:
    ``setup(seed, probe, traced, m)`` builds everything and runs the warm-up
    trips, ``run_round(budget, min_trips, m)`` appends one :class:`Round`
    to ``m``, ``teardown()`` releases what ``setup`` built.
    """
    m = Measurement()
    m.import_seconds = import_seconds
    probe = Probe(traced)
    # setup_s is an end-to-end metric: the traced pass sets up once
    repeats = 1 if traced else SETUP_REPEATS
    for repeat in range(repeats):
        gc.collect()
        start = perf_counter()
        workload.setup(seed, probe, traced, m)
        m.setup_seconds.append(perf_counter() - start)
        if repeat < repeats - 1:
            workload.teardown()
    probe.drain()  # set-up spans are not part of any trip
    try:
        if traced:
            m.layer_probes = workload.layer_probes(probe)
            probe.drain()
        budget = seconds / ROUNDS
        for index in range(ROUNDS):
            # the counter window must complete inside the first round
            workload.run_round(budget, COUNTER_TRIPS if index == 0 else 1, m)
    finally:
        workload.teardown()
    return m
