#!/usr/bin/env python3
"""The layer ledger: one command for every end-to-end and per-layer number.

Two ways to run it, both from the repository root.

One workload, one pass -- what the benchmark driver calls; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``)::

    python3 benchmarks/ledger/run.py --workload edit_mixed --seed 3 \\
        --seconds 12 --trace 0

Every workload, untraced then traced -- prints every metric by name with
its unit and, with ``--out``, writes the whole ledger (host record, config,
all metrics) as JSON for ``compare.py``::

    python3 benchmarks/ledger/run.py [--seed N] [--seconds S] [--quick]
        [--out F] [--trace-out F]

A round trip that disagrees with the dense oracle, raises or is rejected
counts in ``failed``; ``correct`` is false when any did or when the traced
pass dropped a span.  Run over every workload, the exit status says the same.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def import_program() -> float:
    """Put ``src/`` on the path and import the program; seconds it took."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"ledger: {SRC}/repro not found -- run from a checkout of the "
            "whole repository, the benchmark measures the program in src/\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    start = perf_counter()
    import repro  # noqa: F401
    return perf_counter() - start


def run_pass(name: str, *, seed: int, seconds: float, traced: bool,
             quick: bool, import_seconds: float):
    """One workload, one pass: ``(Measurement, metrics dict)``."""
    import harness
    import spec
    import workloads

    gc.collect()
    workload = workloads.WORKLOADS[name](quick)
    m = harness.measure(workload, seed=seed, seconds=seconds, traced=traced,
                        import_seconds=import_seconds)
    if traced:
        metrics = harness.per_layer_metrics(m, workloads.BLOCK_SIZE)
        order = spec.PER_LAYER_NAMES
    else:
        metrics = harness.end_to_end_metrics(m)
        order = spec.END_TO_END_NAMES
    return m, {name: metrics[name] for name in order}


def correct(m) -> bool:
    return m.failed == 0 and m.spans_dropped == 0 and m.attempted > 0


def with_units(metrics: dict) -> dict:
    import spec

    return {name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in metrics.items()}


def ledger_entry(untraced, traced) -> dict:
    """One workload's section of the ``--out`` document, from its two
    ``(Measurement, metrics)`` passes.  End-to-end metrics carry the
    per-round values they were reduced from, for ``compare.py``."""
    import harness

    (m0, end_to_end), (m1, per_layer) = untraced, traced
    entry = {
        "end_to_end": with_units(end_to_end),
        "per_layer": with_units(per_layer),
        "attempted": {"end_to_end": m0.attempted, "per_layer": m1.attempted},
        "failed": {"end_to_end": m0.failed, "per_layer": m1.failed},
    }
    for name, rounds in harness.end_to_end_rounds(m0).items():
        entry["end_to_end"][name]["rounds"] = rounds
    return entry


def report_problems(name: str, m) -> None:
    for line in m.errors[:5]:
        sys.stderr.write(f"ledger: failed trip: {line}\n")
    if m.spans_dropped:
        sys.stderr.write(
            f"ledger: {name}: the program's span ring buffer dropped "
            f"{m.spans_dropped} spans; per-layer sums would undercount\n")


def write_trace(path: str, passes) -> None:
    """Harness spans and the program's own spans as one chrome-trace file."""
    events = []
    for name, m in passes:
        for span, start, end, parent, trip, tid in m.all_harness_spans:
            events.append({
                "name": span, "cat": f"harness/{name}", "ph": "X",
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": os.getpid(), "tid": tid,
                "args": {"trip": trip, "parent": parent},
            })
        for r in m.all_program_spans:
            events.append({
                "name": r.name, "cat": f"qtask/{name}", "ph": "X",
                "ts": r.start * 1e6, "dur": r.duration * 1e6,
                "pid": r.pid, "tid": r.thread_id,
                "args": {"span_id": r.span_id, "parent_id": r.parent_id},
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="small circuits (the tests' sizes)")
    parser.add_argument("--out", help="write the full ledger JSON here")
    parser.add_argument("--trace-out",
                        help="write harness + program spans (chrome trace)")
    args = parser.parse_args(argv)
    if (args.workload is None) != (args.trace is None):
        parser.error("--workload and --trace go together (driver mode)")

    import harness

    harness.refuse_switched_environment()
    import_seconds = import_program()
    common = dict(seed=args.seed, seconds=args.seconds, quick=args.quick,
                  import_seconds=import_seconds)

    if args.workload is not None:
        m, metrics = run_pass(args.workload, traced=bool(args.trace), **common)
        report_problems(args.workload, m)
        if args.trace_out:
            write_trace(args.trace_out, [(args.workload, m)])
        print("ledger-host:", json.dumps(
            harness.host_record(args.seed, args.seconds, args.quick)))
        print(json.dumps({
            "correct": correct(m),
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": with_units(metrics),
        }))
        return 0  # the verdict is the line's "correct"

    ledger = {
        "host": harness.host_record(args.seed, args.seconds, args.quick),
        "workloads": {},
    }
    passes, ok = [], True
    for name in spec.WORKLOAD_NAMES:
        both = []
        for traced in (False, True):
            m, metrics = run_pass(name, traced=traced, **common)
            report_problems(name, m)
            ok = ok and correct(m)
            passes.append((name, m))
            both.append((m, metrics))
            print(f"== {name} [{'per-layer, traced' if traced else 'end-to-end'}] "
                  f"attempted={m.attempted} failed={m.failed}")
            for metric, value in metrics.items():
                print(f"  {metric:<40s} {value:>16.6g} {spec.UNITS[metric]}")
        ledger["workloads"][name] = ledger_entry(*both)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.trace_out:
        write_trace(args.trace_out, passes)
    print("ledger:", "ok" if ok else "FAILED (see stderr)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
