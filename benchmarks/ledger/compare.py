#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the base, ``B`` the candidate.  For every (workload, end-to-end
metric) the declared bound is applied to the relative change in the
metric's bad direction and one of three verdicts is printed:

``ok``          B is not worse than A by more than the bound;
``worse``       it is;
``unresolved``  the spread between the rounds of either run (interquartile
                range over median) is wider than the bound, so this pair of
                runs cannot tell -- not the same as unchanged.

Deterministic counters (``exact`` in ``spec.py``, plus ``peak_state_bytes``)
must match exactly for equal seeds and sizes; a difference is printed as
``differs``.  Exit status is 1 when anything is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Tuple

import spec

EXACT_END_TO_END = ("peak_state_bytes",)


def spread(rounds: List[float]) -> float:
    """Interquartile range of per-round values over their median."""
    if len(rounds) < 2:
        return 0.0
    mid = statistics.median(rounds)
    q = statistics.quantiles(rounds, n=4)
    return (q[2] - q[0]) / mid if mid else 0.0


def verdict(metric: spec.EndToEnd, base: dict, cand: dict) -> Tuple[str, float]:
    """``(verdict, relative change in the bad direction)`` for one metric."""
    a, b = base["value"], cand["value"]
    if metric.name in EXACT_END_TO_END:
        return ("ok" if a == b else "differs"), (b - a) / a if a else 0.0
    change = (b - a) / a if a else 0.0
    if metric.better == "higher":
        change = -change
    if max(spread(base.get("rounds", [])),
           spread(cand.get("rounds", []))) > metric.bound:
        return "unresolved", change
    return ("worse" if change > metric.bound else "ok"), change


def comparable(base: dict, cand: dict) -> List[str]:
    """Reasons the exact counters of two ledgers cannot be expected to match."""
    keys = ("seed", "quick", "counter_trips")
    return [f"{k}: {base['host'].get(k)!r} vs {cand['host'].get(k)!r}"
            for k in keys if base["host"].get(k) != cand["host"].get(k)]


def compare(base: dict, cand: dict, out=sys.stdout) -> int:
    """Print one row per comparison; returns the number of failures."""
    failures = 0
    mismatched = comparable(base, cand)
    if mismatched:
        out.write("exact counters skipped, runs differ in "
                  + "; ".join(mismatched) + "\n")
    for workload in spec.WORKLOAD_NAMES:
        a, b = base["workloads"].get(workload), cand["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec.END_TO_END:
            if mismatched and metric.name in EXACT_END_TO_END:
                continue
            what, change = verdict(
                metric, a["end_to_end"][metric.name], b["end_to_end"][metric.name])
            failures += what in ("worse", "differs")
            out.write(f"{what:<10s} {workload:<14s} {metric.name:<20s} "
                      f"{change:+8.1%} (bound {metric.bound:.0%})\n")
        if mismatched:
            continue
        for metric in spec.PER_LAYER:
            if not metric.exact:
                continue
            x = a["per_layer"][metric.name]["value"]
            y = b["per_layer"][metric.name]["value"]
            if x != y:
                failures += 1
                out.write(f"{'differs':<10s} {workload:<14s} {metric.name:<20s} "
                          f"{x!r} -> {y!r}\n")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    failures = compare(*ledgers)
    print(f"compare: {failures} worse/differs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
