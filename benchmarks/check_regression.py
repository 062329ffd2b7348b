"""Blocking A/B-benchmark regression gate (and the CI perf-smoke driver).

Reads ``benchmarks/manifest.json``, re-runs each listed benchmark at its
CI-friendly small size (``--min-speedup 0`` in the manifest args makes the
benchmark's own ``passed`` flag an *accuracy-only* correctness gate), and
compares the fresh JSON against the committed ``BENCH_*.json`` baseline:

* the fresh ``passed`` flag must be true (equivalence/accuracy gates inside
  the benchmark itself),
* every *accuracy metric* named by the manifest entry (max-abs-diff style,
  smaller is better) may not exceed ``max(baseline * (1 + tolerance),
  floor)`` -- the default tolerance is 30%, and the absolute floor (1e-9)
  keeps zero/epsilon baselines from failing on harmless float jitter,
* *wall-clock metrics* are reported but never gate (hosted runners are far
  too noisy for blocking speedup thresholds).

Exit status is non-zero when any gate fails, so the CI ``regression-gate``
job can block merges.  ``--informational`` turns every failure into a report
line with exit status 0 -- that mode, plus ``--out-dir``, is what the
non-blocking perf-smoke job loops over instead of hand-maintaining one step
per benchmark.

Usage::

    python benchmarks/check_regression.py                      # run + gate
    python benchmarks/check_regression.py --only checkpoint
    python benchmarks/check_regression.py --informational --out-dir bench-out
    python benchmarks/check_regression.py --fresh checkpoint=f.json  # no re-run
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

DEFAULT_MANIFEST = os.path.join(os.path.dirname(__file__), "manifest.json")
#: accuracy metrics may grow by this fraction before the gate trips
DEFAULT_TOLERANCE = 0.30
#: and are never gated below this absolute value (float jitter on ~0 baselines)
ACCURACY_FLOOR = 1e-9


def load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "benchmarks" not in manifest:
        raise ValueError(f"manifest {path!r} has no 'benchmarks' list")
    return manifest


def compare_entry(
    entry: dict,
    baseline: Optional[dict],
    fresh: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    floor: float = ACCURACY_FLOOR,
) -> List[str]:
    """Gate one benchmark's fresh JSON against its committed baseline.

    Returns a list of human-readable failure strings (empty = pass).
    ``baseline`` may be ``None`` (first run of a new benchmark): accuracy
    metrics are then gated against the absolute floor only.
    """
    name = entry["name"]
    script = entry.get("script", "<unknown script>")
    baseline_file = entry.get("baseline", "<no baseline file>")
    failures: List[str] = []
    if not fresh.get("passed", False):
        failures.append(
            f"{name} ({script}): correctness gate failed -- fresh json has "
            f"passed={fresh.get('passed')!r}, expected True"
        )
    for metric in entry.get("accuracy_metrics", ()):
        value = fresh.get(metric)
        if value is None:
            failures.append(
                f"{name} ({script}): fresh json is missing accuracy metric "
                f"{metric!r} (manifest lists it; baseline {baseline_file})"
            )
            continue
        base_value = (baseline or {}).get(metric)
        limit = floor if base_value is None else max(
            float(base_value) * (1.0 + tolerance), floor
        )
        if float(value) > limit:
            failures.append(
                f"{name} ({script}): accuracy metric {metric} regressed: "
                f"got {value:.3e}, limit {limit:.3e} "
                f"(baseline {base_value if base_value is not None else 'n/a'} "
                f"from {baseline_file}, tolerance {tolerance:.0%})"
            )
    return failures


def wallclock_report(entry: dict, baseline: Optional[dict], fresh: dict) -> List[str]:
    """Informational wall-clock comparison lines (never gating)."""
    lines: List[str] = []
    for metric in entry.get("wallclock_metrics", ()):
        value = fresh.get(metric)
        base_value = (baseline or {}).get(metric)
        if value is None:
            continue
        if base_value:
            lines.append(
                f"{entry['name']}: {metric} = {value:.3f} "
                f"(baseline {float(base_value):.3f}, informational)"
            )
        else:
            lines.append(f"{entry['name']}: {metric} = {value:.3f} (informational)")
    return lines


def run_benchmark(entry: dict, repo_root: str, out_path: str) -> int:
    """Execute one manifest benchmark, writing its JSON to ``out_path``."""
    cmd = [
        sys.executable,
        os.path.join(repo_root, entry["script"]),
        *entry.get("args", []),
        "--out",
        out_path,
    ]
    env = dict(os.environ)
    src = os.path.join(repo_root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print(f"[check_regression] running: {' '.join(cmd)}", flush=True)
    # The benchmark's own exit status reflects its --min-speedup gate, which
    # the manifest disarms; the JSON's `passed` flag is what we grade.
    return subprocess.call(cmd, env=env, cwd=repo_root)


def check(
    manifest: dict,
    *,
    repo_root: str,
    only: Optional[str] = None,
    fresh_files: Optional[Dict[str, str]] = None,
    out_dir: str = ".",
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Run/compare every manifest entry; returns the list of gate failures."""
    fresh_files = fresh_files or {}
    failures: List[str] = []
    os.makedirs(out_dir, exist_ok=True)
    checked = 0
    for entry in manifest["benchmarks"]:
        name = entry["name"]
        if only is not None and name != only:
            continue
        checked += 1
        baseline_path = os.path.join(repo_root, entry["baseline"])
        baseline = None
        if os.path.exists(baseline_path):
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        else:
            print(f"[check_regression] {name}: no committed baseline "
                  f"({entry['baseline']}); gating on absolute floors only")
        fresh_path = fresh_files.get(name)
        if fresh_path is None:
            fresh_path = os.path.join(out_dir, f"FRESH_{name}.json")
            # never grade a stale file from a previous run: a benchmark that
            # crashes before writing its JSON must fail the gate, not pass
            # on yesterday's numbers
            if os.path.exists(fresh_path):
                os.remove(fresh_path)
            run_benchmark(entry, repo_root, fresh_path)
        if not os.path.exists(fresh_path):
            failures.append(
                f"{name} ({entry.get('script', '<unknown script>')}): "
                f"benchmark produced no JSON at {fresh_path}"
            )
            continue
        with open(fresh_path, "r", encoding="utf-8") as fh:
            fresh = json.load(fh)
        entry_failures = compare_entry(
            entry, baseline, fresh, tolerance=tolerance
        )
        for line in wallclock_report(entry, baseline, fresh):
            print(f"[check_regression] {line}")
        if entry_failures:
            failures.extend(entry_failures)
            for f in entry_failures:
                print(f"[check_regression] FAIL {f}")
        else:
            print(f"[check_regression] PASS {name}")
    if checked == 0:
        # a typo'd --only must not turn the blocking gate vacuously green
        failures.append(
            f"--only {only!r} matched no manifest entry "
            f"(have: {', '.join(e['name'] for e in manifest['benchmarks'])})"
        )
        print(f"[check_regression] FAIL {failures[-1]}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST)
    parser.add_argument("--only", default=None,
                        help="check a single manifest entry by name")
    parser.add_argument(
        "--fresh",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="use an existing fresh JSON for entry NAME instead of re-running",
    )
    parser.add_argument("--out-dir", default=".",
                        help="directory for freshly produced FRESH_*.json files")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional growth of accuracy metrics")
    parser.add_argument(
        "--informational",
        action="store_true",
        help="report failures but always exit 0 (the perf-smoke mode)",
    )
    args = parser.parse_args(argv)

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = load_manifest(args.manifest)
    fresh_files: Dict[str, str] = {}
    for spec in args.fresh:
        name, _, path = spec.partition("=")
        if not path:
            parser.error(f"--fresh expects NAME=PATH, got {spec!r}")
        fresh_files[name] = path

    failures = check(
        manifest,
        repo_root=repo_root,
        only=args.only,
        fresh_files=fresh_files,
        out_dir=args.out_dir,
        tolerance=args.tolerance,
    )
    if failures:
        print(f"[check_regression] {len(failures)} gate failure(s)")
        return 0 if args.informational else 1
    print("[check_regression] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
