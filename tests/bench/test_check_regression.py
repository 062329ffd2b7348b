"""In-suite tests for the CI regression gate (benchmarks/check_regression.py).

The acceptance bar: the checker must exit non-zero when fed a synthetically
degraded BENCH json, and pass on a faithful one.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_checker():
    path = os.path.join(REPO_ROOT, "benchmarks", "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


@pytest.fixture()
def entry():
    manifest = checker.load_manifest(
        os.path.join(REPO_ROOT, "benchmarks", "manifest.json")
    )
    by_name = {e["name"]: e for e in manifest["benchmarks"]}
    return by_name["checkpoint"]


@pytest.fixture()
def baseline():
    with open(os.path.join(REPO_ROOT, "BENCH_checkpoint.json")) as fh:
        return json.load(fh)


class TestCompareEntry:
    def test_identical_json_passes(self, entry, baseline):
        assert checker.compare_entry(entry, baseline, dict(baseline)) == []

    def test_failed_correctness_gate_trips(self, entry, baseline):
        fresh = dict(baseline)
        fresh["passed"] = False
        failures = checker.compare_entry(entry, baseline, fresh)
        assert any("correctness gate" in f for f in failures)

    def test_accuracy_regression_trips(self, entry, baseline):
        fresh = dict(baseline)
        fresh["state_max_abs_diff"] = 1e-6  # way above the 1e-9 floor
        failures = checker.compare_entry(entry, baseline, fresh)
        assert any("state_max_abs_diff" in f for f in failures)

    def test_small_jitter_under_floor_passes(self, entry, baseline):
        fresh = dict(baseline)
        fresh["state_max_abs_diff"] = 5e-10  # below the absolute floor
        assert checker.compare_entry(entry, baseline, fresh) == []

    def test_thirty_percent_tolerance(self, entry):
        base = {"passed": True, "state_max_abs_diff": 1e-7}
        ok = dict(base, state_max_abs_diff=1.2e-7)       # +20%: fine
        bad = dict(base, state_max_abs_diff=1.4e-7)      # +40%: regression
        assert checker.compare_entry(entry, base, ok) == []
        failures = checker.compare_entry(entry, base, bad)
        assert len(failures) == 1

    def test_missing_metric_trips(self, entry, baseline):
        fresh = dict(baseline)
        del fresh["state_max_abs_diff"]
        failures = checker.compare_entry(entry, baseline, fresh)
        assert any(
            "missing accuracy metric" in f and "state_max_abs_diff" in f
            for f in failures
        )

    def test_no_baseline_gates_on_floor(self, entry):
        fresh = {"passed": True, "state_max_abs_diff": 2e-9}
        failures = checker.compare_entry(entry, None, fresh)
        assert any("state_max_abs_diff" in f for f in failures)

    def test_wallclock_is_informational(self, entry, baseline):
        fresh = dict(baseline)
        fresh["speedup_restore_vs_resim"] = 0.01  # catastrophic: still not a gate
        assert checker.compare_entry(entry, baseline, fresh) == []
        lines = checker.wallclock_report(entry, baseline, fresh)
        assert any("speedup_restore_vs_resim" in line for line in lines)


class TestMainExitCodes:
    def _write(self, tmp_path, payload, name="fresh.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_degraded_json_exits_nonzero(self, tmp_path, baseline):
        degraded = dict(baseline)
        degraded["state_max_abs_diff"] = 1e-3
        degraded["passed"] = False
        fresh = self._write(tmp_path, degraded)
        rc = checker.main(["--only", "checkpoint", "--fresh", f"checkpoint={fresh}"])
        assert rc == 1

    def test_faithful_json_exits_zero(self, tmp_path, baseline):
        fresh = self._write(tmp_path, dict(baseline))
        rc = checker.main(["--only", "checkpoint", "--fresh", f"checkpoint={fresh}"])
        assert rc == 0

    def test_informational_never_fails(self, tmp_path, baseline):
        degraded = dict(baseline)
        degraded["passed"] = False
        fresh = self._write(tmp_path, degraded)
        rc = checker.main([
            "--only", "checkpoint", "--fresh", f"checkpoint={fresh}",
            "--informational",
        ])
        assert rc == 0

    def test_missing_fresh_file_fails(self, tmp_path):
        rc = checker.main([
            "--only", "checkpoint",
            "--fresh", f"checkpoint={tmp_path}/does_not_exist.json",
        ])
        assert rc == 1


class TestManifest:
    def test_manifest_covers_all_committed_baselines(self):
        manifest = checker.load_manifest(
            os.path.join(REPO_ROOT, "benchmarks", "manifest.json")
        )
        listed = {e["baseline"] for e in manifest["benchmarks"]}
        committed = {
            f for f in os.listdir(REPO_ROOT)
            if f.startswith("BENCH_") and f.endswith(".json")
        }
        assert committed == listed

    def test_manifest_scripts_exist_and_disarm_speedup(self):
        manifest = checker.load_manifest(
            os.path.join(REPO_ROOT, "benchmarks", "manifest.json")
        )
        # telemetry gates on an overhead *ceiling* (an A/B within one
        # process on one host, robust to runner noise) and service on exact
        # counts parity (counts_mismatch_fraction == 0) with
        # latency/throughput purely informational, so neither has a
        # --min-speedup knob at all.
        for entry in manifest["benchmarks"]:
            assert os.path.exists(os.path.join(REPO_ROOT, entry["script"]))
            args = entry.get("args", [])
            if entry["name"] == "telemetry":
                assert "--max-overhead" in args
                assert args[args.index("--max-overhead") + 1] == "0.02"
            elif entry["name"] == "service":
                assert "--jobs" in args
                assert "counts_mismatch_fraction" in entry["accuracy_metrics"]
            else:
                # min-speedup 0 makes the benchmark's `passed` accuracy-only
                assert "--min-speedup" in args
                assert args[args.index("--min-speedup") + 1] == "0"
            assert entry.get("accuracy_metrics"), entry["name"]
