"""Checks on the ledger itself (quick sizes; not part of tier 1).

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

SECONDS = 0.3
harness.SETUP_REPEATS = 2  # what is checked here does not depend on it
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def quick_pass(workload: str, traced: bool, seed: int = 1):
    return run.run_pass(workload, seed=seed, seconds=SECONDS, traced=traced,
                        quick=True, import_seconds=IMPORT_SECONDS)


IMPORT_SECONDS = run.import_program()


@pytest.fixture(scope="module")
def passes():
    """Both passes of every workload, once, at quick sizes."""
    return {
        (name, traced): quick_pass(name, traced)
        for name in spec.WORKLOAD_NAMES for traced in (False, True)
    }


def test_every_declared_metric_is_emitted_everywhere(passes):
    for (name, traced), (m, metrics) in passes.items():
        declared = spec.PER_LAYER_NAMES if traced else spec.END_TO_END_NAMES
        assert sorted(metrics) == sorted(declared), (name, traced)
        assert m.failed == 0 and m.attempted > 0, (name, m.errors[:3])
        assert m.spans_dropped == 0
        if not traced:  # the driver refuses an end-to-end metric that reads 0
            assert all(value > 0 for value in metrics.values()), (name, metrics)


def test_names_and_benchmark_json_match_the_spec():
    names = (spec.WORKLOAD_NAMES + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert set(m.layer for m in spec.PER_LAYER) <= set(spec.LAYER_MOVES)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def exact_counters(metrics: dict) -> dict:
    return {m.name: metrics[m.name] for m in spec.PER_LAYER if m.exact}


def test_counters_repeat_for_a_seed_and_move_with_it(passes):
    for name in spec.WORKLOAD_NAMES:
        _, again = quick_pass(name, True)
        assert exact_counters(again) == exact_counters(passes[name, True][1]), name
    _, other = quick_pass("edit_mixed", True, seed=2)
    assert (other["update.affected_partitions"]
            != passes["edit_mixed", True][1]["update.affected_partitions"])


def ledger_of(passes) -> dict:
    """The ``--out`` document ``run.py`` writes, from the fixture's passes."""
    return {
        "host": harness.host_record(1, SECONDS, True),
        "workloads": {
            name: run.ledger_entry(passes[name, False], passes[name, True])
            for name in spec.WORKLOAD_NAMES
        },
    }


def test_compare_flags_a_slowdown_and_an_extra_block_write(passes):
    base = ledger_of(passes)
    # tight synthetic rounds: the verdict must come from the bound alone
    for entry in base["workloads"].values():
        for metric in entry["end_to_end"].values():
            metric["rounds"] = [metric["value"]] * 4
    assert compare.compare(base, copy.deepcopy(base), io.StringIO()) == 0

    slow = copy.deepcopy(base)
    ratio = slow["workloads"]["edit_mixed"]["end_to_end"]["vs_dense_ratio"]
    ratio["value"] *= 1.3
    ratio["rounds"] = [v * 1.3 for v in ratio["rounds"]]
    out = io.StringIO()
    assert compare.compare(base, slow, out) == 1
    assert re.search(r"worse\s+edit_mixed\s+vs_dense_ratio", out.getvalue())

    extra = copy.deepcopy(base)
    extra["workloads"]["full_build"]["per_layer"]["update.block_writes"]["value"] += 1
    out = io.StringIO()
    assert compare.compare(base, extra, out) == 1
    assert re.search(r"differs\s+full_build\s+update.block_writes", out.getvalue())

    noisy = copy.deepcopy(slow)
    noisy["workloads"]["edit_mixed"]["end_to_end"]["vs_dense_ratio"]["rounds"] = [
        1.0, 1.5, 2.0, 2.5]
    out = io.StringIO()
    assert compare.compare(base, noisy, out) == 0
    assert re.search(r"unresolved\s+edit_mixed\s+vs_dense_ratio", out.getvalue())


def driver(*extra, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "retune_sweep", "--seed", "5", "--seconds", "0.3", "--quick", *extra],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_driver_mode_prints_the_contract_line():
    for trace, declared in ((0, spec.END_TO_END_NAMES), (1, spec.PER_LAYER_NAMES)):
        done = driver("--trace", str(trace))
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0
        assert sorted(last["metrics"]) == sorted(declared)
        assert all(sorted(v) == ["unit", "value"] for v in last["metrics"].values())


def test_refuses_to_run_with_a_path_switching_variable_set():
    done = driver("--trace", "0", env={**os.environ, "QTASK_TRACING": "1"})
    assert done.returncode != 0
    assert "QTASK_TRACING" in done.stderr and not done.stdout.strip()
