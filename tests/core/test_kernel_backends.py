"""Unit tests for the pluggable kernel backends and their selection."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.kernels import (
    HAVE_NUMBA,
    BackendUnavailable,
    KernelBackend,
    NumbaBackend,
    NumpyBatchBackend,
    ProcessPoolBackend,
    available_backends,
    iter_table_runs,
    make_backend,
)
from repro.core.simulator import QTaskSimulator


def _simulator(levels, num_qubits=6, **kwargs):
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    kwargs.setdefault("block_size", 4)
    return QTaskSimulator(circuit, **kwargs)


def _mixed_levels(num_qubits=6):
    """Superposition + diagonal + monomial + entangling: every run kind."""
    levels = [
        [Gate("h", (q,)) for q in range(num_qubits)],
        [Gate("rz", (q,), (0.3 + 0.1 * q,)) for q in range(num_qubits)],
        [Gate("x", (0,)), Gate("y", (1,))],
    ]
    for q in range(num_qubits - 1):
        levels.append([Gate("cx", (q, q + 1))])
    return levels


# ---------------------------------------------------------------------------
# selection: make_backend / available_backends / env knob
# ---------------------------------------------------------------------------


class TestMakeBackend:
    def test_numpy(self):
        backend, fell_back = make_backend("numpy")
        assert isinstance(backend, NumpyBatchBackend)
        assert not fell_back

    def test_legacy_is_rejected(self, monkeypatch):
        """Knob and env both raise the error naming the four valid specs."""
        with pytest.raises(ValueError, match="auto/numpy/numba/process$"):
            _simulator([[Gate("h", (0,))]], kernel_backend="legacy")
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "legacy")
        with pytest.raises(ValueError, match="auto/numpy/numba/process$"):
            _simulator([[Gate("h", (0,))]])

    def test_auto_never_falls_back(self, monkeypatch):
        """``auto`` (and no spec at all) is numpy, whatever is installed."""
        import repro.core.kernels as kernels

        monkeypatch.delenv("QTASK_KERNEL_BACKEND", raising=False)
        for have_numba in (kernels.HAVE_NUMBA, True):
            monkeypatch.setattr(kernels, "HAVE_NUMBA", have_numba)
            for spec in ("auto", None):
                backend, fell_back = make_backend(spec)
                assert type(backend) is NumpyBatchBackend and not fell_back

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_backend("cuda")

    def test_numba_without_numba_falls_back_to_numpy(self):
        if HAVE_NUMBA:
            pytest.skip("numba installed: no fallback to observe")
        backend, fell_back = make_backend("numba")
        assert isinstance(backend, NumpyBatchBackend)
        assert fell_back

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "numpy")
        sim = _simulator([[Gate("h", (0,))]])
        assert sim.kernel_backend is None  # the session named no spec
        assert sim._backend.name == "numpy"
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "numba")
        sim2 = _simulator([[Gate("h", (0,))]])
        assert sim2._backend.name == ("numba" if HAVE_NUMBA else "numpy")
        assert sim2.plan_report().backend_fallbacks == (0 if HAVE_NUMBA else 1)

    def test_explicit_knob_beats_env(self, monkeypatch):
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "cuda")  # never read
        sim = _simulator([[Gate("h", (0,))]], kernel_backend="numpy")
        assert sim._backend.name == "numpy"
        assert sim.plan_report().requested_backend == "numpy"

    def test_available_backends_contents(self):
        names = available_backends()
        assert "numpy" in names
        assert "legacy" not in names
        assert ("numba" in names) == HAVE_NUMBA
        assert ("process" in names) == hasattr(os, "fork")


# ---------------------------------------------------------------------------
# iter_table_runs
# ---------------------------------------------------------------------------


def test_iter_table_runs_roundtrip():
    from repro.core.exec_plan import RUN_ACTION, RunSpec, RunTable

    op = object()
    runs = [RunSpec(RUN_ACTION, 4 * i, 4 * i + 3, (0,), op) for i in range(3)]
    table = RunTable.from_runs(runs)
    assert list(iter_table_runs(table)) == runs


# ---------------------------------------------------------------------------
# numba backend (interpreted kernels run everywhere; jit needs numba)
# ---------------------------------------------------------------------------


class TestNumbaBackend:
    def test_jit_unavailable_raises(self):
        if HAVE_NUMBA:
            pytest.skip("numba installed: jit construction succeeds")
        with pytest.raises(BackendUnavailable):
            NumbaBackend()

    def test_interpreted_kernels_match_legacy(self):
        """... the run-granular reference loop (the base ``KernelBackend``)."""
        sim = _simulator(_mixed_levels(), kernel_backend=NumbaBackend(jit=False))
        sim.update_state()
        ref = _simulator(_mixed_levels(), kernel_backend=KernelBackend())
        ref.update_state()
        np.testing.assert_allclose(sim.state(), ref.state(), atol=1e-10)


# ---------------------------------------------------------------------------
# process-pool backend
# ---------------------------------------------------------------------------


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process backend needs the fork start method"
)


@needs_fork
class TestProcessPoolBackend:
    def test_forced_shipping_matches_legacy(self):
        # local store transport: remote-backed stores deliberately bypass
        # SharedMemory shipping, and shipping is what this test forces
        # ("legacy": the run-granular reference loop)
        # The static stages coalesce into one run.  On 128 two-amplitude
        # blocks its table has two kernel runs (the backend ships from two
        # up; one executor worker, so the table stays one chunk), and with
        # the permutations kept to qubits 0-2 each run reads its own aligned
        # range -- what a worker can be handed.
        levels = _mixed_levels(8)[:3] + [[Gate("cx", (0, 1))], [Gate("cx", (1, 2))]]
        knobs = dict(num_qubits=8, block_size=2, num_workers=1)
        sim = _simulator(
            levels,
            kernel_backend=ProcessPoolBackend(num_workers=2, min_ship_amps=0),
            store_transport="local",
            **knobs,
        )
        sim.update_state()
        assert sim._backend.shipped_runs > 0
        assert sim.statistics()["stages_coalesced"] == 12
        ref = _simulator(levels, kernel_backend=KernelBackend(), **knobs)
        ref.update_state()
        np.testing.assert_allclose(sim.state(), ref.state(), atol=1e-10)

    def test_small_tables_stay_in_parent(self):
        backend = ProcessPoolBackend(num_workers=2)  # default threshold
        sim = _simulator(_mixed_levels(), kernel_backend=backend)
        sim.update_state()
        # every table here is far below min_ship_amps: nothing crosses
        assert backend.shipped_runs == 0

    def test_single_worker_never_ships(self):
        backend = ProcessPoolBackend(num_workers=1, min_ship_amps=0)
        sim = _simulator(_mixed_levels(), kernel_backend=backend)
        sim.update_state()
        assert backend.shipped_runs == 0

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("QTASK_PROCESS_WORKERS", "3")
        assert ProcessPoolBackend().num_workers == 3


# ---------------------------------------------------------------------------
# failure-safe execution: a crashing backend degrades, never corrupts
# ---------------------------------------------------------------------------


class _ExplodingBackend(KernelBackend):
    name = "exploding"
    failure_safe = True

    def execute_plan(self, reader, store, table):
        raise RuntimeError("boom")


class _FragileBackend(KernelBackend):
    name = "fragile"
    failure_safe = False

    def execute_plan(self, reader, store, table):
        raise RuntimeError("boom")


class TestFailureSafety:
    def test_failure_safe_backend_falls_back_per_run(self):
        sim = _simulator(_mixed_levels(), kernel_backend=_ExplodingBackend())
        sim.update_state()
        ref = _simulator(_mixed_levels(), kernel_backend=KernelBackend())
        ref.update_state()
        np.testing.assert_allclose(sim.state(), ref.state(), atol=1e-10)
        assert sim.plan_report().backend_fallbacks > 0

    def test_non_failure_safe_backend_propagates(self):
        sim = _simulator(_mixed_levels(), kernel_backend=_FragileBackend())
        with pytest.raises(RuntimeError, match="boom"):
            sim.update_state()


# ---------------------------------------------------------------------------
# plan statistics surface
# ---------------------------------------------------------------------------


class TestPlanStatistics:
    def test_counters_accumulate_across_updates(self):
        sim = _simulator(_mixed_levels(), kernel_backend="numpy")
        sim.update_state()
        first = sim.plan_report()
        assert first.updates_planned == 1
        assert first.plans_built > 0
        assert first.runs_batched >= first.plans_built
        handle = sim.circuit.gates()[6]  # an rz of the second level
        sim.circuit.update_gate(handle, 1.234)
        sim.update_state()
        second = sim.plan_report()
        assert second.updates_planned == 2
        assert second.plans_built > first.plans_built

    def test_statistics_merges_plan_report(self):
        sim = _simulator(_mixed_levels(), kernel_backend="numpy")
        sim.update_state()
        stats = sim.statistics()
        for key in ("backend", "plans_built", "runs_batched", "runs_per_plan"):
            assert key in stats
        assert stats["backend"] == "numpy"

    def test_fork_inherits_backend(self):
        sim = _simulator(_mixed_levels(), kernel_backend="numpy")
        sim.update_state()
        child = sim.fork()
        assert child._backend is sim._backend
        assert child.plan_report().updates_planned == 0
        child2 = sim.fork(kernel_backend=KernelBackend())
        assert child2.plan_report().backend == "base"
