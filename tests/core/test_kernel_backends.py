"""Unit tests for the one kernel path: the slab backend every update runs
its tables on, the run-by-run re-execution of a faulted chunk on the same
kernels, and the plan statistics.

Sessions take no ``kernel_backend`` keyword any more; tests swap the module's
``update.BACKEND`` (``conftest.running_on``).  Several ids below predate that
-- the test floor pins them -- and say so where the name no longer
describes the body.
"""

from __future__ import annotations

import inspect
import multiprocessing

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro import QTask
from repro.core import update
from repro.core.circuit import Circuit
from repro.core.faults import FaultInjected
from repro.core.gates import Gate
from repro.core.kernels import NumpyBatchBackend
from repro.core.simulator import QTaskSimulator
from repro.parallel import SweepRunner

from ..conftest import (
    FaultingBackend, ReferenceLoop, RunSpec, iter_table_runs, reference_state,
    running_on, table_from_runs,
)


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


def _many_runs():
    """h on qubit 0 leads: one two-amplitude window a block, 16 runs."""
    return [[Gate("h", (0,))]] + _mixed_levels()


# ---------------------------------------------------------------------------
# no ``kernel_backend`` keyword: every spelling of it is an unknown keyword
# (the class name is historical: ``make_backend`` is gone)
# ---------------------------------------------------------------------------


class TestMakeBackend:
    def test_numpy(self):
        assert list(inspect.signature(QTaskSimulator).parameters) == [
            "circuit", "block_size", "num_workers", "seed", "tracing",
        ]

    def test_legacy_is_rejected(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            _simulator([[Gate("h", (0,))]], kernel_backend="legacy")

    @pytest.mark.parametrize("name", ["process", "numba"])
    def test_deleted_names_are_rejected(self, name):
        with pytest.raises(TypeError, match="kernel_backend"):
            QTask(3, kernel_backend=name)

    def test_auto_never_falls_back(self, no_plan):
        """A clean update (chaos plan parked: an injected ``kernel.run``
        fault is a fallback) never re-executes a chunk run by run."""
        with _simulator(_mixed_levels()) as sim:
            sim.update_state()
            assert sim.plan_report().backend_fallbacks == 0

    def test_unknown_name_raises(self):
        for spec in ("auto", "numpy", None):
            with pytest.raises(TypeError, match="kernel_backend"):
                _simulator([[Gate("h", (0,))]], kernel_backend=spec)

    def test_env_var_drives_default(self, monkeypatch):
        """Historical id: nothing reads ``QTASK_KERNEL_BACKEND``."""
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "legacy")
        with _simulator([[Gate("h", (0,))]]) as sim:
            sim.update_state()
            assert type(update.BACKEND) is NumpyBatchBackend

    def test_explicit_knob_beats_env(self):
        """Historical id: a session keeps no backend of its own, so a
        swapped module backend runs an open session's next update."""
        with _simulator(_mixed_levels()) as sim:
            assert not hasattr(sim, "_backend")
            sim.circuit.from_levels(_many_runs()[:1])
            with running_on(FaultingBackend()) as backend:
                sim.update_state()
            assert backend.attempts == sim.plan_report().backend_fallbacks > 0

    def test_available_backends_contents(self):
        """Historical id: the module's one backend class has no base."""
        classes = {
            name for name, obj in vars(kernels).items()
            if isinstance(obj, type) and name.endswith("Backend")
        }
        assert classes == {"NumpyBatchBackend"} and classes <= set(kernels.__all__)
        assert NumpyBatchBackend.__bases__ == (object,)
        assert not {"execute_run", "iter_table_runs", "KernelBackend"} & set(vars(kernels))


# ---------------------------------------------------------------------------
# iter_table_runs (the reference loop's row view, in conftest)
# ---------------------------------------------------------------------------


def test_iter_table_runs_roundtrip():
    from repro.core.exec_plan import RUN_ACTION

    op = object()
    runs = [RunSpec(RUN_ACTION, 4 * i, 4 * i + 3, (0,), op) for i in range(3)]
    table = table_from_runs(runs)
    assert list(iter_table_runs(table)) == runs


# ---------------------------------------------------------------------------
# ids the test floor pins for the deleted numba and process-pool backends,
# over corners their removal leaves behind
# ---------------------------------------------------------------------------


class _FaultsOncePublished(NumpyBatchBackend):
    """The slab backend reporting an injected fault after it published a
    multi-run table."""

    def execute_plan(self, reader, store, table):
        super().execute_plan(reader, store, table)
        if table.num_runs > 1:
            raise FaultInjected("kernel.run", 0)


class TestNumbaBackend:
    def test_jit_unavailable_raises(self, tmp_path):
        """The keyword is gone wherever it was taken: restore, fork, sweep."""
        path = str(tmp_path / "s.qtckpt")
        with QTask(3, block_size=4, num_workers=1) as session:
            net = session.insert_net()
            gate = session.insert_gate("rz", net, 0, params=[0.1])
            session.update_state()
            session.checkpoint(path)
            with pytest.raises(TypeError, match="kernel_backend"):
                QTask.restore(path, kernel_backend="numba")
            with pytest.raises(TypeError, match="kernel_backend"):
                session.fork(kernel_backend="numba")
            with pytest.raises(TypeError, match="kernel_backend"):
                session.simulator.fork(kernel_backend=None)
            with pytest.raises(TypeError, match="kernel_backend"):
                SweepRunner(session, [gate], kernel_backend="numba")

    def test_interpreted_kernels_match_legacy(self, no_plan):
        """A chunk that faults *after* publishing is re-executed run by run
        over its own output: the writes are plain overwrites, so the state
        is the clean run's bit for bit and no block is held twice."""
        with running_on(_FaultsOncePublished()), _simulator(_many_runs()) as sim:
            sim.update_state()
            state, report = sim.state(), sim.plan_report()
            allocated = sim.memory_report().allocated_bytes
        assert report.backend_fallbacks > 0
        with _simulator(_many_runs()) as clean:
            clean.update_state()
            assert np.array_equal(state, clean.state())
            assert allocated == clean.memory_report().allocated_bytes


class TestProcessPoolBackend:
    def test_small_tables_stay_in_parent(self):
        """A one-run table is never split, however wide the session."""
        # one block: every stage's table is a single run
        with _simulator(
            _mixed_levels(2), num_qubits=2, block_size=4, num_workers=4
        ) as sim:
            sim.update_state()
            report = sim.plan_report()
            assert report.runs_batched == report.plan_chunks == report.plans_built
            np.testing.assert_allclose(
                sim.state(), reference_state(2, _mixed_levels(2)), atol=1e-10
            )

    def test_single_worker_never_ships(self):
        """One worker: every table, many runs or not, is one chunk."""
        # h on qubit 0 alone: eight two-block windows, eight runs
        sim = _simulator(_many_runs(), num_workers=1)
        sim.update_state()
        report = sim.plan_report()
        assert report.runs_batched > report.plans_built
        assert report.plan_chunks == report.plans_built

    def test_worker_count_env(self, monkeypatch):
        """Nothing reads ``QTASK_PROCESS_WORKERS``: an unparsable value is
        harmless and an update starts no process."""
        monkeypatch.setenv("QTASK_PROCESS_WORKERS", "many")
        before = set(multiprocessing.active_children())
        sim = _simulator(_mixed_levels(), num_workers=2)
        sim.update_state()
        assert sim.num_workers == 2 and sim.pool._max_workers == 1
        assert set(multiprocessing.active_children()) == before
        sim.close()


# ---------------------------------------------------------------------------
# a failing chunk: an injected fault re-executes it run by run on the same
# kernels, anything else is a programming error and propagates
# ---------------------------------------------------------------------------


class _FragileBackend:
    def execute_plan(self, reader, store, table):
        raise RuntimeError("boom")


class TestFailureSafety:
    def test_failure_safe_backend_falls_back_per_run(self, no_plan):
        """Every table operation faults once: the session still ends
        byte-identical to the fault-free one."""
        with running_on(FaultingBackend()), _simulator(_many_runs()) as sim:
            sim.update_state()
            state = sim.state()
            assert sim.plan_report().backend_fallbacks > 0
            (event, *_) = sim.telemetry.events.events(kind="chunk.fallback")
            assert set(event.fields) == {"stage", "reason"}
        with _simulator(_many_runs()) as clean:
            clean.update_state()
            assert np.array_equal(state, clean.state())

    def test_non_failure_safe_backend_propagates(self):
        with running_on(_FragileBackend()), _simulator(_mixed_levels()) as sim:
            with pytest.raises(RuntimeError, match="boom"):
                sim.update_state()
            assert sim.plan_report().backend_fallbacks == 0


# ---------------------------------------------------------------------------
# plan statistics surface
# ---------------------------------------------------------------------------


class TestPlanStatistics:
    def test_counters_accumulate_across_updates(self):
        with _simulator(_mixed_levels()) as sim:
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
        with _simulator(_mixed_levels()) as sim:
            sim.update_state()
            stats = sim.statistics()
            report = sim.plan_report().as_dict()
        assert set(report) == {
            "plans_built", "runs_batched",
            "stages_coalesced", "plan_chunks", "backend_fallbacks",
            "updates_planned", "runs_per_plan", "run_retries",
        }
        assert {key: stats[key] for key in report} == report
        assert "backend" not in stats

    def test_fork_inherits_backend(self):
        """Historical id: a fork has no backend to inherit; its updates run
        on the module's backend like its parent's, on counters of its own."""
        with _simulator(_mixed_levels()) as sim:
            sim.update_state()
            with sim.fork() as child:
                assert child.plan_report().updates_planned == 0
                child.circuit.update_gate(child.circuit.gates()[6], 1.234)
                with running_on(ReferenceLoop()):
                    child.update_state()
                assert child.plan_report().updates_planned == 1
                sim.circuit.update_gate(sim.circuit.gates()[6], 1.234)
                sim.update_state()
                assert np.array_equal(child.state(), sim.state())
