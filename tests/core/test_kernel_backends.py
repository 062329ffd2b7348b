"""Unit tests for the kernel backend seam: the ``kernel_backend`` keyword,
the run-granular fallback of a faulted chunk and the plan statistics.

There is one execution strategy (the numpy slab backend) plus the base
``KernelBackend`` reference loop.  Several ids below predate that -- the test
floor pins them -- and say so where the name no longer describes the body.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro import QTask
from repro.core.circuit import Circuit
from repro.core.faults import FaultInjected
from repro.core.gates import Gate
from repro.core.kernels import KernelBackend, NumpyBatchBackend, iter_table_runs
from repro.core.simulator import QTaskSimulator
from repro.parallel import SweepRunner

from ..conftest import FaultingBackend, table_from_runs

ACCEPTED = "expected None, 'auto', 'numpy' or a KernelBackend instance$"


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


def _reference_state(levels=None, **knobs):
    with _simulator(
        levels or _mixed_levels(), kernel_backend=KernelBackend(), **knobs
    ) as ref:
        ref.update_state()
        return ref.state()


# ---------------------------------------------------------------------------
# the ``kernel_backend`` keyword: None (or its spellings) or an instance
# (the class name is historical: ``make_backend`` is gone, the few lines left
# of spec resolution live in ``QTaskSimulator.assemble``)
# ---------------------------------------------------------------------------


class TestMakeBackend:
    def test_numpy(self):
        with _simulator(_mixed_levels(), kernel_backend="numpy") as sim:
            assert type(sim._backend) is NumpyBatchBackend

    def test_legacy_is_rejected(self):
        with pytest.raises(ValueError, match=ACCEPTED):
            _simulator([[Gate("h", (0,))]], kernel_backend="legacy")

    @pytest.mark.parametrize("name", ["process", "numba"])
    def test_deleted_names_are_rejected(self, name):
        with pytest.raises(ValueError, match=ACCEPTED):
            QTask(3, kernel_backend=name)

    def test_auto_never_falls_back(self, no_plan):
        """``auto`` and no spec at all are the slab backend, and a clean
        update on it (chaos plan parked: an injected ``kernel.run`` fault is
        a fallback) never takes the run-granular fallback."""
        for spec in ("auto", None):
            with _simulator(_mixed_levels(), kernel_backend=spec) as sim:
                sim.update_state()
                assert type(sim._backend) is NumpyBatchBackend
                assert sim.plan_report().backend_fallbacks == 0

    def test_unknown_name_raises(self):
        for spec in ("cuda", 42):
            with pytest.raises(ValueError, match=ACCEPTED):
                _simulator([[Gate("h", (0,))]], kernel_backend=spec)

    def test_env_var_drives_default(self, monkeypatch):
        """Historical id: nothing reads ``QTASK_KERNEL_BACKEND`` any more, so
        a value the keyword would reject changes nothing."""
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "legacy")
        with _simulator([[Gate("h", (0,))]]) as sim:
            assert sim._backend.name == "numpy"

    def test_explicit_knob_beats_env(self, monkeypatch):
        monkeypatch.setenv("QTASK_KERNEL_BACKEND", "numpy")  # never read
        backend = KernelBackend()
        with _simulator([[Gate("h", (0,))]], kernel_backend=backend) as sim:
            assert sim._backend is backend

    def test_available_backends_contents(self):
        """Historical id: the backends there are, are the module's two classes."""
        classes = {
            name for name, obj in vars(kernels).items()
            if isinstance(obj, type) and issubclass(obj, KernelBackend)
        }
        assert classes == {"KernelBackend", "NumpyBatchBackend"}
        assert classes <= set(kernels.__all__)


# ---------------------------------------------------------------------------
# iter_table_runs
# ---------------------------------------------------------------------------


def test_iter_table_runs_roundtrip():
    from repro.core.exec_plan import RUN_ACTION, RunSpec

    op = object()
    runs = [RunSpec(RUN_ACTION, 4 * i, 4 * i + 3, (0,), op) for i in range(3)]
    table = table_from_runs(runs)
    assert list(iter_table_runs(table)) == runs


# ---------------------------------------------------------------------------
# ids the test floor pins for the deleted numba and process-pool backends,
# over corners their removal leaves behind
# ---------------------------------------------------------------------------


class _FaultsOncePublished(NumpyBatchBackend):
    """The slab backend reporting an injected fault after it published."""

    def execute_plan(self, reader, store, table):
        super().execute_plan(reader, store, table)
        raise FaultInjected("kernel.run", 0)


class TestNumbaBackend:
    def test_jit_unavailable_raises(self, tmp_path):
        """The name is rejected wherever the keyword is taken, not only by
        the constructor; a fork and a sweep take no backend at all."""
        path = str(tmp_path / "s.qtckpt")
        with QTask(3, block_size=4, num_workers=1) as session:
            net = session.insert_net()
            gate = session.insert_gate("rz", net, 0, params=[0.1])
            session.update_state()
            session.checkpoint(path)
            with pytest.raises(ValueError, match=ACCEPTED):
                QTask.restore(path, kernel_backend="numba")
            with pytest.raises(TypeError, match="kernel_backend"):
                session.fork(kernel_backend="numba")
            with pytest.raises(TypeError, match="kernel_backend"):
                session.simulator.fork(kernel_backend=KernelBackend())
            with pytest.raises(TypeError, match="kernel_backend"):
                SweepRunner(session, [gate], kernel_backend="numba")

    def test_interpreted_kernels_match_legacy(self):
        """A chunk that faults *after* publishing is re-executed run by run
        over its own output: the writes are plain overwrites, so the state
        is the reference loop's and no block is held twice."""
        with _simulator(
            _mixed_levels(), kernel_backend=_FaultsOncePublished()
        ) as sim, _simulator(_mixed_levels()) as clean:
            sim.update_state()
            np.testing.assert_allclose(sim.state(), _reference_state(), atol=1e-10)
            report = sim.plan_report()
            assert report.backend_fallbacks == report.plan_chunks > 0
            clean.update_state()
            assert (
                sim.memory_report().allocated_bytes
                == clean.memory_report().allocated_bytes
            )


class TestProcessPoolBackend:
    def test_small_tables_stay_in_parent(self):
        """A one-run table is never split, however wide the executor."""
        # one block: every stage's table is a single run
        with _simulator(
            _mixed_levels(2), num_qubits=2, block_size=4, num_workers=4
        ) as sim:
            sim.update_state()
            report = sim.plan_report()
            assert report.runs_batched == report.plan_chunks == report.plans_built
            np.testing.assert_allclose(
                sim.state(),
                _reference_state(_mixed_levels(2), num_qubits=2),
                atol=1e-10,
            )

    def test_single_worker_never_ships(self):
        """One worker: every table, many runs or not, is one chunk."""
        # h on qubit 0 alone: eight two-block windows, eight runs
        sim = _simulator([[Gate("h", (0,))]] + _mixed_levels()[1:], num_workers=1)
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
        assert sim.executor.num_workers == 2
        assert set(multiprocessing.active_children()) == before
        sim.close()


# ---------------------------------------------------------------------------
# a failing chunk: an injected fault falls back run-granular, anything else
# is a programming error and propagates
# ---------------------------------------------------------------------------


class _FragileBackend(KernelBackend):
    name = "fragile"

    def execute_plan(self, reader, store, table):
        raise RuntimeError("boom")


class TestFailureSafety:
    def test_failure_safe_backend_falls_back_per_run(self):
        with _simulator(_mixed_levels(), kernel_backend=FaultingBackend()) as sim:
            sim.update_state()
            np.testing.assert_allclose(sim.state(), _reference_state(), atol=1e-10)
            assert sim.plan_report().backend_fallbacks > 0
            fallbacks = sim.telemetry.events.events(kind="chunk.fallback")
            assert {e.fields["backend"] for e in fallbacks} == {"faulting"}

    def test_non_failure_safe_backend_propagates(self):
        with _simulator(_mixed_levels(), kernel_backend=_FragileBackend()) as sim:
            with pytest.raises(RuntimeError, match="boom"):
                sim.update_state()
            assert sim.plan_report().backend_fallbacks == 0


# ---------------------------------------------------------------------------
# plan statistics surface
# ---------------------------------------------------------------------------


class TestPlanStatistics:
    def test_counters_accumulate_across_updates(self):
        with _simulator(_mixed_levels(), kernel_backend="numpy") as sim:
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
        with _simulator(_mixed_levels(), kernel_backend="numpy") as sim:
            sim.update_state()
            stats = sim.statistics()
            report = sim.plan_report().as_dict()
        assert set(report) == {
            "backend", "plans_built", "runs_batched",
            "stages_coalesced", "plan_chunks", "backend_fallbacks",
            "updates_planned", "runs_per_plan", "run_retries",
        }
        assert {key: stats[key] for key in report} == report
        assert stats["backend"] == "numpy"

    def test_fork_inherits_backend(self):
        with _simulator(_mixed_levels(), kernel_backend="numpy") as sim:
            sim.update_state()
            with sim.fork() as child:
                assert child._backend is sim._backend
                assert child.plan_report().updates_planned == 0
        # a parent on the reference loop forks onto the reference loop
        with _simulator(_mixed_levels(), kernel_backend=KernelBackend()) as reference:
            reference.update_state()
            with reference.fork() as child2:
                assert child2._backend is reference._backend
                assert child2.plan_report().backend == "base"
                child2.circuit.update_gate(child2.circuit.gates()[6], 1.234)
                child2.update_state()
                assert child2.plan_report().updates_planned == 1
