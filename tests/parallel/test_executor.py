"""Tests for the executor: inline at width 1, a chunk pool above it."""

import threading
import time

import pytest

from repro.baselines.statevector import chunk_indices
from repro.core.exceptions import ExecutorError
from repro.parallel import Executor, TaskGraph

# the ``<lambda>N`` ids the test floor pins: inline, one and three pool threads
EXECUTOR_FACTORIES = [
    lambda: Executor(1),
    lambda: Executor(2),
    lambda: Executor(4),
]


def diamond_graph(log):
    g = TaskGraph("diamond")
    a = g.emplace(lambda: log.append("a"), "a")
    b = g.emplace(lambda: log.append("b"), "b")
    c = g.emplace(lambda: log.append("c"), "c")
    d = g.emplace(lambda: log.append("d"), "d")
    a.precede(b, c)
    d.succeed(b, c)
    return g


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_respects_dependencies(factory):
    log = []
    ex = factory()
    try:
        ex.run(diamond_graph(log))
    finally:
        ex.close()
    assert sorted(log) == ["a", "b", "c", "d"]
    assert log[0] == "a" and log[-1] == "d"


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_runs_every_task_once(factory):
    counter = {"n": 0}
    lock = threading.Lock()
    g = TaskGraph()

    def bump():
        with lock:
            counter["n"] += 1

    tasks = [g.emplace(bump, f"t{i}") for i in range(50)]
    for i in range(1, 50):
        tasks[i - 1].precede(tasks[i])
    ex = factory()
    try:
        ex.run(g)
    finally:
        ex.close()
    assert counter["n"] == 50


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_subflow_joins_before_successors(factory):
    """A task spawning a subflow must complete all children before its succs."""
    seen = []
    lock = threading.Lock()
    g = TaskGraph()

    def parent():
        return [lambda i=i: seen.append(f"child{i}") for i in range(8)]

    p = g.emplace(parent, "parent")
    after = g.emplace(lambda: seen.append("after"), "after")
    p.precede(after)
    ex = factory()
    try:
        ex.run(g)
    finally:
        ex.close()
    assert seen[-1] == "after"
    assert sorted(seen[:-1]) == [f"child{i}" for i in range(8)]


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_map_preserves_order(factory):
    ex = factory()
    try:
        out = ex.map(lambda x: x * x, list(range(37)))
    finally:
        ex.close()
    assert out == [x * x for x in range(37)]


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_map_empty(factory):
    ex = factory()
    try:
        assert ex.map(lambda x: x, []) == []
    finally:
        ex.close()


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_empty_graph(factory):
    ex = factory()
    try:
        ex.run(TaskGraph())
    finally:
        ex.close()


def test_work_stealing_executor_propagates_exceptions():
    g = TaskGraph()

    def boom():
        raise ValueError("boom")

    g.emplace(boom)
    ex = Executor(2)
    try:
        with pytest.raises(ValueError, match="boom"):
            ex.run(g)
    finally:
        ex.close()


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_task_names_are_formatted_only_for_a_failure(factory):
    """A callable name costs nothing until an error needs the label."""
    formatted = []

    def namer(label):
        def name():
            formatted.append(label)
            return label
        return name

    def boom():
        raise ValueError("boom")

    fine = TaskGraph()
    fine.emplace(lambda: None, namer("quiet"))
    fine.emplace(lambda: [lambda: None, lambda: None], namer("quiet-subflow"))
    failing = TaskGraph()
    failing.emplace(boom, namer("loud"))
    sub = TaskGraph()
    sub.emplace(lambda: [boom, lambda: None], namer("parent"))
    ex = factory()
    try:
        ex.run(fine)
        assert formatted == []
        with pytest.raises(ValueError) as err:
            ex.run(failing)
        assert err.value.task_label == "loud"
        with pytest.raises(ValueError) as err:
            ex.run(sub)
        assert err.value.task_label == "parent"
    finally:
        ex.close()
    assert set(formatted) == {"loud", "parent"}
    assert formatted.count("loud") == 1  # cached after the first call


def test_sequential_executor_nested_subflows():
    seen = []
    g = TaskGraph()

    def parent():
        def child():
            return [lambda: seen.append("grandchild")]
        return [child]

    g.emplace(parent)
    Executor().run(g)
    assert seen == ["grandchild"]


def test_work_stealing_executor_actually_uses_threads():
    """Historical id: a subflow's children spread over the pool's threads."""
    g = TaskGraph()
    threads = set()
    lock = threading.Lock()

    def record():
        with lock:
            threads.add(threading.current_thread().name)
        time.sleep(0.01)

    g.emplace(lambda: [record for _ in range(16)])
    ex = Executor(4)
    try:
        ex.run(g)
    finally:
        ex.close()
    assert len(threads) >= 2


def test_executor_rejects_cyclic_graph():
    g = TaskGraph()
    a, b = g.emplace(lambda: None), g.emplace(lambda: None)
    a.precede(b)
    b.precede(a)
    with pytest.raises(ExecutorError):
        Executor().run(g)


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_orders_a_graph_once_per_run(factory, monkeypatch):
    """Cycle check and execution order come from one Kahn pass."""
    passes = []
    kahn = TaskGraph.topological_order
    monkeypatch.setattr(
        TaskGraph, "topological_order",
        lambda self: passes.append(self.name) or kahn(self),
    )
    log = []
    ex = factory()
    try:
        ex.run(diamond_graph(log))
    finally:
        ex.close()
    assert sorted(log) == ["a", "b", "c", "d"] and log[0] == "a" and log[-1] == "d"
    assert passes == ["diamond"]


def test_make_executor_selects_implementation():
    """Historical id: the width picks inline (no pool) or a pool of width - 1."""
    for workers in (None, 0, 1):
        ex = Executor(workers)
        assert ex.num_workers == 1 and ex._pool is None
    ex = Executor(3)
    try:
        assert ex.num_workers == 3 and ex._pool._max_workers == 2
    finally:
        ex.close()


def test_executor_context_manager():
    with Executor(2) as ex:
        assert ex.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


# ---------------------------------------------------------------------------
# chunked map (the dense baseline's intra-gate parallel-for); the
# ``parallel_for`` id is historical -- the helper left the package, and the
# body drives ``executor.map`` over ``chunk_indices`` as the baseline does
# ---------------------------------------------------------------------------


def test_chunk_indices_covers_range_exactly():
    chunks = chunk_indices(10, 3)
    assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]


def test_chunk_indices_validation():
    with pytest.raises(ValueError):
        chunk_indices(-1, 3)
    with pytest.raises(ValueError):
        chunk_indices(10, 0)


def test_chunk_indices_empty_total():
    assert chunk_indices(0, 4) == []


@pytest.mark.parametrize("workers", [None, 1, 3])
def test_parallel_for_visits_every_index_once(workers):
    hits = [0] * 100
    lock = threading.Lock()

    def body(start, stop):
        with lock:
            for i in range(start, stop):
                hits[i] += 1

    ex = Executor(workers)
    try:
        ex.map(lambda se: body(*se), chunk_indices(100, 7))
    finally:
        ex.close()
    assert hits == [1] * 100

