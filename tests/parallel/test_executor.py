"""Tests for the executor: steps in order, a step's chunks inline at width 1
and over a pool above it."""

import threading
import time

import pytest

from repro.parallel import Executor

# the ``<lambda>N`` ids the test floor pins: inline, one and three pool threads
EXECUTOR_FACTORIES = [
    lambda: Executor(1),
    lambda: Executor(2),
    lambda: Executor(4),
]


def fan_steps(log):
    """``a``, then ``b`` fanning out four chunks, then ``d``."""
    lock = threading.Lock()

    def chunk(i):
        def run():
            with lock:
                log.append(f"c{i}")
        return run

    def b():
        log.append("b")
        return [chunk(i) for i in range(4)]

    return [(lambda: log.append("a"), "a"), (b, "b"), (lambda: log.append("d"), "d")]


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_respects_dependencies(factory):
    log = []
    with factory() as ex:
        ex.run(fan_steps(log))
    assert log[:2] == ["a", "b"] and log[-1] == "d"
    assert sorted(log[2:-1]) == ["c0", "c1", "c2", "c3"]


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_runs_every_task_once(factory):
    counter = {"n": 0}

    def bump():
        counter["n"] += 1

    with factory() as ex:
        ex.run([(bump, f"t{i}") for i in range(50)])
    assert counter["n"] == 50


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_subflow_joins_before_successors(factory):
    """A step's chunks all complete before the next step starts."""
    seen = []
    lock = threading.Lock()

    def chunk(i):
        def run():
            time.sleep(0.001)
            with lock:
                seen.append(f"child{i}")
        return run

    with factory() as ex:
        ex.run([(lambda: [chunk(i) for i in range(8)], "parent"),
                (lambda: seen.append("after"), "after")])
    assert seen[-1] == "after"
    assert sorted(seen[:-1]) == [f"child{i}" for i in range(8)]


def squares(out):
    """One step whose chunks fill ``out[i] = i * i``."""
    return [(lambda: [lambda i=i: out.__setitem__(i, i * i) for i in range(len(out))], "sq")]


# the ``map`` ids are historical: a step's chunk closures are the fan-out
@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_map_preserves_order(factory):
    out = [None] * 37
    with factory() as ex:
        ex.run(squares(out))
    assert out == [x * x for x in range(37)]


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_map_empty(factory):
    with factory() as ex:
        ex.run([(lambda: [], "empty"), (lambda: None, "none")])
        assert ex._pool is None or ex._pool._threads == set()


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_empty_graph(factory):
    with factory() as ex:
        ex.run([])


def test_work_stealing_executor_propagates_exceptions():
    """A failing chunk raises from ``run`` after the running chunks end."""
    finished = []

    def boom():
        raise ValueError("boom")

    def slow():
        time.sleep(0.01)
        finished.append(True)

    with Executor(2) as ex:
        with pytest.raises(ValueError, match="boom") as err:
            ex.run([(lambda: [boom, slow], "stage")])
    assert err.value.task_label == "stage"
    settled = list(finished)  # slow never started, or ran to its end
    time.sleep(0.02)
    assert finished == settled  # nothing runs on behind the raise


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_task_names_are_formatted_only_for_a_failure(factory):
    """A callable label costs nothing until an error needs it."""
    formatted = []

    def namer(label):
        def name():
            formatted.append(label)
            return label
        return name

    def boom():
        raise ValueError("boom")

    with factory() as ex:
        ex.run([(lambda: None, namer("quiet")),
                (lambda: [lambda: None, lambda: None], namer("quiet-chunks"))])
        assert formatted == []
        with pytest.raises(ValueError) as err:
            ex.run([(boom, namer("loud"))])
        assert err.value.task_label == "loud"
        with pytest.raises(ValueError) as err:
            ex.run([(lambda: [boom, lambda: None], namer("parent"))])
        assert err.value.task_label == "parent"
    assert formatted == ["loud", "parent"]  # each formatted once


def test_sequential_executor_nested_subflows():
    """Historical id: the default executor runs a step's chunks inline, in
    list order, and ignores what a chunk returns (nothing nests)."""
    seen = []
    ex = Executor()
    ex.run([(lambda: [lambda i=i: seen.append(i) or [lambda: seen.append("x")]
                      for i in range(5)], "inline")])
    assert seen == [0, 1, 2, 3, 4] and ex._pool is None


def test_work_stealing_executor_actually_uses_threads():
    """Historical id: a step's chunks spread over the pool's threads."""
    threads = set()
    lock = threading.Lock()

    def record():
        with lock:
            threads.add(threading.current_thread().name)
        time.sleep(0.01)

    with Executor(4) as ex:
        ex.run([(lambda: [record for _ in range(16)], "wide")])
    assert len(threads) >= 2


def test_executor_rejects_cyclic_graph():
    """Historical id: there is no graph to reject.  A body that raises
    starts none of the chunks it would have returned, nor a later step."""
    log = []

    def body():
        raise RuntimeError("before the fan-out")

    with Executor(2) as ex:
        with pytest.raises(RuntimeError) as err:
            ex.run([(body, "first"), (lambda: log.append("second"), "second")])
    assert err.value.task_label == "first" and log == []


@pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
def test_executor_orders_a_graph_once_per_run(factory):
    """One lazy pass over the steps: step k is drawn after step k - 1 ran."""
    log = []

    def steps():
        for k in range(4):
            log.append(f"draw {k}")
            yield (lambda k=k: [lambda: log.append(f"chunk {k}")]), str(k)

    with factory() as ex:
        ex.run(steps())
    assert log == [f"{what} {k}" for k in range(4) for what in ("draw", "chunk")]


def test_make_executor_selects_implementation():
    """Historical id: the width picks inline (no pool) or a pool of width - 1;
    anything but ``None`` or an ``int`` >= 1 is rejected."""
    for workers in (None, 1):
        ex = Executor(workers)
        assert ex.num_workers == 1 and ex._pool is None
    with Executor(3) as ex:
        assert ex.num_workers == 3 and ex._pool._max_workers == 2
    for workers in (0, -4):
        with pytest.raises(ValueError, match="num_workers"):
            Executor(workers)
    for workers in (2.9, "3", True, 1.0):
        with pytest.raises(TypeError, match="num_workers"):
            Executor(workers)


def test_executor_context_manager():
    out = [None] * 3
    with Executor(2) as ex:
        ex.run(squares(out))
    assert out == [0, 1, 4]
    with pytest.raises(RuntimeError):  # the pool is shut down on exit
        ex.run(squares(out))


# ---------------------------------------------------------------------------
# a parallel-for as chunk closures (the ``parallel_for`` id is historical)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [None, 1, 3])
def test_parallel_for_visits_every_index_once(workers):
    hits = [0] * 100
    lock = threading.Lock()

    def body(start, stop):
        with lock:
            for i in range(start, stop):
                hits[i] += 1

    with Executor(workers) as ex:
        ex.run([(lambda: [lambda s=s: body(s, min(100, s + 7)) for s in range(0, 100, 7)], "for")])
    assert hits == [1] * 100

