"""``Executor.run(steps)``: an update's plans, one step each, in list order.

Historical module: the task graph it covered is gone.  An update hands the
executor its stage plans as ``(body, label)`` steps in plan order; a body
runs on the calling thread and returns ``None`` or a list of chunks, which
join before the next step.  The ids (pinned by the test floor) keep their
names; each docstring says what it now covers.
"""

import threading

import pytest

from repro.core import faults
from repro.core.faults import FaultInjected, FaultPlan
from repro.parallel import Executor

WIDTHS = [1, 2, 4]


def _run(steps, width=1):
    with Executor(width) as ex:
        ex.run(steps)


def _logging(log, tag):
    def body():
        log.append(tag)
    return body


def test_emplace_and_len():
    """Every step runs exactly once."""
    log = []
    _run([(_logging(log, "a"), "a"), (_logging(log, "b"), "b")])
    assert log == ["a", "b"]


def test_precede_and_succeed_build_edges():
    """Steps run in list order at every width, each body on the caller."""
    here = threading.current_thread().name
    for width in WIDTHS:
        log = []

        def body(i):
            def run():
                log.append((i, threading.current_thread().name))
            return run

        _run([(body(i), str(i)) for i in range(20)], width)
        assert log == [(i, here) for i in range(20)]


def test_precede_self_raises():
    """A failing step ends the run: no later step starts."""
    def boom():
        raise ValueError("boom")

    for width in WIDTHS:
        log = []
        with pytest.raises(ValueError, match="boom"):
            _run([(_logging(log, "a"), "a"), (boom, "b"), (_logging(log, "c"), "c")],
                 width)
        assert log == ["a"]


def test_duplicate_edges_ignored():
    """The same body listed twice runs twice: steps are not deduplicated."""
    log = []
    body = _logging(log, "x")
    _run([(body, "x"), (body, "x")])
    assert log == ["x", "x"]


def test_sources_and_sinks():
    """An empty step list runs nothing; so does an empty generator."""
    _run([])
    _run(step for step in ())


def test_topological_order_respects_edges():
    """Plan order is a valid order: step k's chunk reads what step k - 1 wrote."""
    for width in WIDTHS:
        values = [0] * 12

        def body(k):
            def chunk():
                values[k] = values[k - 1] + 1
            return lambda: [chunk] if k else None

        _run([(body(k), str(k)) for k in range(12)], width)
        assert values == list(range(12))


def test_validate_detects_cycle():
    """The first failure's label wins: a nested run's label survives."""
    def boom():
        raise RuntimeError("inner")

    for width in WIDTHS:
        with Executor(width) as ex:
            def outer():
                ex.run([(boom, "inner-step")])

            with pytest.raises(RuntimeError) as err:
                ex.run([(outer, "outer-step")])
        assert err.value.task_label == "inner-step"


def test_validate_passes_for_dag():
    """The executor has no fault site: under an armed plan firing every
    site on every evaluation, a step and its chunks run once, unfaulted."""
    log = []
    previous = faults.install(FaultPlan(probability=1.0))
    try:
        for width in WIDTHS:
            with faults.armed(), Executor(width) as ex:
                ex.run([(lambda: [_logging(log, "chunk")] * 2, "a")])
    finally:
        faults.install(previous)
    assert log == ["chunk"] * 2 * len(WIDTHS)


def test_placeholder_has_no_callable():
    """A body returning ``None`` submits nothing to the pool."""
    with Executor(2) as ex:
        ex.run([(lambda: None, "quiet")] * 3)
        assert ex._pool._threads == set()


def test_task_run_returns_subflow_list():
    """A body's chunks all finish before the next step starts."""
    lock = threading.Lock()
    for width in WIDTHS:
        log = []

        def chunk(i):
            def run():
                with lock:
                    log.append(i)
            return run

        _run([(lambda: [chunk(i) for i in range(8)], "fan"),
              (lambda: log.append("after"), "after")], width)
        assert sorted(log[:-1]) == list(range(8)) and log[-1] == "after"


def test_task_run_single_callable_becomes_subflow():
    """A one-chunk list runs its chunk on the caller, even with a pool."""
    seen = []
    _run([(lambda: [lambda: seen.append(threading.current_thread().name)], "one")],
         2)
    assert seen == [threading.current_thread().name]


def test_task_run_non_callable_return_ignored():
    """A chunk's return value is ignored: nothing nested is expanded."""
    log = []
    _run([(lambda: [lambda: [_logging(log, "nested")]], "outer")])
    assert log == []


def test_to_dot_contains_nodes_and_edges():
    """A string label is stamped on the failure and noted in its traceback."""
    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError) as err:
        _run([(boom, "stage 3")])
    assert err.value.task_label == "stage 3"
    if hasattr(err.value, "add_note"):  # Python >= 3.11
        assert err.value.__notes__ == ["raised by executor task 'stage 3'"]


def test_add_external_task():
    """Steps may come from a generator: step k is built after k - 1 ran."""
    log = []

    def steps():
        for k in range(3):
            log.append(f"build {k}")
            yield _logging(log, f"run {k}"), str(k)

    _run(steps())
    assert log == ["build 0", "run 0", "build 1", "run 1", "build 2", "run 2"]


def test_fault_past_the_bound_propagates():
    """A raising step body propagates on its first raise, with its label:
    the executor retries nothing."""
    calls = []

    def doomed():
        calls.append(1)
        raise FaultInjected("kernel.run", 1)

    with pytest.raises(FaultInjected) as err:
        _run([(doomed, "doomed")])
    assert calls == [1]
    assert err.value.task_label == "doomed"
