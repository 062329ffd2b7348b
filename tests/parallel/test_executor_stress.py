"""High-contention and determinism tests for the executor.

These tests pin down three executor behaviours:

* a subflow joins every child, nested spawns included, before the next
  task starts, however the children spread over the pool;
* spawned subflow children execute depth-first in spawn order at width 1,
  and a child's own spawns follow it in order on its thread at any width;
* ``run`` is re-entrant: a run issued from a pool thread completes (the
  join runs any chunk no pool thread has started itself), and concurrent
  runs from external threads share one pool.

CI runs this module explicitly; the stress tests hard-code a 4-wide
executor so the join sees real contention.
"""

import sys
import threading

import pytest

from repro.parallel import Executor, TaskGraph

STRESS_WORKERS = 4  # keep >= 4: the join needs real contention


# ---------------------------------------------------------------------------
# nested-subflow join race
# ---------------------------------------------------------------------------


def _nested_subflow_graph(num_children, num_grandchildren, counter, observed):
    """One parent spawning children that each spawn nested grandchildren.

    Every child/grandchild bumps ``counter``; the parent's successor
    records the count it observes.  The join must not release the
    successor until every (grand)child ran.
    """
    lock = threading.Lock()

    def bump():
        with lock:
            counter[0] += 1

    def make_grandchild():
        def grandchild():
            bump()
        return grandchild

    def make_child():
        def child():
            bump()
            # Nested spawn: these join the *same* subflow, on this
            # child's thread, while siblings finish on others.
            return [make_grandchild() for _ in range(num_grandchildren)]
        return child

    def parent():
        return [make_child() for _ in range(num_children)]

    graph = TaskGraph("nested-stress")
    p = graph.emplace(parent, "parent")
    succ = graph.emplace(lambda: observed.append(counter[0]), "after-join")
    p.precede(succ)
    return graph


def test_nested_subflow_join_survives_high_contention():
    """A join that loses children hangs; one that fires early undercounts."""
    num_children, num_grandchildren, rounds = 24, 4, 25
    expected = num_children * (1 + num_grandchildren)
    ex = Executor(STRESS_WORKERS)
    old_interval = sys.getswitchinterval()
    # Force thread switches at nearly every bytecode so children and the
    # join interleave as finely as the interpreter allows.
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(rounds):
            counter = [0]
            observed = []
            graph = _nested_subflow_graph(
                num_children, num_grandchildren, counter, observed
            )
            runner = threading.Thread(target=ex.run, args=(graph,), daemon=True)
            runner.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), (
                f"round {round_no}: run() hung -- the subflow join lost a "
                "child under contention"
            )
            assert observed == [expected], (
                f"round {round_no}: successor released after "
                f"{observed} of {expected} children -- join fired early"
            )
            assert counter[0] == expected
    finally:
        sys.setswitchinterval(old_interval)
        ex.close()


def test_deeply_nested_subflows_join_once():
    """Chains of nested spawns all fold into one parent join."""
    depth, width = 5, 3
    counter = [0]
    lock = threading.Lock()

    def make(level):
        def body():
            with lock:
                counter[0] += 1
            if level < depth:
                return [make(level + 1) for _ in range(1 if level else width)]
        return body

    order = []
    graph = TaskGraph()
    p = graph.emplace(make(0), "root")
    succ = graph.emplace(lambda: order.append(counter[0]), "after")
    p.precede(succ)
    ex = Executor(STRESS_WORKERS)
    try:
        ex.run(graph)
    finally:
        ex.close()
    expected = 1 + width * depth
    assert order == [expected]


# ---------------------------------------------------------------------------
# spawn-order determinism
# ---------------------------------------------------------------------------


def _order_graph(log):
    def make_grandchild(tag):
        def grandchild():
            log.append(tag)
        return grandchild

    def make_child(i):
        def child():
            log.append(f"c{i}")
            return [make_grandchild(f"c{i}.g{j}") for j in range(2)]
        return child

    def parent():
        log.append("p")
        return [make_child(i) for i in range(4)]

    graph = TaskGraph("order")
    graph.emplace(parent, "parent")
    return graph


EXPECTED_ORDER = ["p"] + [
    item for i in range(4) for item in (f"c{i}", f"c{i}.g0", f"c{i}.g1")
]


@pytest.mark.parametrize(
    "factory",
    [Executor, lambda: Executor(1)],
    ids=["sequential", "work-stealing-1"],  # historical ids: default, explicit 1
)
def test_subflow_children_run_in_spawn_order(factory):
    """Children (and nested children) execute depth-first in spawn order."""
    log = []
    ex = factory()
    try:
        ex.run(_order_graph(log))
    finally:
        ex.close()
    assert log == EXPECTED_ORDER


def test_sequential_and_single_worker_observe_identical_order():
    """Width 1 sees one child schedule; wider, each child's spawns follow it."""
    inline_log = []
    Executor().run(_order_graph(inline_log))
    assert inline_log == EXPECTED_ORDER
    wide_log = []
    with Executor(STRESS_WORKERS) as ex:
        ex.run(_order_graph(wide_log))
    assert sorted(wide_log) == sorted(EXPECTED_ORDER) and wide_log[0] == "p"
    for i in range(4):
        mine = [tag for tag in wide_log if tag.startswith(f"c{i}")]
        assert mine == [f"c{i}", f"c{i}.g0", f"c{i}.g1"]


# ---------------------------------------------------------------------------
# re-entrant / concurrent runs (the forked-session execution model)
# ---------------------------------------------------------------------------


def test_nested_run_from_worker_threads():
    """A map issued inside a chunk on a pool thread completes at width 2.

    The pool's one thread is busy running the outer chunk, so the inner
    map's submitted chunks would never start; the join cancels each one
    nobody started and runs it on the calling (pool) thread instead.
    """
    ex = Executor(2)
    on_pool = []
    pool_started = threading.Event()

    def outer(x):
        if threading.current_thread().name.startswith("qtask-worker"):
            on_pool.append(x)
            pool_started.set()
        elif x == 0:  # hold the caller until the pool thread has a chunk
            pool_started.wait(10.0)
        return sum(ex.map(lambda y: y + x, range(6)))

    out = []
    runner = threading.Thread(target=lambda: out.extend(ex.map(outer, range(12))))
    try:
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "a run issued from a pool thread hung"
    finally:
        ex.close()
    assert out == [sum(y + x for y in range(6)) for x in range(12)]
    assert on_pool, "no outer chunk ran on the pool thread"


def test_nested_run_propagates_exceptions():
    ex = Executor(2)

    def outer(x):
        def inner(y):
            if y == 3:
                raise RuntimeError("inner boom")
            return y

        return ex.map(inner, range(5))

    try:
        with pytest.raises(RuntimeError, match="inner boom"):
            ex.map(outer, range(4))
    finally:
        ex.close()


def test_concurrent_runs_from_external_threads():
    """Independent graphs share one pool without interference."""
    ex = Executor(STRESS_WORKERS)
    results = {}
    errors = []

    def run_one(k):
        try:
            results[k] = ex.map(lambda x, k=k: x * k, range(50))
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=run_one, args=(k,)) for k in range(1, 6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        ex.close()
    assert not errors
    for k in range(1, 6):
        assert results[k] == [x * k for x in range(50)]
