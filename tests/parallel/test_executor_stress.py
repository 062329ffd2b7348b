"""High-contention and determinism tests for ``Executor.run(steps)``.

These tests pin down three executor behaviours:

* a step's chunks all join before the next step starts, however they
  spread over the pool;
* steps run in list order, and at width 1 a step's chunks run in list
  order on the caller;
* ``run`` is re-entrant: a run issued from a pool thread completes (the
  join runs any chunk no pool thread has started itself), and concurrent
  runs from external threads share one pool.

CI runs this module explicitly; the stress tests hard-code a 4-wide
executor so the join sees real contention.
"""

import sys
import threading

import pytest

from repro.parallel import Executor

STRESS_WORKERS = 4  # keep >= 4: the join needs real contention


# ---------------------------------------------------------------------------
# join race, with nested runs from the chunks
# ---------------------------------------------------------------------------


def _nested_steps(ex, num_chunks, num_inner, counter, observed):
    """One step fanning out chunks that each run a nested step of their own.

    Every chunk and inner chunk bumps ``counter``; the next step records
    the count it observes.  The join must not let it start until every
    chunk, nested ones included, ran.
    """
    lock = threading.Lock()

    def bump():
        with lock:
            counter[0] += 1

    def chunk():
        bump()
        # a nested run on this chunk's thread, possibly a pool thread
        ex.run([(lambda: [bump for _ in range(num_inner)], "inner")])

    return [
        (lambda: [chunk for _ in range(num_chunks)], "fan"),
        (lambda: observed.append(counter[0]), "after-join"),
    ]


def test_nested_subflow_join_survives_high_contention():
    """A join that loses a chunk hangs; one that fires early undercounts."""
    num_chunks, num_inner, rounds = 24, 4, 25
    expected = num_chunks * (1 + num_inner)
    ex = Executor(STRESS_WORKERS)
    old_interval = sys.getswitchinterval()
    # Force thread switches at nearly every bytecode so chunks and the
    # join interleave as finely as the interpreter allows.
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(rounds):
            counter = [0]
            observed = []
            steps = _nested_steps(ex, num_chunks, num_inner, counter, observed)
            runner = threading.Thread(target=ex.run, args=(steps,), daemon=True)
            runner.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), (
                f"round {round_no}: run() hung -- the join lost a chunk "
                "under contention"
            )
            assert observed == [expected], (
                f"round {round_no}: next step started after "
                f"{observed} of {expected} chunks -- join fired early"
            )
            assert counter[0] == expected
    finally:
        sys.setswitchinterval(old_interval)
        ex.close()


def test_deeply_nested_subflows_join_once():
    """Runs nested five deep from chunks each join before returning."""
    depth, width = 5, 3
    counter = [0]
    lock = threading.Lock()
    ex = Executor(STRESS_WORKERS)

    def level(k):
        def chunk():
            with lock:
                counter[0] += 1
            if k < depth:
                ex.run([(lambda: [level(k + 1) for _ in range(1 if k else width)],
                         f"level {k}")])
        return chunk

    order = []
    try:
        ex.run([(lambda: [level(0)], "root"),
                (lambda: order.append(counter[0]), "after")])
    finally:
        ex.close()
    assert order == [1 + width * depth]


# ---------------------------------------------------------------------------
# order determinism
# ---------------------------------------------------------------------------


def _order_steps(log):
    def chunk(tag):
        return lambda: log.append(tag)

    def step(i):
        def body():
            log.append(f"s{i}")
            return [chunk(f"s{i}.c{j}") for j in range(3)]
        return body

    return [(step(i), f"s{i}") for i in range(4)]


EXPECTED_ORDER = [
    item for i in range(4) for item in (f"s{i}", f"s{i}.c0", f"s{i}.c1", f"s{i}.c2")
]


@pytest.mark.parametrize(
    "factory",
    [Executor, lambda: Executor(1)],
    ids=["sequential", "work-stealing-1"],  # historical ids: default, explicit 1
)
def test_subflow_children_run_in_spawn_order(factory):
    """Steps in list order, and each step's chunks in list order, at width 1."""
    log = []
    with factory() as ex:
        ex.run(_order_steps(log))
    assert log == EXPECTED_ORDER


def test_sequential_and_single_worker_observe_identical_order():
    """Width 1 sees one schedule; wider, only a step's chunks may reorder."""
    inline_log = []
    Executor().run(_order_steps(inline_log))
    assert inline_log == EXPECTED_ORDER
    wide_log = []
    with Executor(STRESS_WORKERS) as ex:
        ex.run(_order_steps(wide_log))
    for i in range(4):
        mine = wide_log[4 * i : 4 * i + 4]
        assert mine[0] == f"s{i}"
        assert sorted(mine[1:]) == [f"s{i}.c{j}" for j in range(3)]


# ---------------------------------------------------------------------------
# re-entrant / concurrent runs (the forked-session execution model)
# ---------------------------------------------------------------------------


def test_nested_run_from_worker_threads():
    """A run issued inside a chunk on a pool thread completes at width 2.

    The pool's one thread is busy running the outer chunk, so the inner
    run's submitted chunks would never start; the join cancels each one
    nobody started and runs it on the calling (pool) thread instead.
    """
    ex = Executor(2)
    on_pool = []
    pool_started = threading.Event()
    out = [None] * 12

    def outer(x):
        def run():
            if threading.current_thread().name.startswith("qtask-worker"):
                on_pool.append(x)
                pool_started.set()
            elif x == 0:  # hold the caller until the pool thread has a chunk
                pool_started.wait(10.0)
            inner = [0] * 6

            def put(y):
                def chunk():
                    inner[y] = y + x
                return chunk

            ex.run([(lambda: [put(y) for y in range(6)], f"inner {x}")])
            out[x] = sum(inner)
        return run

    runner = threading.Thread(
        target=ex.run, args=([(lambda: [outer(x) for x in range(12)], "outer")],))
    try:
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "a run issued from a pool thread hung"
    finally:
        ex.close()
    assert out == [sum(y + x for y in range(6)) for x in range(12)]
    assert on_pool, "no outer chunk ran on the pool thread"


def test_nested_run_propagates_exceptions():
    """A nested run's failure surfaces from the outer run, inner label kept."""
    ex = Executor(2)

    def inner(y):
        def chunk():
            if y == 3:
                raise RuntimeError("inner boom")
        return chunk

    def outer():
        ex.run([(lambda: [inner(y) for y in range(5)], "inner")])

    try:
        with pytest.raises(RuntimeError, match="inner boom") as err:
            ex.run([(lambda: [outer for _ in range(4)], "outer")])
    finally:
        ex.close()
    assert err.value.task_label == "inner"


def test_concurrent_runs_from_external_threads():
    """Independent step lists share one pool without interference."""
    ex = Executor(STRESS_WORKERS)
    results = {}
    errors = []

    def run_one(k):
        out = [None] * 50

        def put(x):
            def chunk():
                out[x] = x * k
            return chunk

        try:
            ex.run([(lambda: [put(x) for x in range(25)], "low"),
                    (lambda: [put(x) for x in range(25, 50)], "high")])
            results[k] = out
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
