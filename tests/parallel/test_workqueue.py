"""The executor's chunk queue: who runs a step's chunks, and when.

Historical module: the work-stealing deques it covered are gone.  The ids
(pinned by the test floor) now cover the stdlib thread pool the caller
shares a step's chunks with: the caller runs the first chunk, takes back
every chunk no pool thread has started (``Future.cancel()``), then waits.
"""

import threading
import time

import pytest

from repro.parallel import Executor

WAIT = 10.0


def _subflow(width, chunks):
    """One step fanning out ``chunks``, on a fresh ``width``-wide executor."""
    with Executor(width) as ex:
        ex.run([(lambda: list(chunks), "step")])


def _here():
    return threading.current_thread().name


class TestWorkDeque:
    def test_owner_pop_is_lifo(self):
        """Width 1 runs a step's chunks in list order, then the next step."""
        log = []
        with Executor(1) as ex:
            ex.run([(lambda: [lambda i=i: log.append(i) for i in range(3)], "a"),
                    (lambda: [lambda: log.append("b")], "b")])
        assert log == [0, 1, 2, "b"]

    def test_thief_steal_is_fifo(self):
        """The pool thread takes submitted chunks oldest first."""
        log, done = [], threading.Event()

        def child(i):
            return lambda: log.append(i) or (i == 6 and done.set())

        _subflow(2, [lambda: done.wait(WAIT)] + [child(i) for i in range(1, 7)])
        assert log == [1, 2, 3, 4, 5, 6]

    def test_empty_pop_and_steal(self):
        """An empty step submits nothing and starts no thread."""
        with Executor(2) as ex:
            ex.run([(lambda: [], "empty")])
            assert ex._pool._threads == set()

    def test_mixed_ends(self):
        """Caller and pool thread split one step's chunks; each runs once."""
        started, taken_back, ran = threading.Event(), threading.Event(), {}

        def child(i, after=None, then=None):
            def run():
                ran[i] = _here()
                if then is not None:
                    then.set()
                assert after is None or after.wait(WAIT)
            return run

        _subflow(2, [child(0, after=started), child(1, then=started, after=taken_back),
                     child(2, then=taken_back), *(child(i) for i in range(3, 8))])
        assert sorted(ran) == list(range(8))
        assert ran[0] == ran[2] == _here() and ran[1].startswith("qtask-worker")


class TestStealScheduler:
    def test_concurrent_drain_is_exact(self):
        """Runs from several threads on one executor lose and repeat nothing."""
        counts, lock = [0] * 400, threading.Lock()

        def bump(i):
            def run():
                with lock:
                    counts[i] += 1
            return run

        with Executor(2) as ex:
            threads = [threading.Thread(target=ex.run, args=(
                [(lambda k=k: [bump(i) for i in range(k, 400, 4)], f"drain {k}")],))
                for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT)
        assert not any(t.is_alive() for t in threads)
        assert counts == [1] * 400

    def test_external_push_lands_in_overflow(self):
        """A run from a thread outside the pool runs its first chunk itself."""
        seen = []
        outsider = threading.Thread(
            target=_subflow, args=(2, [lambda: seen.append(_here()), lambda: None]),
            name="outsider")
        outsider.start()
        outsider.join(WAIT)
        assert not outsider.is_alive() and seen == ["outsider"]

    def test_outstanding_counts_everything(self):
        """A failed join returns only after the chunks already running end."""
        started, finished = threading.Event(), []

        def boom():
            assert started.wait(WAIT)
            raise ValueError("boom")

        def slow():
            started.set()
            time.sleep(0.05)
            finished.append(True)

        with pytest.raises(ValueError, match="boom"):
            _subflow(2, [boom, slow])
        assert finished == [True]

    def test_own_deque_preferred(self):
        """The caller runs a step's first chunk on its own thread."""
        first = []
        for _ in range(20):
            _subflow(4, [lambda: first.append(_here()), lambda: time.sleep(0.001)])
        assert set(first) == {_here()}

    def test_rng_state_advances(self):
        """Victim selection is gone; consecutive runs reuse the pool's thread."""
        names = set()
        with Executor(2) as ex:
            for _ in range(10):
                ex.run([(lambda: [lambda: time.sleep(0.005),
                                  lambda: names.add(_here())], "step")])
        assert len({n for n in names if n.startswith("qtask-worker")}) <= 1

    def test_single_worker_never_steals(self):
        """Width 1 starts no thread: every chunk runs on the caller."""
        seen = set()
        _subflow(1, [lambda: seen.add(_here())] * 8)
        assert seen == {_here()}

    def test_steal_from_victim(self):
        """While the caller is busy, the idle pool thread takes a chunk."""
        taken, where = threading.Event(), []
        _subflow(2, [lambda: taken.wait(WAIT),
                     lambda: where.append(_here()) or taken.set()])
        assert where and where[0].startswith("qtask-worker")
