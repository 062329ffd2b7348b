"""Unit tests for the seeded fault-injection plans (``repro.core.faults``).

These cover the plan mechanics in isolation -- determinism, scripted
triggers, armed scoping, env parsing, cross-process pickling.  The
integration side (recovery layers actually surviving injected faults)
lives in ``test_fault_recovery.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import faults
from repro.core.faults import FAULT_SITES, FaultInjected, FaultPlan


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Restore whatever plan (chaos-mode or none) surrounded each test."""
    previous = faults.install(None)
    yield
    faults.install(previous)


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan(probabilities={"kernel.walk": 0.5})
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan(script=[("not.a.site", 1)])


def test_bad_probability_and_occurrence_rejected():
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(probability=1.5)
    with pytest.raises(ValueError, match="occurrence"):
        FaultPlan(script=[("kernel.run", 0)])


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_every_probability_is_range_checked(p):
    """A per-site override is checked like the default: NaN is rejected
    too, or a plan would install that never fires."""
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(probability=p)
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(probabilities={"kernel.run": p})


def test_should_fire_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan().should_fire("bogus")


# ---------------------------------------------------------------------------
# determinism / replay
# ---------------------------------------------------------------------------


def test_probabilistic_stream_is_deterministic_per_seed():
    a = FaultPlan(seed=42, probability=0.3)
    b = FaultPlan(seed=42, probability=0.3)
    seq_a = [a.should_fire("kernel.run")[0] for _ in range(200)]
    seq_b = [b.should_fire("kernel.run")[0] for _ in range(200)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    # a different seed produces a different schedule
    c = FaultPlan(seed=43, probability=0.3)
    seq_c = [c.should_fire("kernel.run")[0] for _ in range(200)]
    assert seq_c != seq_a


def test_site_streams_are_independent():
    """Draining one site's stream does not shift another site's draws."""
    lone = FaultPlan(seed=7, probability=0.25)
    mixed = FaultPlan(seed=7, probability=0.25)
    expected = [lone.should_fire("cow.publish")[0] for _ in range(100)]
    got = []
    for _ in range(100):
        mixed.should_fire("kernel.run")  # interleave noise on another site
        got.append(mixed.should_fire("cow.publish")[0])
    assert got == expected


def test_scripted_trigger_fires_on_exact_occurrence():
    plan = FaultPlan(script=[("cow.publish", 3), ("cow.publish", 5)])
    decisions = [plan.should_fire("cow.publish") for _ in range(6)]
    assert [d[0] for d in decisions] == [False, False, True, False, True, False]
    assert [d[1] for d in decisions] == [1, 2, 3, 4, 5, 6]
    # other sites are untouched
    assert plan.should_fire("kernel.run") == (False, 1)


def test_scripted_hits_do_not_shift_probabilistic_draws():
    plain = FaultPlan(seed=5, probability=0.4)
    scripted = FaultPlan(seed=5, probability=0.4, script=[("cow.publish", 2)])
    base = [plain.should_fire("cow.publish")[0] for _ in range(50)]
    with_script = [scripted.should_fire("cow.publish")[0] for _ in range(50)]
    assert with_script[1] is True
    for i in range(50):
        if i != 1:
            assert with_script[i] == base[i]


def test_reset_rewinds_counters_and_streams():
    plan = FaultPlan(seed=11, probability=0.5)
    first = [plan.should_fire("cow.publish")[0] for _ in range(30)]
    assert plan.stats()["cow.publish"]["calls"] == 30
    plan.reset()
    assert plan.stats() == {}
    assert plan.total_injected() == 0
    replay = [plan.should_fire("cow.publish")[0] for _ in range(30)]
    assert replay == first


def test_stats_counts_calls_and_injections():
    plan = FaultPlan(script=[("kernel.run", 1), ("kernel.run", 2)])
    for _ in range(4):
        try:
            plan.fire("kernel.run")
        except FaultInjected:
            pass
    stats = plan.stats()
    assert stats == {"kernel.run": {"calls": 4, "injected": 2}}
    assert plan.total_injected() == 2


# ---------------------------------------------------------------------------
# armed scope + global install
# ---------------------------------------------------------------------------


def test_fire_is_inert_outside_armed_scope():
    faults.install(FaultPlan(probability=1.0))
    # not armed: never raises, and the stream is not even consulted
    faults.fire("kernel.run")
    assert faults.active_plan().stats() == {}
    with faults.armed():
        with pytest.raises(FaultInjected) as exc_info:
            faults.fire("kernel.run")
    assert exc_info.value.site == "kernel.run"
    assert exc_info.value.occurrence == 1
    # scope exited: inert again
    faults.fire("kernel.run")


def test_armed_scope_is_reentrant():
    assert not faults.is_armed()
    with faults.armed():
        assert faults.is_armed()
        with faults.armed():
            assert faults.is_armed()
        assert faults.is_armed()
    assert not faults.is_armed()


def test_install_returns_previous_plan():
    first = FaultPlan(seed=1)
    second = FaultPlan(seed=2)
    assert faults.install(first) is None
    assert faults.install(second) is first
    faults.uninstall()
    assert faults.active_plan() is None


def test_fire_with_no_plan_is_noop_even_when_armed():
    faults.uninstall()
    with faults.armed():
        faults.fire("kernel.run")  # must not raise


# ---------------------------------------------------------------------------
# pickling
# ---------------------------------------------------------------------------


def test_fault_injected_pickles_faithfully():
    """Site and occurrence survive a pickle round trip."""
    original = FaultInjected("cow.publish", 7)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, FaultInjected)
    assert clone.site == "cow.publish"
    assert clone.occurrence == 7
    assert str(clone) == str(original)


# ---------------------------------------------------------------------------
# environment parsing (the chaos CI entry point)
# ---------------------------------------------------------------------------


def test_plan_from_env_disabled_without_probability():
    assert faults.plan_from_env({}) is None
    assert faults.plan_from_env({"QTASK_FAULT_P": ""}) is None
    assert faults.plan_from_env({"QTASK_FAULT_P": "0"}) is None


def test_plan_from_env_excludes_worker_kill_by_default():
    """Historical id: no site is excluded by default, because the one that
    was (a pool worker SIGKILLing itself) left with the pool sites.  Two
    sites are left, both inside a chunk: the executor's is gone too."""
    plan = faults.plan_from_env({"QTASK_FAULT_P": "1.0", "QTASK_FAULT_SEED": "9"})
    assert plan is not None
    assert plan.seed == 9
    assert FAULT_SITES == ("kernel.run", "cow.publish")
    for site in FAULT_SITES:
        fired, _ = plan.should_fire(site)
        assert fired
    for gone in ("pool.worker.kill", "store.shard", "executor.task"):
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.should_fire(gone)


def test_plan_from_env_site_whitelist():
    plan = faults.plan_from_env(
        {"QTASK_FAULT_P": "1.0", "QTASK_FAULT_SITES": "cow.publish, "}
    )
    assert plan.should_fire("cow.publish")[0]
    assert not plan.should_fire("kernel.run")[0]
    with pytest.raises(ValueError, match="unknown fault site"):
        faults.plan_from_env(
            {"QTASK_FAULT_P": "1.0", "QTASK_FAULT_SITES": "executor.task"}
        )


@pytest.mark.parametrize("raw", ["1.5", "nan"])
@pytest.mark.parametrize("sites", [None, "kernel.run"])
def test_plan_from_env_range_checks_every_probability(raw, sites):
    """An out-of-range or NaN ``QTASK_FAULT_P`` raises with or without a
    site list (with one it used to install, and ``nan`` never fired)."""
    env = {"QTASK_FAULT_P": raw}
    if sites is not None:
        env["QTASK_FAULT_SITES"] = sites
    with pytest.raises(ValueError, match="probability"):
        faults.plan_from_env(env)


def test_fault_sites_registry_is_exhaustive():
    """The documented site tuple is what FaultPlan actually keys on."""
    plan = FaultPlan(probability=1.0)
    for site in FAULT_SITES:
        fired, occurrence = plan.should_fire(site)
        assert fired and occurrence == 1
