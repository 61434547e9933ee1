"""Adversarial tests for the future-graph watcher (injected deadlocks)."""

import threading
import time

import pytest

from repro.runtime.future import Promise, async_execute, dataflow, when_all
from repro.runtime.scheduler import WorkStealingScheduler


def test_unwrap_wait_cycle_reported(san):
    """A then-callback returning its own ancestor waits on itself."""
    p = Promise()
    with san.scope() as caught:
        holder = {}
        chained = p.get_future().then(lambda f: holder["result"])
        holder["result"] = chained
        p.set_value(1)  # unwrap wires chained <- chained: the cycle
    assert "wait-cycle" in [f.kind for f in caught]
    cycle = next(f for f in caught if f.kind == "wait-cycle")
    assert cycle.details["cycle_sites"]


def test_unwrap_cycle_through_intermediate(san):
    """Cycle via an intermediate future, not direct self-reference."""
    p = Promise()
    with san.scope() as caught:
        holder = {}
        a = p.get_future().then(lambda f: holder["b"])
        b = when_all([a]).then(lambda f: None)
        holder["b"] = b
        p.set_value(1)
    assert "wait-cycle" in [f.kind for f in caught]


def test_abandoned_future_reported_at_sweep(san):
    with san.scope() as caught:
        p = Promise()
        fut = p.get_future()  # producer "lost": never set
        found = san.sweep()
        assert [f.kind for f in found] == ["abandoned-future"]
        assert "test_futuregraph.py" in found[0].site
        del fut, p
    assert [f.kind for f in caught] == ["abandoned-future"]


def test_swallowed_exception_reported_at_sweep(san):
    with san.scope() as caught:
        p = Promise()
        fut = p.get_future()
        p.set_exception(ValueError("dropped on the floor"))
        found = san.sweep()
        assert [f.kind for f in found] == ["swallowed-exception"]
        assert "dropped on the floor" in found[0].message
        del fut
    assert [f.kind for f in caught] == ["swallowed-exception"]


def test_consumed_exception_is_clean(san):
    p = Promise()
    fut = p.get_future()
    p.set_exception(ValueError("seen"))
    with pytest.raises(ValueError):
        fut.get()
    assert san.sweep() == []
    assert san.finding_count() == 0


def test_resolved_graph_is_clean(san):
    with WorkStealingScheduler(2) as sched:
        futs = [sched.submit(lambda x=i: x * x) for i in range(20)]
        total = when_all(futs).then(lambda f: sum(x.get() for x in f.get()))
        combo = dataflow(lambda a, b: a + b, futs[0], futs[1])
        assert total.get() == sum(i * i for i in range(20))
        assert combo.get() == 1
    assert san.sweep() == []
    assert san.finding_count() == 0


def test_blocked_worker_reported(san):
    """A worker stuck in an unbounded get() past the stall timeout."""
    san.configure(stall_timeout=0.1)
    try:
        p = Promise()
        inner = p.get_future()
        with san.scope() as caught:
            with WorkStealingScheduler(1) as sched:
                fut = sched.submit(lambda: inner.get())  # unbounded, on a worker
                time.sleep(0.4)  # past the stall timeout
                p.set_value(7)
                assert fut.get(timeout=5.0) == 7
        assert "blocked-worker" in [f.kind for f in caught]
        blocked = next(f for f in caught if f.kind == "blocked-worker")
        assert blocked.details["waited"] == pytest.approx(0.1)
    finally:
        san.configure(stall_timeout=5.0)


def test_bounded_get_on_worker_is_clean(san):
    san.configure(stall_timeout=0.1)
    try:
        p = Promise()
        inner = p.get_future()
        threading.Timer(0.3, p.set_value, args=(3,)).start()
        with WorkStealingScheduler(1) as sched:
            fut = sched.submit(lambda: inner.get(timeout=5.0))
            assert fut.get(timeout=5.0) == 3
        assert san.finding_count() == 0
    finally:
        san.configure(stall_timeout=5.0)


@pytest.mark.sanitize_tolerated
def test_tallies_count_live_findings_by_kind(san):
    """``sanitize.tallies()`` is plain data: live findings by kind; the
    ones diverted into a scope are not counted."""
    with san.scope():
        san.record("abandoned-future", "diverted")
    assert san.tallies()["/sanitize/findings"] == 0.0
    san.record("abandoned-future", "kept")
    san.record("wait-cycle", "kept too")
    tallies = san.tallies()
    assert tallies["/sanitize/findings"] == 2.0
    assert tallies["/sanitize/abandoned-future"] == 1.0
    assert tallies["/sanitize/wait-cycle"] == 1.0
    assert tallies["/sanitize/enabled"] == 1.0


def test_async_execute_unwrap_is_tracked(san):
    """Legitimate unwrapping resolves and leaves a clean graph."""
    out = async_execute(lambda: async_execute(lambda: 41).then(
        lambda f: f.get() + 1))
    assert out.get() == 42
    assert san.sweep() == []
