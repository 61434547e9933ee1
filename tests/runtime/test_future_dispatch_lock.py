"""Regression: future callbacks must never run under runtime locks.

The module-level ``_dispatch_lock`` in :mod:`repro.runtime.future` guards
the continuation tally; an earlier design held it (and the future's own
lock) across callback invocation, which inverts against every lock a
continuation may take — continuations legitimately complete other
futures, post to the scheduler, and touch channels.  The audit fixed the
invariant: every resolution path swaps the callback list out under the
lock, releases, and only then dispatches.  These tests pin that down by
observing the lockdep held-stack from inside real callbacks, for every
path that can invoke one.
"""

import pytest

from repro.runtime.future import (Promise, async_execute, make_ready_future,
                                  when_all)
from repro.runtime.scheduler import WorkStealingScheduler
from repro.sanitize import lockdep


def _observe(seen):
    """Callback recording the lock classes held at dispatch time."""
    def cb(fut):
        seen.append(list(lockdep.held_classes()))
    return cb


def test_no_locks_held_when_set_value_dispatches(san):
    seen = []
    p = Promise()
    p.get_future().then(_observe(seen))
    p.set_value(1)
    assert seen == [[]]
    assert san.finding_count() == 0


def test_no_locks_held_when_set_exception_dispatches(san):
    seen = []
    p = Promise()
    fut = p.get_future()
    fut.then(_observe(seen))
    p.set_exception(ValueError("x"))
    with pytest.raises(ValueError):
        fut.get()
    assert seen == [[]]
    assert san.finding_count() == 0


def test_no_locks_held_on_already_ready_then(san):
    seen = []
    make_ready_future(3).then(_observe(seen))
    assert seen == [[]]
    assert san.finding_count() == 0


def test_callback_may_resolve_other_futures(san):
    """A continuation completing another future must not self-deadlock."""
    p, q = Promise(), Promise()
    p.get_future().then(lambda f: q.set_value(f.get() + 1))
    out = q.get_future().then(lambda f: f.get() * 10)
    p.set_value(4)
    assert out.get(timeout=5.0) == 50
    assert san.finding_count() == 0


def test_no_locks_held_via_scheduler_executor(san):
    seen = []
    with WorkStealingScheduler(2) as sched:
        futs = [async_execute(lambda x=i: x, executor=sched.post)
                for i in range(8)]
        gathered = when_all(futs)
        gathered.then(_observe(seen))
        gathered.wait(timeout=5.0)
        sched.wait_idle(timeout=5.0)
    assert seen and all(held == [] for held in seen)
    assert san.finding_count() == 0


def test_dispatch_tally_still_counts(san):
    """The audited lock still does its actual job (the counter)."""
    from repro.runtime.future import continuations_dispatched
    before = continuations_dispatched()
    p = Promise()
    p.get_future().then(lambda f: None)
    p.set_value(0)
    assert continuations_dispatched() > before
