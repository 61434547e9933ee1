"""Work-stealing scheduler: execution, stealing, error isolation."""

import sys
import threading
import time

import pytest

from repro.runtime import CounterRegistry, WorkStealingScheduler, when_all


@pytest.fixture
def fast_switching():
    """Shrink the GIL switch interval so thread races interleave densely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


class TestLifecycle:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(0)

    def test_context_manager_shuts_down(self):
        with WorkStealingScheduler(2) as s:
            assert s.submit(lambda: 1).get() == 1
        with pytest.raises(RuntimeError):
            s.post(lambda: None)

    def test_double_shutdown_is_safe(self):
        s = WorkStealingScheduler(1)
        s.shutdown()
        s.shutdown()

    def test_n_workers(self):
        with WorkStealingScheduler(3) as s:
            assert s.n_workers == 3


class TestExecution:
    def test_submit_returns_result(self):
        with WorkStealingScheduler(2) as s:
            assert s.submit(pow, 2, 10).get() == 1024

    def test_many_tasks_all_complete(self):
        with WorkStealingScheduler(4) as s:
            futs = [s.submit(lambda i=i: i * i) for i in range(300)]
            total = sum(f.get() for f in futs)
        assert total == sum(i * i for i in range(300))

    def test_parallel_execution_uses_multiple_threads(self):
        seen = set()
        barrier = threading.Barrier(3, timeout=5.0)

        def task():
            seen.add(threading.get_ident())
            barrier.wait()

        with WorkStealingScheduler(3) as s:
            futs = [s.submit(task) for _ in range(3)]
            when_all(futs).get(timeout=5.0)
        assert len(seen) == 3

    def test_nested_submission(self):
        with WorkStealingScheduler(2) as s:
            def outer():
                inner = [s.submit(lambda i=i: i) for i in range(10)]
                return sum(f.get() for f in inner)

            assert s.submit(outer).get() == 45

    def test_wait_idle(self):
        with WorkStealingScheduler(2) as s:
            for _ in range(50):
                s.post(lambda: time.sleep(0.001))
            assert s.wait_idle(timeout=10.0)

    def test_recursive_fanout_via_continuations(self):
        """Task trees compose through futures (continuation style, not
        blocking waits — blocking a worker inside a task on a child task's
        future can exhaust the pool, unlike HPX's suspendable threads)."""
        from repro.runtime import dataflow, when_all

        with WorkStealingScheduler(4) as s:
            def spawn_tree(depth):
                if depth == 0:
                    return s.submit(lambda: 1)
                kids = [spawn_tree(depth - 1) for _ in range(2)]
                return dataflow(
                    lambda a, b: a + b, *kids, executor=s.post)

            assert spawn_tree(6).get(timeout=30.0) == 64
            assert s.stats.executed >= 2 ** 6


class TestErrors:
    def test_submit_error_goes_to_future(self):
        with WorkStealingScheduler(2) as s:
            f = s.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                f.get()
            # a failed task must not kill the worker
            assert s.submit(lambda: "alive").get() == "alive"

    def test_posted_error_not_fatal(self):
        with WorkStealingScheduler(1) as s:
            s.post(lambda: 1 / 0)
            assert s.wait_idle(timeout=5.0)
            assert s.stats.executed == 1
            assert s.submit(lambda: 3).get() == 3


class TestShutdownRace:
    """Regression: a post racing shutdown() must execute or raise — never
    land behind the shutdown sentinels and be silently dropped."""

    def test_post_racing_shutdown_never_drops_tasks(self, fast_switching):
        for _ in range(60):
            s = WorkStealingScheduler(2)
            stop = threading.Event()
            accepted = [0] * 4

            def hammer(slot):
                # bursts with gaps, so the queue drains between bursts and
                # shutdown() can slip into the race window
                while not stop.is_set():
                    for _ in range(50):
                        try:
                            s.post(lambda: None)
                        except RuntimeError:
                            return
                        accepted[slot] += 1
                    time.sleep(0.001)

            posters = [threading.Thread(target=hammer, args=(i,))
                       for i in range(len(accepted))]
            for t in posters:
                t.start()
            time.sleep(0.004)
            s.shutdown()
            stop.set()
            for t in posters:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in posters)
            # every accepted post ran; every rejected one raised
            assert s.stats.posted == sum(accepted)
            assert s.stats.executed == s.stats.posted

    def test_draining_tasks_may_still_post(self):
        """Continuations spawned by tasks caught in the drain are accepted."""
        s = WorkStealingScheduler(2)
        ran = threading.Event()

        def parent():
            time.sleep(0.01)
            s.post(lambda: ran.set())  # posted from a worker mid-drain

        s.post(parent)
        s.shutdown()
        assert ran.wait(timeout=5.0)
        assert s.stats.executed == s.stats.posted == 2


class TestStress:
    def test_concurrent_post_steal_shutdown_loses_nothing(self, fast_switching):
        """Hammer post (external + nested) against steal + shutdown; every
        accepted task must execute exactly once."""
        for _ in range(8):
            s = WorkStealingScheduler(4)
            ran = [0]
            lock = threading.Lock()

            def work():
                with lock:
                    ran[0] += 1

            def nested():
                with lock:
                    ran[0] += 1
                try:
                    s.post(work)  # racing the drain: accept and reject both fine
                except RuntimeError:
                    pass

            start = threading.Event()

            def hammer():
                start.wait()
                i = 0
                while True:
                    try:
                        s.post(nested if i % 3 == 0 else work)
                    except RuntimeError:
                        return
                    i += 1

            posters = [threading.Thread(target=hammer) for _ in range(3)]
            for t in posters:
                t.start()
            start.set()
            time.sleep(0.005)
            s.shutdown()
            for t in posters:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in posters)
            assert s.stats.executed == s.stats.posted
            assert ran[0] == s.stats.executed


class TestIdleSignaling:
    def test_idle_workers_block_instead_of_polling(self):
        """Perf fix: idle workers sleep on the condition until post()
        signals them; a 1 ms poll would log ~100 sleeps/worker here."""
        with WorkStealingScheduler(4) as s:
            futs = [s.submit(lambda: None) for _ in range(16)]
            when_all(futs).get(timeout=5.0)
            assert s.wait_idle(timeout=5.0)
            before = s.stats.idle_sleeps
            time.sleep(0.4)
            after = s.stats.idle_sleeps
            # at most one settling sleep + one fallback wakeup per worker
            assert after - before <= 2 * s.n_workers
            # and the new counter is visible through the registry
            reg = CounterRegistry()
            s.publish_counters(reg)
            assert reg.value("/threads/idle-rate") <= 1.0
            assert reg.value("/threads/executed") >= 16

    def test_posts_wake_sleeping_workers_promptly(self):
        with WorkStealingScheduler(2) as s:
            s.wait_idle(timeout=5.0)
            time.sleep(0.05)  # both workers asleep on the condition
            t0 = time.perf_counter()
            assert s.submit(lambda: "pong").get(timeout=5.0) == "pong"
            # far below the 0.5 s fallback timeout: a real wakeup happened
            assert time.perf_counter() - t0 < 0.3


class TestCounters:
    def test_publish_counters_names(self):
        with WorkStealingScheduler(2) as s:
            futs = [s.submit(lambda: None) for _ in range(10)]
            when_all(futs).get(timeout=5.0)
            s.wait_idle(timeout=5.0)
            reg = CounterRegistry()
            s.publish_counters(reg)
        names = set(reg.names())
        for expect in ("/threads/executed", "/threads/posted",
                       "/threads/stolen", "/threads/idle-sleeps",
                       "/threads/idle-rate", "/threads/steal-rate",
                       "/threads/worker/0/executed",
                       "/threads/worker/1/executed"):
            assert expect in names
        assert reg.value("/threads/executed") == \
            reg.value("/threads/worker/0/executed") + \
            reg.value("/threads/worker/1/executed")


class TestStats:
    def test_counts_posted_and_executed(self):
        with WorkStealingScheduler(2) as s:
            futs = [s.submit(lambda: None) for _ in range(20)]
            when_all(futs).get(timeout=5.0)
            s.wait_idle(timeout=5.0)
            snap = s.stats.snapshot()
        assert snap["posted"] >= 20
        assert snap["executed"] >= 20
        assert sum(snap["per_worker"]) == snap["executed"]
