"""Planted data races for the happens-before detector.

One fixture per hazard class the detector must catch (write-write on a
shared workspace buffer, read-write across an un-awaited future, a
channel-generation skip, aggregation-slot overlap, migrate-vs-halo),
each asserting an actionable two-access report; plus false-positive
guards for the legitimate patterns the runtime relies on (double-
buffered halos, ``_pool_out`` slot reuse, successive stream launches)
that must stay silent.

Thread joins are deliberately *not* a happens-before edge here — the
detector models only the runtime's synchronization vocabulary — so the
planted fixtures are deterministic: a join serializes the accesses in
time, but without a future/channel/stream edge they are still unordered
to the detector, exactly like the schedule CI never sees.
"""

import threading
import time

import numpy as np
import pytest

from repro.runtime.agas import AgasRuntime, Component
from repro.runtime.channel import Channel
from repro.runtime.cuda import CudaDevice, StreamPool
from repro.runtime.future import Promise, when_all
from repro.runtime.scheduler import WorkStealingScheduler
from repro import sanitize
from repro.sanitize import racecheck


def on_thread(fn, name):
    """Run ``fn`` to completion on a named thread (join is NOT an HB edge)."""
    t = threading.Thread(target=fn, name=name)
    t.start()
    t.join()


class _Comp(Component):
    pass


# -- planted races: one per hazard class ---------------------------------------


class TestPlantedRaces:
    def test_write_write_on_shared_workspace(self, san):
        """Two tasks scribble on the same scratch buffer, no sync at all."""
        buf = np.zeros(32)
        with san.scope() as caught:
            on_thread(lambda: racecheck.access(buf, "w", owner="ws/flux"),
                      "worker-a")
            on_thread(lambda: racecheck.access(buf, "w", owner="ws/flux"),
                      "worker-b")
        assert [f.kind for f in caught] == ["data-race"]
        f = caught[0]
        # the report is actionable: buffer label, both sites, both threads
        assert "ws/flux" in f.message
        assert "worker-a" in f.details["prior_access"]
        assert "worker-b" in f.details["current_access"]
        assert "test_racecheck.py" in f.details["prior_access"]
        assert "test_racecheck.py" in f.details["current_access"]

    def test_read_write_across_unawaited_future(self, san):
        """Consumer reads the producer's output without awaiting its future."""
        buf = np.zeros(8)
        p = Promise()

        def producer():
            racecheck.access(buf, "w", owner="fut/out")
            buf[...] = 1.0
            p.set_value(None)

        with san.scope() as caught:
            on_thread(producer, "producer")
            # BUG: p.get_future().get() is missing — the read is unordered
            racecheck.access(buf, "r", owner="fut/out")
        assert [f.kind for f in caught] == ["data-race"]
        f = caught[0]
        assert "read" in f.details["current_access"]
        assert "write" in f.details["prior_access"]

    def test_channel_generation_skip(self, san):
        """Reading a halo payload having only consumed an older generation."""
        ch = Channel("halo")
        buf = np.zeros(8)

        def producer():
            racecheck.access(buf, "w", owner="halo/payload")
            ch.set("g0", generation=0)
            racecheck.access(buf, "w", owner="halo/payload")
            ch.set("g1", generation=1)

        with san.scope() as caught:
            on_thread(producer, "producer")
            ch.get(generation=0).get()
            # BUG: only generation 0 was consumed; the generation-1
            # overwrite of the payload is unordered with this read
            racecheck.access(buf, "r", owner="halo/payload")
        assert [f.kind for f in caught] == ["data-race"]
        assert "halo/payload" in caught[0].message

    def test_aggregation_slot_overlap(self, san):
        """Two aggregation slots share one output region (same slot index)."""
        out = np.zeros(64)

        def fill(tag):
            # both "slots" resolve to region 3 of the same pool buffer —
            # an indexing bug in the slot allocator
            racecheck.access(out, "w", owner="agg/slot-buffer", region=3)

        with san.scope() as caught:
            on_thread(lambda: fill("a"), "agg-worker-a")
            on_thread(lambda: fill("b"), "agg-worker-b")
        assert [f.kind for f in caught] == ["data-race"]
        assert "agg/slot-buffer" in caught[0].message

    def test_migrate_vs_halo_read(self, san):
        """Halo path reads component state without resolving the gid after
        a migration committed (resolve is the acquire edge)."""
        agas = AgasRuntime(n_localities=2)
        comp = _Comp()
        buf = np.zeros(8)
        gid = agas.register(comp, 0)

        def migrator():
            racecheck.access(buf, "w", owner="agas/component-state")
            agas.migrate(gid, 1)

        with san.scope() as caught:
            on_thread(migrator, "migrator")
            # BUG: no agas.resolve(gid) before touching the state
            racecheck.access(buf, "r", owner="agas/component-state")
        assert [f.kind for f in caught] == ["data-race"]

    def test_migrate_then_resolve_is_ordered(self, san):
        """Same shape as above, with the resolve edge: silent."""
        agas = AgasRuntime(n_localities=2)
        comp = _Comp()
        buf = np.zeros(8)
        gid = agas.register(comp, 0)

        def migrator():
            racecheck.access(buf, "w", owner="agas/component-state")
            agas.migrate(gid, 1)

        on_thread(migrator, "migrator")
        agas.resolve(gid)
        racecheck.access(buf, "r", owner="agas/component-state")
        assert san.finding_count() == 0


# -- the sync vocabulary orders the same shapes --------------------------------


class TestSyncVocabulary:
    def test_awaited_future_orders_the_read(self, san):
        buf = np.zeros(8)
        p = Promise()

        def producer():
            racecheck.access(buf, "w", owner="fut/out")
            p.set_value(None)

        on_thread(producer, "producer")
        p.get_future().get()
        racecheck.access(buf, "r", owner="fut/out")
        assert san.finding_count() == 0

    def test_consumer_woken_before_the_resolver_returns_is_ordered(
            self, san, monkeypatch):
        """A consumer blocked in ``get`` wakes the moment the state turns
        ready, possibly before the resolving thread runs another line.
        The release edge must already be published by then.  This forces
        that interleaving: the resolver's publish of this future's edge
        stalls until the consumer has read the buffer (or 0.2 s passed).
        An edge published after the state flip leaves the read unordered
        with the producer's write — a false race, the one that leaked
        from dense-interleaving runs of the slab tasks."""
        buf = np.zeros(8)
        p = Promise()
        fut = p.get_future()
        consumed = threading.Event()
        send = racecheck.send

        def stalled_send(key):
            if key == ("fut", fut._san_seq):
                consumed.wait(0.2)
            send(key)

        monkeypatch.setattr(racecheck, "send", stalled_send)

        def consumer():
            fut.get(timeout=5.0)
            racecheck.access(buf, "r", owner="fut/out")
            consumed.set()

        def producer():
            racecheck.access(buf, "w", owner="fut/out")
            p.set_value(None)

        reader = threading.Thread(target=consumer, name="consumer")
        reader.start()
        on_thread(producer, "producer")
        reader.join(timeout=5.0)
        assert consumed.is_set()
        assert san.finding_count() == 0

    def test_consumed_generation_orders_the_read(self, san):
        ch = Channel("halo-ok")
        buf = np.zeros(8)

        def producer():
            racecheck.access(buf, "w", owner="halo/payload")
            ch.set("g0", generation=0)
            racecheck.access(buf, "w", owner="halo/payload")
            ch.set("g1", generation=1)

        on_thread(producer, "producer")
        ch.get(generation=0).get()
        ch.get(generation=1).get()
        racecheck.access(buf, "r", owner="halo/payload")
        assert san.finding_count() == 0

    def test_when_all_inherits_from_every_input(self, san):
        """The barrier join orders the continuation after ALL producers,
        not just the last resolver."""
        bufs = [np.zeros(4) for _ in range(3)]
        promises = [Promise() for _ in range(3)]

        def producer(i):
            racecheck.access(bufs[i], "w", owner=f"wa/buf{i}")
            promises[i].set_value(i)

        for i in range(3):
            on_thread(lambda i=i: producer(i), f"producer-{i}")
        when_all([p.get_future() for p in promises]).get()
        for i in range(3):
            racecheck.access(bufs[i], "r", owner=f"wa/buf{i}")
        assert san.finding_count() == 0

    def test_scheduler_drain_orders_task_writes(self, san):
        """wait_idle is a barrier: task writes are visible afterwards."""
        buf = np.zeros(16)
        with WorkStealingScheduler(2) as sched:
            sched.post_batch([
                (lambda i=i: racecheck.access(buf, "w", owner="sched/out",
                                              region=i))
                for i in range(4)
            ])
            sched.wait_idle()
            for i in range(4):
                racecheck.access(buf, "r", owner="sched/out", region=i)
        assert san.finding_count() == 0

    def test_launch_orders_successive_launchers(self, san):
        """Scratch a launcher wrote before its launch is safely reusable by
        the next launcher of the same stream: launcher A -> device worker
        -> kernel completion -> launcher B's launch is the only edge."""
        buf = np.zeros(8)
        with CudaDevice(n_streams=1, n_workers=1, name="launch-hb") as gpu:
            pool = StreamPool([gpu])
            stream = gpu.streams[0]

            def fill_and_launch():
                racecheck.access(buf, "w", owner="launch/scratch")
                assert pool.launch([(lambda: None, ())]) is not None

            def launch_and_reuse():
                assert pool.launch([(lambda: None, ())]) is not None
                racecheck.access(buf, "w", owner="launch/scratch")

            on_thread(fill_and_launch, "launcher-a")
            while stream.busy():    # no HB edge: wait for the hand-back
                time.sleep(0.001)
            on_thread(launch_and_reuse, "launcher-b")
            gpu.synchronize()
        assert san.finding_count() == 0

    def test_successive_launches_on_one_stream_are_ordered(self, san):
        """Two launches on one stream whose kernels write one buffer: the
        only edge between them is the first kernel's completion -> the
        second launch, which must publish before the second kernel runs
        (on whichever device worker picks it up)."""
        buf = np.zeros(8)
        with CudaDevice(n_streams=1, n_workers=2, name="stream-hb") as gpu:
            pool = StreamPool([gpu])
            stream = gpu.streams[0]

            def kernel():
                racecheck.access(buf, "w", owner="stream/out")

            def launcher():
                fut = pool.launch([(kernel, ())])
                assert fut is not None
                fut.get(timeout=5.0)

            on_thread(launcher, "launcher-a")
            while stream.busy():    # no HB edge: wait for the hand-back
                time.sleep(0.001)
            on_thread(launcher, "launcher-b")
        assert san.finding_count() == 0


# -- false-positive guards -----------------------------------------------------


class TestFalsePositiveGuards:
    def test_double_buffered_halo_stays_silent(self, san):
        """The real halo protocol: writer fills phase N while the reader
        drains phase N-1, with a data channel forward and an ack channel
        back before a buffer is rewritten.  Must not be flagged."""
        bufs = [np.zeros(8), np.zeros(8)]
        data = Channel("halo-data")
        ack = Channel("halo-ack")
        steps = 6

        def producer():
            for step in range(steps):
                if step >= 2:
                    # the buffer being rewritten was acked two steps ago
                    ack.get(generation=step - 2).get()
                racecheck.access(bufs[step % 2], "w",
                                 owner="halo/double-buffer")
                data.set(step, generation=step)

        t = threading.Thread(target=producer, name="halo-writer")
        t.start()
        for step in range(steps):
            data.get(generation=step).get()
            racecheck.access(bufs[step % 2], "r", owner="halo/double-buffer")
            ack.set(step, generation=step)
        t.join()
        assert san.finding_count() == 0

    def test_pool_slot_reuse_through_redispatch_stays_silent(self, san):
        """_pool_out-style reuse: each chunk's outputs are fully consumed
        (future get) before the slot is re-dispatched; the get + next post
        edges order every write against the previous reader."""
        buf = np.zeros(16)
        with WorkStealingScheduler(2) as sched:
            for _ in range(4):
                p = Promise()

                def task(p=p):
                    racecheck.access(buf, "w", owner="fmm/pair-out")
                    p.set_value(None)

                sched.post(task)
                p.get_future().get()
                racecheck.access(buf, "r", owner="fmm/pair-out")
        assert san.finding_count() == 0

    def test_region_discriminator_partitions_one_allocation(self, san):
        """Distinct slots of one pool allocation are declared independent
        via region=: concurrent writes to different slots are fine,
        the same slot still conflicts."""
        buf = np.zeros(64)
        on_thread(lambda: racecheck.access(buf, "w", owner="pool", region=0),
                  "slot-a")
        on_thread(lambda: racecheck.access(buf, "w", owner="pool", region=1),
                  "slot-b")
        assert san.finding_count() == 0
        with san.scope() as caught:
            on_thread(lambda: racecheck.access(buf, "w", owner="pool",
                                               region=1), "slot-c")
        assert [f.kind for f in caught] == ["data-race"]

    def test_concurrent_reads_never_race(self, san):
        buf = np.zeros(8)
        for i in range(3):
            on_thread(lambda: racecheck.access(buf, "r", owner="ro"),
                      f"reader-{i}")
        assert san.finding_count() == 0

    def test_read_share_promotion_still_catches_the_write(self, san):
        """After two concurrent readers promote the shadow to a read map,
        an unordered write must still be reported against a reader."""
        buf = np.zeros(8)
        on_thread(lambda: racecheck.access(buf, "r", owner="shared"),
                  "reader-a")
        on_thread(lambda: racecheck.access(buf, "r", owner="shared"),
                  "reader-b")
        with san.scope() as caught:
            racecheck.access(buf, "w", owner="shared")
        assert [f.kind for f in caught] == ["data-race"]
        assert "read" in caught[0].details["prior_access"]


# -- mechanics -----------------------------------------------------------------


class TestMechanics:
    def test_views_of_one_allocation_alias(self, san):
        base = np.zeros(32)
        view = base[:]
        with san.scope() as caught:
            on_thread(lambda: racecheck.access(base, "w", owner="aliased"),
                      "via-base")
            racecheck.access(view, "w", owner="aliased")
        assert [f.kind for f in caught] == ["data-race"]

    def test_duplicate_reports_are_deduped(self, san):
        buf = np.zeros(8)
        with san.scope() as caught:
            on_thread(lambda: racecheck.access(buf, "w", owner="dup",
                                               site="a.py:1 in w"),
                      "t-a")
            racecheck.access(buf, "w", owner="dup", site="b.py:2 in w")
            racecheck.access(buf, "w", owner="dup", site="b.py:2 in w")
        assert len(caught) == 1

    def test_disabled_detector_records_nothing(self, san):
        san.disable()
        try:
            before = racecheck.stats()
            buf = np.zeros(8)
            racecheck.access(buf, "w", owner="off")
            racecheck.send(("k",))
            racecheck.recv(("k",))
            snap = racecheck.stats()
            assert snap["accesses"] == before["accesses"]
            assert snap["buffers"] == before["buffers"]
        finally:
            san.enable()

    def test_invalid_mode_rejected(self, san):
        with pytest.raises(ValueError, match="mode"):
            racecheck.access(np.zeros(2), "rw")

    def test_wrap_callback_frees_its_token(self, san):
        before = racecheck.stats()["sync_objects"]
        cb = racecheck.wrap_callback(None, lambda: 42)
        assert cb() == 42
        after = racecheck.stats()["sync_objects"]
        assert after <= before + 1  # one-shot token was popped on invoke

    def test_stats_and_counters_published(self, san):
        from repro.runtime.counters import CounterRegistry
        buf = np.zeros(8)
        racecheck.access(buf, "w", owner="counted")
        racecheck.send(("k",))
        reg = CounterRegistry()
        for path, value in sanitize.tallies().items():
            reg.set_gauge(path, value)
        snap = reg.snapshot()
        assert snap["/sanitize/race/accesses"] >= 1.0
        assert snap["/sanitize/race/hb-edges"] >= 1.0
        assert snap["/sanitize/race/races"] == 0.0
        assert snap["/sanitize/race/buffers-tracked"] >= 1.0

    def test_reset_drops_shadow_but_not_safety(self, san):
        buf = np.zeros(8)
        on_thread(lambda: racecheck.access(buf, "w", owner="pre"),
                  "pre-reset")
        racecheck.reset()
        assert racecheck.stats()["buffers"] == 0
        # post-reset accesses start from clean shadows: no stale report
        racecheck.access(buf, "w", owner="post")
        assert san.finding_count() == 0
