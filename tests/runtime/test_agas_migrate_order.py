"""Regression: racing migrations must deliver ``on_migrate`` in order.

The old ``AgasRuntime.migrate`` committed the home-table move under the
lock but invoked ``comp.on_migrate`` after dropping it, so two racing
migrations of the same gid could deliver their callbacks out of order —
the component ends up believing in a stale home.  The fixed runtime
queues notifications under the lock (per-gid FIFO) and drains them
serially, in commit order.
"""

import threading

import pytest

from repro.runtime.agas import AgasRuntime, Component


class _Recorder(Component):
    """Records (old, new) after an optional block on the first call."""

    def __init__(self, gate: threading.Event | None = None):
        super().__init__()
        self.calls: list[tuple[int, int]] = []
        self._gate = gate
        self._blocked_once = False

    def on_migrate(self, old_locality: int, new_locality: int) -> None:
        if self._gate is not None and not self._blocked_once:
            self._blocked_once = True
            assert self._gate.wait(timeout=5.0)
        self.calls.append((old_locality, new_locality))


class TestMigrationNotificationOrder:
    def test_racing_migrations_deliver_in_commit_order(self):
        """First mover's callback stalls; second mover's must still be
        delivered *after* it (the old code delivered it first)."""
        agas = AgasRuntime(n_localities=4)
        gate = threading.Event()
        comp = _Recorder(gate)
        gid = agas.register(comp, 0)

        t1 = threading.Thread(target=agas.migrate, args=(gid, 1))
        t1.start()
        # wait until t1 is inside the blocked callback
        deadline = threading.Event()
        for _ in range(500):
            if comp._blocked_once:
                break
            deadline.wait(0.01)
        assert comp._blocked_once

        agas.migrate(gid, 2)  # must queue behind t1's pending delivery
        gate.set()
        t1.join(timeout=5.0)
        assert not t1.is_alive()

        assert comp.calls == [(0, 1), (1, 2)]
        assert agas.resolve(gid)[1] == 2

    def test_evacuation_callbacks_share_the_fifo(self):
        """A migrate racing a ``fail_locality`` evacuation of the same
        gid must observe the evacuation's callback first."""
        agas = AgasRuntime(n_localities=4)
        gate = threading.Event()
        comp = _Recorder(gate)
        gid = agas.register(comp, 0)

        t1 = threading.Thread(target=agas.fail_locality, args=(0,))
        t1.start()
        for _ in range(500):
            if comp._blocked_once:
                break
            threading.Event().wait(0.01)
        assert comp._blocked_once

        # evacuation (round-robin) moved the gid to locality 1; race a
        # further migration while its callback is still in flight
        agas.migrate(gid, 3)
        gate.set()
        t1.join(timeout=5.0)
        assert not t1.is_alive()

        assert comp.calls == [(0, 1), (1, 3)]
        assert agas.resolve(gid)[1] == 3

    def test_raising_callback_does_not_strand_the_queue(self):
        class _Bomb(Component):
            def __init__(self):
                super().__init__()
                self.calls: list[tuple[int, int]] = []
                self.raised = False

            def on_migrate(self, old, new):
                self.calls.append((old, new))
                if not self.raised:
                    self.raised = True
                    raise RuntimeError("boom")

        agas = AgasRuntime(n_localities=3)
        comp = _Bomb()
        gid = agas.register(comp, 0)
        with pytest.raises(RuntimeError, match="boom"):
            agas.migrate(gid, 1)
        # the move itself committed, and the FIFO is clean for the next
        agas.migrate(gid, 2)
        assert comp.calls == [(0, 1), (1, 2)]
        assert agas.resolve(gid)[1] == 2

    def test_single_migration_still_notifies_inline(self):
        agas = AgasRuntime(n_localities=2)
        comp = _Recorder()
        gid = agas.register(comp, 0)
        agas.migrate(gid, 1)
        assert comp.calls == [(0, 1)]
