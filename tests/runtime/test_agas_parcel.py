"""AGAS registry, migration, actions; parcels and their handler."""

import numpy as np
import pytest

from repro.runtime import (AgasError, AgasRuntime, Component,
                           CounterRegistry, EAGER_THRESHOLD, Gid, Parcel,
                           ParcelHandler, WorkStealingScheduler,
                           serialized_size)

#: a GID no runtime in these tests ever hands out
UNKNOWN = Gid(0, 10**9)


class Counter(Component):
    def __init__(self):
        super().__init__()
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value

    def fail(self):
        raise RuntimeError("action failed")


class TestAgasRegistry:
    def test_register_assigns_gid(self):
        ag = AgasRuntime(2)
        gid = ag.register(Counter(), locality=1)
        assert gid.msb == 1

    def test_gids_are_unique(self):
        ag = AgasRuntime(1)
        gids = {ag.register(Counter()) for _ in range(100)}
        assert len(gids) == 100

    def test_resolve_returns_component_and_home(self):
        ag = AgasRuntime(3)
        c = Counter()
        gid = ag.register(c, locality=2)
        comp, loc = ag.resolve(gid)
        assert comp is c and loc == 2

    def test_resolve_unknown_gid_raises(self):
        ag = AgasRuntime(1)
        ag.register(Counter())
        with pytest.raises(AgasError):
            ag.resolve(UNKNOWN)

    def test_bad_locality_rejected(self):
        ag = AgasRuntime(2)
        with pytest.raises(AgasError):
            ag.register(Counter(), locality=5)


class TestMigration:
    def test_gid_survives_migration(self):
        """Sec. 5.2: migrated components stay addressable."""
        ag = AgasRuntime(4)
        c = Counter()
        gid = ag.register(c, 0)
        ag.migrate(gid, 3)
        assert ag.resolve(gid)[1] == 3
        assert ag.async_action(gid, "add", 1).get() == 1

    def test_migration_moves_the_home(self):
        """AGAS is the one record of placement: a move shows in the next
        ``homes`` read, and nobody is called back."""
        ag = AgasRuntime(3)
        a, b = ag.register(Counter(), 0), ag.register(Counter(), 2)
        assert ag.homes([a, b]) == [0, 2]
        ag.migrate(a, 1)
        assert ag.homes([a, b]) == [1, 2]
        assert ag.homes([b, a]) == [2, 1]   # in the order asked
        assert ag.homes([]) == []

    def test_every_change_of_home_shows_in_homes(self):
        ag = AgasRuntime(3)
        gid = ag.register(Counter(), 1)
        assert ag.homes([gid]) == [1]
        ag.migrate(gid, 2)
        assert ag.homes([gid]) == [2]
        ag.fail_locality(2, evacuate=False)
        # a lost GID is homed where it died, until it is restored
        assert ag.homes([gid]) == [2]
        ag.restore_component(Counter(), gid, 0)
        assert ag.homes([gid]) == [0]

    def test_homes_of_an_unknown_gid_raise(self):
        ag = AgasRuntime(1)
        with pytest.raises(AgasError, match="unknown gid"):
            ag.homes([UNKNOWN])

    def test_migration_counter(self):
        reg = CounterRegistry()
        ag = AgasRuntime(2, registry=reg)
        gid = ag.register(Counter(), 0)
        for _ in range(5):
            ag.migrate(gid, 1)
            ag.migrate(gid, 0)
        assert ag.resolve(gid)[1] == 0
        assert reg.snapshot()["/resilience/agas/components-migrated"] == 10


class TestActions:
    def test_sync_action(self):
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        assert ag.async_action(gid, "add", 5).get() == 5
        assert ag.async_action(gid, "add", 5).get() == 10

    def test_unknown_action_is_exceptional_future(self):
        """Regression: Sec. 4.1 equivalence — failures arrive through the
        future, never as a synchronous raise."""
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        fut = ag.async_action(gid, "nonexistent")
        assert fut.has_exception()
        with pytest.raises(AgasError, match="no action"):
            fut.get()

    def test_unknown_gid_is_exceptional_future(self):
        ag = AgasRuntime(1)
        ag.register(Counter())
        fut = ag.async_action(UNKNOWN, "add", 1)
        assert fut.has_exception()
        with pytest.raises(AgasError, match="unknown gid"):
            fut.get()

    def test_action_exception_in_future(self):
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        with pytest.raises(RuntimeError, match="action failed"):
            ag.async_action(gid, "fail").get()

    def test_async_action_on_scheduler(self):
        with WorkStealingScheduler(2) as sched:
            ag = AgasRuntime(1, executor=sched.post)
            gid = ag.register(Counter())
            futs = [ag.async_action(gid, "add", 1) for _ in range(50)]
            for f in futs:
                f.get()
            comp, _ = ag.resolve(gid)
            assert comp.value == 50


class TestParcels:
    def test_small_parcel_is_eager(self):
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        p = Parcel(gid, "add", (1,))
        assert p.size_bytes <= EAGER_THRESHOLD and not p.uses_rma

    def test_large_array_uses_rma(self):
        """Sec. 5.2: buffers above the eager threshold go through RMA."""
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        big = np.zeros(EAGER_THRESHOLD, dtype=np.float64)
        p = Parcel(gid, "add", (big,))
        assert p.uses_rma and p.size_bytes > EAGER_THRESHOLD

    def test_serialized_size_counts_array_bytes(self):
        arr = np.zeros(1000, dtype=np.float64)
        assert serialized_size((arr,)) >= arr.nbytes

    def test_parcel_sequence_numbers_increase(self):
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        a = Parcel(gid, "add", (1,))
        b = Parcel(gid, "add", (1,))
        assert b.seq > a.seq

    def test_handler_delivers_and_counts(self):
        ag = AgasRuntime(1)
        gid = ag.register(Counter())
        h = ParcelHandler(ag)
        assert h.deliver(Parcel(gid, "add", (3,))).get() == 3
        assert h.deliver(Parcel(gid, "add", (4,))).get() == 7
        stats = h.stats()
        assert stats["received"] == 2
        assert stats["per_action"] == {"add": 2}
        assert stats["bytes_received"] > 0
