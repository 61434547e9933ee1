"""Whole-locality failure: evacuation, invalidation, recovery."""

import pytest

from repro.runtime import AgasRuntime, Component, LocalityFailed


class Cell(Component):
    def __init__(self):
        super().__init__()
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value


class TestLocalityFailure:
    def test_components_are_evacuated(self):
        ag = AgasRuntime(4)
        gids = [ag.register(Cell(), 2) for _ in range(5)]
        out = ag.fail_locality(2)
        assert sorted(out["migrated"]) == sorted(gids)
        assert out["lost"] == []
        for gid in gids:
            # GID stays valid (the AGAS promise outlives the node) and the
            # new home is a surviving locality
            assert ag.resolve(gid)[1] != 2
            assert ag.async_action(gid, "add", 1).get() == 1

    def test_evacuation_spreads_over_survivors(self):
        ag = AgasRuntime(3)
        gids = [ag.register(Cell(), 1) for _ in range(6)]
        ag.fail_locality(1)
        homes = {ag.resolve(g)[1] for g in gids}
        assert homes == {0, 2}

    def test_pinned_components_are_lost_with_distinct_error(self):
        """A component that dies with its node (no evacuation) is lost
        even with a survivor at hand."""
        ag = AgasRuntime(2)
        gid = ag.register(Cell(), 1)
        out = ag.fail_locality(1, evacuate=False)
        assert out == {"migrated": [], "lost": [gid]}
        with pytest.raises(LocalityFailed, match="lost when locality 1"):
            ag.resolve(gid)
        fut = ag.async_action(gid, "add", 1)
        assert fut.has_exception()
        with pytest.raises(LocalityFailed):
            fut.get()

    def test_last_locality_failure_loses_everything(self):
        ag = AgasRuntime(1)
        gid = ag.register(Cell(), 0)
        out = ag.fail_locality(0)
        assert out["migrated"] == [] and out["lost"] == [gid]

    def test_failed_locality_rejects_register_and_migrate(self):
        ag = AgasRuntime(2)
        gid = ag.register(Cell(), 0)
        ag.fail_locality(1)
        with pytest.raises(LocalityFailed):
            ag.register(Cell(), 1)
        with pytest.raises(LocalityFailed):
            ag.migrate(gid, 1)

    def test_failure_is_idempotent(self):
        ag = AgasRuntime(2)
        ag.register(Cell(), 1)
        first = ag.fail_locality(1)
        second = ag.fail_locality(1)
        assert len(first["migrated"]) == 1
        assert second == {"migrated": [], "lost": []}

    def test_resilience_counters_published(self):
        from repro.runtime import default_registry
        reg = default_registry()
        before = reg.snapshot().get("/resilience/agas/localities-failed", 0.0)
        ag = AgasRuntime(3)
        ag.register(Cell(), 1)
        ag.register(Cell(), 2)
        ag.fail_locality(1)
        ag.fail_locality(2, evacuate=False)
        snap = reg.snapshot()
        assert snap["/resilience/agas/localities-failed"] == before + 2
        assert snap["/resilience/agas/components-migrated"] >= 1
        assert snap["/resilience/agas/components-lost"] >= 1
