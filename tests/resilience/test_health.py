"""Phi-accrual failure detection on the simulated clock."""

import math

import pytest

from repro.resilience import FailureDetector
from repro.runtime import AgasRuntime, Component, CounterRegistry
from repro.simulator.events import EventQueue

_LOG10_E = math.log10(math.e)


def make_world(n_localities=4, components_per_locality=2, registry=None):
    registry = registry or CounterRegistry()
    agas = AgasRuntime(n_localities, registry=registry)
    gids = []
    for loc in range(n_localities):
        for _ in range(components_per_locality):
            gids.append(agas.register(Component(), loc))
    return agas, gids, registry


class TestFailureDetector:
    def test_no_false_positives_while_heartbeats_flow(self):
        agas, _gids, reg = make_world()
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0, registry=reg)
        det.start()
        ev.run(until=200.0)
        assert det.declared_failed == set()
        assert agas.failed_localities == set()
        assert det.max_phi < 3.0
        assert reg.snapshot()["/resilience/health/heartbeats"] > 100

    def test_silent_locality_is_detected_and_evacuated(self):
        agas, gids, reg = make_world()
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0, registry=reg)
        det.start()
        ev.run(until=10.0)
        det.silence(2)
        ev.run(until=60.0)
        assert det.declared_failed == {2}
        # AGAS was told automatically — nobody called fail_locality
        assert agas.failed_localities == {2}
        # every component kept a valid GID on a surviving locality
        for gid in gids:
            assert agas.resolve(gid)[1] != 2
        snap = reg.snapshot()
        assert snap["/resilience/health/detected"] == 1.0
        assert snap["/resilience/health/evacuated"] == 2.0
        assert snap["/resilience/health/silenced"] == 1.0

    def test_detection_time_matches_phi_model(self):
        """phi = elapsed/mean * log10(e) crosses the threshold at
        elapsed = threshold * interval / log10(e); detection lands within
        one sweep period after that."""
        agas, _gids, reg = make_world()
        ev = EventQueue()
        interval, threshold = 0.5, 4.0
        det = FailureDetector(agas, ev, heartbeat_interval=interval,
                              phi_threshold=threshold, registry=reg)
        det.start()
        ev.run(until=20.0)
        det.silence(1)
        last_beat = 20.0  # heartbeats are on the 0.5 grid
        ev.run(until=100.0)
        assert det.declared_failed == {1}
        expected = threshold * interval / _LOG10_E
        detect_delay = ev.now  # not the detection instant; bound it instead
        assert detect_delay >= last_beat + expected - interval
        # phi at detection must have crossed the threshold
        assert det.max_phi >= threshold

    def test_two_silent_localities_both_detected(self):
        agas, gids, _reg = make_world(n_localities=4)
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0)
        det.start()
        ev.run(until=5.0)
        det.silence(0)
        det.silence(3)
        ev.run(until=80.0)
        assert det.declared_failed == {0, 3}
        assert agas.failed_localities == {0, 3}
        for gid in gids:
            assert agas.resolve(gid)[1] in (1, 2)

    def test_on_failure_callback_fires(self):
        agas, _gids, _reg = make_world()
        ev = EventQueue()
        seen = []
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0,
                              on_failure=lambda loc, res: seen.append(
                                  (loc, len(res["migrated"]))))
        det.start()
        det.silence(1)
        ev.run(until=60.0)
        assert seen == [(1, 2)]

    def test_phi_grows_while_silent(self):
        agas, _gids, _reg = make_world(n_localities=2)
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=50.0)  # never triggers
        det.start()
        ev.run(until=10.0)
        det.silence(1)
        values = []
        for t in (12.0, 16.0, 24.0):
            ev.run(until=t)
            values.append(det.phi(1))
        assert values == sorted(values)
        assert values[-1] > values[0] > 0.0
        assert det.phi(0) < values[0]

    def test_stop_halts_rescheduling(self):
        agas, _gids, _reg = make_world(n_localities=2)
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0)
        det.start()
        ev.run(until=3.0)
        det.stop()
        ev.run()  # queue must drain instead of self-perpetuating
        assert ev.empty

    def test_parameter_validation(self):
        agas, _gids, _reg = make_world(n_localities=2)
        ev = EventQueue()
        with pytest.raises(ValueError):
            FailureDetector(agas, ev, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            FailureDetector(agas, ev, phi_threshold=0.0)


class TestStaleHeartbeatGate:
    """A declared locality must never flap back: suspect -> evacuate ->
    late heartbeat is the exact ordering the one-way gate defends."""

    def test_suspect_evacuate_then_stale_heartbeat_is_dropped(self):
        agas, gids, reg = make_world()
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0, registry=reg)
        det.start()
        ev.run(until=10.0)
        det.silence(2)                       # the node dies...
        ev.run(until=60.0)
        assert det.declared_failed == {2}    # ...is suspected, declared,
        homes = {gid: agas.resolve(gid)[1] for gid in gids}
        assert all(loc != 2 for loc in homes.values())  # ...and evacuated

        # a heartbeat emitted before death crawls out of a congested
        # switch now: it must not refresh liveness or touch AGAS
        assert det.receive_heartbeat(2) is False
        snap = reg.snapshot()
        assert snap["/resilience/health/stale-heartbeats"] == 1.0
        assert agas.failed_localities == {2}
        assert det.declared_failed == {2}
        assert {gid: agas.resolve(gid)[1] for gid in gids} == homes
        # the gate is permanent, not probabilistic
        assert det.receive_heartbeat(2) is False
        assert reg.snapshot()["/resilience/health/stale-heartbeats"] == 2.0

    def test_out_of_band_beat_before_declaration_counts(self):
        agas, _gids, reg = make_world()
        ev = EventQueue()
        det = FailureDetector(agas, ev, heartbeat_interval=1.0,
                              phi_threshold=3.0, registry=reg)
        det.start()
        ev.run(until=5.0)
        det.silence(1)          # silenced but not yet declared
        ev.run(until=6.0)
        assert 1 not in det.declared_failed
        before = det.phi(1)
        assert det.receive_heartbeat(1) is True   # arrives pre-verdict
        assert det.phi(1) < before                # liveness refreshed
        assert "/resilience/health/stale-heartbeats" not in reg.snapshot()

    def test_unmonitored_locality_is_ignored(self):
        agas, _gids, reg = make_world()
        agas.fail_locality(3)         # dead before the detector existed
        ev = EventQueue()
        det = FailureDetector(agas, ev, registry=reg)
        det.start()
        assert det.receive_heartbeat(3) is False
        assert "/resilience/health/stale-heartbeats" not in reg.snapshot()
