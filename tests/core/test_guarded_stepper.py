"""The one recovery policy of every drive: post-step checks,
rollback/replay, dt halving (``repro.core.stepper.Recovery``)."""

import numpy as np
import pytest

from repro.core import (ConservationMonitor, FaultRecoveryExhausted,
                        GuardViolation, NGHOST, RHO, evolve, sedov_blast)
from repro.core import stepper
from repro.core.stepper import Recovery, drive
from repro.resilience import CheckpointManager, FaultInjector
from repro.runtime import CounterRegistry


def small_mesh():
    return sedov_blast(n=16)


def guarded(mesh, t_end, max_steps, injector=None, registry=None,
            monitor=None):
    """Drive ``mesh`` under a policy that checkpoints every step; return
    the policy (for its tallies) and the monitor."""
    reg = registry or CounterRegistry()
    policy = Recovery(mesh, CheckpointManager(interval=1, registry=reg),
                      monitor or ConservationMonitor(), injector, reg)
    return policy, drive(policy, t_end, max_steps)


class FakeMesh:
    """Duck-typed mesh whose step() plants guard violations on demand.

    ``bad`` maps a step index to a predicate of dt; while the predicate
    holds, stepping that index leaves the given ``poison`` value in the
    interior density — exercising the reject/halve path without the cost
    of a real solve.
    """

    def __init__(self, n=8, bad=None, poison=np.nan):
        side = n + 2 * NGHOST
        self.U = np.ones((4, side, side, side))
        self.blocks = {(0, 0, 0): self.U}
        self.time = 0.0
        self.steps = 0
        self.bad = bad or {}
        self.poison = poison
        self.dts = []

    def compute_dt(self):
        return 0.125

    def step(self, dt):
        self.dts.append((self.steps, dt))
        self.U += 1e-3  # deterministic, state-dependent progress
        pred = self.bad.get(self.steps)
        if pred is not None and pred(dt):
            g = NGHOST
            self.U[RHO, g, g, g] = self.poison
        self.time += dt
        self.steps += 1

    def conserved_totals(self):
        return {"mass": float(self.U[RHO].sum()),
                "momentum": np.zeros(3), "angular_momentum": np.zeros(3),
                "egas": 0.0}


class TestGuards:
    def test_clean_state_passes(self):
        reg = CounterRegistry()
        policy = Recovery(FakeMesh(), None, ConservationMonitor(),
                          registry=reg)
        assert policy.violation() is None
        assert reg.value("/resilience/steps/guard-checks") == 1.0

    def test_every_drive_checks_every_step(self):
        reg = CounterRegistry()
        drive(Recovery(FakeMesh(), None, ConservationMonitor(),
                       registry=reg), t_end=1.0, max_steps=3)
        assert reg.value("/resilience/steps/guard-checks") == 3.0

    def test_nan_and_inf_are_caught(self):
        for poison in (np.nan, np.inf):
            mesh = FakeMesh()
            mesh.U[2, 5, 5, 5] = poison  # any field, not just density
            assert Recovery(mesh, None, ConservationMonitor(),
                            registry=CounterRegistry()).violation() \
                == "non-finite state"

    def test_negative_density_is_caught(self):
        mesh = FakeMesh()
        mesh.U[RHO, 4, 4, 4] = -1e-12
        assert Recovery(mesh, None, ConservationMonitor(),
                        registry=CounterRegistry()).violation() \
            == "negative density"

    def test_nan_without_checkpoints_raises_at_its_step(self):
        """Without a manager there is nothing to roll back to: the bad
        step fails typed, right where it happened."""
        mesh = FakeMesh(bad={1: lambda dt: True})
        with pytest.raises(GuardViolation, match="step 1 rejected"):
            evolve(mesh, t_end=10.0, max_steps=5)
        assert mesh.steps == 2


class TestRecovery:
    def test_corruption_detected_and_replay_bit_identical(self):
        """Silent NaN corruption after step 2: the guard rejects, the
        checkpoint replays, and the final state matches a clean run."""
        clean, faulty = small_mesh(), small_mesh()
        mon_clean = evolve(clean, 0.05, max_steps=5)
        reg = CounterRegistry()
        inj = FaultInjector(seed=7, corrupt_at_steps=(2,), registry=reg)
        policy, mon = guarded(faulty, 0.05, 5, inj, reg)
        assert inj.stats()["corruption"] == 1
        assert policy.rejected == 1 and policy.restores == 1
        assert policy.halvings == 0
        assert np.array_equal(clean.blocks[0, 0, 0], faulty.blocks[0, 0, 0])
        assert mon_clean.report() == mon.report()
        snap = reg.snapshot()
        assert snap["/resilience/steps/rejected"] == 1.0
        assert snap.get("/resilience/steps/dt-halvings", 0.0) == 0.0

    def test_announced_step_fault_shares_restore_path(self):
        clean, faulty = small_mesh(), small_mesh()
        evolve(clean, 0.05, max_steps=4)
        inj = FaultInjector(seed=3, fail_at_steps=(1,),
                            registry=CounterRegistry())
        policy, _ = guarded(faulty, 0.05, 4, inj)
        assert policy.restores == 1 and policy.rejected == 0
        assert np.array_equal(clean.blocks[0, 0, 0], faulty.blocks[0, 0, 0])

    def test_step_faults_and_corruption_share_one_budget(self, monkeypatch):
        def injector():
            return FaultInjector(seed=5, fail_at_steps=(1,),
                                 corrupt_at_steps=(2,),
                                 registry=CounterRegistry())

        monkeypatch.setattr(stepper, "MAX_RESTORES", 2)
        policy, _ = guarded(FakeMesh(), 1.0, 4, injector())
        assert policy.restores == 2 and policy.rejected == 1
        monkeypatch.setattr(stepper, "MAX_RESTORES", 1)
        with pytest.raises(FaultRecoveryExhausted,
                           match="last cause: non-finite state"):
            guarded(FakeMesh(), 1.0, 4, injector())

    def test_transient_violation_retried_at_same_dt(self):
        """One-shot corruption must NOT shrink the dt — budgets make the
        replay clean, and identical dts keep the run byte-identical."""
        fired = []

        def once(dt):
            if not fired:
                fired.append(dt)
                return True
            return False

        mesh = FakeMesh(bad={2: once})
        policy, _ = guarded(mesh, 1.0, 4)
        assert policy.rejected == 1 and policy.halvings == 0
        # step 2 ran twice (reject + replay), both at the full dt
        attempts = [dt for s, dt in mesh.dts if s == 2]
        assert attempts == [0.125, 0.125]

    def test_persistent_violation_halves_dt_until_it_passes(self):
        reg = CounterRegistry()
        # step 1 is "stiff": it only survives once dt < 0.04, which takes
        # two halvings of the base 0.125
        mesh = FakeMesh(bad={1: lambda dt: dt >= 0.04})
        policy, mon = guarded(mesh, 1.0, 3, registry=reg)
        assert mesh.steps == 3
        assert policy.halvings == 2 and policy.rejected == 3
        attempts = [dt for s, dt in mesh.dts if s == 1]
        # same-dt retry first, then 0.5x, then 0.25x which passes
        assert attempts == [0.125, 0.125, 0.0625, 0.03125]
        assert reg.value("/resilience/steps/dt-halvings") == 2.0
        # the recovered run still produced monotone samples
        assert [r.step for r in mon.records] == [0, 1, 2, 3]

    def test_halving_state_resets_between_steps(self):
        calls = {1: [], 3: []}

        def stiff(step):
            def pred(dt):
                calls[step].append(dt)
                return dt >= 0.1
            return pred

        mesh = FakeMesh(bad={1: stiff(1), 3: stiff(3)})
        policy, _ = guarded(mesh, 1.0, 5)
        # each stiff step needed its own halving; neither inherited the
        # other's shrunken dt
        assert calls[1][0] == 0.125 and calls[3][0] == 0.125
        assert policy.halvings == 2

    def test_guard_violation_when_halvings_exhausted(self, monkeypatch):
        monkeypatch.setattr(stepper, "MAX_HALVINGS", 2)
        monkeypatch.setattr(stepper, "MAX_RESTORES", 50)
        mesh = FakeMesh(bad={0: lambda dt: True})  # never passes
        with pytest.raises(GuardViolation, match="2 dt halvings"):
            guarded(mesh, 1.0, 2)

    def test_restore_budget_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(stepper, "MAX_RESTORES", 1)
        monkeypatch.setattr(stepper, "MAX_HALVINGS", 50)
        mesh = FakeMesh(bad={0: lambda dt: True})
        with pytest.raises(FaultRecoveryExhausted):
            guarded(mesh, 1.0, 2)

    def test_monitor_truncated_on_rollback(self):
        """Rejected samples must not survive in the record stream."""
        mesh = FakeMesh(bad={1: lambda dt: dt >= 0.1})
        mon = ConservationMonitor()
        guarded(mesh, 1.0, 3, monitor=mon)
        steps = [r.step for r in mon.records]
        assert steps == sorted(set(steps))  # no duplicates, no rewinds

    def test_validation(self):
        """Bad drive bounds are refused before anything is sampled,
        saved or stepped."""
        mesh, mon = FakeMesh(), ConservationMonitor()
        mgr = CheckpointManager(interval=1, registry=CounterRegistry())
        for t_end, max_steps in ((np.inf, 3), (np.nan, 3), (1.0, -1)):
            with pytest.raises(ValueError):
                drive(Recovery(mesh, mgr, mon), t_end, max_steps)
        assert mesh.dts == [] and mon.records == [] and mgr.saves == 0
