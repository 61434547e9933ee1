"""Fault injection determinism and resilient parcel delivery."""

import pytest

from repro.network.retry import RetryPolicy
from repro.resilience import (FaultInjector, ResilientParcelSender,
                              RetryBudgetExhausted)
from repro.runtime import (AgasRuntime, Component, CounterRegistry, Parcel,
                           ParcelHandler)
from repro.runtime.faults import SimulationFault, TransientActionFault

class Adder(Component):
    def __init__(self):
        super().__init__()
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value


def make_target(comp=None):
    ag = AgasRuntime(2)
    comp = comp or Adder()
    gid = ag.register(comp)
    return comp, gid, ParcelHandler(ag)


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=42, loss_rate=0.3, registry=CounterRegistry())
        b = FaultInjector(seed=42, loss_rate=0.3, registry=CounterRegistry())
        assert [a.drop_message() for _ in range(100)] == \
            [b.drop_message() for _ in range(100)]

    def test_budget_makes_faults_transient(self):
        inj = FaultInjector(seed=0, loss_rate=1.0, max_losses=3,
                            registry=CounterRegistry())
        drops = [inj.drop_message() for _ in range(10)]
        assert drops == [True] * 3 + [False] * 7

    def test_step_fault_fires_once_at_scheduled_step(self):
        inj = FaultInjector(seed=0, fail_at_steps=(5,),
                            registry=CounterRegistry())
        inj.maybe_step_fault(4)
        with pytest.raises(SimulationFault):
            inj.maybe_step_fault(5)
        inj.maybe_step_fault(5)  # consumed: no second failure
        assert inj.stats()["step"] == 1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(loss_rate=1.5)

    @pytest.mark.parametrize("kwargs, field", [
        ({"delay_rate": 1.0, "max_delay": -1.0}, "max_delay"),
        ({"max_delay": float("nan")}, "max_delay"),
        ({"max_losses": -1}, "max_losses"),
        ({"max_losses": 2.5}, "max_losses"),
        ({"max_action_faults": -1}, "max_action_faults"),
    ])
    def test_bounds_rejected_naming_the_field(self, kwargs, field):
        """A negative delay bound drew negative delays, and a negative
        budget was accepted as a budget."""
        with pytest.raises(ValueError, match=field):
            FaultInjector(**kwargs)

    def test_injected_counters_published(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=0, loss_rate=1.0, registry=reg)
        inj.drop_message()
        assert reg.value("/resilience/injected/loss") == 1.0


class TestResilientSend:
    def test_lossless_delivery_is_passthrough(self):
        comp, gid, handler = make_target()
        sender = ResilientParcelSender(handler, sleep=lambda _t: None)
        assert sender.send(Parcel(gid, "add", (5,))).get() == 5
        assert comp.value == 5

    def test_retry_recovers_from_loss(self):
        reg = CounterRegistry()
        comp, gid, handler = make_target()
        inj = FaultInjector(seed=7, loss_rate=0.4, registry=reg)
        sender = ResilientParcelSender(
            handler, injector=inj, registry=reg,
            policy=RetryPolicy(max_attempts=10, base_backoff=1e-6),
            sleep=lambda _t: None)
        for _ in range(30):
            assert not sender.send(Parcel(gid, "add", (1,))).has_exception()
        assert comp.value == 30
        assert reg.value("/resilience/parcels/retries") > 0
        assert reg.value("/resilience/parcels/recovered") > 0
        assert reg.value("/resilience/parcels/acked") == 30

    def test_retry_exhaustion_is_exceptional_future_not_hang(self):
        """Acceptance: budget exhaustion surfaces as an exceptional
        future; the send returns promptly (pytest-timeout guards CI)."""
        reg = CounterRegistry()
        comp, gid, handler = make_target()
        inj = FaultInjector(seed=1, loss_rate=1.0, registry=reg)
        sender = ResilientParcelSender(
            handler, injector=inj, registry=reg,
            policy=RetryPolicy(max_attempts=3, base_backoff=1e-6),
            sleep=lambda _t: None)
        fut = sender.send(Parcel(gid, "add", (1,)))
        assert fut.is_ready() and fut.has_exception()
        with pytest.raises(RetryBudgetExhausted, match="3 attempts"):
            fut.get()
        assert comp.value == 0
        assert reg.value("/resilience/parcels/exhausted") == 1.0
        assert reg.value("/resilience/parcels/attempts") == 3.0

    def test_transient_action_faults_are_retried(self):
        class Flaky(Adder):
            """Fails transiently twice, then behaves."""
            faults = 2

            def add(self, n):
                if self.faults:
                    self.faults -= 1
                    raise TransientActionFault("receive-side hiccup")
                return super().add(n)

        reg = CounterRegistry()
        comp, gid, handler = make_target(Flaky())
        sender = ResilientParcelSender(
            handler, registry=reg,
            policy=RetryPolicy(max_attempts=5, base_backoff=1e-6),
            sleep=lambda _t: None)
        assert sender.send(Parcel(gid, "add", (4,))).get() == 4
        assert comp.value == 4 and comp.faults == 0
        assert reg.value("/resilience/parcels/action-faults") == 2.0

    def test_non_transient_errors_not_retried(self):
        """Application exceptions propagate; resends would not help."""
        class Failing(Component):
            calls = 0

            def boom(self):
                Failing.calls += 1
                raise ValueError("app bug")

        ag = AgasRuntime(1)
        gid = ag.register(Failing())
        sender = ResilientParcelSender(ParcelHandler(ag),
                                       sleep=lambda _t: None)
        fut = sender.send(Parcel(gid, "boom"))
        with pytest.raises(ValueError, match="app bug"):
            fut.get()
        assert Failing.calls == 1

    def test_delay_within_ack_window_still_delivers(self):
        reg = CounterRegistry()
        comp, gid, handler = make_target()
        inj = FaultInjector(seed=5, delay_rate=1.0, max_delay=1e-4,
                            registry=reg)
        waits = []
        sender = ResilientParcelSender(handler, injector=inj, registry=reg,
                                       sleep=waits.append)
        assert sender.send(Parcel(gid, "add", (2,))).get() == 2
        assert reg.value("/resilience/parcels/delayed") == 1.0
        assert waits and waits[0] <= 1e-4

    def test_sender_sleeps_the_policy_backoff_schedule(self):
        """The waits are a pure function of the attempt number: any two
        runs, whatever their fault seed, back off identically."""
        policy = RetryPolicy(max_attempts=4, base_backoff=1e-3,
                             backoff_factor=2.0, max_backoff=1.0)
        for seed in (1, 1309):
            _comp, gid, handler = make_target()
            waits = []
            sender = ResilientParcelSender(
                handler, policy=policy, registry=CounterRegistry(),
                injector=FaultInjector(seed=seed, loss_rate=1.0,
                                       registry=CounterRegistry()),
                sleep=waits.append)
            with pytest.raises(RetryBudgetExhausted):
                sender.send(Parcel(gid, "add", (1,))).get()
            assert waits == [policy.backoff(k) for k in (1, 2, 3)]

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, base_backoff=1e-3,
                             backoff_factor=2.0, max_backoff=3e-3)
        assert [policy.backoff(k) for k in range(1, 5)] == \
            pytest.approx([1e-3, 2e-3, 3e-3, 3e-3])

    @pytest.mark.parametrize("kwargs, field", [
        ({"ack_timeout": -1.0}, "ack_timeout"),
        ({"base_backoff": float("nan")}, "base_backoff"),
        ({"base_backoff": -1e-3}, "base_backoff"),
        ({"max_backoff": float("inf")}, "max_backoff"),
        ({"backoff_factor": float("nan")}, "backoff_factor"),
        ({"max_attempts": 2.5}, "max_attempts"),
    ])
    def test_policy_bounds_rejected_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**kwargs)

    def test_expected_attempts_matches_capped_geometric(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.expected_attempts(0.0) == 1.0
        p = 0.5
        assert policy.expected_attempts(p) == \
            pytest.approx(sum(p ** k for k in range(4)))
        assert policy.delivery_probability(p) == pytest.approx(1 - p ** 4)
