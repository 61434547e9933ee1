"""SupervisedEngine: bounded re-execution of transiently failing tasks."""

import threading

import numpy as np
import pytest

from repro.core.exec import ExecutionEngine
from repro.core.gravity.fmm import FmmSolver
from repro.resilience import FaultInjector, SupervisedEngine
from repro.runtime import (CounterRegistry, CudaDevice,
                           WorkStealingScheduler)
from repro.runtime.faults import TransientActionFault


class TestSupervisedExecution:
    def test_plain_execution_passes_through(self):
        reg = CounterRegistry()
        eng = SupervisedEngine(ExecutionEngine(registry=reg))
        futs = eng.map(lambda x: x + 1, [(i,) for i in range(5)])
        assert [f.get() for f in futs] == [1, 2, 3, 4, 5]
        snap = reg.snapshot()
        assert snap["/resilience/tasks/submitted"] == 5.0
        assert snap.get("/resilience/tasks/retried", 0.0) == 0.0

    def test_transient_faults_are_retried_to_success(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=11, action_fault_rate=1.0,
                            max_action_faults=4, registry=reg)
        eng = SupervisedEngine(ExecutionEngine(registry=reg), injector=inj,
                               max_retries=5)
        futs = eng.map(lambda x: x * x, [(i,) for i in range(8)])
        assert [f.get(timeout=5.0) for f in futs] == [i * i
                                                     for i in range(8)]
        snap = reg.snapshot()
        assert snap["/resilience/tasks/retried"] == 4.0
        assert snap["/resilience/tasks/recovered"] >= 1.0
        assert snap.get("/resilience/tasks/gave-up", 0.0) == 0.0
        assert inj.stats()["action"] == 4

    def test_retry_happens_on_scheduler_too(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=5, action_fault_rate=1.0,
                            max_action_faults=3, registry=reg)
        with WorkStealingScheduler(2) as sched:
            eng = SupervisedEngine(
                ExecutionEngine(scheduler=sched, registry=reg),
                injector=inj, max_retries=4)
            futs = eng.map(lambda x: -x, [(i,) for i in range(12)])
            assert [f.get(timeout=10.0) for f in futs] == \
                [-i for i in range(12)]
        assert reg.snapshot()["/resilience/tasks/retried"] == 3.0

    def test_gives_up_after_budget(self):
        reg = CounterRegistry()
        eng = SupervisedEngine(ExecutionEngine(registry=reg), max_retries=2)

        def always_fails():
            raise TransientActionFault("permanent transient")

        fut = eng.submit(always_fails)
        with pytest.raises(TransientActionFault):
            fut.get(timeout=5.0)
        snap = reg.snapshot()
        assert snap["/resilience/tasks/retried"] == 2.0  # attempts = 3
        assert snap["/resilience/tasks/gave-up"] == 1.0

    def test_application_errors_are_not_retried(self):
        reg = CounterRegistry()
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("a real bug")

        eng = SupervisedEngine(ExecutionEngine(registry=reg), max_retries=5)
        with pytest.raises(ValueError, match="a real bug"):
            eng.submit(boom).get(timeout=5.0)
        assert len(calls) == 1
        assert reg.snapshot().get("/resilience/tasks/retried", 0.0) == 0.0

    def test_retried_results_bit_identical_to_unsupervised(self):
        """Supervision must not change the numbers, only their delivery."""
        rng = np.random.default_rng(3)
        batches = [(rng.standard_normal(64),) for _ in range(6)]

        def kernel(x):
            return np.sort(x) * 2.0 + 1.0

        plain = [f.get() for f in
                 ExecutionEngine().map(kernel, batches)]
        reg = CounterRegistry()
        inj = FaultInjector(seed=2, action_fault_rate=0.8,
                            max_action_faults=5, registry=reg)
        eng = SupervisedEngine(ExecutionEngine(registry=reg), injector=inj,
                               max_retries=8)
        supervised = [f.get(timeout=10.0) for f in
                      eng.map(kernel, batches)]
        for a, b in zip(plain, supervised):
            assert np.array_equal(a, b)
        assert reg.snapshot()["/resilience/tasks/retried"] >= 1.0

    def test_results_keep_input_order_under_concurrency(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=9, action_fault_rate=0.3,
                            max_action_faults=10, registry=reg)
        barrier = threading.Barrier(2, timeout=5.0)

        def slow_id(i):
            # stagger execution so completion order differs from input
            if i % 2 == 0:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass
            return i

        with WorkStealingScheduler(4) as sched:
            eng = SupervisedEngine(
                ExecutionEngine(scheduler=sched, registry=reg),
                injector=inj, max_retries=6)
            futs = eng.map(slow_id, [(i,) for i in range(16)])
            assert [f.get(timeout=10.0) for f in futs] == list(range(16))

    def test_engine_surface_is_passed_through(self):
        with WorkStealingScheduler(1) as sched:
            inner = ExecutionEngine(scheduler=sched)
            eng = SupervisedEngine(inner)
            assert eng.scheduler is sched
            assert eng.pool is None
            assert eng.devices == []
            assert eng.gpu_fraction == 0.0
            eng.synchronize()

    def test_supervised_fmm_solve_aggregates_launches(self):
        """The solver sizes its chunks from the engine's ``agg_slots``;
        supervision must forward it, or every batch is its own launch."""
        rng = np.random.default_rng(4)
        solver = FmmSolver.from_uniform(rng.uniform(0.1, 1.0, (16,) * 3),
                                        1.0 / 16)
        ref = solver.solve().phi[1]     # builds the plan, runs inline
        with WorkStealingScheduler(1) as sched, \
                CudaDevice(n_streams=2, n_workers=1, name="sup-gpu") as gpu:
            inner = ExecutionEngine(scheduler=sched, devices=[gpu])
            eng = SupervisedEngine(inner, registry=CounterRegistry())
            assert eng.agg_slots == inner.agg_slots > 1
            got = solver.solve(executor=eng).phi[1]
            eng.synchronize()
        assert np.array_equal(got, ref)
        assert inner.agg_launches > 0
        assert inner.aggregated_per_launch > 1.0

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SupervisedEngine(ExecutionEngine(), max_retries=-1)
