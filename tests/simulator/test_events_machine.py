"""DES event queue and hardware model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import EventQueue, GpuSpec, NodeSpec, SimulationError
from repro.simulator.platforms import (PIZ_DAINT, PIZ_DAINT_CPU, V100,
                                       XEON_E5_2660V3_10C, XEON_PHI_7210)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        for t in (3.0, 1.0, 2.0):
            q.schedule(t, fired.append, t)
        q.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(1.0, fired.append, i)
        q.run()
        assert fired == list(range(5))

    def test_clock_advances_to_event_time(self):
        q = EventQueue()
        q.schedule(2.5, lambda: None)
        q.run()
        assert q.now == 2.5

    def test_handlers_can_schedule_more_events(self):
        q = EventQueue()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 5:
                q.schedule(1.0, cascade, depth + 1)

        q.schedule(0.0, cascade, 0)
        q.run()
        assert fired == list(range(6))
        assert q.now == 5.0

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1.0, lambda: None)

    def test_run_until_horizon(self):
        q = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, fired.append, t)
        q.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert len(q) == 1

    def test_event_budget_guards_runaway(self):
        q = EventQueue()

        def forever():
            q.schedule(1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert not EventQueue().step()

    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_processed_times_always_nondecreasing(self, delays):
        q = EventQueue()
        seen = []
        for d in delays:
            q.schedule(d, lambda: seen.append(q.now))
        q.run()
        assert seen == sorted(seen)
        assert q.processed == len(delays)


class TestNodeSpec:
    def test_avx2_peak_formula(self):
        """Table 2 accounting: cores x clock x 16 flops/cycle on AVX2."""
        assert XEON_E5_2660V3_10C.cpu_peak_gflops == pytest.approx(384.0)

    def test_knl_peak_formula(self):
        assert XEON_PHI_7210.cpu_peak_gflops == pytest.approx(2662.4)

    def test_piz_daint_cpu_peak(self):
        assert PIZ_DAINT_CPU.cpu_peak_gflops == pytest.approx(499.2)

    def test_piz_daint_has_one_p100(self):
        assert PIZ_DAINT.has_gpu
        assert len(PIZ_DAINT.gpus) == 1
        assert PIZ_DAINT.gpu_peak_gflops == pytest.approx(4700.0)

    def test_streams_per_gpu_default(self):
        """Sec. 5.1: 'usually 128 per GPU'."""
        assert V100.n_streams == 128
        assert [g.n_streams for g in PIZ_DAINT.gpus] == [128]

    def test_cpu_fmm_rate_matches_measured_fraction(self):
        node = XEON_E5_2660V3_10C
        total = node.cores * node.fmm_core_rate()
        assert total == pytest.approx(
            node.cpu_peak_gflops * node.cpu_kernel_efficiency)

    def test_gpu_rate_positive(self):
        assert PIZ_DAINT.fmm_gpu_rate(PIZ_DAINT.gpus[0]) > 0
