"""Trace recording: spans, toggling, Chrome trace-event export."""

import json
import threading

import pytest

from repro.runtime import (AggregationRegion, CounterRegistry, CudaDevice,
                           StreamPool, WorkStealingScheduler, trace, when_all)


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts disabled with an empty default recorder."""
    trace.disable()
    trace.clear()
    yield
    trace.disable()
    trace.clear()


class TestToggle:
    def test_disabled_by_default_records_nothing(self):
        with trace.span("quiet", "test"):
            pass
        trace.instant("quiet-instant")
        assert len(trace.default_recorder()) == 0

    def test_enable_disable_flag(self):
        assert not trace.TRACING
        trace.enable()
        assert trace.TRACING
        trace.disable()
        assert not trace.TRACING

    def test_disabled_span_is_shared_noop(self):
        # near-zero cost when off: no allocation per span
        assert trace.span("a") is trace.span("b")

    def test_toggle_mid_run(self):
        trace.enable()
        with trace.span("kept", "test"):
            pass
        trace.disable()
        with trace.span("dropped", "test"):
            pass
        names = [e["name"] for e in trace.default_recorder().events()
                 if e["ph"] == "X"]
        assert names == ["kept"]


class TestRecording:
    def test_span_records_name_category_duration_tid(self):
        trace.enable()
        with trace.span("work", "unit", detail=3):
            pass
        evs = [e for e in trace.default_recorder().events()
               if e["ph"] == "X"]
        assert len(evs) == 1
        ev = evs[0]
        assert ev["name"] == "work" and ev["cat"] == "unit"
        assert ev["dur"] >= 0.0 and ev["ts"] >= 0.0
        assert ev["tid"] == threading.get_ident()
        assert ev["args"] == {"detail": 3}

    def test_begin_complete_pair(self):
        trace.enable()
        t0 = trace.begin()
        trace.complete("hot-path", "test", t0, worker=7)
        ev = [e for e in trace.default_recorder().events()
              if e["ph"] == "X"][0]
        assert ev["name"] == "hot-path" and ev["args"]["worker"] == 7

    def test_instants_are_thread_scoped(self):
        trace.enable()
        trace.instant("marker", "test")
        ev = [e for e in trace.default_recorder().events()
              if e["ph"] == "i"][0]
        assert ev["s"] == "t" and ev["name"] == "marker"

    def test_events_sorted_by_timestamp(self):
        trace.enable()
        for i in range(5):
            with trace.span(f"s{i}", "test"):
                pass
        ts = [e["ts"] for e in trace.default_recorder().events()
              if e["ph"] == "X"]
        assert ts == sorted(ts)

    def test_multithreaded_recording_keeps_all_events(self):
        trace.enable()

        barrier = threading.Barrier(4, timeout=5.0)

        def record(n):
            for _ in range(n):
                with trace.span("t", "test"):
                    pass
            barrier.wait()  # keep all four alive so tids are not reused

        threads = [threading.Thread(target=record, args=(50,))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        evs = [e for e in trace.default_recorder().events()
               if e["ph"] == "X"]
        assert len(evs) == 200
        assert len({e["tid"] for e in evs}) == 4

    def test_clear(self):
        trace.enable()
        with trace.span("gone", "test"):
            pass
        trace.clear()
        assert len(trace.default_recorder()) == 0


class TestExport:
    def test_export_chrome_is_valid_json(self, tmp_path):
        trace.enable()
        with trace.span("exported", "test"):
            trace.instant("inner")
        path = tmp_path / "trace.json"
        n = trace.export_chrome(str(path))
        assert n >= 2
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in meta)


class TestRuntimeIntegration:
    def test_scheduler_emits_task_spans(self):
        trace.enable()
        with WorkStealingScheduler(2) as s:
            futs = [s.submit(lambda: None) for _ in range(10)]
            when_all(futs).get(timeout=5.0)
            s.wait_idle(timeout=5.0)
        cats = {e["cat"] for e in trace.default_recorder().events()
                if e["ph"] == "X"}
        assert "task" in cats

    def test_cuda_emits_kernel_spans_with_stream_args(self):
        trace.enable()
        with CudaDevice(n_streams=2, n_workers=1, name="tgpu") as dev:
            region = AggregationRegion(StreamPool([dev]), slots=3,
                                       registry=CounterRegistry())
            gate = threading.Event()
            # two gated buffers pin both streams, the third overflows
            futs = [region.submit(gate.wait, 5.0) for _ in range(6)]
            futs += [region.submit(lambda: 1) for _ in range(3)]
            gate.set()
            for f in futs:
                f.get(timeout=5.0)
            dev.synchronize()
        kernels = [e for e in trace.default_recorder().events()
                   if e["ph"] == "X" and e["cat"] == "cuda"]
        gpu_kernels = [e for e in kernels
                       if e["args"].get("device") == "tgpu"]
        assert len(gpu_kernels) == 2
        for e in gpu_kernels:
            assert e["args"]["stream"] in (0, 1)
        # the overflowed buffer stays on the timeline: one span, its slots
        overflow = [e["args"] for e in kernels
                    if e["args"].get("device") == "cpu-fallback"]
        assert overflow == [{"device": "cpu-fallback", "slots": 3}]
        assert (region.gpu_tasks, region.cpu_tasks) == (6, 3)

    def test_continuation_spans(self):
        from repro.runtime import make_ready_future
        trace.enable()
        make_ready_future(1).then(lambda f: f.get() + 1).get(timeout=5.0)
        names = [e["name"] for e in trace.default_recorder().events()
                 if e["ph"] == "X"]
        assert "continuation" in names
