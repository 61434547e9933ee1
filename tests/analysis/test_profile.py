"""Profiling report: snapshot grouping, tables, the runnable scenario."""

import json
import subprocess
import sys

import pytest

from repro.analysis.profile import (format_report, group_snapshot,
                                    run_example_scenario)
from repro.runtime import CounterRegistry, trace


@pytest.fixture(autouse=True)
def clean_tracing():
    trace.disable()
    trace.clear()
    yield
    trace.disable()
    trace.clear()


class TestGroupSnapshot:
    def test_groups_by_top_level_prefix(self):
        snap = {"/threads/executed": 10.0, "/threads/posted": 12.0,
                "/cuda/launched/gpu": 3.0, "flat": 1.0}
        groups = group_snapshot(snap)
        assert groups["threads"] == {"executed": 10.0, "posted": 12.0}
        assert groups["cuda"] == {"launched/gpu": 3.0}
        assert groups["flat"] == {"": 1.0}

    def test_empty(self):
        assert group_snapshot({}) == {}


class TestFormatReport:
    def test_empty_registry(self):
        assert format_report(CounterRegistry()) == "(no counters recorded)"

    def test_renders_each_section(self):
        reg = CounterRegistry()
        reg.set_gauge("/threads/executed", 4.0)
        reg.set_gauge("/threads/posted", 4.0)
        reg.set_gauge("/threads/worker/0/executed", 4.0)
        reg.set_gauge("/cuda/launched/gpu", 3.0)
        reg.set_gauge("/cuda/launched/cpu", 1.0)
        reg.set_gauge("/cuda/sim-gpu/kernels-executed", 3.0)
        reg.set_gauge("/cuda/sim-gpu/streams", 8.0)
        reg.set_gauge("/parcels/mpi/messages", 2.0)
        reg.set_gauge("/futures/continuations-dispatched", 5.0)
        reg.set_gauge("/simulator/steps-evaluated", 6.0)
        report = format_report(reg)
        for heading in ("scheduler (/threads)", "per-worker utilization",
                        "execution engine placement", "devices (/cuda)",
                        "parcelport cost components", "futures (/futures)",
                        "step model (/simulator)"):
            assert heading in report
        assert "75.00%" in report  # gpu-launch percentage


class TestScenario:
    def test_scenario_populates_all_subsystem_counters(self):
        reg = CounterRegistry()
        out = run_example_scenario(reg, n_kernels=24, n_streams=4,
                                   n_gpu_workers=2, n_cpu_workers=2,
                                   pair_batch=64, step_nodes=(2,),
                                   tree_level=9)
        assert out["gpu_launches"] + out["cpu_launches"] == 24
        names = set(reg.names())
        for expect in ("/threads/executed", "/threads/idle-rate",
                       "/cuda/launched/gpu", "/exec/gpu-fraction",
                       "/cuda/aggregated-per-launch",
                       "/cuda/sim-gpu/kernels-executed",
                       "/parcels/mpi/messages",
                       "/parcels/libfabric/messages",
                       "/futures/continuations-dispatched",
                       "/simulator/steps-evaluated"):
            assert expect in names, expect
        # every kernel's continuation ran through the scheduler
        assert reg.value("/threads/executed") >= 24
        assert format_report(reg) != "(no counters recorded)"

    def test_scenario_traces_when_enabled(self, tmp_path):
        trace.enable()
        run_example_scenario(CounterRegistry(), n_kernels=8, n_streams=2,
                             n_gpu_workers=1, n_cpu_workers=2,
                             pair_batch=32, step_nodes=(2,), tree_level=9)
        trace.disable()
        path = tmp_path / "trace.json"
        assert trace.export_chrome(str(path)) > 0
        doc = json.loads(path.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"phase", "cuda", "future"} <= cats


class TestEntryPoint:
    def test_module_entry_writes_trace_and_report(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.profile",
             "--out", str(tmp_path), "--kernels", "16", "--level", "9"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "scheduler (/threads)" in proc.stdout
        assert "parcelport cost components" in proc.stdout
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M"} <= phases
