"""Counters report: section grouping, one table per registered section,
and the instrumented example that prints it beside a Chrome trace."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import format_report, group_snapshot, profile
from repro.runtime import CounterRegistry
from repro.runtime.counters import KNOWN_SECTIONS

EXAMPLE = (Path(__file__).resolve().parents[2] / "examples"
           / "futurized_gpu_node.py")


def _rows(report):
    """``{path: [value cell, ...]}`` over every table row of a report."""
    rows = {}
    for line in report.splitlines():
        cells = line.split()
        if len(cells) == 2 and cells[0].startswith("/"):
            rows.setdefault(cells[0], []).append(cells[1])
    return rows


class TestGroupSnapshot:
    def test_groups_by_top_level_prefix(self):
        snap = {"/threads/executed": 10.0, "/threads/posted": 12.0,
                "/cuda/launched/gpu": 3.0, "/gpu/busy": 1.0, "flat": 1.0}
        groups = group_snapshot(snap)
        assert groups["threads"] == {"/threads/executed": 10.0,
                                     "/threads/posted": 12.0}
        assert groups["cuda"] == {"/cuda/launched/gpu": 3.0}
        assert groups[None] == {"/gpu/busy": 1.0, "flat": 1.0}

    def test_empty(self):
        assert group_snapshot({}) == {}


class TestFormatReport:
    def test_empty_registry(self):
        assert format_report(CounterRegistry()) == "(no counters recorded)"

    def test_renders_each_section(self):
        reg = CounterRegistry()
        reg.set_gauge("/threads/executed", 4.0)
        reg.set_gauge("/threads/worker/0/executed", 4.0)
        reg.set_gauge("/threads/steal-rate", 0.25)
        reg.increment("/cuda/launched/gpu", 3.0)
        reg.set_gauge("/cuda/sim-gpu/streams-busy", 2.0)
        reg.set_gauge("/exec/gpu-fraction", 0.75)
        reg.increment("/fmm/solves")
        reg.increment("/hydro/steps", 2.0)
        reg.set_gauge("/parcels/mpi/messages", 2.0)
        reg.set_gauge("/futures/continuations-dispatched", 5.0)
        reg.set_gauge("/simulator/steps-evaluated", 6.0)
        reg.set_gauge("/gpu/typo", 1.0)
        report = format_report(reg)
        for section in ("threads", "cuda", "exec", "fmm", "hydro",
                        "parcels", "futures", "simulator"):
            assert KNOWN_SECTIONS[section] in report
        # in KNOWN_SECTIONS order, the unregistered table last
        titles = [t for t in (*KNOWN_SECTIONS.values(), profile.UNREGISTERED)
                  if t in report]
        assert titles == sorted(titles, key=report.index)
        assert titles[-1] == profile.UNREGISTERED
        rows = _rows(report)
        assert rows["/exec/gpu-fraction"] == ["75.00%"]
        assert rows["/threads/steal-rate"] == ["25.00%"]
        assert rows["/cuda/launched/gpu"] == ["3"]
        assert rows["/gpu/typo"] == ["1"]

    _TAIL = st.text("abcdefghijklmnopqrstuvwxyz0123456789-:_", min_size=1,
                    max_size=8)
    _PATH = st.builds(
        lambda section, tails, suffix: "/" + "/".join(
            [section, *tails[:-1], tails[-1] + suffix]),
        st.sampled_from([*KNOWN_SECTIONS, "gpu", "thread", "x", "exe"]),
        st.lists(_TAIL, min_size=1, max_size=3),
        st.sampled_from(["", "", "-rate", "-fraction"]))

    @settings(max_examples=60, deadline=None)
    @given(counters=st.dictionaries(_PATH, st.integers(0, 10 ** 9),
                                    max_size=12),
           gauges=st.dictionaries(_PATH, st.integers(0, 10 ** 4),
                                  max_size=12))
    def test_every_path_and_value_appears_exactly_once(self, counters,
                                                       gauges):
        """Property: whatever the registry holds, under registered
        sections or not, each path is one report row carrying its value."""
        def share(path):
            return path.endswith(("-rate", "-fraction"))

        reg = CounterRegistry()
        for path, n in counters.items():
            reg.increment(path, float(n))
        for path, n in gauges.items():
            reg.set_gauge(path, n / 10 ** 4 if share(path) else float(n))
        rows = _rows(format_report(reg))
        snap = reg.snapshot()
        assert set(rows) == set(snap)
        for path, value in snap.items():
            cell = f"{100 * value:.2f}%" if share(path) else str(int(value))
            assert rows[path] == [cell], path


@pytest.fixture(scope="module")
def example_run(tmp_path_factory):
    """One run of ``examples/futurized_gpu_node.py <trace>``: its stdout
    and the Chrome trace document it wrote."""
    path = tmp_path_factory.mktemp("example") / "trace.json"
    proc = subprocess.run([sys.executable, str(EXAMPLE), str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(path.read_text())


class TestScenario:
    """The instrumented demo scenario is the example's two solves."""

    def test_scenario_populates_all_subsystem_counters(self, example_run):
        rows = _rows(example_run[0])
        for prefix in ("/cuda/launched/", "/exec/", "/cuda/agg-"):
            assert any(p.startswith(prefix) for p in rows), prefix
        for expect in ("/exec/tasks", "/exec/gpu-fraction",
                       "/cuda/agg-launches", "/cuda/aggregated-per-launch",
                       "/threads/executed",
                       "/futures/continuations-dispatched"):
            assert expect in rows, expect

    def test_scenario_traces_when_enabled(self, example_run):
        doc = example_run[1]
        assert {"phase", "cuda", "future"} <= {e.get("cat")
                                               for e in doc["traceEvents"]}


class TestEntryPoint:
    def test_module_entry_writes_trace_and_report(self, example_run):
        """The example is the entry point: it prints the report under the
        registered section titles and writes a Chrome trace."""
        report, doc = example_run
        for section in ("threads", "cuda", "exec", "futures"):
            assert KNOWN_SECTIONS[section] in report, section
        assert doc["traceEvents"]
        assert {"X", "M"} <= {e["ph"] for e in doc["traceEvents"]}
