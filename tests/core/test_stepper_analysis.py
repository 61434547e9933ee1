"""Conservation monitor, evolve driver, analysis helpers."""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import sod_tube
from repro.core.stepper import ConservationMonitor, Recovery, drive, evolve
from repro.simulator.flops import MONOPOLE_KERNEL_FLOPS, MULTIPOLE_KERNEL_FLOPS


class TestMonitor:
    def test_sample_records_state(self):
        mesh = sod_tube(n=(16, 8, 8))
        mon = ConservationMonitor()
        rec = mon.sample(mesh)
        assert rec.mass > 0
        assert rec.step == 0
        assert len(mon.records) == 1

    def test_drift_zero_with_single_record(self):
        mon = ConservationMonitor()
        mon.sample(sod_tube(n=(16, 8, 8)))
        assert mon.drift("mass") == 0.0

    def test_evolve_advances_to_t_end(self):
        mesh = sod_tube(n=(16, 8, 8))
        mon = evolve(mesh, t_end=0.02)
        assert mesh.time == pytest.approx(0.02)
        assert len(mon.records) == mesh.steps + 1

    def test_evolve_respects_max_steps(self):
        mesh = sod_tube(n=(16, 8, 8))
        evolve(mesh, t_end=10.0, max_steps=3)
        assert mesh.steps == 3

    def test_evolve_callback_invoked(self):
        mesh = sod_tube(n=(16, 8, 8))
        seen = []
        evolve(mesh, t_end=10.0, max_steps=2,
               callback=lambda m: seen.append(m.time))
        assert len(seen) == 2

    def test_report_keys(self):
        mesh = sod_tube(n=(16, 8, 8))
        mon = evolve(mesh, t_end=10.0, max_steps=2)
        rep = mon.report()
        assert set(rep) == {"mass", "momentum", "angular_momentum", "egas"}
        assert rep["mass"] < 1e-12

    def test_report_without_records_raises(self):
        with pytest.raises(ValueError, match="no conservation records"):
            ConservationMonitor().report()

    def test_non_finite_t_end_rejected(self):
        mesh = sod_tube(n=(16, 8, 8))
        with pytest.raises(ValueError, match="t_end"):
            evolve(mesh, t_end=float("nan"))
        with pytest.raises(ValueError, match="t_end"):
            drive(Recovery(mesh, None, ConservationMonitor()),
                  float("inf"), 3)
        assert mesh.steps == 0

    def test_negative_max_steps_rejected(self):
        mesh = sod_tube(n=(16, 8, 8))
        with pytest.raises(ValueError, match="max_steps"):
            evolve(mesh, t_end=0.02, max_steps=-1)
        with pytest.raises(ValueError, match="max_steps"):
            drive(Recovery(mesh, None, ConservationMonitor()), 0.02, -1)


class TestFlopAccounting:
    def test_paper_constants(self):
        assert MULTIPOLE_KERNEL_FLOPS == 549_888 * 455
        assert MONOPOLE_KERNEL_FLOPS == 549_888 * 12


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_handles_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out
