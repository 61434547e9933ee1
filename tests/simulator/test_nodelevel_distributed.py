"""Node-level DES (Table 2) and the distributed scaling model (Figs 2/3).

These are the paper's evaluation tables and figures as assertions;
``REPRO_FULL_SCALE=1`` adds the level-16/17 trees (minutes of tree
building).
"""

import pytest

from repro.analysis import parallel_efficiency, speedup
from repro.network import PARCELPORTS
from repro.simulator import (PIZ_DAINT, PIZ_DAINT_CPU, StepModel,
                             TABLE2_CONFIGS, XEON_E5_2660V3_10C,
                             XEON_E5_2660V3_20C, measure_node,
                             simulate_gravity_solve, with_gpus)
from repro.simulator.flops import (MONOPOLE_KERNEL_FLOPS,
                                   MULTIPOLE_KERNEL_FLOPS)
from repro.simulator.platforms import V100
from repro.simulator.scaling import (PAPER_NODE_COUNTS, cached_profile,
                                     node_level_table, parcelport_ratio,
                                     reference_rate, scaling_sweep)

from . import full_scale

LF = PARCELPORTS["libfabric"]
MPI = PARCELPORTS["mpi"]

#: Table 2 as printed: name -> measured GFLOP/s
PAPER_TABLE2_GFLOPS = {
    "E5-2660v3 10c, CPU-only": 125,
    "E5-2660v3 10c + 1x V100": 2271,
    "E5-2660v3 10c + 2x V100": 3185,
    "E5-2660v3 20c, CPU-only": 250,
    "E5-2660v3 20c + 1x V100": 1516,
    "E5-2660v3 20c + 2x V100": 5188,
    "Xeon Phi 7210 64c": 459,
    "Piz Daint node, CPU-only": 157,
    "Piz Daint node + 1x P100": 973,
}

#: Sec. 6.3 headline efficiencies (libfabric, % of the 1-node reference)
PAPER_EFFICIENCIES = {(16, 256): 71.4, (16, 5400): 21.2,
                      (17, 1024): 78.4, (17, 2048): 68.1}


class TestNodeLevel:
    def test_cpu_only_rate_is_kernel_rate(self):
        """Sec. 6.1.1: on the CPU each kernel runs on one core; measured
        GFLOP/s is exactly cores x per-core kernel rate."""
        r = measure_node(XEON_E5_2660V3_10C)
        expected = XEON_E5_2660V3_10C.cores \
            * XEON_E5_2660V3_10C.fmm_core_rate()
        assert r.gflops == pytest.approx(expected, rel=1e-12)

    def test_cpu_20c_doubles_10c(self):
        a = measure_node(XEON_E5_2660V3_10C)
        b = measure_node(XEON_E5_2660V3_20C)
        assert b.gflops == pytest.approx(2 * a.gflops, rel=1e-12)

    def test_gpu_beats_cpu_by_order_of_magnitude(self):
        cpu = measure_node(PIZ_DAINT_CPU)
        gpu = measure_node(PIZ_DAINT)
        assert gpu.gflops > 4 * cpu.gflops

    def test_flop_accounting_uses_paper_constants(self):
        r = simulate_gravity_solve(PIZ_DAINT_CPU, n_interior=10,
                                   n_leaves=90)
        assert r.kernel_flops == pytest.approx(
            10 * MULTIPOLE_KERNEL_FLOPS + 90 * MONOPOLE_KERNEL_FLOPS)

    def test_gpu_launch_fraction_high(self):
        """Sec. 6.1.2: >90% of kernels launch on the GPU."""
        r = measure_node(PIZ_DAINT)
        assert r.gpu_fraction > 0.85

    def test_starvation_inversion_one_gpu(self):
        """Table 2: 10 cores + 1 V100 outperforms 20 cores + 1 V100;
        Sec. 6.1.2: it launches ~99.9997% of kernels on the GPU, 20c +
        1 V100 only ~97.4995% — more feeders saturate the streams."""
        ten = measure_node(with_gpus(XEON_E5_2660V3_10C, V100))
        twenty = measure_node(with_gpus(XEON_E5_2660V3_20C, V100))
        assert ten.gflops > twenty.gflops
        assert ten.gpu_fraction > twenty.gpu_fraction
        assert ten.gpu_fraction > 0.97
        assert twenty.gpu_fraction > 0.85

    def test_two_gpus_need_enough_cores(self):
        """Table 2: 20c + 2 V100 beats 10c + 2 V100."""
        ten = measure_node(with_gpus(XEON_E5_2660V3_10C, V100, V100))
        twenty = measure_node(with_gpus(XEON_E5_2660V3_20C, V100, V100))
        assert twenty.gflops > ten.gflops

    def test_fraction_of_peak_in_paper_band(self):
        """All GPU rows land between 10% and 45% of device peak."""
        for name, node in TABLE2_CONFIGS:
            r = measure_node(node)
            assert 0.10 < r.fraction_of_peak < 0.45, name

    def test_table2_rows_match_paper(self):
        """CPU rows follow the paper's accounting exactly; GPU rows land
        within a factor ~2 of the measurements."""
        ours = {name: round(r.gflops) for name, r in node_level_table()}
        assert ours["E5-2660v3 10c, CPU-only"] == 125
        assert ours["E5-2660v3 20c, CPU-only"] == 250
        assert ours["Xeon Phi 7210 64c"] in (458, 459)
        assert ours["Piz Daint node, CPU-only"] == 157
        for name, paper in PAPER_TABLE2_GFLOPS.items():
            assert 0.45 < ours[name] / paper < 2.2, name

    def test_stalled_simulation_detected(self):
        with pytest.raises(ValueError):
            simulate_gravity_solve(PIZ_DAINT, n_interior=-1, n_leaves=-1)


class TestScalingModel:
    @pytest.fixture(scope="class")
    def model14(self):
        return StepModel(cached_profile(14), PIZ_DAINT)

    def test_single_node_has_no_messages(self, model14):
        res = model14.step_time(1, LF)
        assert res.total_messages == 0
        assert res.t_comm_cpu_max == 0.0

    def test_two_nodes_speed_up(self, model14):
        r1 = model14.step_time(1, LF)
        r2 = model14.step_time(2, LF)
        assert r2.subgrids_per_second > 1.5 * r1.subgrids_per_second

    def test_strong_scaling_efficiency_decays(self, model14):
        ref = reference_rate()
        effs = [parallel_efficiency(
            model14.step_time(n, LF).subgrids_per_second, n, ref)
            for n in (2, 32, 512)]
        assert effs[0] > effs[1] > effs[2]

    def test_weak_scaling_near_ideal(self):
        """Fig. 2: 'Weak scaling is clearly very good' — constant work
        per node along the level/node diagonal."""
        ref = reference_rate()
        m15 = StepModel(cached_profile(15), PIZ_DAINT)
        rate = m15.step_time(4, LF).subgrids_per_second
        eff = parallel_efficiency(rate, 4, ref)
        assert eff > 0.75

    def test_libfabric_wins_at_scale(self):
        """Fig. 3: the ratio grows well above 1 for large runs."""
        m = StepModel(cached_profile(15), PIZ_DAINT)
        lf = m.step_time(1024, LF).subgrids_per_second
        mpi = m.step_time(1024, MPI).subgrids_per_second
        assert lf / mpi > 1.5

    def test_libfabric_dips_at_small_scale(self):
        """Fig. 3: 'a slight reduction in performance for lower node
        counts'."""
        m = StepModel(cached_profile(14), PIZ_DAINT)
        lf = m.step_time(2, LF).subgrids_per_second
        mpi = m.step_time(2, MPI).subgrids_per_second
        assert lf / mpi < 1.02

    def test_fig2_sweep_shape(self):
        """Fig. 2 over levels 14-15, 1..512 nodes, both parcelports."""
        points = scaling_sweep(levels=(14, 15), max_nodes=512)
        by_key = {(p.level, p.n_nodes, p.parcelport): p for p in points}
        # weak scaling near-ideal along the constant-work diagonal
        for level, n in ((14, 1), (15, 4)):
            assert by_key[(level, n, "libfabric")].efficiency > 0.7
        for level in (14, 15):
            effs = [by_key[(level, n, "libfabric")].efficiency
                    for n in PAPER_NODE_COUNTS
                    if (level, n, "libfabric") in by_key]
            assert effs[0] > effs[-1]         # strong scaling tails off
        for (level, n, port), p in by_key.items():
            if port == "libfabric" and n >= 256:
                assert p.speedup >= by_key[(level, n, "mpi")].speedup

    def test_fig3_ratio_shape(self):
        """Fig. 3: at most parity at the smallest multi-node run, > 1.8x
        at the largest, growing with node count on every level."""
        series = parcelport_ratio(levels=(14, 15), max_nodes=1024)
        by_key = {(lvl, n): r for lvl, n, r in series}
        assert by_key[(14, 2)] < 1.05
        assert by_key[(14, 1024)] > 1.8
        for lvl in (14, 15):
            ns = sorted(n for l, n, _ in series if l == lvl)
            assert by_key[(lvl, ns[-1])] > by_key[(lvl, ns[0])]

    @full_scale
    def test_headline_efficiencies(self):
        """Sec. 6.3: 78.4% @ L17/1024, 68.1% @ L17/2048, 71.4% @ L16/256,
        21.2% @ L16/5400 (libfabric)."""
        ref = reference_rate()
        for (level, n), paper in PAPER_EFFICIENCIES.items():
            model = StepModel(cached_profile(level), PIZ_DAINT)
            rate = model.step_time(n, LF).subgrids_per_second
            ours = parallel_efficiency(rate, n, ref) * 100
            assert ours == pytest.approx(paper, abs=12.0), f"L{level}@{n}"

    @full_scale
    def test_peak_ratio_near_paper(self):
        """At the largest runs the paper reports up to ~2.8x."""
        series = parcelport_ratio(levels=(14, 15), max_nodes=5400)
        assert 2.0 < max(r for _l, _n, r in series) < 3.2

    def test_speedup_arithmetic(self):
        assert speedup(200.0, 100.0) == 2.0
        assert parallel_efficiency(200.0, 4, 100.0) == 0.5
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0, 1.0)


class TestDegradedNetworkModel:
    """StepModel charges the resilience layer's retry cost (PR 2)."""

    def test_loss_slows_the_step(self):
        prof = cached_profile(14)
        clean = StepModel(prof, PIZ_DAINT).step_time(128, LF)
        lossy = StepModel(prof, PIZ_DAINT,
                          loss_rate=0.05).step_time(128, LF)
        assert lossy.t_step > clean.t_step
        assert lossy.total_messages > clean.total_messages  # retransmissions

    def test_single_node_unaffected_by_loss(self):
        prof = cached_profile(14)
        clean = StepModel(prof, PIZ_DAINT).step_time(1, LF)
        lossy = StepModel(prof, PIZ_DAINT, loss_rate=0.2).step_time(1, LF)
        assert lossy.t_step == clean.t_step

    def test_penalty_grows_with_loss_rate(self):
        prof = cached_profile(14)
        steps = [StepModel(prof, PIZ_DAINT, loss_rate=p).step_time(256, LF)
                 for p in (0.0, 0.05, 0.2)]
        times = [s.t_step for s in steps]
        assert times == sorted(times)

    def test_retry_gauges_published(self):
        from repro.runtime import CounterRegistry
        reg = CounterRegistry()
        m = StepModel(cached_profile(14), PIZ_DAINT, loss_rate=0.1,
                      registry=reg)
        m.step_time(64, LF)
        snap = reg.snapshot()
        assert snap["/simulator/steps-evaluated"] == 1.0
        assert snap["/simulator/step/libfabric/n-nodes"] == 64.0
        assert snap["/simulator/step/libfabric/t-step"] > 0.0
        assert snap["/simulator/step/libfabric/retry-attempts-per-msg"] > 1.0
        assert snap["/simulator/step/libfabric/retry-messages"] > 0.0
        assert 0.0 < snap["/simulator/step/libfabric/delivery-probability"] <= 1.0

    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ValueError):
            StepModel(cached_profile(14), PIZ_DAINT, loss_rate=1.0)
