"""Names, units and directions of every ledger metric.

``BENCHMARK.json`` at the repo root repeats these tables in the driver's
format (``test_ledger.py`` asserts the two agree).  What the driver's
format has no key for lives only here: which per-layer metrics are *exact*
(program counts that must repeat to the digit) and which end-to-end metric
each per-layer metric is expected to move.
"""

from __future__ import annotations

#: (name, unit, better, regression bound as a share of the parent's median).
#: ``step_cost`` and ``run_cost`` are wall time in units of the probe kernel
#: taken right before (``workloads.probe``): raw seconds of identical code
#: spread 0.1-0.45 between processes on this shared host, the ratios
#: 0.04-0.09 (README, "Noise"), so the raw seconds are per-layer
#: information and the ratios carry the bounds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("step_cost", "probe", "lower", 0.25),
    ("run_cost", "probe", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better, exact, moves).  Seconds are per timed step unless
#: the name says otherwise; counts are per repetition (one fixed block of
#: steps).  A metric whose layer a workload bypasses reads 0 there.
PER_LAYER = (
    ("step_s", "s", "lower", False,
     "information: p25 wall of mesh.step() in one untraced repetition"),
    ("run_s", "s", "lower", False,
     "information: wall of that repetition's run (steps + saves + "
     "detection + recovery + replay)"),
    ("subgrids_per_s", "1/s", "higher", False,
     "information: the paper's Fig. 2 unit, n_subgrids x useful steps / "
     "run_s"),
    ("probe_s", "s", "lower", False,
     "information: median wall of the probe kernel, i.e. the host's speed "
     "while the numbers above were taken"),
    ("gravity.solve_s", "s", "lower", False,
     "step_cost on star_serial (~0.9 of the step) and v1309_dist"),
    ("gravity.kernel_p2p_s", "s", "lower", False, "gravity.solve_s"),
    ("gravity.kernel_m2l_s", "s", "lower", False, "gravity.solve_s"),
    ("gravity.index_s", "s", "lower", False,
     "gravity.solve_s (gather/scatter, upward, downward; on the futurized "
     "path it also holds the wait for kernel futures)"),
    ("gravity.density_io_s", "s", "lower", False, "step_cost (small)"),
    ("gravity.build_s", "s", "lower", False,
     "setup_s on star_serial (from_uniform + list-recording first solve, "
     "per repetition)"),
    ("gravity.solves", "count", "lower", True, "none"),
    ("gravity.interactions_p2p", "count", "lower", True, "none"),
    ("gravity.interactions_m2l", "count", "lower", True, "none"),
    ("gravity.ns_per_interaction", "ns", "lower", False,
     "step_cost on star_serial"),
    ("hydro.rhs_s", "s", "lower", False,
     "step_cost on sedov_serial (~0.85); busy time summed over threads"),
    ("hydro.cfl_s", "s", "lower", False, "step_cost on sedov_serial"),
    ("hydro.floors_s", "s", "lower", False, "step_cost on sedov_serial"),
    ("hydro.rhs_calls", "count", "lower", True, "none"),
    ("hydro.ns_per_zone", "ns", "lower", False, "step_cost on sedov_serial"),
    ("mesh.step_other_s", "s", "lower", False,
     "step_cost on sedov_serial (halo exchange, RK combine); on the futurized "
     "pair it is mostly waiting on futures"),
    ("mesh.halo_msgs", "count", "lower", True, "none"),
    ("mesh.halo_bytes", "B", "lower", True, "none"),
    ("scf.solve_s", "s", "lower", False,
     "setup_s on v1309_dist (per repetition)"),
    ("exec.map_s", "s", "lower", False, "step_cost on the futurized pair"),
    ("runtime.tasks", "count", "lower", True, "none"),
    ("runtime.steals", "count", "lower", False,
     "step_cost on sedov_dist_recover"),
    ("runtime.idle_sleeps", "count", "lower", False,
     "step_cost on sedov_dist_recover"),
    ("runtime.gpu_launch_fraction", "ratio", "higher", False,
     "step_cost on v1309_dist (base: kernels placed)"),
    ("runtime.agg_tasks_per_launch", "ratio", "higher", False,
     "step_cost on v1309_dist (base: aggregated GPU launches)"),
    ("runtime.cpu_overflow_launches", "count", "lower", False,
     "step_cost on v1309_dist"),
    ("runtime.futurized_ratio", "ratio", "lower", False,
     "step_cost on the futurized pair (base: step_cost of a serial node-level "
     "mesh on the same input)"),
    ("network.send_s", "s", "lower", False, "step_cost on sedov_dist_recover"),
    ("network.remote_msgs", "count", "lower", True, "none"),
    ("network.remote_bytes", "B", "lower", True, "none"),
    ("network.local_msgs", "count", "higher", True, "none"),
    ("network.local_bytes", "B", "higher", True, "none"),
    ("network.reordered", "count", "lower", True, "none"),
    ("network.local_fastpath_share", "ratio", "higher", True,
     "none (base: all halo messages)"),
    ("network.eager_share", "ratio", "higher", True,
     "none (base: charged messages)"),
    ("network.rma_share", "ratio", "lower", True,
     "none (base: charged messages)"),
    ("network.modelled_s", "model_s", "lower", True,
     "none (sender_cpu + wire + receiver_cpu of the halo port: the "
     "Fig. 2/3 quantity)"),
    ("resilience.ckpt_save_s", "s", "lower", False,
     "run_cost on the distributed pair (per save, replication included)"),
    ("resilience.replicate_s", "s", "lower", False,
     "resilience.ckpt_save_s (per save)"),
    ("resilience.ckpt_bytes", "B", "lower", True, "none (per save)"),
    ("resilience.replica_bytes", "B", "lower", True, "none (per save)"),
    ("resilience.ckpt_share", "ratio", "lower", False,
     "run_cost on sedov_dist_recover (base: run_s of the traced repetitions)"),
    ("resilience.recover_s", "s", "lower", False,
     "run_cost on sedov_dist_recover (silence to step counter regained)"),
    ("resilience.recover_call_s", "s", "lower", False,
     "resilience.recover_s"),
    ("resilience.detect_sim_s", "sim_s", "lower", True,
     "resilience.recover_s (event-clock seconds, not wall)"),
    ("resilience.replayed_steps", "count", "lower", True, "none"),
    ("resilience.fallbacks", "count", "lower", True, "none"),
    ("resilience.blocks_fetched", "count", "lower", True, "none"),
    ("resilience.bytes_fetched", "B", "lower", True, "none"),
    ("resilience.tasks_retried", "count", "lower", True, "none"),
    ("trace.overhead_ratio", "ratio", "lower", False,
     "validity of this table (base: untraced step_cost in the same process)"),
)

EXACT = frozenset(name for name, _, _, exact, _ in PER_LAYER if exact)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}
