"""Measurement, flop accounting and table formatting for the benchmarks.

Also home of the repo-specific static lint pass
(``python -m repro.analysis.lint`` / :mod:`repro.analysis.lint`), the
static prong of the sanitizer subsystem (:mod:`repro.sanitize`).
"""

from ..simulator.flops import (STENCIL_SIZE, CELLS_PER_SUBGRID,
                               INTERACTIONS_PER_LAUNCH,
                               FLOPS_PER_MONOPOLE_INTERACTION,
                               FLOPS_PER_MULTIPOLE_INTERACTION,
                               MONOPOLE_KERNEL_FLOPS, MULTIPOLE_KERNEL_FLOPS,
                               OTHER_FLOPS_PER_SUBGRID, KernelCounts,
                               fmm_flops_per_solve)
from .efficiency import speedup, parallel_efficiency, weak_efficiency
from .lint import RULES, Violation, lint_paths, lint_source
from .profile import format_report, group_snapshot, run_example_scenario
from .tables import format_table

__all__ = ["STENCIL_SIZE", "CELLS_PER_SUBGRID", "INTERACTIONS_PER_LAUNCH",
           "FLOPS_PER_MONOPOLE_INTERACTION", "FLOPS_PER_MULTIPOLE_INTERACTION",
           "MONOPOLE_KERNEL_FLOPS", "MULTIPOLE_KERNEL_FLOPS",
           "OTHER_FLOPS_PER_SUBGRID", "KernelCounts", "fmm_flops_per_solve",
           "speedup", "parallel_efficiency", "weak_efficiency",
           "format_table",
           "format_report", "group_snapshot", "run_example_scenario",
           "RULES", "Violation", "lint_paths", "lint_source"]
