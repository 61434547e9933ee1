"""Measurement and table formatting for the benchmarks.

Also home of the repo-specific static lint pass
(``python -m repro.analysis.lint`` / :mod:`repro.analysis.lint`), the
static prong of the sanitizer subsystem (:mod:`repro.sanitize`).
"""

from .efficiency import speedup, parallel_efficiency
from .lint import RULES, Violation, lint_paths, lint_source
from .profile import format_report, group_snapshot
from .tables import format_table

__all__ = ["speedup", "parallel_efficiency", "format_table",
           "format_report", "group_snapshot",
           "RULES", "Violation", "lint_paths", "lint_source"]
