#!/usr/bin/env python3
"""Noise-aware comparison of two ledger records.

    python3 benchmarks/ledger/compare.py OLD.json NEW.json

One row per (workload, end-to-end metric): both values, the ratio NEW/OLD
(base: OLD), the metric's bound, the wider of the two records' round-to-
round spreads, and a verdict:

``regressed``   NEW is worse than OLD by more than the bound
``improved``    NEW is better than OLD by more than the bound
``unchanged``   within the bound either way
``unresolved``  a record's own rounds differ by more than the bound, so
                the instrument cannot tell — unless every round of NEW is
                better than every round of OLD, which still reads
                ``improved``

plus one row per workload for the failure share (failed / attempted
operations; more failures is a regression) and one row for every *exact*
per-layer count that changed (``changed``: program counts repeat to the
digit, so any difference is real; whether it is wanted is for the issue
to say).  Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import sys

from metrics import BETTER, BOUNDS, EXACT

__all__ = ["compare_records", "print_rows"]


def _worse_by(old: float, new: float, better: str) -> float:
    """Signed relative change, positive when NEW is worse (base: OLD)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def _end_to_end_row(workload: str, metric: str, old: dict, new: dict) -> dict:
    bound = BOUNDS[metric]
    better = BETTER[metric]
    worse = _worse_by(old["value"], new["value"], better)
    noise = max(old.get("spread", 0.0), new.get("spread", 0.0))
    old_rounds = old.get("rounds", [old["value"]])
    new_rounds = new.get("rounds", [new["value"]])
    all_better = (max(new_rounds) < min(old_rounds) if better == "lower"
                  else min(new_rounds) > max(old_rounds))
    if noise > bound:
        verdict = "improved" if all_better and worse < -bound \
            else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"workload": workload, "metric": metric, "old": old["value"],
            "new": new["value"], "ratio": new["value"] / old["value"],
            "base": "old", "bound": bound, "spread": noise,
            "within_bound": abs(worse) <= bound, "verdict": verdict}


def compare_records(old: dict, new: dict) -> tuple[list[dict], int]:
    """Rows as described in the module docstring, and the exit status."""
    rows = []
    for workload, old_w in old["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            continue
        for metric in BOUNDS:
            rows.append(_end_to_end_row(
                workload, metric, old_w["end_to_end"][metric],
                new_w["end_to_end"][metric]))
        old_share = old_w["ops_failed"] / old_w["ops_attempted"]
        new_share = new_w["ops_failed"] / new_w["ops_attempted"]
        rows.append({
            "workload": workload, "metric": "failure_share",
            "old": old_share, "new": new_share, "ratio": None,
            "base": "ops_attempted", "bound": 0.0, "spread": 0.0,
            "within_bound": new_share == old_share,
            "verdict": ("regressed" if new_share > old_share else
                        "improved" if new_share < old_share else
                        "unchanged")})
        for metric in sorted(EXACT):
            a = old_w["per_layer"][metric]["value"]
            b = new_w["per_layer"][metric]["value"]
            if a != b:
                rows.append({
                    "workload": workload, "metric": metric, "old": a,
                    "new": b, "ratio": b / a if a else None, "base": "old",
                    "bound": 0.0, "spread": 0.0, "within_bound": False,
                    "verdict": "changed"})
    status = 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    return rows, status


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<20}{'metric':<28}{'old':>12}{'new':>12}"
          f"{'new/old':>9}{'bound':>7}{'spread':>8}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"{r['workload']:<20}{r['metric']:<28}{r['old']:>12.6g}"
              f"{r['new']:>12.6g}{ratio:>9}{r['bound']:>7.2f}"
              f"{r['spread']:>8.3f}  {r['verdict']}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    rows, status = compare_records(old, new)
    print_rows(rows)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
