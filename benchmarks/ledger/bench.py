#!/usr/bin/env python3
"""Perf ledger: four workloads, four end-to-end metrics, a traced pass.

Two ways in, one measurement underneath (``workloads.run_workload``):

* **one workload, one process** — what ``BENCHMARK.json`` names::

      python3 benchmarks/ledger/bench.py --workload star_serial \\
          --seed 1309 --seconds 10 --trace 0

  prints, as the last line of stdout, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``).

* **the whole ledger** — no ``--workload``::

      python3 benchmarks/ledger/bench.py [--seed 1309] [--out FILE]

  runs every workload untraced in two mirrored rounds (``A B C D D C B
  A``, one subprocess each, the second round on ``seed + 1``), pools the
  samples, prints every metric as ``workload metric value unit``, then
  makes the traced pass for the per-layer numbers and writes the record
  (and ``trace_<workload>.json`` next to it) when ``--out`` is given.
  ``--repeat-check`` measures two full sets and fails unless they agree
  within the bounds; ``--quick`` switches to the 16^3 / 2-step sizes.

See README.md in this directory for the metric tables and the noise
measurement behind the estimators.
"""

from __future__ import annotations

import os

# BLAS pinned before numpy loads: the load model allows two runtime
# threads per workload and none of them may be a hidden BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from compare import compare_records, print_rows  # noqa: E402
from metrics import BOUNDS, UNITS  # noqa: E402

#: seconds each subprocess measures when the ledger drives it itself
#: (the same value as ``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 10
#: prefix of the stdout line that carries a worker's raw samples
DETAIL = "DETAIL "


def worker(args) -> int:
    import workloads
    table = workloads.QUICK if args.quick else workloads.WORKLOADS
    by_name = {w.name: w for w in table}
    if args.workload not in by_name:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(by_name)}", file=sys.stderr)
        return 2
    result, detail = workloads.run_workload(
        by_name[args.workload], args.seed, args.seconds,
        trace=bool(args.trace), trace_file=args.trace_file,
        min_reps=1 if args.quick else workloads.MIN_REPS)
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in result["metrics"].items()}
    for name, ok in detail["checks"].items():
        if not ok:
            print(f"CHECK FAILED: {args.workload}: {name}", file=sys.stderr)
    print(DETAIL + json.dumps(detail))
    print(json.dumps(result))
    return 0


# -- the whole ledger ---------------------------------------------------------

def spawn(args, name: str, seed: int, trace: int,
          trace_file: str | None = None) -> tuple[dict, dict]:
    """One workload in its own process (fresh counters, own peak RSS)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    print(f"# {name} seed={seed} trace={trace}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines[-2].startswith(DETAIL):
        raise RuntimeError(f"{name}: worker printed no detail line")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL):])


def spread(values: list[float]) -> float:
    """Distance between the extremes as a share of the median."""
    return (max(values) - min(values)) / statistics.median(values)


def measure_set(args, names: list[str], trace_dir: str | None) -> dict:
    """Every workload: mirrored untraced rounds pooled, then a traced run."""
    import workloads
    rounds = 1 if args.quick else 2
    order = (names + names[::-1])[:rounds * len(names)]
    runs: dict[str, list[tuple[dict, dict]]] = {n: [] for n in names}
    for i, name in enumerate(order):
        runs[name].append(spawn(args, name, args.seed + i // len(names), 0))
    out = {}
    for name in names:
        results = [r for r, _ in runs[name]]
        details = [d for _, d in runs[name]]
        first = details[0]
        steps = [s for d in details for s in d["steps"]]
        pooled = {
            "setup_s": statistics.median(
                s for d in details for s in d["setup_s"]),
            "step_cost": statistics.median(
                c for d in details for c in d["step_costs"]),
            "run_cost": statistics.median(
                c for d in details for c in d["run_cost"]),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in details),
        }
        end_to_end = {}
        for metric, value in pooled.items():
            per_round = [r["metrics"][metric]["value"] for r in results]
            end_to_end[metric] = {
                "value": value, "unit": UNITS[metric], "rounds": per_round,
                "spread": spread(per_round), "bound": BOUNDS[metric]}
        checks = dict(first["checks"])
        for d in details[1:]:
            for check, ok in d["checks"].items():
                checks[check] = checks[check] and ok
        # one CRC over both rounds: same result on seed and seed + 1
        checks["rounds_and_seeds_identical"] = \
            len({d["crc"] for d in details}) == 1
        trace_file = (os.path.join(trace_dir, f"trace_{name}.json")
                      if trace_dir else None)
        traced, traced_detail = spawn(args, name, args.seed, 1, trace_file)
        checks["traced_run_identical"] = traced_detail["crc"] == first["crc"]
        for check, ok in traced_detail["checks"].items():
            checks[check] = checks.get(check, True) and ok
        attempted = (sum(r["attempted"] for r in results)
                     + traced["attempted"] + 2)
        failed = (sum(r["failed"] for r in results) + traced["failed"]
                  + (not checks["rounds_and_seeds_identical"])
                  + (not checks["traced_run_identical"]))
        out[name] = {
            "size": {k: first[k] for k in ("n", "n_subgrids", "useful_steps")},
            "end_to_end": end_to_end,
            # raw seconds of the pooled steps, as information; with fewer
            # than 21 samples no tail percentile is claimed
            "step_s_info": {
                "n": len(steps), "min": min(steps), "max": max(steps),
                "p25": workloads.p25(steps),
                "median": statistics.median(steps),
                "p75": statistics.quantiles(steps, n=4)[2]},
            "per_layer": traced["metrics"],
            "checks": checks, "crc": first["crc"],
            "ops_attempted": attempted, "ops_failed": failed,
        }
    return out


def print_set(measured: dict) -> None:
    for name, w in measured.items():
        for metric, m in w["end_to_end"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        info = w["step_s_info"]
        print(f"{name} step_s.info p25={info['p25']:.6g} "
              f"median={info['median']:.6g} p75={info['p75']:.6g} "
              f"min={info['min']:.6g} max={info['max']:.6g} n={info['n']}")
        print(f"{name} ops_failed {w['ops_failed']} of "
              f"{w['ops_attempted']}")
    for name, w in measured.items():
        for metric, m in w["per_layer"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")


def machine() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def ledger(args) -> int:
    import workloads
    table = workloads.QUICK if args.quick else workloads.WORKLOADS
    names = [w.name for w in table]
    trace_dir = os.path.dirname(os.path.abspath(args.out)) if args.out \
        else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    record = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "machine": machine(),
        "workloads": measure_set(args, names, trace_dir),
    }
    print_set(record["workloads"])
    status = 0
    if any(w["ops_failed"] for w in record["workloads"].values()):
        print("LEDGER FAILED: some operation or output check failed",
              file=sys.stderr)
        status = 1
    if args.repeat_check:
        second = {"workloads": measure_set(args, names, None)}
        rows, _ = compare_records(record, second)
        print_rows(rows)
        # two sets of the same code: every pair within its bound, every
        # exact count identical, nothing failed in either set
        passed = (all(r["within_bound"] for r in rows)
                  and not any(w["ops_failed"]
                              for w in second["workloads"].values()))
        record["repeat_check"] = {"rows": rows, "passed": passed}
        if passed:
            print("repeat check passed")
        else:
            print("REPEAT CHECK FAILED: the two sets disagree",
                  file=sys.stderr)
            status = 1
    # the ledger is an instrument: it records, it never claims a gain
    record["claim"] = None
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this "
                        "process (driver mode); default: the whole ledger")
    parser.add_argument("--seed", type=int, default=1309)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds each process measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints the per-layer metrics")
    parser.add_argument("--trace-file", help="driver mode, --trace 1: write "
                        "the spans as a Chrome/Perfetto trace here")
    parser.add_argument("--out", help="ledger mode: write the record here "
                        "and trace_<workload>.json beside it")
    parser.add_argument("--repeat-check", action="store_true",
                        help="ledger mode: measure two sets, require them "
                        "to agree within the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="16^3 / 2-step sizes, one round (test only)")
    args = parser.parse_args(argv)
    return worker(args) if args.workload else ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
