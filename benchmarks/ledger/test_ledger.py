"""Self-test of the perf ledger at ``--quick`` sizes (16^3, 2 steps).

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/ledger/test_ledger.py -q

It checks the instrument, not the numbers: every metric is present under a
well-formed name with a unit, the span wrappers leave ``repro`` exactly as
they found it, exact counts repeat, a failing output check is counted, and
``BENCHMARK.json`` says what ``metrics.py`` and ``workloads.py`` say.
"""

import json
import math
import os
import re
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..", "..")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from repro.core import mesh as mesh_module  # noqa: E402
from repro.core.gravity import fmm, kernels  # noqa: E402
from repro.core.hydro import solver as hydro_solver  # noqa: E402
from repro.runtime.channel import Channel  # noqa: E402

QUICK = {w.name: w for w in workloads.QUICK}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 1309


def quick(name, *, trace, seed=SEED):
    return workloads.run_workload(QUICK[name], seed, 0.0, trace=trace,
                                  min_reps=1)


@pytest.fixture(scope="module", params=sorted(QUICK))
def traced(request):
    return request.param, quick(request.param, trace=True)


def test_manifest_repeats_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, u, b, _, _ in metrics.PER_LAYER]


def test_names_and_units_are_well_formed():
    names = list(metrics.UNITS) + [w.name for w in workloads.WORKLOADS]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for name, unit in metrics.UNITS.items():
        assert UNIT.fullmatch(unit), (name, unit)
    assert metrics.BOUNDS["setup_s"] == max(metrics.BOUNDS.values()) <= 0.25


def test_traced_pass_prints_every_layer_metric(traced):
    name, (result, detail) = traced
    layer = result["metrics"]
    assert result["correct"], name
    assert list(layer) == [m[0] for m in metrics.PER_LAYER]
    for metric, value in layer.items():
        assert math.isfinite(value) and value >= 0.0, (name, metric, value)
    assert layer["hydro.rhs_s"] > 0.0
    gravity = QUICK[name].scenario != "sedov"
    assert (layer["gravity.solve_s"] > 0.0) == gravity
    if not QUICK[name].localities:
        # every second of a serial step is attributed: the layers plus the
        # step's self time add up to the wall the driver loop measured
        attributed = (layer["gravity.solve_s"] + layer["gravity.density_io_s"]
                      + layer["hydro.rhs_s"] + layer["hydro.cfl_s"]
                      + layer["hydro.floors_s"] + layer["mesh.step_other_s"])
        wall = sum(detail["steps"]) / len(detail["steps"])
        assert attributed == pytest.approx(wall, rel=0.02)


def test_wrappers_are_restored(traced):
    assert fmm.p2p_pair is kernels.p2p_pair
    assert fmm.m2l_pair is kernels.m2l_pair
    assert mesh_module.compute_rhs is hydro_solver.compute_rhs
    for fn in (mesh_module.BlockMesh.step, fmm.FmmSolver.solve,
               fmm.FmmSolver.from_uniform, Channel.set):
        assert not hasattr(fn, "__wrapped__"), fn


def test_untraced_run_prints_every_end_to_end_metric():
    result, detail = quick("sedov_serial", trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in metrics.END_TO_END]
    assert all(v > 0.0 for v in result["metrics"].values())
    assert result["attempted"] == len(detail["steps"]) + len(detail["checks"])


def test_exact_counts_repeat_across_runs_and_seeds(traced):
    name, (first, first_detail) = traced
    if name == "v1309_dist":
        pytest.skip("SCF set-up makes a second run slow; the three other "
                    "workloads cover every exact counter but the GPU's")
    second, second_detail = quick(name, trace=True, seed=SEED + 1)
    assert second_detail["crc"] == first_detail["crc"]
    for metric in sorted(metrics.EXACT):
        assert second["metrics"][metric] == first["metrics"][metric], metric


def test_planted_failing_check_is_counted():
    strict = replace(QUICK["sedov_serial"], mass_tol=-1.0)
    result, detail = workloads.run_workload(strict, SEED, 0.0, min_reps=1)
    assert detail["checks"]["mass_drift"] is False
    assert result["failed"] == 1 and result["correct"] is False


def test_recovery_script_runs_as_written(traced):
    name, (result, detail) = traced
    if name != "sedov_dist_recover":
        pytest.skip("only the recovery workload has a disaster")
    assert detail["checks"]["replayed_two_steps"]
    assert detail["checks"]["one_checkpoint_fallback"]
    assert detail["checks"]["byte_identical_to_node_level"]
    assert result["metrics"]["resilience.recover_s"] > 0.0
    assert result["metrics"]["resilience.blocks_fetched"] == 8


def _record(step_cost, rounds, failed=0, solves=8.0):
    e2e = {m: {"value": 1.0, "rounds": [1.0, 1.0], "spread": 0.0}
           for m in metrics.BOUNDS}
    e2e["step_cost"] = {"value": step_cost, "rounds": rounds,
                     "spread": (max(rounds) - min(rounds)) / step_cost}
    layer = {m: {"value": 0.0} for m in metrics.EXACT}
    layer["gravity.solves"] = {"value": solves}
    return {"workloads": {"w": {"end_to_end": e2e, "per_layer": layer,
                                "ops_attempted": 10, "ops_failed": failed}}}


def _verdicts(old, new):
    rows, status = compare.compare_records(old, new)
    return {r["metric"]: r["verdict"] for r in rows}, status


def test_compare_verdicts():
    old = _record(1.0, [1.0, 1.02])
    verdicts, status = _verdicts(old, _record(1.05, [1.04, 1.06]))
    assert verdicts["step_cost"] == "unchanged" and status == 0
    verdicts, status = _verdicts(old, _record(1.5, [1.5, 1.52]))
    assert verdicts["step_cost"] == "regressed" and status == 1
    verdicts, status = _verdicts(old, _record(0.5, [0.5, 0.51]))
    assert verdicts["step_cost"] == "improved" and status == 0
    # rounds that disagree by more than the bound cannot resolve a change
    verdicts, status = _verdicts(old, _record(1.5, [1.2, 1.8]))
    assert verdicts["step_cost"] == "unresolved" and status == 0
    verdicts, status = _verdicts(old, _record(1.0, [1.0, 1.0], failed=1))
    assert verdicts["failure_share"] == "regressed" and status == 1
    verdicts, _ = _verdicts(old, _record(1.0, [1.0, 1.0], solves=6.0))
    assert verdicts["gravity.solves"] == "changed"
