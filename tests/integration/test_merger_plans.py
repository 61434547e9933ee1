"""The fault-plan *space* of :func:`repro.resilience.merger.run_merger`.

The three preset modules next door each assert one scripted disaster in
depth; this one checks what the single driver makes cheap:

* bad input fails at the boundary with a ``ValueError`` — before any mesh
  is built — one table row per rejection;
* the degraded-network plan really loses parcels (its counters differ
  from the clean-network plan's) while the final state stays
  byte-identical;
* over drawn (kill set, kill step, corrupt saves, torn saves, reorder
  seed, fault seed) tuples a run either ends byte-identical to the
  node-level reference with reconciling counters, or raises a typed
  error — never a hang (the suite-wide pytest timeout), never silent
  divergence.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import BlockMesh, DistBlockMesh, solve_lane_emden
from repro.core.scenario import equilibrium_star, sedov_blast, v1309_binary
from repro.core.stepper import FaultRecoveryExhausted, GuardViolation
from repro.resilience import BuddyReplicatedStore, CheckpointError
from repro.resilience.durability import EVACUATION_CAPACITY
from repro.resilience.merger import (DUAL_KILL_CORRUPT, FaultPlan, Topology,
                                     _check_kill, run_merger)
from repro.runtime import CounterRegistry

NAN = float("nan")


def _stub(n: int) -> SimpleNamespace:
    """A scenario only validation may touch: building a mesh from it
    (``options=None``) would raise something other than ``ValueError``."""
    return SimpleNamespace(shape=(n,) * 3, domain=1.0, origin=(0.0, 0.0, 0.0),
                           options=None, bc="outflow", self_gravity=False)


def _run(n=16, n_localities=4, **plan):
    return lambda: run_merger(_stub(n), Topology(n_localities=n_localities),
                              FaultPlan(**plan))


REJECTIONS = {
    "edge not a multiple of the sub-grid": (_run(n=12), "multiple"),
    "no locality": (lambda: Topology(n_localities=0), "locality"),
    "fractional locality count":
        (lambda: Topology(n_localities=2.5), "n_localities"),
    "unknown parcelport": (lambda: Topology(port="bogus"), "port"),
    "fractional step count": (lambda: FaultPlan(steps=2.5), "steps"),
    "fractional kill index": (lambda: FaultPlan(kill=(1.5,)), "kill"),
    "boolean kill index": (lambda: FaultPlan(kill=(True,)), "kill"),
    "kill set repeats a locality":
        (lambda: FaultPlan(kill=(1, 1)), "twice"),
    "kill set outside the topology": (_run(kill=(4,)), "outside"),
    "kill set takes every locality":
        (_run(n_localities=2, kill=(0, 1)), "survive"),
    "kill set takes an owner and its buddy": (_run(kill=(1, 2)), "buddies"),
    "kill set takes the last owner and its cyclic buddy":
        (_run(kill=(0, 3)), "buddies"),
    "negative kill index": (lambda: FaultPlan(kill=(-1,)), "negative"),
    "negative kill step":
        (lambda: FaultPlan(kill_after_steps=-1), "kill_after_steps"),
    "no steps": (lambda: FaultPlan(steps=0), "steps"),
    "negative step-fault index":
        (lambda: FaultPlan(fail_at_steps=(-1,)), "negative"),
    "negative corruption step":
        (lambda: FaultPlan(corrupt_at_steps=(0, -2)), "negative"),
    "negative corrupt-save index":
        (lambda: FaultPlan(corrupt_saves=(-1,)), "negative"),
    "negative torn-save index":
        (lambda: FaultPlan(torn_saves=(-3,)), "negative"),
    "loss rate above one": (_run(loss_rate=1.5), "loss_rate"),
    "negative delay rate": (_run(delay_rate=-0.1), "delay_rate"),
    "action-fault rate above one":
        (_run(action_fault_rate=2.0), "action_fault_rate"),
    "v1309: no cells": (lambda: v1309_binary(M=0), "M must be positive"),
    "v1309: negative cells": (lambda: v1309_binary(M=-8), "M must be"),
    "v1309: fractional cells": (lambda: v1309_binary(M=8.0), "M must be"),
    "v1309: zero mass ratio":
        (lambda: v1309_binary(M=8, mass_ratio=0.0), "mass_ratio"),
    "v1309: mass ratio above one":
        (lambda: v1309_binary(M=8, mass_ratio=1.5), "mass_ratio"),
    "v1309: no separation":
        (lambda: v1309_binary(M=8, separation=0.0), "separation"),
    "v1309: negative domain":
        (lambda: v1309_binary(M=8, domain_factor=-1.0), "domain_factor"),
    "v1309: no SCF iteration":
        (lambda: v1309_binary(M=8, scf_iters=0), "scf_iters"),
    "v1309: fractional SCF iterations":
        (lambda: v1309_binary(M=8, scf_iters=2.5), "scf_iters"),
    "v1309: domain narrower than the binary":
        (lambda: v1309_binary(M=8, domain_factor=0.5), "domain_factor"),
    # coarse grids on which the SCF loses the primary: a ValueError that
    # names the geometry and the cells its boundary points sample
    "v1309: SCF loses the primary at domain_factor 1.9":
        (lambda: v1309_binary(M=8, domain_factor=1.9, scf_iters=12),
         r"M=8, domain_factor=1\.9\).*x cells \[5, 3, 0\]"),
    "v1309: SCF loses the primary at domain_factor 2.0":
        (lambda: v1309_binary(M=8, domain_factor=2.0, scf_iters=12),
         r"M=8, domain_factor=2\).*x cells \[5, 3, 0\]"),
    "v1309: SCF loses the primary at domain_factor 2.5":
        (lambda: v1309_binary(M=8, domain_factor=2.5, scf_iters=12),
         r"M=8, domain_factor=2\.5\).*x cells \[5, 3, 0\]"),
    "star: no cells": (lambda: equilibrium_star(n=0), "n must be"),
    "star: no domain": (lambda: equilibrium_star(n=8, domain=0.0), "domain"),
    "star: no radius":
        (lambda: equilibrium_star(n=8, radius=0.0), "radius must be"),
    "star: negative radius":
        (lambda: equilibrium_star(n=8, radius=-1.0), "radius must be"),
    "star: negative mass":
        (lambda: equilibrium_star(n=8, mass=-1.0), "mass must be"),
    "star: NaN mass": (lambda: equilibrium_star(n=8, mass=NAN), "mass must"),
    "star: zero polytropic index":
        (lambda: equilibrium_star(n=8, n_poly=0.0), "n_poly must be"),
    "star: NaN velocity":
        (lambda: equilibrium_star(n=8, velocity=(NAN, 0.0, 0.0)), "velocity"),
    "lane-emden: NaN index": (lambda: solve_lane_emden(NAN), "n must be"),
    "sedov: no cells": (lambda: sedov_blast(n=0), "n must be"),
    "sedov: NaN energy": (lambda: sedov_blast(n=8, E=NAN), "E must be"),
    "sedov: negative energy": (lambda: sedov_blast(n=8, E=-1.0), "E must be"),
    "sedov: NaN density":
        (lambda: sedov_blast(n=8, rho0=NAN), "rho0 must be"),
    "sedov: no density": (lambda: sedov_blast(n=8, rho0=0.0), "rho0 must be"),
    "mesh: infinite domain":
        (lambda: BlockMesh(1, domain=float("inf")), "domain"),
    "mesh: NaN origin":
        (lambda: BlockMesh(1, origin=(float("nan"), 0.0, 0.0)), "origin"),
    "mesh: two-axis origin":
        (lambda: BlockMesh(1, origin=(0.0, 0.0)), "origin"),
    "mesh: locality not an integer":
        (lambda: DistBlockMesh(1, n_localities=2, partition={(0, 0, 0): 1.5},
                               registry=CounterRegistry()), "integers"),
}


@pytest.mark.parametrize("case", REJECTIONS, ids=list(REJECTIONS))
def test_bad_input_is_rejected_at_the_boundary(case):
    call, match = REJECTIONS[case]
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("M, domain_factor",
                         [(8, 2.2), (8, 8.0 / 3.0), (8, 3.0)]
                         + [(16, f) for f in (1.9, 2.0, 2.2, 2.5, 8.0 / 3.0,
                                              3.0)])
def test_v1309_builds_where_the_scf_keeps_the_primary(M, domain_factor):
    """The neighbours of the rejected coarse geometries still build: the
    rejection is the SCF's verdict on those three, not a blanket one."""
    mesh = v1309_binary(M=M, domain_factor=domain_factor, scf_iters=12)
    assert np.isfinite(mesh.interior).all()


def test_degraded_network_loses_parcels_but_not_the_state(
        merger_scenario, merger_reference):
    """Regression: ``loss_rate`` / ``delay_rate`` once reached an injector
    no sender consulted, so the degraded soak was the clean soak."""
    runs = []
    for plan in (DUAL_KILL_CORRUPT,
                 replace(DUAL_KILL_CORRUPT, loss_rate=0.2, delay_rate=0.2)):
        res = run_merger(merger_scenario, Topology(), plan,
                         reference=merger_reference)
        # judged before the next run: the halo port's tallies are
        # process-wide, so a later run's traffic would show up in this
        # transport's share
        assert res.bitwise_identical
        assert res.reports_identical
        assert res.counters_reconcile
        runs.append((res, res.registry.snapshot()))
    (clean, clean_snap), (degraded, snap) = runs
    assert snap["/resilience/injected/loss"] >= 1
    assert snap["/resilience/injected/delay"] >= 1
    assert snap["/resilience/parcels/retries"] >= 1
    assert clean_snap.get("/resilience/injected/loss", 0.0) == 0
    assert clean_snap.get("/resilience/parcels/retries", 0.0) == 0
    # every lost parcel was retried to an ack; none was given up on
    assert snap.get("/resilience/parcels/exhausted", 0.0) == 0
    assert degraded.halo_failed == 0
    assert degraded.halo_acked == clean.halo_acked
    assert np.array_equal(clean.dist.gather_interior(),
                          degraded.dist.gather_interior())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lattice=st.tuples(*[st.integers(1, 3)] * 3),
       n_loc=st.integers(2, 6),
       kill=st.sets(st.integers(0, 5), max_size=4))
def test_kill_check_rejects_exactly_the_kills_the_real_owners_make_fatal(
        lattice, n_loc, kill):
    """``_check_kill`` judges a kill against the owners the mesh will
    really have (its default partition): beyond evacuation capacity it
    is fatal exactly when some block owner dies with its checkpoint
    buddy."""
    kill = tuple(sorted(v for v in kill if v < n_loc))
    if len(kill) >= n_loc:
        with pytest.raises(ValueError, match="survive"):
            _check_kill(lattice, n_loc, kill)
        return
    mesh = DistBlockMesh(lattice, n_localities=n_loc,
                         registry=CounterRegistry())
    everyone = list(range(n_loc))
    fatal = len(kill) > EVACUATION_CAPACITY and any(
        v in kill and BuddyReplicatedStore._buddy_of(v, everyone) in kill
        for v in set(mesh.owners().values()))
    if fatal:
        with pytest.raises(ValueError, match="buddies"):
            _check_kill(lattice, n_loc, kill)
    else:
        _check_kill(lattice, n_loc, kill)


#: what a plan the boundary let through may still end in, typed: every
#: generation a restore could use was corrupt or torn, or a recovery
#: budget ran out
TYPED_FAILURES = (ValueError, CheckpointError, FaultRecoveryExhausted,
                  GuardViolation)


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kill=st.sets(st.integers(0, 3), min_size=1, max_size=2) | st.just(set()),
       kill_after_steps=st.integers(0, 4),
       corrupt_saves=st.sets(st.integers(0, 5), max_size=3),
       torn_saves=st.sets(st.integers(0, 5), max_size=3),
       reorder_seed=st.one_of(st.none(), st.integers(0, 2 ** 16)),
       seed=st.integers(0, 2 ** 16))
def test_any_plan_is_byte_identical_or_fails_typed(
        merger_scenario, merger_reference, kill, kill_after_steps,
        corrupt_saves, torn_saves, reorder_seed, seed):
    try:
        plan = FaultPlan(seed=seed, kill=tuple(sorted(kill)),
                         kill_after_steps=kill_after_steps,
                         corrupt_saves=tuple(sorted(corrupt_saves)),
                         torn_saves=tuple(sorted(torn_saves)))
        res = run_merger(merger_scenario, Topology(reorder_seed=reorder_seed),
                         plan, reference=merger_reference)
    except TYPED_FAILURES as exc:
        # `pytest --hypothesis-show-statistics` shows the outcome mix
        event(f"typed failure: {type(exc).__name__}")
        return
    event("byte-identical via " + ("global rollback" if res.report else
                                   "local rollback" if res.killed else
                                   "no kill"))
    assert res.dist.steps == plan.steps
    assert res.bitwise_identical
    assert res.reports_identical
    assert res.counters_reconcile
    expect_kill = bool(kill) and kill_after_steps <= plan.steps
    assert res.killed == (sorted(kill) if expect_kill else [])
    assert (res.report is not None) == (expect_kill and len(kill) > 1)
