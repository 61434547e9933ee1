"""Per-kernel microbenchmarks for the fused SoA physics kernels.

Times each building-block kernel on representative batch sizes and
reports ns per interaction (gravity pair kernels) or ns per zone/face
(hydro kernels).  ``p2p_dense`` is the Green-table sweep of a whole 32^3
leaf level (``p2p_dense_16`` of a 16^3 one), per leaf pair, beside the
per-pair ``p2p`` kernel it replaced there (which additionally pays
gathers and scatter-adds the microbenchmark does not time).
``m2l_root_dense`` (the 8^3 root level) and ``m2l_sweep`` (the 16^3
interior level, P = 8) are the two tilings of
the dense M2L, each beside per-pair ``m2l_pair`` over the very same far
pairs of a 32^3 hierarchy, gathered in ``_TILE`` tiles and scatter-added
with ``bincount`` as the retired pair-list engine ran them (against Green
blocks, matmuls and per-cell assembly): ns per *useful* pair plus the
evaluated/useful ratio the static masks cost.  Where a
reference implementation exists in :mod:`repro.validation.reference`
(the einsum ``m2l_pair_reference``, ``kt_flux_reference`` and the
allocate-per-stage ``compute_rhs_reference``) both variants are timed
and the speedup of the fused path is reported — the CI gate asserts
>= 1.5x for fused m2l, the full RHS and both dense M2L tilings.
``reconstruct`` and ``kt_flux`` time the calls the hydro sweep makes:
PPM of the pencil-major ``(NF, m, 1, n, n)`` batch of one block into
caller-owned parabola ends, and the KT flux into a caller-owned ``out``.
``rhs_batched`` is batching itself: 1, 8, 16 and 27 8^3 sub-grids
through one batched ``compute_rhs`` call (16 is the default
``agg_slots``, the most sub-grids one mesh RHS call batches), beside
the same sub-grids through a per-block loop of batch-of-one calls.
``halo_fill`` is one ghost-fill stage of a 27-block ``DistBlockMesh`` with
one locality per block — every box one block, every halo a route of its
own (one rectangle per parcel, the worst case of the packed path) —
beside the same rectangles as direct copies: us per halo, and the bytes
one fill moves (computed from the plan, not measured).  ``dist_fill`` is
a stage the way the ledger's distributed Sedov runs it — 27 blocks on 4
localities, one box each, reorder seed on: ms per stage, parcelport
messages per stage, which must equal the directed locality pairs whose
blocks touch, and the direct copies, of which a box needs none.
``rhs_calls`` counts (no timing) the ``compute_rhs`` calls of one RK
stage and the sub-grids in each, on the layouts the ledger's hydro
stages run: a 24^3 serial Sedov, 24^3 and 16^3 on 4 localities, and 24^3
restarted on the 2 survivors of a kill, all at ``agg_slots`` 16.
``subgrid_tax`` is what cutting a box into 8^3 sub-grids still costs: the
same 24^3 Sedov steps on ``BlockMesh(1, n=24)``, on its ``retile`` into
3^3 sub-grids (views of one box: walls-only fill, one RHS sweep) and on
``DistBlockMesh(3, n_localities=4)`` (the sharded mesh: four boxes, their
halos over the parcelport, batched box RHS calls), ms per step each and
the two ratios to the one block, all three ending on the same state CRC.

Used two ways:

* imported by ``bench_step.py`` so ``BENCH_step.json`` grows a
  ``kernels`` block tracking per-kernel cost per PR;
* run standalone::

      PYTHONPATH=src python benchmarks/kernels_micro.py

All timings are min-of-N (same estimator as ``timeit``): the minimum
over repeats discards scheduling noise and shared-host contention.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import zlib
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (IdealGas, NF, NGHOST, RHO, EGAS,  # noqa: E402
                        SUBGRID_N, SX, TAU)
from repro.core.grid import LX, PASSIVE0  # noqa: E402
from repro.core import mesh as mesh_module  # noqa: E402
from repro.core.distmesh import DistBlockMesh, box_partition  # noqa: E402
from repro.core.exec import ExecutionEngine  # noqa: E402
from repro.core.gravity import fmm  # noqa: E402
from repro.core.gravity.kernels import (green_sweeps, greens,  # noqa: E402
                                        m2l_pair, p2p_pair,
                                        p2p_pair_staged, sweep_pad)
from repro.core.gravity.stencil import leaf_sweep_offsets  # noqa: E402
from repro.core.hydro import reconstruct  # noqa: E402
from repro.core.hydro import solver as solver_module  # noqa: E402
from repro.core.hydro.reconstruct import ppm_faces  # noqa: E402
from repro.core.hydro.riemann import (conserved_to_primitive,  # noqa: E402
                                      kt_flux)
from repro.core.hydro.solver import HydroOptions, compute_rhs  # noqa: E402
from repro.core.mesh import BlockMesh  # noqa: E402
from repro.core.scenario import (equilibrium_star, sedov_blast,  # noqa: E402
                                 v1309_binary)
from repro.core.workspace import Workspace  # noqa: E402
from repro.runtime.aggregate import DEFAULT_AGG_SLOTS  # noqa: E402
from repro.runtime.counters import CounterRegistry  # noqa: E402
from repro.validation.reference import (apply_boundary,  # noqa: E402
                                        compute_rhs_reference,
                                        kt_flux_reference,
                                        m2l_pair_reference)

#: pair-batch size for the gravity kernels (one aggregated launch's worth)
PAIR_N = 16384
#: dense leaf sweep row name -> parent-grid edge: a 32^3 leaf level and
#: the 16^3 one every gravity workload of the perf ledger runs
DENSE_EDGES = {"p2p_dense": 16, "p2p_dense_16": 8}
#: grid edge of the hierarchy the dense M2L rows run on: an 8^3 root
#: (matrix tiling) over a 16^3 interior level (P = 8 sweep)
M2L_GRID = 32
#: dense M2L row name -> level of that hierarchy
M2L_ROWS = {"m2l_root_dense": 0, "m2l_sweep": 1}
#: hydro block edge (interior zones per side)
HYDRO_N = 32
#: batch sizes (8^3 sub-grids) of the ``rhs_batched`` rows: one block, the
#: former serial chunk, the largest batch of a mesh's default
#: engine, a whole 24^3 mesh
RHS_BATCHES = (1, 8, DEFAULT_AGG_SLOTS, 27)
#: sub-grids per edge of the ``halo_fill`` / ``dist_fill`` mesh (27
#: blocks; one block per box: 316 halos)
HALO_BPE = 3
#: localities of the ``dist_fill`` and ``subgrid_tax`` sharded meshes (the
#: ledger's distributed Sedov)
DIST_LOCALITIES = 4
#: cells per edge of the ``subgrid_tax`` Sedov box (the ledger's
#: ``sedov_serial`` input)
TAX_N = HALO_BPE * SUBGRID_N
#: the ``rhs_calls`` layouts: (Sedov cells per edge, localities — 0 is the
#: node-level mesh without an engine —, localities killed and recovered
#: from, the ledger's ``VICTIMS``)
RHS_LAYOUTS = {"serial_24": (24, 0, ()), "dist_24": (24, 4, ()),
               "dist_16": (16, 4, ()), "survivors_24": (24, 4, (1, 3))}
#: the ``uniform_fields`` states: the ledger's scenarios at its sizes,
#: each stepped ``UNIFORM_STEPS`` times
UNIFORM_SCENARIOS = {"sedov": lambda: sedov_blast(24),
                     "star": lambda: equilibrium_star(16),
                     "v1309": lambda: v1309_binary(M=16, scf_iters=12)}
UNIFORM_STEPS = 5


def _time(fn, *, repeats: int = 5) -> float:
    """Best wall time of ``fn()`` over ``repeats`` calls (one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def dense_sweep(edge: int) -> tuple[list, int, tuple[int, int]]:
    """The Green-table leaf sweep of a whole ``(2 edge)``^3 leaf level:
    every parent offset's sweep in one list, the leaf pairs they cover
    and the y / z pad of the staged mass grid."""
    offsets = leaf_sweep_offsets(edge)
    pad = sweep_pad(offsets)
    sweeps, pairs = green_sweeps(edge, offsets, fmm._CHILD, 0.5 / edge,
                                 np.ones((edge,) * 3 + (8,), bool), pad)
    return sweeps, pairs, pad


def _dense_sweep_seconds(edge: int, repeats: int) -> tuple[float, int]:
    """Best time of :func:`dense_sweep` on random masses and its pairs."""
    sweeps, pairs, (py, pz) = dense_sweep(edge)
    m8 = np.pad(np.random.default_rng(8).uniform(0.5, 2.0,
                                                 (edge,) * 3 + (8,)),
                [(0, 0), (py, py), (pz, pz), (0, 0)])
    out = np.empty((edge,) * 3 + (32,))
    ws = Workspace()
    return _time(lambda: p2p_pair_staged(m8, sweeps, out, ws),
                 repeats=repeats), pairs


def _pair_batch(n: int = PAIR_N):
    rng = np.random.default_rng(4)
    dR = rng.normal(size=(n, 3)) * 6 + 5
    mA = rng.uniform(0.5, 2.0, n)
    mB = rng.uniform(0.5, 2.0, n)
    M2 = rng.normal(size=(n, 3, 3))
    M2 = 0.5 * (M2 + M2.transpose(0, 2, 1))
    return dR, mA, mB, M2


def _hydro_block(n: int = HYDRO_N):
    rng = np.random.default_rng(6)
    opts = HydroOptions(eos=IdealGas())
    m = n + 2 * NGHOST
    U = np.zeros((NF, m, m, m))
    U[RHO] = rng.uniform(0.5, 2.0, (m, m, m))
    U[EGAS] = rng.uniform(0.5, 2.0, (m, m, m))
    U[TAU] = opts.eos.tau_from_eint(U[EGAS])
    # every field has structure: PPM copies a uniform field through
    # without its arithmetic, and the rows time the arithmetic
    U[SX:SX + 3] = rng.normal(0.0, 0.1, (3, m, m, m))
    U[PASSIVE0:LX] = rng.uniform(0.0, 0.1, (LX - PASSIVE0, m, m, m)) * U[RHO]
    U[LX:] = rng.normal(0.0, 0.01, (NF - LX, m, m, m))
    apply_boundary(U, "periodic")
    return U, opts


def _m2l_solver() -> fmm.FmmSolver:
    """The ``M2L_GRID``^3 hierarchy the ``M2L_ROWS`` run on, its plan
    built."""
    rho = np.random.default_rng(9).uniform(0.1, 1.0, (M2L_GRID,) * 3)
    solver = fmm.FmmSolver.from_uniform(rho, 1.0 / M2L_GRID)
    solver.solve()
    return solver


def m2l_dense_counts(solver: fmm.FmmSolver) -> dict:
    """Per ``M2L_ROWS`` row, counts only: the dense M2L plan entries of
    its level, the far pairs they cover and the Green values their tiles
    evaluate (``I x J`` per batch entry, masked or not)."""
    rows = {}
    for name, level in M2L_ROWS.items():
        entries = [i for i, e in enumerate(solver._plan)
                   if e.kind == "m2l-dense" and e.dense.lv.level == level]
        V = solver._plan[entries[0]].dense.V
        rows[name] = {
            "entries": entries,
            "pairs": sum(solver._plan[i].pairs for i in entries),
            "evaluated": sum(V[tgt][..., 0].size * V[src].shape[-2]
                             for i in entries
                             for tgt, src, _ in solver._plan[i].tiles)}
    return rows


def _far_pairs(solver: fmm.FmmSolver, entries: list[int]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The far pairs the dense M2L ``entries`` of one level cover, as
    level slots ``(a, b)``: every unmasked entry of every tile, in the
    order the retired pair-list engine recorded them (by lex-positive
    offset ``b - a``, then by ``a``)."""
    dense = solver._plan[entries[0]].dense
    staged = np.arange(dense.V.size // fmm.N_MOMENT).reshape(
        dense.V.shape[:-1])
    slot = np.empty(len(staged.reshape(-1)), dtype=np.int64)
    slot[dense.flat] = np.arange(len(dense.flat))
    a, b = [], []
    for i in entries:
        for tgt, src, mask in solver._plan[i].tiles:
            ti, sj, hit = np.broadcast_arrays(staged[tgt][..., :, None],
                                              staged[src][..., None, :],
                                              mask == 0.0)
            a.append(slot[ti[hit]])
            b.append(slot[sj[hit]])
    a, b = np.concatenate(a), np.concatenate(b)
    w = dense.lv.coords[b] - dense.lv.coords[a]
    flip = (w[:, 0] < 0) | ((w[:, 0] == 0) & (
        (w[:, 1] < 0) | ((w[:, 1] == 0) & (w[:, 2] < 0))))
    a, b, w = np.where(flip, b, a), np.where(flip, a, b), \
        np.where(flip[:, None], -w, w)
    order = np.lexsort((a, w[:, 2], w[:, 1], w[:, 0]))
    return a[order], b[order]


def _m2l_pairs(lv: fmm.FmmLevel, a: np.ndarray, b: np.ndarray,
               outs: tuple) -> None:
    """Per-pair M2L over ``(a, b)``: ``m2l_pair`` on ``fmm._TILE``-sized
    gathered tiles into ``outs``, then ``bincount`` scatter-adds into the
    level's accumulators."""
    tiny = fmm.TINY_MASS
    for lo in range(0, len(a), fmm._TILE):
        sl = slice(lo, lo + fmm._TILE)
        at, bt = a[sl], b[sl]
        m2l_pair(lv.com[at] - lv.com[bt], np.maximum(lv.m[at], tiny),
                 np.maximum(lv.m[bt], tiny), lv.M2[at], lv.M2[bt],
                 out=tuple(o[sl] for o in outs))
    phiA, phiB, accA, accB, HA, HB = outs
    for idx, phi, acc, H in ((a, phiA, accA, HA), (b, phiB, accB, HB)):
        lv.phi += np.bincount(idx, weights=phi, minlength=lv.n)
        for d in range(3):
            lv.acc[:, d] += np.bincount(idx, weights=acc[:, d],
                                        minlength=lv.n)
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            h = np.bincount(idx, weights=H[:, i, j], minlength=lv.n)
            lv.hess[:, i, j] += h
            if i != j:
                lv.hess[:, j, i] += h


def _m2l_level_rows(repeats: int) -> dict:
    """The ``M2L_ROWS``: per level, every dense M2L plan entry computed
    and accumulated, beside per-pair ``m2l_pair`` over the same far pairs
    (:func:`_m2l_pairs`) — the same pairs, counted the same."""
    solver = _m2l_solver()

    def run(entries):
        for i in entries:
            solver._accumulate_entry(solver._plan[i],
                                     solver._compute_entry(i, 0))

    rows = {}
    for name, count in m2l_dense_counts(solver).items():
        entries, pairs = count["entries"], count["pairs"]
        a, b = _far_pairs(solver, entries)
        assert len(a) == pairs
        lv = solver.levels[M2L_ROWS[name]]
        outs = tuple(np.empty((pairs,) + shape) for shape in
                     ((), (), (3,), (3,), (3, 3), (3, 3)))
        t_dense = _time(lambda: run(entries), repeats=repeats)
        t_lists = _time(lambda: _m2l_pairs(lv, a, b, outs), repeats=repeats)
        rows[name] = {"seconds": t_dense, "items": pairs,
                      "ns_per_item": 1e9 * t_dense / pairs,
                      "pair_list_ns_per_item": 1e9 * t_lists / pairs,
                      "evaluated_per_useful": count["evaluated"] / pairs}
        rows[f"{name}_speedup"] = t_lists / t_dense
    return rows


def m2l_dense_lines(kernels: dict) -> list[str]:
    """The dense M2L rows as report lines (ns per useful pair)."""
    return [f"  {name:18s} {kernels[name]['ns_per_item']:10.1f} ns/pair, "
            f"pair lists {kernels[name]['pair_list_ns_per_item']:.1f} "
            f"({kernels[name + '_speedup']:.2f}x; {kernels[name]['items']} "
            f"pairs, {kernels[name]['evaluated_per_useful']:.2f} evaluated "
            f"per useful)" for name in M2L_ROWS]


def _halo_fill_row(repeats: int) -> dict:
    """One ghost-fill stage of the ``HALO_BPE``^3-block mesh with one
    locality per block: every box is one block and every halo a route of
    its own (pack -> send -> channel -> unpack, one rectangle per
    parcel), beside the same rectangles copied directly."""
    mesh = DistBlockMesh(HALO_BPE, n_localities=HALO_BPE ** 3,
                         registry=CounterRegistry())
    boxes = mesh._boxes
    halos = [(dst, ghost, src, layer, 8 * (hi - lo))
             for route in mesh._layout.routes
             for dst, ghost, src, layer, lo, hi, _ in route.slabs]
    generation = itertools.count()
    remote = _time(lambda: mesh._halo_exchange(boxes, next(generation)),
                   repeats=repeats)
    assert mesh.transport.stats.remote_msgs == (repeats + 1) * len(halos)
    local = _time(lambda: mesh._copy_halos(boxes, halos), repeats=repeats)
    row = {route: {"seconds": seconds, "items": len(halos),
                   "us_per_halo": 1e6 * seconds / len(halos)}
           for route, seconds in (("remote", remote), ("local", local))}
    row["bytes_per_fill"] = sum(nbytes for *_, nbytes in halos)
    row["speedup"] = remote / local
    return row


def halo_fill_line(kernels: dict) -> str:
    """The ``halo_fill`` row as a report line (us per halo)."""
    row = kernels["halo_fill"]
    return (f"  halo_fill          {row['remote']['us_per_halo']:8.2f} "
            f"us/halo a route each, "
            f"{row['local']['us_per_halo']:.2f} as direct copies "
            f"({row['speedup']:.2f}x; {row['local']['items']} halos, "
            f"{row['bytes_per_fill']} bytes per fill)")


def _dist_fill_row(repeats: int) -> dict:
    """One ghost-fill stage of the ``HALO_BPE``^3-block mesh sharded over
    ``DIST_LOCALITIES`` localities (one box each) with seeded out-of-order
    delivery.  ``locality_pairs`` are the directed pairs whose blocks
    touch, read off the owners alone — what the stage must send."""
    mesh = DistBlockMesh(HALO_BPE, n_localities=DIST_LOCALITIES,
                         reorder_seed=1309, registry=CounterRegistry())
    generation = itertools.count()
    seconds = _time(lambda: mesh._halo_exchange(mesh._boxes,
                                                next(generation)),
                    repeats=repeats)
    owner = mesh.owners()
    seams = {(owner[nb], loc) for ip, loc in owner.items()
             for nb in itertools.product(*(range(max(c - 1, 0),
                                                 min(c + 2, HALO_BPE))
                                           for c in ip))
             if owner[nb] != loc}
    routes = mesh._layout.routes
    stats = mesh.transport.stats
    stages = repeats + 1
    return {"seconds": seconds,
            "ms_per_stage": 1e3 * seconds,
            "msgs_per_stage": stats.remote_msgs / stages,
            "locality_pairs": len(seams),
            "boxes": len(mesh._boxes),
            "remote_halos": sum(len(route.slabs) for route in routes),
            "local_copies_per_stage": stats.local_msgs / stages,
            "remote_bytes_per_stage": stats.remote_bytes // stages,
            "plan_remote_bytes": 8 * sum(route.size for route in routes)}


def dist_fill_line(kernels: dict) -> str:
    """The ``dist_fill`` row as a report line (ms per stage)."""
    row = kernels["dist_fill"]
    return (f"  dist_fill          {row['ms_per_stage']:8.2f} ms/stage on "
            f"{DIST_LOCALITIES} localities ({row['boxes']} boxes), "
            f"{row['msgs_per_stage']:.0f} messages/stage for "
            f"{row['remote_halos']} remote halos over "
            f"{row['locality_pairs']} locality pairs "
            f"({row['remote_bytes_per_stage']} bytes), "
            f"{row['local_copies_per_stage']:.0f} direct copies")


def rhs_calls_row() -> dict:
    """Counts only: per ``RHS_LAYOUTS`` layout, the sub-grids of every
    ``compute_rhs`` call of one RK stage (the first of a real step), at
    the ledger's ``agg_slots``: ``DEFAULT_AGG_SLOTS`` (16), the sharded
    meshes' engine default and what the node-level mesh batches by
    without an engine.  The survivors' layout is the recovery's:
    ``box_partition`` over the localities left after the kill."""
    calls: list[int] = []
    kernel = mesh_module.compute_rhs

    def counted(U, *args):
        arrays = [U] if isinstance(U, np.ndarray) else U
        calls.append(sum(int(np.prod([n - 2 * NGHOST for n in u.shape[1:]]))
                         for u in arrays) // SUBGRID_N ** 3)
        return kernel(U, *args)

    rows = {}
    with mock.patch.object(mesh_module, "compute_rhs", counted):
        for name, (n, localities, killed) in RHS_LAYOUTS.items():
            src = sedov_blast(n)
            if not localities:
                mesh = BlockMesh.retile(src)
            else:
                mesh = DistBlockMesh.retile(
                    src, n_localities=localities, registry=CounterRegistry(),
                    engine=ExecutionEngine(registry=CounterRegistry()))
                for loc in killed:
                    mesh.agas.fail_locality(loc, evacuate=False)
                alive = sorted(set(range(localities)) - set(killed))
                mesh.apply_ownership({ip: alive[k] for ip, k in box_partition(
                    mesh.lattice, len(alive)).items()})
            calls.clear()
            mesh.step()
            rows[name] = calls[:len(calls) // 2]
    return rows


def uniform_fields_row() -> dict:
    """Counts only: per ``UNIFORM_SCENARIOS`` scenario, stepped
    ``UNIFORM_STEPS`` times, along each axis of the first RHS of the next
    step the fields the sweep carries into PPM (the advected fields that
    are zero over the batch never enter it) and the fields PPM
    reconstructs (the carried ones that are uniform copy through)."""
    carried: list[int] = []
    runs: list[int] = []
    faces, one = solver_module.ppm_faces, reconstruct._ppm_one

    def per_axis(q, *args, **kwargs):
        carried.append(len(q))
        runs.append(0)
        return faces(q, *args, **kwargs)

    def counted(*args):
        runs[-1] += 1
        return one(*args)

    rows = {}
    for name, make in UNIFORM_SCENARIOS.items():
        mesh = make()
        for _ in range(UNIFORM_STEPS):
            mesh.step()
        carried.clear()
        runs.clear()
        with mock.patch.object(solver_module, "ppm_faces", per_axis), \
                mock.patch.object(reconstruct, "_ppm_one", counted):
            mesh.step()
        rows[name] = {"carried": carried[:3], "reconstructed": runs[:3]}
    return rows


def rhs_calls_line(kernels: dict) -> str:
    """The ``rhs_calls`` row as a report line (sub-grids per call)."""
    return "  rhs_calls          " + ", ".join(
        f"{name} {subgrids}"
        for name, subgrids in kernels["rhs_calls"].items())


def _subgrid_tax_row(repeats: int) -> dict:
    """The same ``repeats + 1`` steps (one warmup) of a ``TAX_N``^3 Sedov
    blast as one block, as 8^3 sub-grids of one box and as 8^3 sub-grids
    sharded over ``DIST_LOCALITIES`` localities: best step each, the
    ratios to the one block, and the CRC all must end on."""
    one_block = sedov_blast(TAX_N)
    # all built before any steps: the same initial state
    meshes = {"one_block": one_block,
              "subgrids": BlockMesh.retile(one_block),
              "sharded": DistBlockMesh.retile(
                  one_block, n_localities=DIST_LOCALITIES,
                  registry=CounterRegistry())}
    row = {}
    for name, mesh in meshes.items():
        seconds = _time(mesh.step, repeats=repeats)
        row[name] = {"seconds": seconds, "ms_per_step": 1e3 * seconds,
                     "blocks": len(mesh.blocks),
                     "crc": zlib.crc32(mesh.gather_interior())}
    assert len({row[name]["crc"] for name in meshes}) == 1, row
    for name, ratio in (("subgrids", "ratio"),
                        ("sharded", "sharded_ratio")):
        row[ratio] = row[name]["seconds"] / row["one_block"]["seconds"]
    return row


def subgrid_tax_line(kernels: dict) -> str:
    """The ``subgrid_tax`` row as a report line (ms per step)."""
    row = kernels["subgrid_tax"]
    return (f"  subgrid_tax        {row['subgrids']['ms_per_step']:8.2f} "
            f"ms/step as {row['subgrids']['blocks']} sub-grids of one box "
            f"({row['ratio']:.2f}x), "
            f"{row['sharded']['ms_per_step']:.2f} sharded over "
            f"{DIST_LOCALITIES} localities ({row['sharded_ratio']:.2f}x), "
            f"{row['one_block']['ms_per_step']:.2f} as one {TAX_N}^3 block "
            f"(same CRC {row['one_block']['crc']:#010x})")


def run_kernels_micro(repeats: int = 5) -> dict:
    """Time every kernel; return the ``kernels`` block for the report.

    Every entry carries ``seconds`` (best wall time of one batch) and
    ``ns_per_item`` (interaction, zone, or face).  ``m2l_speedup`` and
    ``rhs_speedup`` compare the fused kernels against their retained
    reference implementations on identical inputs.
    """
    dR, mA, mB, M2 = _pair_batch()
    n_pairs = len(dR)

    p2p_out = tuple(np.empty(s) for s in
                    ((n_pairs,), (n_pairs,), (n_pairs, 3), (n_pairs, 3)))
    m2l_out = tuple(np.empty(s) for s in
                    ((n_pairs,), (n_pairs,), (n_pairs, 3), (n_pairs, 3),
                     (n_pairs, 3, 3), (n_pairs, 3, 3)))

    t_p2p = _time(lambda: p2p_pair(dR, mA, mB, out=p2p_out),
                  repeats=repeats)
    t_m2l = _time(lambda: m2l_pair(dR, mA, mB, M2, M2, out=m2l_out),
                  repeats=repeats)
    t_m2l_ref = _time(lambda: m2l_pair_reference(dR, mA, mB, M2, M2),
                      repeats=repeats)
    t_greens = _time(lambda: greens(dR), repeats=repeats)

    t_dense = {edge: _dense_sweep_seconds(edge, repeats)
               for edge in DENSE_EDGES.values()}

    U, opts = _hydro_block()
    ws = Workspace()
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    n_zones = HYDRO_N ** 3

    # reconstruction along x as the sweep calls it: the pencil-major
    # (NF, m, B, n, n) batch of one block, transversally its interior,
    # into parabola ends of cells -1 .. n
    g = NGHOST
    pencil = np.ascontiguousarray(W[:, :, None, g:-g, g:-g])
    ends = tuple(np.empty((NF, HYDRO_N + 2) + pencil.shape[2:])
                 for _ in range(2))
    t_rec = _time(lambda: ppm_faces(pencil, g, 1, out=ends, ws=ws),
                  repeats=repeats)

    WL, WR = (f.copy() for f in ppm_faces(pencil, g, 1, out=ends, ws=ws))
    n_faces = int(np.prod(WL.shape[1:]))
    flux_out = np.empty_like(WL)
    t_ktf = _time(lambda: kt_flux(WL, WR, opts.eos, 0, out=flux_out),
                  repeats=repeats)
    t_ktf_ref = _time(lambda: kt_flux_reference(WL, WR, opts.eos, 0),
                      repeats=repeats)

    rhs_out = np.empty((NF, HYDRO_N, HYDRO_N, HYDRO_N))
    t_rhs = _time(lambda: compute_rhs(U, 1.0 / HYDRO_N, opts,
                                      out=rhs_out, ws=ws),
                  repeats=repeats)
    t_rhs_ref = _time(lambda: compute_rhs_reference(U, 1.0 / HYDRO_N, opts),
                      repeats=repeats)

    def entry(seconds: float, items: int) -> dict:
        return {"seconds": seconds, "items": items,
                "ns_per_item": 1e9 * seconds / items}

    sub, _ = _hydro_block(SUBGRID_N)
    subs = [sub.copy() for _ in range(max(RHS_BATCHES))]
    one_out = np.empty((NF,) + (SUBGRID_N,) * 3)
    dx = 1.0 / SUBGRID_N
    rhs_batched = {}
    for B in RHS_BATCHES:
        all_out = np.empty((NF, B) + (SUBGRID_N,) * 3)
        t_loop = _time(lambda: [compute_rhs(U1, dx, opts, out=one_out, ws=ws)
                                for U1 in subs[:B]], repeats=repeats)
        t_batch = _time(lambda: compute_rhs(subs[:B], dx, opts, out=all_out,
                                            ws=ws), repeats=repeats)
        zones = B * SUBGRID_N ** 3
        rhs_batched[str(B)] = {"per_block": entry(t_loop, zones),
                               "batched": entry(t_batch, zones),
                               "speedup": t_loop / t_batch}

    return {
        **_m2l_level_rows(repeats),
        "rhs_batched": rhs_batched,
        "halo_fill": _halo_fill_row(repeats),
        "dist_fill": _dist_fill_row(repeats),
        "rhs_calls": rhs_calls_row(),
        "subgrid_tax": _subgrid_tax_row(repeats),
        "pair_batch": n_pairs,
        "hydro_grid": HYDRO_N,
        "p2p": entry(t_p2p, n_pairs),
        **{name: entry(*t_dense[edge]) for name, edge in DENSE_EDGES.items()},
        "m2l": entry(t_m2l, n_pairs),
        "m2l_reference": entry(t_m2l_ref, n_pairs),
        "greens": entry(t_greens, n_pairs),
        "reconstruct": entry(t_rec, n_zones),
        "kt_flux": entry(t_ktf, n_faces),
        "kt_flux_reference": entry(t_ktf_ref, n_faces),
        "rhs": entry(t_rhs, n_zones),
        "rhs_reference": entry(t_rhs_ref, n_zones),
        "m2l_speedup": t_m2l_ref / t_m2l,
        "rhs_speedup": t_rhs_ref / t_rhs,
    }


def rhs_batched_lines(kernels: dict) -> list[str]:
    """The ``rhs_batched`` rows as report lines (ns per zone)."""
    return [f"  rhs_batched B={B:>2s}     "
            f"{row['per_block']['ns_per_item']:8.1f} ns/zone per-block loop, "
            f"{row['batched']['ns_per_item']:8.1f} one batched call "
            f"({row['speedup']:.2f}x)"
            for B, row in kernels["rhs_batched"].items()]


def main(argv: list[str] | None = None) -> int:
    kernels = run_kernels_micro()
    for name in ("p2p", *DENSE_EDGES, "m2l", "m2l_reference", "greens",
                 "reconstruct", "kt_flux", "kt_flux_reference", "rhs",
                 "rhs_reference"):
        e = kernels[name]
        print(f"  {name:18s} {e['ns_per_item']:10.1f} ns/item "
              f"({e['items']} items, best {1e3 * e['seconds']:.3f} ms)")
    for line in m2l_dense_lines(kernels):
        print(line)
    print(f"  m2l fused speedup  {kernels['m2l_speedup']:.2f}x")
    print(f"  rhs fused speedup  {kernels['rhs_speedup']:.2f}x")
    for line in rhs_batched_lines(kernels):
        print(line)
    print(halo_fill_line(kernels))
    print(dist_fill_line(kernels))
    print(rhs_calls_line(kernels))
    print(subgrid_tax_line(kernels))
    if argv and "--json" in argv:
        print(json.dumps(kernels, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
