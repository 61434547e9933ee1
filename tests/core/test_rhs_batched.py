"""Batched pencil-major hydro RHS: layout and batching only, never bits.

``compute_rhs`` evaluates a whole aggregation chunk of sub-grids — or the
node-level mesh's whole box, or an x-slab of it — in one call.  The
contract asserted here: block ``b`` of a batch is bitwise
``compute_rhs_reference`` of that block alone — whatever else is in the
batch, however the blocks are split into chunks or the box into slabs,
and in whichever order — so serial, futurized (any ``agg_slots``),
distributed and retried runs stay byte-identical; malformed input is
rejected before any arithmetic; and the memory a mesh holds stays inside
the ledger's budget.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.mesh as mesh_module
import repro.core.hydro.solver as solver_module
from repro.core import (NF, NGHOST, SUBGRID_N, BlockMesh, DistBlockMesh,
                        ExecutionEngine, IdealGas, sedov_blast)
from repro.core.grid import EGAS, LX, PASSIVE0, RHO, SX, TAU
from repro.core.hydro.solver import HydroOptions, cfl_dt, compute_rhs
from repro.core.workspace import Workspace
from repro.resilience import FaultInjector, SupervisedEngine
from repro.runtime import CounterRegistry, WorkStealingScheduler
from repro.runtime.faults import TransientActionFault
from repro.validation.reference import compute_rhs_reference

DX = 0.05


def _centers(corner, shape, dx=DX):
    """Cell-centre axes of a block whose interior starts at ``corner``,
    as :func:`compute_rhs_reference` derives them from its origin."""
    return tuple(c + (np.arange(n) + 0.5) * dx for c, n in zip(corner, shape))


def _block(rng, shape, floored):
    """A random ghosted conserved block with ``floored`` vacuum cells."""
    m = tuple(n + 2 * NGHOST for n in shape)
    U = np.zeros((NF,) + m)
    U[RHO] = rng.uniform(0.5, 2.0, m)
    U[SX:SX + 3] = 0.3 * rng.standard_normal((3,) + m)
    U[EGAS] = rng.uniform(2.0, 3.0, m)
    U[TAU] = rng.uniform(0.5, 1.0, m)
    U[TAU + 1:] = rng.uniform(0.0, 1.0, (NF - TAU - 1,) + m) * U[RHO]
    for _ in range(floored):
        U[(RHO,) + tuple(rng.integers(0, k) for k in m)] = 1e-14
    return U


# -- the kernel: batched == per-block == reference ---------------------------

@settings(max_examples=30, deadline=None)
@given(omega=st.sampled_from([0.0, 0.3]),
       with_gravity=st.booleans(), spin=st.booleans(),
       shape=st.sampled_from([(8, 8, 8), (6, 4, 5)]),
       B=st.integers(1, 9), floored=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_batched_equals_per_block_equals_reference(
        omega, with_gravity, spin, shape, B, floored, seed, data):
    rng = np.random.default_rng(seed)
    opts = HydroOptions(eos=IdealGas(), omega=omega, spin_correction=spin)
    blocks = [_block(rng, shape, floored) for _ in range(B)]
    origins = [tuple(rng.normal(size=3)) for _ in range(B)]
    centers = [_centers(o, shape) for o in origins]
    gravity = ([0.1 * rng.standard_normal((3,) + shape) for _ in range(B)]
               if with_gravity else None)

    def grav(idx):
        return None if gravity is None else [gravity[i] for i in idx]

    ref = [compute_rhs_reference(
        blocks[b], DX, opts, origin=origins[b],
        gravity=None if gravity is None else gravity[b]) for b in range(B)]

    ws = Workspace()
    whole = compute_rhs(blocks, DX, opts, gravity=gravity, ws=ws,
                        centers=centers)
    assert whole.shape == (NF, B) + shape
    for b in range(B):
        np.testing.assert_array_equal(whole[:, b], ref[b])
        # a single block is a batch of one through the same body
        one = compute_rhs(blocks[b], DX, opts,
                          gravity=None if gravity is None else gravity[b],
                          ws=ws, centers=centers[b])
        np.testing.assert_array_equal(one, ref[b])

    # any order, any split into chunks, one shared workspace
    order = data.draw(st.permutations(range(B)))
    cuts = sorted(data.draw(st.sets(st.integers(1, B - 1)))) if B > 1 else []
    for lo, hi in zip([0] + cuts, cuts + [B]):
        idx = order[lo:hi]
        out = np.full((NF, len(idx)) + shape, np.nan)
        got = compute_rhs([blocks[i] for i in idx], DX, opts,
                          gravity=grav(idx), out=out, ws=ws,
                          centers=[centers[i] for i in idx])
        assert got is out
        for slot, i in enumerate(idx):
            np.testing.assert_array_equal(out[:, slot], ref[i])


def test_batched_fluxes_are_fresh_block_layout_arrays():
    rng = np.random.default_rng(3)
    opts = HydroOptions(eos=IdealGas())
    blocks = [_block(rng, (8, 8, 8), 0) for _ in range(3)]
    ws = Workspace()
    _, fluxes = compute_rhs(blocks, DX, opts, return_fluxes=True, ws=ws)
    singles = [compute_rhs(U, DX, opts, return_fluxes=True)[1]
               for U in blocks]
    kept = [F.copy() for F in fluxes]
    compute_rhs(blocks, 0.04, opts, ws=ws)      # must not touch held fluxes
    for axis, F in enumerate(fluxes):
        face = [8, 8, 8]
        face[axis] = 9
        assert F.shape == (NF, 3) + tuple(face)
        np.testing.assert_array_equal(F, kept[axis])
        for b in range(3):
            np.testing.assert_array_equal(F[:, b], singles[b][axis])


# -- fail at the boundary -----------------------------------------------------

@pytest.mark.parametrize("field, kwargs", [
    ("cfl", {"cfl": -0.4}),
    ("cfl", {"cfl": 0.0}), ("cfl", {"cfl": 1.5}),
    ("cfl", {"cfl": float("nan")}),
    ("rho_floor", {"rho_floor": 0.0}), ("rho_floor", {"rho_floor": -1e-12}),
    ("rho_floor", {"rho_floor": float("inf")}),
    ("rho_floor", {"rho_floor": float("nan")}),
    ("omega", {"omega": float("nan")}), ("omega", {"omega": float("inf")}),
    ("omega", {"omega": -float("inf")}),
])
def test_hydro_options_reject_bad_values_naming_the_field(field, kwargs):
    with pytest.raises(ValueError, match=field):
        HydroOptions(eos=IdealGas(), **kwargs)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 1.0, 0.5])
def test_ideal_gas_rejects_bad_gamma_naming_the_field(gamma):
    with pytest.raises(ValueError, match="gamma"):
        IdealGas(gamma=gamma)


@pytest.mark.parametrize("dx", [0.0, -1.0, float("nan"), float("inf")])
def test_compute_rhs_and_cfl_dt_reject_a_bad_dx(dx):
    U = _block(np.random.default_rng(5), (8, 8, 8), 0)
    opts = HydroOptions(eos=IdealGas())
    out = np.full((NF, 8, 8, 8), 7.0)
    with pytest.raises(ValueError, match="dx"):
        compute_rhs(U, dx, opts, out=out)
    assert (out == 7.0).all()                   # nothing was written
    with pytest.raises(ValueError, match="dx"):
        cfl_dt(U, dx, opts)


def test_hydro_options_accept_the_range_ends():
    HydroOptions(eos=IdealGas(), cfl=1.0, rho_floor=1e-300)


def test_compute_rhs_rejects_malformed_batches_before_any_arithmetic():
    rng = np.random.default_rng(5)
    opts = HydroOptions(eos=IdealGas())
    shape = (8, 8, 8)
    blocks = [_block(rng, shape, 0) for _ in range(3)]
    gravity = [np.zeros((3,) + shape)] * 3
    out = np.full((NF, 3) + shape, 7.0)

    def rejected(match, U=blocks, **kwargs):
        kwargs.setdefault("out", out)
        with pytest.raises(ValueError, match=match):
            compute_rhs(U, DX, opts, **kwargs)
        assert (out == 7.0).all()               # nothing was written

    rejected("at least one block", U=[])
    rejected("ragged", U=blocks[:2] + [_block(rng, (6, 4, 5), 0)])
    rejected("ghosted", U=[np.zeros((NF, 6, 6, 6))])
    rejected("ghosted", U=[np.zeros((3, 14, 14, 14))])
    rejected("gravity", gravity=gravity[:2])
    rejected("gravity", gravity=gravity[:2] + [np.zeros((3, 8, 8, 7))])
    axes = (np.zeros(8),) * 3
    rejected("centers", centers=[axes] * 2)
    rejected("centers", centers=[axes] * 2 + [(np.zeros(8),) * 2])
    rejected("centers", centers=[axes] * 2 + [(np.zeros(7),) * 3])
    rejected("out", out=np.empty((NF, 2) + shape))
    rejected("out", out=np.empty((NF,) + shape))
    # a single block takes a single (NF, n, n, n) output
    with pytest.raises(ValueError, match="out"):
        compute_rhs(blocks[0], DX, opts, out=out)


# -- the meshes: serial == futurized (any chunking) == distributed ------------

def _random_interior(n, seed=0xBEEF):
    rng = np.random.default_rng(seed)
    full = np.zeros((NF, n, n, n))
    full[RHO] = 1.0 + 0.2 * rng.random((n, n, n))
    full[SX:SX + 3] = 0.1 * rng.standard_normal((3, n, n, n))
    full[EGAS] = 1.5 + 0.2 * rng.random((n, n, n))
    full[TAU] = 0.5 * full[EGAS]
    return full


BPE = 3


def _run(mesh, steps=3):
    mesh.load_interior(_random_interior(BPE * SUBGRID_N))
    dts = [mesh.step() for _ in range(steps)]
    return dts, mesh.gather_interior()


@pytest.fixture(scope="module")
def serial():
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    return _run(BlockMesh(BPE, options=opts, bc="periodic"))


@pytest.mark.parametrize("agg_slots", [1, 3, 16])
def test_futurized_is_byte_identical_for_any_chunking(serial, agg_slots):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    with WorkStealingScheduler(2) as sched:
        engine = ExecutionEngine(scheduler=sched, agg_slots=agg_slots,
                                 registry=CounterRegistry())
        dts, state = _run(BlockMesh(BPE, options=opts, bc="periodic",
                                    engine=engine))
    assert dts == serial[0]
    np.testing.assert_array_equal(state, serial[1])


def _subgrids(U):
    """Sub-grids in one ``compute_rhs`` call's list of ghosted arrays."""
    return sum(int(np.prod([n - 2 * NGHOST for n in u.shape[1:]]))
               for u in U) // SUBGRID_N ** 3


def test_boxes_of_one_shape_batch_up_to_agg_slots(monkeypatch):
    """The one RHS rule, as sub-grids per ``compute_rhs`` call: boxes of
    one shape share a call of at most ``agg_slots`` sub-grids, and with
    an engine a larger box is cut into ``min(layers, ceil(blocks /
    agg_slots))`` x-slabs.  One locality per block is 27 one-block boxes;
    the node-level mesh and one locality are one 3x3x3 box; two
    localities are a 1x3x3 and a 2x3x3 box (9/18 sub-grids), and the 18
    are cut in two once they exceed ``agg_slots``."""
    sizes = []
    monkeypatch.setattr(mesh_module, "compute_rhs",
                        lambda U, *args: sizes.append(_subgrids(U)))
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    for n_localities, slots, expected in (
            (27, 16, [16, 11]), (27, 8, [8, 8, 8, 3]), (27, 1, [1] * 27),
            (2, 16, [9, 9, 9]), (2, 27, [9, 18]), (2, None, [9, 18]),
            (1, 1, [9, 9, 9]), (1, 16, [9, 18]), (1, None, [27]),
            (0, 16, [9, 18]), (0, None, [27])):
        mesh = (BlockMesh(BPE, options=opts) if not n_localities
                else DistBlockMesh(BPE, n_localities=n_localities,
                                   options=opts, registry=CounterRegistry()))
        mesh.engine = slots and ExecutionEngine(
            agg_slots=slots, registry=CounterRegistry())
        sizes.clear()
        mesh._rhs(mesh._boxes, None, 0)
        assert sizes == expected, (n_localities, slots)


def _per_block_rhs(mesh, opts, acc):
    """``compute_rhs`` of every ghost-filled block of ``mesh`` alone, at
    its own corner, under its window of ``acc``."""
    return {ip: compute_rhs(blk, mesh.dx, opts, centers=_centers(
        [mesh.origin[d] + ip[d] * SUBGRID_N * mesh.dx for d in range(3)],
        (SUBGRID_N,) * 3, mesh.dx),
        gravity=acc[mesh._window(ip)]) for ip, blk in mesh.blocks.items()}


#: mesh -> agg_slots (None: no engine) -> sub-grids per ``compute_rhs``
#: call of one stage of the 27-sub-grid mesh.  The node-level box is cut
#: into min(3 layers, ceil(27 / slots)) slabs; on 4 localities (a 1x3x3
#: slab of 9, a 2x1x3 bar and two 1x2x3 bars of 6) the bars of one shape
#: batch while two fit and the 2x1x3 bar is cut in two once it exceeds
#: ``agg_slots``; on 2 localities the 2x3x3 box of 18 is cut in two.
CALLS = {"box": {None: [27], 1: [9, 9, 9], 8: [9, 9, 9], 14: [9, 18],
                 27: [27]},
         "4 localities": {None: [9, 6, 12], 1: [9, 3, 3, 6, 6],
                          8: [9, 6, 6, 6], 14: [9, 6, 12], 27: [9, 6, 12]},
         "2 localities": {None: [9, 18], 1: [9, 9, 9], 8: [9, 9, 9],
                          14: [9, 9, 9], 27: [9, 18]}}


def test_rhs_of_a_block_is_identical_under_any_chunking(monkeypatch):
    """``k[box]`` of one stage — whole boxes, slabs of a box and batches
    of same-shape boxes, in a rotating frame under gravity — holds the
    bitwise per-block result in every block's window, whatever
    ``agg_slots`` cuts; every mesh calls the kernel as
    ``repro.core.mesh.compute_rhs``."""
    opts = HydroOptions(eos=IdealGas(gamma=1.4), omega=0.7)
    geometry = dict(options=opts, bc="periodic", origin=(-0.4, 0.1, 0.3))
    meshes = {"box": BlockMesh(BPE, **geometry)}
    for n in (4, 2):
        meshes[f"{n} localities"] = DistBlockMesh(
            BPE, n_localities=n, registry=CounterRegistry(), **geometry)
    acc = 0.1 * np.random.default_rng(2).standard_normal(
        (3,) + (BPE * SUBGRID_N,) * 3)
    calls = []

    def counted(U, *args):
        calls.append(_subgrids(U))
        return compute_rhs(U, *args)

    monkeypatch.setattr(mesh_module, "compute_rhs", counted)
    for name, mesh in meshes.items():
        mesh.load_interior(_random_interior(BPE * SUBGRID_N))
        mesh._fill(mesh._boxes, 0)
        alone = _per_block_rhs(mesh, opts, acc)
        for slots, expected in CALLS[name].items():
            mesh.engine = slots and ExecutionEngine(
                agg_slots=slots, registry=CounterRegistry())
            calls.clear()
            k = mesh._rhs(mesh._boxes, acc, 0)
            assert calls == expected, (name, slots)
            for ip, (b, view) in mesh._layout.views.items():
                window = tuple(slice(sl.start, sl.stop - 2 * NGHOST)
                               for sl in view[1:])
                np.testing.assert_array_equal(
                    k[b][(slice(None),) + window], alone[ip])


def test_slab_tasks_under_dense_interleaving_are_byte_identical(serial):
    """Three slab tasks that read overlapping ghosted views of one box
    and write disjoint windows of one output, on more workers than this
    host has cores, with the interpreter switching threads every 10 us:
    no lost or torn write shows in the state."""
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkStealingScheduler(4) as sched:
            engine = ExecutionEngine(scheduler=sched, agg_slots=1,
                                     registry=CounterRegistry())
            dts, state = _run(BlockMesh(BPE, options=opts, bc="periodic",
                                        engine=engine))
    finally:
        sys.setswitchinterval(interval)
    assert dts == serial[0]
    np.testing.assert_array_equal(state, serial[1])


def test_distributed_is_byte_identical(serial):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    dts, state = _run(DistBlockMesh(BPE, n_localities=3, port="mpi",
                                    reorder_seed=7,
                                    registry=CounterRegistry(),
                                    options=opts, bc="periodic"))
    assert dts == serial[0]
    np.testing.assert_array_equal(state, serial[1])


# -- supervised retry of a batched task is idempotent -------------------------

def test_injected_action_fault_in_a_batched_task_is_retried(serial):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    reg = CounterRegistry()
    inj = FaultInjector(seed=15, action_fault_rate=0.4, max_action_faults=5,
                        registry=reg)
    with WorkStealingScheduler(2) as sched:
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, agg_slots=4, registry=reg),
            injector=inj, max_retries=6, registry=reg)
        dts, state = _run(BlockMesh(BPE, options=opts, bc="periodic",
                                    engine=engine))
    snap = reg.snapshot()
    assert snap["/resilience/tasks/retried"] == 5.0
    assert snap["/resilience/tasks/recovered"] >= 1.0
    assert dts == serial[0]
    np.testing.assert_array_equal(state, serial[1])


def test_fault_after_a_partial_write_is_overwritten_by_the_retry(
        serial, monkeypatch):
    """The worst case for idempotency: the first attempt of every third
    slab task scribbles over its whole window and only then fails."""
    calls = {"n": 0, "faults": 0}

    def faulty(U, dx, options, gravity, return_fluxes, out, ws,
               centers=None):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            calls["faults"] += 1
            out[...] = np.nan
            raise TransientActionFault("fault after a partial write")
        return compute_rhs(U, dx, options, gravity, return_fluxes, out, ws,
                           centers)

    monkeypatch.setattr(mesh_module, "compute_rhs", faulty)
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    reg = CounterRegistry()
    with WorkStealingScheduler(1) as sched:
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, agg_slots=4, registry=reg),
            max_retries=3, registry=reg)
        dts, state = _run(BlockMesh(BPE, options=opts, bc="periodic",
                                    engine=engine))
    assert calls["faults"] > 0
    assert reg.snapshot()["/resilience/tasks/retried"] == calls["faults"]
    assert dts == serial[0]
    np.testing.assert_array_equal(state, serial[1])


# -- the ledger's memory bound, as a tier-1 guard -----------------------------

#: bytes of hydro memory the 27-sub-grid Sedov mesh held as 27 separate
#: ghosted blocks: 9.4 MiB of kernel scratch (balanced 14-block batches)
#: plus the blocks and their predictor copies, 2 x 8.3 MB.  The ledger
#: bounds ``sedov_serial`` ``peak_rss_mb`` at +10 % of ~120 MB, so the box
#: layout may trade storage for scratch but must not hold more in sum.
PER_BLOCK_LAYOUT_BYTES = 9_882_112 + 2 * 8_297_856


def test_workspace_stays_inside_the_memory_budget():
    blast = sedov_blast(n=24)
    mesh = BlockMesh(3, domain=blast.domain, options=blast.options,
                     bc=blast.bc)
    mesh.load_interior(blast.interior)
    mesh.step()
    held = {key: id(arr) for key, arr in mesh._ws._bufs().items()}
    mesh.step()
    # state and predictor are one ghosted box each, every block a view
    assert {id(blk.base) for blk in mesh.blocks.values()} == {
        id(mesh._boxes[0])}
    boxes = [mesh._boxes[0], mesh._stage[0]]
    assert len({id(box) for box in boxes}) == 2
    storage = sum(box.nbytes for box in boxes)
    assert storage == 2 * NF * 30 ** 3 * 8
    assert mesh._ws.nbytes() + storage <= PER_BLOCK_LAYOUT_BYTES
    # one buffer per role: the three sweep axes and the two stages reuse
    # the allocations of the first sweep
    names = [name for name, _, _ in held]
    assert len(names) == len(set(names))
    assert {key: id(arr) for key, arr in mesh._ws._bufs().items()} == held
    # and per-stage outputs are one (NF, 1, *shape) array each, not per
    # block
    assert [[out.shape for out in outs] for outs in mesh._rhs_out.values()
            ] == [[(NF, 1) + mesh.shape]] * 2


def test_calls_that_carry_different_rows_share_every_buffer(monkeypatch):
    """A call that carries 9 rows sizes every row-scaled role for all 14,
    so a call that then carries all of them allocates nothing new."""
    carried = []
    kernel = solver_module.ppm_faces

    def counted(q, *args, **kwargs):
        carried.append(len(q))
        return kernel(q, *args, **kwargs)

    monkeypatch.setattr(solver_module, "ppm_faces", counted)
    full = _block(np.random.default_rng(5), (8, 8, 8), 0)
    U = full.copy()
    U[PASSIVE0:LX] = 0.0                # the five passive scalars
    opts = HydroOptions(eos=IdealGas())
    ws = Workspace()
    compute_rhs(U, DX, opts, ws=ws)
    held = {key: id(arr) for key, arr in ws._bufs().items()}
    compute_rhs(full, DX, opts, ws=ws)
    assert carried == [9] * 3 + [NF] * 3
    assert {key: id(arr) for key, arr in ws._bufs().items()} == held
