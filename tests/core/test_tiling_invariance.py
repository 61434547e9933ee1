"""Tiling invariance: how a box is cut into blocks is data, not physics.

One property instead of a hand-written pair per boundary condition: for
any per-axis lattice and tile shape, the tiled mesh and the one-block mesh
of the same box advance byte-identically, and ``retile`` moves a state
between tilings without touching a bit.  The same draw also steps the
sharded mesh of that tiling under a drawn owner map — the default box
partition or scattered owners on 1-4 localities, or one locality per
block — with a drawn reorder seed, so the one layout is checked across
homes: the node-level box (its own periodic images or its walls, one RHS
call) and the sharded boxes (box-to-box copies and routes, batched box
RHS calls); the node-level mesh freezes exactly the one-locality layout.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SUBGRID_N, BlockMesh, DistBlockMesh, IdealGas
from repro.core.mesh import _box_cover
from repro.core.hydro.solver import HydroOptions
from repro.runtime import CounterRegistry

_STEPS = 2


def _per_axis(values):
    return st.tuples(*[st.sampled_from(values)] * 3)


def _one_block(total, bc, seed):
    """A seeded random primitive state on ``BlockMesh(1, n=total)``."""
    rng = np.random.default_rng(seed)
    mesh = BlockMesh(1, n=total, domain=1.0, bc=bc,
                     options=HydroOptions(eos=IdealGas(gamma=1.4)))
    mesh.load_primitives(1.0 + 0.2 * rng.random(total),
                         *(0.1 * rng.standard_normal((3,) + total)),
                         1.0 + 0.2 * rng.random(total))
    return mesh


def _owner_map(blocks, owners, localities, seed):
    """``(n_localities, partition)`` of a drawn owner map: the default
    box partition, scattered owners, or one locality per block."""
    ips = list(np.ndindex(*blocks))
    if owners == "box":
        return localities, None
    if owners == "scattered":
        rng = np.random.default_rng(seed)
        return localities, {ip: int(rng.integers(localities)) for ip in ips}
    return len(ips), {ip: i for i, ip in enumerate(ips)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(blocks=_per_axis([1, 2, 3]), n=_per_axis([4, 8, 16]),
       bc=st.sampled_from(["outflow", "reflect", "periodic"]),
       seed=st.integers(0, 2 ** 16), localities=st.integers(1, 4),
       owners=st.sampled_from(["box", "scattered", "per-block"]),
       reorder_seed=st.one_of(st.none(), st.integers(0, 2 ** 16)))
@example(blocks=(4, 1, 1), n=(8, 8, 8), bc="outflow", seed=0,
         localities=2, owners="box", reorder_seed=None)  # Sod's box
def test_any_tiling_steps_byte_identically(blocks, n, bc, seed, localities,
                                           owners, reorder_seed):
    total = tuple(b * s for b, s in zip(blocks, n))
    single = _one_block(total, bc, seed)
    tiled = BlockMesh(blocks, n=n, domain=1.0, options=single.options, bc=bc)
    n_localities, partition = _owner_map(blocks, owners, localities, seed)
    sharded = DistBlockMesh(blocks, n=n, domain=1.0, options=single.options,
                            bc=bc, n_localities=n_localities,
                            partition=partition, reorder_seed=reorder_seed,
                            registry=CounterRegistry())
    # one state array per box of the cover of the owners, blocks its views
    assert len(sharded._boxes) == len(_box_cover(sharded.owners()))
    assert {id(blk.base) for blk in sharded.blocks.values()} == {
        id(a) for a in sharded._boxes.values()}
    # the node-level mesh is the one-locality layout: the same box, views,
    # direct copy entries and walls, and no routes
    alone = DistBlockMesh(blocks, n=n, domain=1.0, options=single.options,
                          bc=bc, n_localities=1, registry=CounterRegistry())
    assert tiled._layout == alone._layout
    assert len(tiled._layout.boxes) == 1 and not tiled._layout.routes
    # image entries under periodic boundaries, its six walls otherwise
    assert bool(tiled._layout.local) == (bc == "periodic")
    assert len(tiled._layout.walls) == (0 if bc == "periodic" else 6)
    for mesh in (tiled, sharded):
        mesh.load_interior(single.interior)
        assert (mesh.shape, mesh.dx) == (single.shape, single.dx)

    if any(s % SUBGRID_N for s in total):
        with pytest.raises(ValueError, match="multiple"):
            BlockMesh.retile(single)
    else:
        cut = BlockMesh.retile(single)
        assert cut.tile == (SUBGRID_N,) * 3
        assert np.array_equal(cut.gather_interior(), single.interior)

    for _ in range(_STEPS):
        dt = single.step()
        assert tiled.step() == dt and sharded.step() == dt
    for mesh in (tiled, sharded):
        assert mesh.time == single.time
        assert np.array_equal(mesh.gather_interior(),
                              single.gather_interior())
    assert sharded.transport.reconciles()
