"""Regression: periodic ghost shells must wrap all 26 offsets.

The old ``BlockMesh._physical_boundary`` wrapped only the six face
offsets — and copied the wrong side of the source block — so edge and
corner ghost regions across the periodic seam held stale data.  The
axis-sweep reconstruction happened to never read them; per-neighbour
distributed halos do, and so does any future corner-aware kernel.  These
tests assert the full ghost shell and bitwise equality with the
one-block mesh (both failed on the old code), for the two fills there
are: the node-level box (its shell only — periodic images of itself or
walls — since a block's inner ghosts are its neighbours' interiors) and
the distributed mesh's box-to-box plan.
"""

import itertools

import numpy as np
import pytest

from repro.core import NF, NGHOST, SUBGRID_N, BlockMesh, IdealGas
from repro.core.distmesh import DistBlockMesh
from repro.core.hydro.solver import HydroOptions
from repro.runtime import CounterRegistry


def _dist(bpe, **kwargs):
    return DistBlockMesh(bpe, n_localities=2, registry=CounterRegistry(),
                         **kwargs)


#: the node-level box and the box-to-box plan of the sharded mesh
MESHES = (BlockMesh, _dist)


def _loaded_pair(rng, bpe=2, bc="periodic", make=BlockMesh):
    n = bpe * SUBGRID_N
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    single = BlockMesh(1, n=n, domain=1.0, options=opts, bc=bc)
    blocks = make(bpe, domain=1.0, options=opts, bc=bc)
    full = np.zeros((NF, n, n, n))
    full[0] = 1.0 + 0.2 * rng.random((n, n, n))
    full[1:4] = 0.1 * rng.standard_normal((3, n, n, n))
    full[4] = 1.5 + 0.2 * rng.random((n, n, n))
    full[5] = 0.5 * full[4]
    single.interior[...] = full
    blocks.load_interior(full)
    return single, blocks, full


def _assert_shells_match_the_single_mesh(single, blocks):
    """Every ghosted block equals the window of the one-block mesh's
    ghosted box it covers — faces, edges and corners, seam or wall."""
    g, s = NGHOST, SUBGRID_N
    for ip, blk in blocks.blocks.items():
        window = (slice(None),) + tuple(
            slice(ip[d] * s, ip[d] * s + s + 2 * g) for d in range(3))
        np.testing.assert_array_equal(blk, single.blocks[0, 0, 0][window])


@pytest.mark.parametrize("bc", ["outflow", "reflect", "periodic"])
@pytest.mark.parametrize("bpe", [2, 3])
def test_fill_plan_reproduces_the_single_mesh_ghost_shell(rng, bpe, bc):
    """One pass over the frozen plan (box-to-box copies over both routes
    — periodic images among them — then walls) leaves in every ghost cell
    of every block exactly what the single-block mesh holds in the same
    place; 3^3 blocks include one with all 26 neighbours."""
    single, blocks, _full = _loaded_pair(rng, bpe, bc, make=_dist)
    single._fill(single._boxes, 0)
    blocks._fill(blocks._boxes, 0)
    _assert_shells_match_the_single_mesh(single, blocks)


@pytest.mark.parametrize("bc", ["outflow", "reflect", "periodic"])
@pytest.mark.parametrize("bpe", [2, 3])
def test_every_ghost_view_equals_the_one_block_shell(rng, bpe, bc):
    """The node-level fill touches the box's shell only (its periodic
    images or its walls); every block's ghosted view then holds the
    one-block shell, because its inner ghost layers are its neighbours'
    interiors."""
    single, blocks, _full = _loaded_pair(rng, bpe, bc)
    single._fill(single._boxes, 0)
    blocks._fill(blocks._boxes, 0)
    _assert_shells_match_the_single_mesh(single, blocks)
    # the views share one array: nothing was copied between blocks
    assert len({id(blk.base) for blk in blocks.blocks.values()}) == 1


class TestPeriodicGhostShell:
    def test_every_ghost_cell_is_the_wrapped_interior(self, rng):
        """After one fill, each padded block must equal the periodic
        extension of the global interior — faces, edges AND corners."""
        for make in MESHES:
            _single, blocks, full = _loaded_pair(rng, make=make)
            blocks._fill(blocks._boxes, 0)
            g, s, n = NGHOST, SUBGRID_N, blocks.shape[0]
            for ip, blk in blocks.blocks.items():
                idx = [[(ip[d] * s + local - g) % n
                        for local in range(s + 2 * g)] for d in range(3)]
                expected = full[np.ix_(range(NF), *idx)]
                np.testing.assert_array_equal(blk, expected)

    def test_corner_ghosts_cross_the_seam(self, rng):
        """The (-1,-1,-1) corner of block (0,0,0) comes from the far
        corner of the domain — exactly the region the old code left
        stale."""
        for make in MESHES:
            _single, blocks, full = _loaded_pair(rng, make=make)
            blocks._fill(blocks._boxes, 0)
            g = NGHOST
            corner = blocks.blocks[(0, 0, 0)][:, :g, :g, :g]
            np.testing.assert_array_equal(corner, full[:, -g:, -g:, -g:])

    def test_blockmesh_matches_single_mesh_bitwise(self, rng):
        for make in MESHES:
            single, blocks, _full = _loaded_pair(rng, make=make)
            for _ in range(3):
                single.step(0.002)
                blocks.step(0.002)
            np.testing.assert_array_equal(blocks.gather_interior(),
                                          single.interior)

    def test_offsets_cover_all_26_directions(self):
        """With one locality per block every box is one block, and the
        box-to-box plan gives each all 26 ghost regions exactly once,
        each from a neighbour: the one inside the lattice, or the
        coordinate-wise wrapped block across the seam."""
        blocks = DistBlockMesh(2, n_localities=8, bc="periodic",
                               registry=CounterRegistry())
        g, s = NGHOST, SUBGRID_N
        side_of = {(0, g): -1, (g, g + s): 0, (g + s, 2 * g + s): 1}
        layer_of = {(g, 2 * g): -1, (g, g + s): 0, (s, g + s): 1}

        def off(slab, table):
            return tuple(table[sl.start, sl.stop] for sl in slab[1:])

        layout = blocks._layout
        assert not layout.walls and not layout.local
        block_of = {box: ip for ip, (box, _) in layout.views.items()}
        assert len(block_of) == 8
        filled = {ip: {} for ip in blocks.blocks}
        for route in layout.routes:
            for dst, ghost, src, layer, lo, hi, shape in route.slabs:
                o = off(ghost, side_of)
                assert o not in filled[block_of[dst]]
                # the source shows the layer facing back at us
                assert off(layer, layer_of) == tuple(-c for c in o)
                assert hi - lo == blocks._boxes[dst][ghost].size
                filled[block_of[dst]][o] = block_of[src]
        every = sorted(o for o in itertools.product((-1, 0, 1), repeat=3)
                       if o != (0, 0, 0))
        for ip, regions in filled.items():
            assert sorted(regions) == every
            for o, src in regions.items():
                assert src == tuple((ip[d] + o[d]) % blocks.lattice[d]
                                    for d in range(3))
