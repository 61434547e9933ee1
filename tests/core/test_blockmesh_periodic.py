"""Regression: periodic BlockMesh boundaries must wrap all 26 offsets.

The old ``BlockMesh._physical_boundary`` wrapped only the six face
offsets — and copied the wrong side of the source block — so edge and
corner ghost regions across the periodic seam held stale data.  The
axis-sweep reconstruction of the node-level path happened to never read
them; per-neighbour distributed halos do, and so does any future corner-
aware kernel.  These tests assert the full ghost shell and bitwise
equality with the single-block mesh (both failed on the old code).
"""

import itertools

import numpy as np

from repro.core import NF, NGHOST, SUBGRID_N, BlockMesh, IdealGas, Mesh
from repro.core.hydro.solver import HydroOptions


def _loaded_pair(rng, bpe=2):
    n = bpe * SUBGRID_N
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    single = Mesh(n=n, domain=1.0, options=opts, bc="periodic")
    blocks = BlockMesh(bpe, domain=1.0, options=opts, bc="periodic")
    full = np.zeros((NF, n, n, n))
    full[0] = 1.0 + 0.2 * rng.random((n, n, n))
    full[1:4] = 0.1 * rng.standard_normal((3, n, n, n))
    full[4] = 1.5 + 0.2 * rng.random((n, n, n))
    full[5] = 0.5 * full[4]
    single.interior[...] = full
    blocks.load_interior(full)
    return single, blocks, full


class TestPeriodicGhostShell:
    def test_every_ghost_cell_is_the_wrapped_interior(self, rng):
        """After one exchange, each padded block must equal the periodic
        extension of the global interior — faces, edges AND corners."""
        _single, blocks, full = _loaded_pair(rng)
        blocks._halo_exchange(blocks.blocks, 0)
        g, s, n = NGHOST, SUBGRID_N, blocks.n
        for ip, blk in blocks.blocks.items():
            idx = [[(ip[d] * s + local - g) % n for local in range(s + 2 * g)]
                   for d in range(3)]
            expected = full[np.ix_(range(NF), *idx)]
            np.testing.assert_array_equal(blk, expected)

    def test_corner_ghosts_cross_the_seam(self, rng):
        """The (-1,-1,-1) corner of block (0,0,0) comes from the far
        corner of the domain — exactly the region the old code left
        stale."""
        _single, blocks, full = _loaded_pair(rng)
        blocks._halo_exchange(blocks.blocks, 0)
        g = NGHOST
        corner = blocks.blocks[(0, 0, 0)][:, :g, :g, :g]
        np.testing.assert_array_equal(corner, full[:, -g:, -g:, -g:])

    def test_blockmesh_matches_single_mesh_bitwise(self, rng):
        single, blocks, _full = _loaded_pair(rng)
        for _ in range(3):
            single.step(0.002)
            blocks.step(0.002)
        np.testing.assert_array_equal(blocks.gather_interior(),
                                      single.interior)

    def test_offsets_cover_all_26_directions(self):
        blocks = BlockMesh(2, bc="periodic")
        assert sorted(blocks._offsets) == sorted(
            o for o in itertools.product((-1, 0, 1), repeat=3)
            if o != (0, 0, 0))
        # every block of a 2^3 lattice has all 26 neighbours outside or
        # inside; the wrap list must cover exactly the outside ones
        for ip in blocks.blocks:
            wraps = dict(blocks._periodic_wraps(ip))
            for off in blocks._offsets:
                nb = tuple(ip[d] + off[d] for d in range(3))
                if nb in blocks.blocks:
                    assert off not in wraps
                else:
                    assert wraps[off] == tuple(
                        (ip[d] + off[d]) % blocks.bpe for d in range(3))
