"""Boundary conditions, mesh construction, tiled equivalence, AMR octree."""

import numpy as np
import pytest

from repro.core import (EGAS, NF, NGHOST, RHO, SX, TAU, BlockMesh,
                        DistBlockMesh, ExecutionEngine, IdealGas, Octree,
                        prolong, restrict, sedov_blast)
from repro.core.amr import AmrMesh
from repro.core.hydro.solver import HydroOptions
from repro.core.mesh import fill_wall, interior, min_cfl_dt
from repro.runtime import CounterRegistry, WorkStealingScheduler
from repro.validation.reference import apply_boundary


class TestBoundaries:
    def _block(self):
        m = 8 + 2 * NGHOST
        U = np.zeros((NF, m, m, m))
        U[RHO, NGHOST:-NGHOST, NGHOST:-NGHOST, NGHOST:-NGHOST] = \
            np.arange(8 * 8 * 8, dtype=float).reshape(8, 8, 8) + 1.0
        return U

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            apply_boundary(self._block(), "weird")
        with pytest.raises(ValueError):
            BlockMesh(1, n=8, bc="weird")

    def test_periodic_wraps(self):
        U = self._block()
        apply_boundary(U, "periodic")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, g - 1], U[RHO, g + 7])
        np.testing.assert_array_equal(U[RHO, g + 8], U[RHO, g])

    def test_outflow_copies_edge(self):
        U = self._block()
        apply_boundary(U, "outflow")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, 0], U[RHO, g])

    def test_reflect_mirrors_and_negates_normal_momentum(self):
        U = self._block()
        U[SX] = 1.0
        apply_boundary(U, "reflect")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, g - 1], U[RHO, g])
        assert (U[SX, 0:g] == -1.0).all()
        # transverse momentum untouched in sign
        assert (U[SX + 1, 0:g] == 0.0).all()


class TestMesh:
    def test_load_primitives_roundtrip(self):
        mesh = BlockMesh(1, n=8)
        mesh.load_primitives(2.0, 0.5, 0.0, 0.0, 1.0)
        I = mesh.interior
        assert np.allclose(I[RHO], 2.0)
        assert np.allclose(I[SX], 1.0)
        eint = 1.0 / (IdealGas().gamma - 1.0)
        np.testing.assert_allclose(I[EGAS], eint + 0.5 * 2.0 * 0.25)

    def test_anisotropic_shape(self):
        mesh = BlockMesh(1, n=(16, 8, 8), domain=1.0)
        assert mesh.interior.shape == (NF, 16, 8, 8)
        x, y, z = mesh.cell_centers()
        assert x.shape[0] == 16 and y.shape[1] == 8

    def test_self_gravity_requires_cube(self):
        with pytest.raises(ValueError):
            BlockMesh(1, n=(16, 8, 8), self_gravity=True)

    @pytest.mark.parametrize("args,kwargs,name", [
        ((2,), dict(bc="weird"), "bc"),
        ((0,), {}, "blocks"),
        (((2, 0, 2),), {}, "blocks"),
        ((2,), dict(n=0), "n"),
        (((2, 1, 1),), dict(n=(NGHOST - 1, 8, 8)), "n"),
        ((1,), dict(n=(8, 8)), "n"),
        ((2,), dict(domain=-1.0), "domain"),
        ((1,), dict(n=8, domain=0.0), "domain"),
        ((1,), dict(n=12, self_gravity=True), "self_gravity"),
        ((3,), dict(self_gravity=True), "self_gravity"),
        (((2, 1, 1),), dict(self_gravity=True), "self_gravity"),
    ])
    def test_constructor_rejects_bad_input_by_name(self, args, kwargs, name):
        with pytest.raises(ValueError, match=name):
            BlockMesh(*args, **kwargs)

    def test_fill_wall_rejects_unknown_bc(self):
        block = BlockMesh(1).blocks[0, 0, 0]
        with pytest.raises(ValueError, match="weird"):
            fill_wall(block, 0, -1, "weird")

    def test_interior_is_the_view_of_one_block_only(self):
        mesh = BlockMesh(1, n=(16, 8, 8))
        mesh.interior[RHO] = 2.0
        assert (mesh.blocks[0, 0, 0][RHO, NGHOST, NGHOST, NGHOST] == 2.0)
        with pytest.raises(AttributeError, match="gather_interior"):
            BlockMesh((2, 1, 1)).interior

    def test_retile_cuts_into_subgrids_and_rejects_odd_edges(self):
        src = BlockMesh(1, n=(16, 8, 24), domain=2.0, origin=(-1, 0, 0),
                        bc="reflect")
        x, y, z = src.cell_centers()
        src.load_primitives(1.0 + x * x + y + z, 0.1, 0.0, 0.0, 1.0)
        tiled = BlockMesh.retile(src)
        assert tiled.lattice == (2, 1, 3) and tiled.tile == (8, 8, 8)
        assert (tiled.dx, tiled.origin, tiled.bc, tiled.options) == (
            src.dx, src.origin, src.bc, src.options)
        np.testing.assert_array_equal(tiled.gather_interior(), src.interior)
        with pytest.raises(ValueError, match="multiple"):
            BlockMesh.retile(BlockMesh(1, n=12))

    def test_uniform_gas_is_static(self):
        mesh = BlockMesh(1, n=8, bc="periodic")
        mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
        before = mesh.interior.copy()
        mesh.step(0.01)
        np.testing.assert_allclose(mesh.interior[RHO], before[RHO],
                                   atol=1e-13)

    def test_step_advances_time(self):
        mesh = BlockMesh(1, n=8)
        mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
        mesh.step(0.001)
        assert mesh.time == pytest.approx(0.001)
        assert mesh.steps == 1

    @pytest.mark.parametrize("dt", [None, float("nan"), float("inf"), 0.0,
                                    -1e-3])
    def test_step_rejects_a_dt_that_is_not_finite_and_positive(self, dt):
        """The default zero state has no signal speed, so its CFL dt is
        inf; neither it nor a NaN, zero or negative dt may write a cell."""
        for mesh in (BlockMesh(1), BlockMesh(2), DistBlockMesh(
                2, n_localities=2, registry=CounterRegistry())):
            with pytest.raises(ValueError, match="dt"):
                mesh.step(dt)
            assert mesh.steps == 0 and mesh.time == 0.0
            for blk in mesh.blocks.values():
                assert not blk.any()

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 1, 1)])
    def test_cfl_dt_is_nan_wherever_the_nan_sits(self, where):
        """A NaN density makes the CFL reduction NaN whatever the block
        order: the box reduces it in one call, the sharded mesh and
        ``min_cfl_dt`` over blocks one at a time."""
        blast = sedov_blast(16)
        clean = BlockMesh.retile(blast).compute_dt()
        assert np.isfinite(clean) and clean > 0
        dist = DistBlockMesh.retile(blast, n_localities=2,
                                    registry=CounterRegistry())
        for mesh in (BlockMesh.retile(blast), dist):
            interior(mesh.blocks[where])[RHO, 1, 2, 3] = np.nan
            assert np.isnan(mesh.compute_dt())
        pairs = [(blk, dist.dx) for blk in dist.blocks.values()]
        for order in (pairs, pairs[::-1]):
            assert np.isnan(min_cfl_dt(order, dist.options))

    def test_conserved_totals_shape(self):
        mesh = BlockMesh(1, n=8)
        mesh.load_primitives(1.0, 0.1, 0.0, 0.0, 1.0)
        tot = mesh.conserved_totals()
        assert tot["mass"] == pytest.approx(1.0)
        assert tot["momentum"].shape == (3,)
        assert tot["angular_momentum"].shape == (3,)


class TestDistributedEquivalence:
    """The futurized multi-sub-grid mesh reproduces the single block."""

    def _setup_pair(self, engine=None):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        n = 16
        single = BlockMesh(1, n=n, domain=1.0, options=opts, bc="outflow")
        x, y, z = single.cell_centers()
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * (x + y + z) / 3)
        single.load_primitives(rho, 0.1, 0.0, -0.05, 1.0 + 0 * rho)
        dist = BlockMesh(2, domain=1.0, options=opts, bc="outflow",
                         engine=engine)
        dist.load_interior(single.interior.copy())
        return single, dist

    def test_interiors_match_after_steps(self):
        single, dist = self._setup_pair()
        dt = 0.002
        for _ in range(3):
            single.step(dt)
            dist.step(dt)
        np.testing.assert_allclose(dist.gather_interior(),
                                   single.interior, rtol=1e-12, atol=1e-13)

    def test_matches_with_scheduler(self):
        """Per-sub-grid RHS tasks on the work-stealing pool change nothing
        about the physics (the Sec. 4.1 promise)."""
        with WorkStealingScheduler(4) as sched:
            single, dist = self._setup_pair(
                engine=ExecutionEngine(scheduler=sched))
            dt = 0.002
            for _ in range(2):
                single.step(dt)
                dist.step(dt)
            np.testing.assert_allclose(dist.gather_interior(),
                                       single.interior, rtol=1e-12,
                                       atol=1e-13)

    def test_scatter_gather_roundtrip(self):
        _single, dist = self._setup_pair()
        full = dist.gather_interior()
        dist.load_interior(full)
        np.testing.assert_array_equal(dist.gather_interior(), full)


class TestOctree:
    def test_root_only_initially(self):
        t = Octree()
        assert t.n_nodes == 1 and t.n_leaves == 1

    def test_refine_creates_eight_children(self):
        t = Octree()
        kids = t.refine(0, (0, 0, 0))
        assert len(kids) == 8
        assert t.n_leaves == 8 and t.n_nodes == 9

    def test_refine_nonexistent_raises(self):
        t = Octree()
        with pytest.raises(KeyError):
            t.refine(1, (0, 0, 0))

    def test_double_refine_raises(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        with pytest.raises(ValueError):
            t.refine(0, (0, 0, 0))

    def test_prolong_restrict_inverse(self, rng):
        data = rng.uniform(0, 1, (NF, 8, 8, 8))
        np.testing.assert_allclose(restrict(prolong(data)), data,
                                   rtol=1e-15)

    def test_refinement_conserves_mass(self, rng):
        t = Octree(domain=2.0)
        root = t.get(0, (0, 0, 0))
        interior(root.U)[RHO] = rng.uniform(0.5, 1.5, (8, 8, 8))
        m0 = AmrMesh(t).conserved_totals()["mass"]
        t.refine(0, (0, 0, 0))
        assert root.U is None
        assert AmrMesh(t).conserved_totals()["mass"] == pytest.approx(
            m0, rel=1e-13)

    def test_coarsen_conserves_mass(self, rng):
        t = Octree(domain=2.0)
        t.refine(0, (0, 0, 0))
        for leaf in t.leaves():
            interior(leaf.U)[RHO] = rng.uniform(
                0.5, 1.5, (8, 8, 8))
        m0 = AmrMesh(t).conserved_totals()["mass"]
        t.coarsen(0, (0, 0, 0))
        assert AmrMesh(t).conserved_totals()["mass"] == pytest.approx(
            m0, rel=1e-13)
        assert t.n_nodes == 1

    def test_coarsen_checks_every_child_before_deleting_any(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        t.refine(1, (1, 1, 1))
        before = dict(t.nodes)
        with pytest.raises(ValueError):
            t.coarsen(0, (0, 0, 0))
        assert t.nodes == before and t.n_nodes == 17
        assert t.get(0, (0, 0, 0)).refined

    def test_coarsen_rejects_a_2to1_balance_break(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        t.refine(1, (0, 0, 0))
        t.refine(1, (1, 0, 0))
        t.refine(2, (1, 0, 0))
        before = dict(t.nodes)
        # (2, (1, 0, 0)) is refined and faces (2, (2, 0, 0)), a child of
        # (1, (1, 0, 0)): merging those children puts a level-1 leaf
        # beside level-3 leaves
        with pytest.raises(ValueError, match="2:1"):
            t.coarsen(1, (1, 0, 0))
        assert t.nodes == before
        assert all(n.U is not None for n in t.leaves())
        AmrMesh(t).step(1e-4)

    def test_two_to_one_balance_enforced(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        t.refine(1, (0, 0, 0))
        # refining a level-2 corner forces its coarse neighbours to split
        t.refine(2, (0, 0, 0))
        for node in t.nodes.values():
            if node.refined:
                continue
            # all leaf neighbours of any refined node differ by <= 1 level
        levels = {n.level for n in t.leaves()}
        assert max(levels) - min(levels) <= 2

    def test_refine_by_criterion(self, rng):
        t = Octree()
        root = t.get(0, (0, 0, 0))
        interior(root.U)[RHO] = 1.0
        count = t.refine_by(
            lambda node: float(interior(node.U)[RHO].max()) > 0.5,
            max_level=2)
        assert t.max_level() == 2
        assert count == 1 + 8

    def test_fmm_levels_cell_counts(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        specs, rho = t.fmm_levels()
        assert specs[0][2].shape == (512, 3)
        assert specs[1][2].shape == (4096, 3)
        assert rho[1].shape == (4096,)
