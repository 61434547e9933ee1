"""FMM gravity solver: accuracy against direct summation, conservation."""

import threading

import numpy as np
import pytest

from repro.core import FmmSolver, Octree, RHO, interior
from repro.core.gravity.multipole import aggregate_m2m, taylor_shift


@pytest.fixture(scope="module")
def uniform16():
    rng = np.random.default_rng(42)
    M = 16
    rho = rng.uniform(0.1, 1.0, (M, M, M))
    solver = FmmSolver.from_uniform(rho, 1.0 / M)
    result = solver.solve()
    return rng, M, rho, solver, result


def _direct_reference(rho, M, dx, index):
    g = (np.arange(M) + 0.5) * dx
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([X, Y, Z], -1).reshape(-1, 3)
    mass = (rho * dx ** 3).ravel()
    d = pos[index] - pos
    r2 = (d * d).sum(1)
    r2[index] = 1.0
    inv = 1.0 / np.sqrt(r2)
    inv[index] = 0.0
    phi = -(mass * inv).sum()
    acc = (mass[:, None] * (-d) * inv[:, None] ** 3).sum(0)
    return phi, acc


class TestM2M:
    def test_mass_and_com_aggregate(self):
        m = np.array([1.0, 3.0])
        com = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        M2 = np.zeros((2, 3, 3))
        groups = np.array([0, 0])
        pm, pcom, pM2 = aggregate_m2m(m, com, M2, groups, 1)
        assert pm[0] == pytest.approx(4.0)
        assert pcom[0, 0] == pytest.approx(3.0)
        # parallel-axis theorem: M2_xx = sum m d^2
        assert pM2[0, 0, 0] == pytest.approx(1 * 9.0 + 3 * 1.0)

    def test_massless_parent_stays_finite(self):
        m = np.zeros(8)
        com = np.random.default_rng(0).normal(size=(8, 3))
        pm, pcom, pM2 = aggregate_m2m(m, com, np.zeros((8, 3, 3)),
                                      np.zeros(8, dtype=np.int64), 1)
        assert np.isfinite(pcom).all()

    def test_taylor_shift_constant_hessian(self):
        phi = np.array([1.0])
        acc = np.array([[0.5, 0.0, 0.0]])
        H = np.zeros((1, 3, 3))
        d = np.array([[2.0, 0.0, 0.0]])
        p2, a2, H2 = taylor_shift(phi, acc, H, d)
        assert p2[0] == pytest.approx(1.0 - 1.0)  # phi - acc.d
        np.testing.assert_allclose(a2, acc)


class TestUniformSolver:
    def test_rejects_bad_grid_shapes(self):
        with pytest.raises(ValueError):
            FmmSolver.from_uniform(np.zeros((10, 10, 10)), 0.1)
        with pytest.raises(ValueError):
            FmmSolver.from_uniform(np.zeros((8, 8, 4)), 0.1)

    def test_negative_density_rejected(self):
        solver = FmmSolver.from_uniform(np.ones((8, 8, 8)), 0.1)
        with pytest.raises(ValueError):
            solver.set_leaf_density({0: -np.ones((8, 8, 8))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_rejected_naming_the_level(self, bad):
        rho = np.ones((16, 16, 16))
        solver = FmmSolver.from_uniform(rho, 0.1)
        rho[3, 4, 5] = bad
        with pytest.raises(ValueError, match="density on level 1"):
            solver.set_leaf_density({1: rho})
        with pytest.raises(ValueError, match="density on level 1"):
            FmmSolver.from_uniform(rho, 0.1)

    @pytest.mark.parametrize("dx", [0.0, -0.1, np.nan, np.inf])
    def test_bad_cell_width_rejected(self, dx):
        with pytest.raises(ValueError, match="dx"):
            FmmSolver.from_uniform(np.ones((8, 8, 8)), dx)

    def test_acc_matches_direct_summation(self, uniform16):
        rng, M, rho, solver, result = uniform16
        phi, acc = solver.uniform_field(result)
        for index in rng.choice(M ** 3, 10, replace=False):
            pd, ad = _direct_reference(rho, M, 1.0 / M, index)
            i, j, k = np.unravel_index(index, (M, M, M))
            assert np.linalg.norm(acc[i, j, k] - ad) \
                < 0.02 * np.linalg.norm(ad)
            assert abs(phi[i, j, k] - pd) < 5e-4 * abs(pd)

    def test_linear_momentum_conserved(self, uniform16):
        _rng, M, rho, solver, result = uniform16
        _phi, acc = solver.uniform_field(result)
        mass = (rho / M ** 3).reshape(-1, 1)
        resid = (mass * acc.reshape(-1, 3)).sum(0)
        scale = np.abs(mass * acc.reshape(-1, 3)).sum()
        assert np.abs(resid).max() / scale < 1e-13

    def test_angular_momentum_conserved(self, uniform16):
        """Total gravitational torque about the origin vanishes to
        machine precision (Sec. 4.2's headline FMM property)."""
        _rng, M, rho, solver, result = uniform16
        _phi, acc = solver.uniform_field(result)
        dx = 1.0 / M
        g = (np.arange(M) + 0.5) * dx
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        pos = np.stack([X, Y, Z], -1).reshape(-1, 3)
        mass = (rho * dx ** 3).reshape(-1, 1)
        torque = np.cross(pos, mass * acc.reshape(-1, 3)).sum(0)
        scale = np.abs(np.cross(pos, mass * acc.reshape(-1, 3))).sum()
        assert np.abs(torque).max() / scale < 1e-12

    def test_point_mass_far_field(self):
        """A compact blob's far field approaches -M/r^2."""
        M = 16
        rho = np.zeros((M, M, M))
        rho[7:9, 7:9, 7:9] = 10.0
        solver = FmmSolver.from_uniform(rho, 1.0 / M)
        phi, acc = solver.uniform_field(solver.solve())
        total_mass = rho.sum() / M ** 3
        # probe a corner cell
        dx = 1.0 / M
        probe = np.array([0.5 * dx, 0.5 * dx, 0.5 * dx])
        center = np.array([0.5, 0.5, 0.5])
        r = np.linalg.norm(probe - center)
        expected = total_mass / r ** 2
        assert np.linalg.norm(acc[0, 0, 0]) == pytest.approx(
            expected, rel=0.05)

    def test_resolve_reuses_hierarchy(self, uniform16):
        _rng, M, rho, solver, _result = uniform16
        res2 = solver.solve()
        phi2, _ = solver.uniform_field(res2)
        assert np.isfinite(phi2).all()


class TestUniformField:
    """``uniform_field`` takes only fields of its own uniform grid."""

    @staticmethod
    def _adaptive():
        tree = Octree(domain=1.0)
        tree.refine(0, (0, 0, 0))
        tree.refine(1, (0, 1, 0))
        specs, rho_by_level = tree.fmm_levels()
        solver = FmmSolver.from_levels(specs)
        solver.set_leaf_density(rho_by_level)
        return solver

    def test_own_result_scatters_onto_the_grid(self, uniform16):
        _rng, M, _rho, solver, result = uniform16
        phi, acc = solver.uniform_field(result)
        c = solver.levels[-1].coords
        np.testing.assert_array_equal(phi[c[:, 0], c[:, 1], c[:, 2]],
                                      result.phi[len(solver.levels) - 1])
        assert acc.shape == (M, M, M, 3)

    def test_solver_built_from_levels_is_refused(self):
        solver = self._adaptive()
        with pytest.raises(ValueError, match="needs a from_uniform solver"):
            solver.uniform_field(solver.solve())

    def test_result_of_another_grid_size_is_refused(self, uniform16):
        result = uniform16[4]
        big = FmmSolver.from_uniform(np.ones((32,) * 3), 1.0 / 32)
        with pytest.raises(ValueError, match="32\\^3 grid.*levels \\[1\\]"):
            big.uniform_field(result)

    def test_same_sized_adaptive_result_is_refused(self, uniform16):
        """The adaptive tree spans the same 16^3 finest-uniform level, but
        its leaves sit on two levels: nothing is scattered."""
        solver = uniform16[3]
        result = self._adaptive().solve()
        assert 1 in result.leaf_slots
        with pytest.raises(ValueError, match="levels \\[1, 2\\]"):
            solver.uniform_field(result)


class TestAdaptiveSolver:
    def test_amr_matches_direct(self):
        rng = np.random.default_rng(11)
        tree = Octree(domain=1.0)
        tree.refine(0, (0, 0, 0))
        tree.refine(1, (0, 1, 0))
        for leaf in tree.leaves():
            interior(leaf.U)[RHO] = rng.uniform(
                0.1, 1.0, interior(leaf.U)[RHO].shape)
        specs, rho_by_level = tree.fmm_levels()
        solver = FmmSolver.from_levels(specs)
        solver.set_leaf_density(rho_by_level)
        res = solver.solve()
        pos, mass = [], []
        for lv in solver.levels:
            mask = lv.leaf
            pos.append(lv.centers()[mask])
            mass.append(lv.m[mask])
        pos = np.vstack(pos)
        mass = np.concatenate(mass)
        for lvl in sorted(res.acc):
            lv = solver.levels[lvl]
            sel = res.leaf_slots[lvl]
            for si in rng.choice(len(sel), min(8, len(sel)), replace=False):
                p = lv.com[sel[si]]
                d = p - pos
                r2 = (d * d).sum(1)
                keep = r2 > 1e-20
                inv = np.zeros_like(r2)
                inv[keep] = 1.0 / np.sqrt(r2[keep])
                ad = (mass[keep, None] * (-d[keep])
                      * inv[keep, None] ** 3).sum(0)
                a = res.acc[lvl][si]
                assert np.linalg.norm(a - ad) < 0.02 * np.linalg.norm(ad)

    def test_amr_momentum_conserved(self):
        rng = np.random.default_rng(13)
        tree = Octree(domain=1.0)
        tree.refine(0, (0, 0, 0))
        tree.refine(1, (1, 1, 1))
        for leaf in tree.leaves():
            interior(leaf.U)[RHO] = rng.uniform(
                0.1, 1.0, interior(leaf.U)[RHO].shape)
        specs, rho_by_level = tree.fmm_levels()
        solver = FmmSolver.from_levels(specs)
        solver.set_leaf_density(rho_by_level)
        res = solver.solve()
        mom = np.zeros(3)
        scale = 0.0
        for lvl, a in res.acc.items():
            m = solver.levels[lvl].m[res.leaf_slots[lvl]]
            mom += (m[:, None] * a).sum(0)
            scale += np.abs(m[:, None] * a).sum()
        assert np.abs(mom).max() / scale < 1e-13

    def test_orphan_level_rejected(self):
        coords0 = np.array([[0, 0, 0]], dtype=np.int64)
        coords2 = np.array([[5, 5, 5]], dtype=np.int64)
        with pytest.raises(ValueError):
            FmmSolver.from_levels([
                (0, 1.0, coords0, np.array([False])),
                (1, 0.5, coords2, np.array([True]))])


def _small_tree_specs():
    """A valid 3-level tree of 4^3 sub-grids: a refined root, one of its
    children refined, so level 1 holds leaves and refined cells."""
    tree = Octree(subgrid_n=4)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (0, 0, 0))
    return tree.fmm_levels()[0]


def _respec(level, **change):
    """Mutator of one spec field (``width``, ``coords`` or ``leaf``, each
    a function of the old value) of ``level``."""
    def mutate(specs):
        lvl, width, coords, leaf = specs[level]
        new = {"width": width, "coords": coords, "leaf": leaf}
        new.update({k: fn(new[k]) for k, fn in change.items()})
        specs[level] = (lvl, new["width"], new["coords"], new["leaf"])
        return specs
    return mutate


def _unbalanced(_specs):
    """A leaf of level 1 four cells from a refined cell whose children
    are refined: balanced node by node (Octree's rule), but its boundary
    batch would meet a refined child."""
    tree = Octree(subgrid_n=4)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (1, 0, 0))
    tree.refine(2, (3, 0, 0))
    return tree.fmm_levels()[0]


def _renumbered(specs):
    lvl, width, coords, leaf = specs[2]
    return specs[:2] + [(lvl + 1, width, coords, leaf)]


def _childless(specs):
    lvl, width, coords, leaf = specs[2]
    return specs[:2] + [(lvl, width, coords, np.zeros_like(leaf))]


@pytest.mark.parametrize("mutate, match", [
    (_respec(1, width=lambda w: 0.6 * w), "level 1 is not half as wide"),
    (_respec(0, width=lambda w: np.nan), "level 0 needs a finite positive"),
    (_renumbered, "level 3 is not one below"),
    (_respec(0, coords=lambda c: c - 4), "level 0 has negative coord"),
    (_respec(1, leaf=lambda m: m[:-1]), r"level 1 needs a \(512,\) bool"),
    (_respec(1, coords=lambda c: c.astype(float)),
     r"level 1 needs non-empty \(n, 3\) integer"),
    (_respec(1, coords=lambda c: c[:, :2]),
     r"level 1 needs non-empty \(n, 3\) integer"),
    (_respec(1, leaf=lambda m: np.ones_like(m)),
     "level 1 has leaf cells with children"),
    (_childless, "level 2 has refined cells without children"),
    (_unbalanced, "level 2 refines cells near leaves of level 1: the tree "
                  "is not 2:1 balanced"),
], ids=["width", "nan-width", "level-gap", "negative", "short-mask",
        "float-coords", "2d-coords", "leaf-with-children", "childless",
        "unbalanced"])
def test_from_levels_rejects_bad_specs(mutate, match):
    """Bad adaptive specs fail at the boundary with a ``ValueError``
    naming the level, never deep in the solver or silently."""
    FmmSolver.from_levels(_small_tree_specs())
    with pytest.raises(ValueError, match=match):
        FmmSolver.from_levels(mutate(_small_tree_specs()))


class TestRaceDeclarations:
    def test_m2l_pool_slot_read_without_its_future_is_reported(self, san):
        """Planted race: a worker computes a dense M2L entry into pool
        slot 0 and the accumulating thread reads that slot without the
        future that would order the two.  Only ``_compute_entry``'s
        write declaration lets the detector see the worker's write: the
        body writes through ``entry.compute(outs)``."""
        M = 16
        solver = FmmSolver.from_uniform(
            np.random.default_rng(7).uniform(0.1, 1.0, (M, M, M)), 1.0 / M)
        solver.solve()                      # builds the plan, runs inline
        san.reset_graphs()      # forget the inline solve's own accesses
        i = next(i for i, e in enumerate(solver._plan)
                 if e.kind == "m2l-dense")
        done = []
        task = threading.Thread(
            target=lambda: done.append(solver._compute_entry(i, 0)),
            name="m2l-task")
        with san.scope() as caught:
            task.start()
            task.join()     # serialized in time; NOT a happens-before edge
            # BUG: the entry's future was never consumed before the read
            solver._accumulate_entry(solver._plan[i], done[0])
        assert [f.kind for f in caught] == ["data-race"]
        f = caught[0]
        assert f.details["buffer"] == "fmm/m2l-out"
        assert "read" in f.details["current_access"]
        assert "write" in f.details["prior_access"]
        assert "m2l-task" in f.details["prior_access"]
