"""Dense step-2 forms against the retained pair-list path.

A fully populated all-leaf level runs its whole leaf-level near field as
shifted-slice matmuls over constant Green tables, and a level without
leaf cells runs its same-level M2L as masked Green-block contractions
(row tiles of the whole-level matrix on the root, parent-offset sweeps
below it); everything irregular stays on recorded pair lists.  The
oracle is always the *same* solver with one dense form switched off
(``_DenseLeaf.of`` / ``_DenseM2L.of`` patched to decline), so both sides
cover the identical pair set and differ only in arithmetic.

The whole module runs under ``np.errstate(all="raise")``: a masked
``inf * 0``, a zero-mass division or an overflow in a dense kernel is an
error here, not a silent NaN.  Only the pair-list oracle relaxes
``under`` (see below).

Tolerance policy: leaf P2P
--------------------------
The pair kernel forms ``f = -(mA mB / r^3) dR`` and divides by the
receiving mass; the table holds ``-dR / r^3`` and the matmul multiplies
by the source mass and sums 8 sources at a time.  Same terms, different
rounding and summation order: fields agree to a few ULPs of the largest
value on the level — bounded here at ``1e-13 * max|phi|`` and
``1e-13 * max|acc|`` (measured: ~1e-15).  Interaction *counts* are exact,
and a futurized dense solve is byte-identical to the serial one (fixed
offset groups, partials added in group order).

The bound holds for cell masses above ~1e-7: the pair path stands in
``1e-300`` for a zero mass and divides it back out, which for smaller
partners underflows into denormals and costs *the oracle* bits on
zero-mass cells (the dense path never forms that product).

Tolerance policy: M2L
---------------------
``m2l_pair`` assembles ``quad = mA M2B + mB M2A``, the force and both
accelerations per pair and scatter-adds them; the dense kernel contracts
each Green component against the packed moments of all partners first
(one matmul per side) and assembles per cell.  Same terms, other order:
the bound is again ``1e-13 * max|.|`` on ``phi`` and ``acc`` (measured:
~1e-15 at depth 1 and 2).  The zero-mass caveat is the same and bites
earlier, because the multipole force also carries ``mA M2B``: with the
``1e-300`` stand-in that product is denormal for *any* realistic
``M2B`` (hence ``under="ignore"`` around the oracle), so the oracle's
acceleration on an empty cell — and on the leaves that inherit it
through L2L — loses bits of its quadrupole part (measured 4e-15 of
``max|acc|`` at the 1e-6 scale, growing as the scale shrinks).  ``acc``
is therefore compared on cells that carry mass, ``phi`` (which never
divides by the receiving mass) everywhere, and both everywhere when no
cell is empty.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exec import ExecutionEngine
from repro.core.gravity import fmm
from repro.core.gravity.fmm import FmmSolver
from repro.core.gravity.kernels import (N_GREEN, N_MOMENT, green_table,
                                        m2l_dense)
from repro.core.gravity.stencil import (leaf_sweep_offsets, m2l_root_tiles,
                                        m2l_sweep_offsets, well_separated)
from repro.core.workspace import Workspace
from repro.runtime import CudaDevice, WorkStealingScheduler
from repro.runtime.counters import default_registry
from repro.util import morton_key

SUBGRID_N = 4
FIELD_BOUND = 1e-13
COUNTERS = ("/fmm/interactions/monopole", "/fmm/interactions/multipole")


@pytest.fixture(autouse=True)
def _fp_errors_raise():
    with np.errstate(all="raise"):
        yield


def _solvers(depth, _cache={}):
    """(dense, leaf level on pair lists, M2L on pair lists) solvers of
    one depth, plans built once."""
    if depth not in _cache:
        M = SUBGRID_N << depth
        rho = np.ones((M, M, M))
        decline = classmethod(lambda cls, *args: None)
        solvers = []
        for declined in (None, fmm._DenseLeaf, fmm._DenseM2L):
            solver = FmmSolver.from_uniform(rho, 1.0 / M,
                                            subgrid_n=SUBGRID_N)
            if declined is None:
                solver.solve()
            else:
                with mock.patch.object(declined, "of", decline), \
                        np.errstate(under="ignore"):
                    solver.solve()
            solvers.append(solver)
        dense, leaf_lists, m2l_lists = solvers
        assert dense._dense and not leaf_lists._dense
        assert m2l_lists._dense and not m2l_lists._dense_m2l
        assert bool(dense._dense_m2l) == (depth > 0)
        _cache[depth] = solvers
    return _cache[depth]


def _density(M, seed, zero_frac, scale):
    """Random non-negative density with exactly-zero cells and at least
    one massive one."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1 * scale, scale, (M, M, M))
    rho[rng.random((M, M, M)) < zero_frac] = 0.0
    rho.flat[rng.integers(rho.size)] = scale
    return rho


def _solve(solver, depth, rho, engine=None, oracle=False):
    reg = default_registry()
    before = reg.snapshot()
    solver.set_leaf_density({depth: rho})
    # the pair kernels' 1e-300 stand-in for a zero mass underflows by
    # design (module docstring); nothing else may
    with np.errstate(under="ignore" if oracle else "raise"):
        phi, acc = solver.uniform_field(solver.solve(executor=engine))
    after = reg.snapshot()
    return phi, acc, [after.get(c, 0.0) - before.get(c, 0.0)
                      for c in COUNTERS]


@pytest.mark.parametrize("depth", [0, 1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       zero_frac=st.sampled_from([0.0, 0.3, 0.95]),
       scale=st.sampled_from([0.1, 1.0, 1e8]))
def test_dense_sweep_matches_pair_lists(depth, seed, zero_frac, scale):
    dense, lists, _ = _solvers(depth)
    M = SUBGRID_N << depth
    rho = _density(M, seed, zero_frac, scale)
    phi, acc, counts = _solve(dense, depth, rho)
    phi_ref, acc_ref, counts_ref = _solve(lists, depth, rho, oracle=True)

    assert np.abs(phi - phi_ref).max() <= FIELD_BOUND * np.abs(phi_ref).max()
    assert np.abs(acc - acc_ref).max() <= FIELD_BOUND * np.abs(acc_ref).max()
    assert counts == counts_ref and counts[0] > 0
    _assert_momentum_conserved(M, rho, acc)


def _assert_momentum_conserved(M, rho, acc):
    """Linear and angular momentum of the field at the thresholds of
    ``test_fmm.py``'s conservation tests."""
    dx = 1.0 / M
    g = (np.arange(M) + 0.5) * dx
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    force = (rho * dx ** 3).reshape(-1, 1) * acc.reshape(-1, 3)
    assert np.abs(force.sum(0)).max() <= 1e-13 * np.abs(force).sum()
    torque = np.cross(pos, force)
    assert np.abs(torque.sum(0)).max() <= 1e-12 * np.abs(torque).sum()


#: multipole interactions of one solve on the production sub-grid size
#: (8^3 root): the counts the perf ledger pins as exact metrics
MULTIPOLE_PER_SOLVE = {16: 95_472, 32: 1_979_056}


@pytest.mark.parametrize("depth", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       zero_frac=st.sampled_from([0.0, 0.3, 0.95]),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_dense_m2l_matches_pair_lists(depth, seed, zero_frac, scale):
    dense, _, lists = _solvers(depth)
    M = SUBGRID_N << depth
    rho = _density(M, seed, zero_frac, scale)
    phi, acc, counts = _solve(dense, depth, rho)
    phi_ref, acc_ref, counts_ref = _solve(lists, depth, rho, oracle=True)

    assert np.abs(phi - phi_ref).max() <= FIELD_BOUND * np.abs(phi_ref).max()
    massive = slice(None) if zero_frac == 0.0 else rho > 0.0
    assert np.abs(acc - acc_ref)[massive].max() \
        <= FIELD_BOUND * np.abs(acc_ref).max()
    assert counts == counts_ref and counts[1] > 0
    if depth == 2:
        _assert_momentum_conserved(M, rho, acc)


@pytest.mark.parametrize("M", sorted(MULTIPOLE_PER_SOLVE))
def test_dense_m2l_counts_exactly_the_far_pairs(M):
    rho = _density(M, 7, 0.3, 1.0)
    solver = FmmSolver.from_uniform(rho, 1.0 / M)
    depth = len(solver.levels) - 1
    for _ in range(2):        # the plan-building solve and a replay
        _, _, counts = _solve(solver, depth, rho)
        assert counts[1] == MULTIPOLE_PER_SOLVE[M]
    assert {e.kind for e in solver._plan} == {"dense", "m2l-dense"}


def test_futurized_dense_solve_is_byte_identical_to_serial():
    depth = 2
    M = SUBGRID_N << depth
    dense = _solvers(depth)[0]
    with WorkStealingScheduler(1) as sched, \
            CudaDevice(n_streams=2, n_workers=1, name="dense-gpu") as gpu:
        # tiny slot buffer: the plan spans several aggregated launches
        engine = ExecutionEngine(scheduler=sched, devices=[gpu], agg_slots=3)
        for seed in (1, 2, 3):
            rho = _density(M, seed, 0.3, 1.0)
            phi, acc, counts = _solve(dense, depth, rho)
            phi_f, acc_f, counts_f = _solve(dense, depth, rho, engine)
            assert phi_f.tobytes() == phi.tobytes()
            assert acc_f.tobytes() == acc.tobytes()
            assert counts_f == counts
        engine.synchronize()
    assert engine.aggregated_per_launch > 1.0


def test_uniform_solver_records_no_leaf_level_pair_lists():
    """Stronger than the name: an even-edged uniform solver records no
    pair list of any kind, at any level."""
    for depth in (0, 1, 2):
        dense, leaf_lists, m2l_lists = _solvers(depth)
        kinds = [e.kind for e in dense._plan]
        assert kinds.count("dense") == fmm._DENSE_GROUPS
        assert set(kinds) <= {"dense", "m2l-dense"}
        assert ("m2l-dense" in kinds) == (depth > 0)
        # each oracle really is on lists for the part it declines
        assert any(e.kind == "p2p" and e.la.leaf.all() and e.lb.leaf.all()
                   for e in leaf_lists._plan)
        assert ("m2l" in {e.kind for e in m2l_lists._plan}) == (depth > 0)


def test_odd_edge_level_stays_on_pair_lists():
    rho = np.random.default_rng(5).uniform(0.1, 1.0, (3, 3, 3))
    solver = FmmSolver.from_uniform(rho, 0.5, subgrid_n=3)
    phi, _acc = solver.uniform_field(solver.solve())
    assert not solver._dense and np.isfinite(phi).all()


def test_sweep_offsets_are_the_parent_near_set():
    assert len(leaf_sweep_offsets(16)) == 257
    assert len(leaf_sweep_offsets(2)) == 27          # clipped to the grid
    assert len(leaf_sweep_offsets(4, root=True)) == 7 ** 3
    # the M2L sweep visits each near parent pair once: W = 0 dropped (no
    # two siblings are well separated), one of every {W, -W}
    assert len(m2l_sweep_offsets(16)) == 128
    assert len(m2l_sweep_offsets(2)) == 13


def test_green_table_rejects_coincident_cells():
    child = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])
    table = green_table((0, 0, 0), child, 0.5)
    assert np.all(table.reshape(8, 8, 4)[np.arange(8), np.arange(8)] == 0.0)
    broken = child.copy()
    broken[1] = broken[0]
    with pytest.raises(ValueError, match="coincident"):
        green_table((0, 0, 0), broken, 0.5)


@st.composite
def _root_cells(draw):
    """Morton-sorted integer cells of a root level: the full 8^3 root, a
    random part of a box (a partial ``from_levels`` root) or a whole box
    of odd or non-cube shape, anywhere on the lattice."""
    kind = draw(st.sampled_from(["full", "partial", "box"]))
    shape = (8, 8, 8) if kind == "full" else tuple(
        draw(st.lists(st.integers(1, 9), min_size=3, max_size=3)))
    grid = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    if kind == "partial":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        keep = rng.random(len(grid)) < draw(st.sampled_from([0.2, 0.6, 0.9]))
        keep[rng.integers(len(grid))] = True
        grid = grid[keep]
    if kind != "full":
        grid = grid + np.array(draw(st.lists(st.integers(0, 5),
                                             min_size=3, max_size=3)))
    return grid[np.argsort(morton_key(grid))]


@settings(max_examples=40, deadline=None)
@given(coords=_root_cells())
def test_root_tiles_unmask_every_far_pair_exactly_once(coords):
    """Every well-separated pair of the root is unmasked in exactly one
    tile (in either orientation), every near pair and every cell with
    itself stays masked, ``pairs`` counts the far pairs, an index array
    never repeats a cell, and no tile is all mask."""
    n = len(coords)
    tiles, pairs = m2l_root_tiles(coords)
    seen = np.zeros((n, n), dtype=np.int64)
    for tgt, src, mask in tiles:
        (ti,), (si,) = tgt, src
        for ix in (ti, si):
            if isinstance(ix, np.ndarray):
                assert len(np.unique(ix)) == ix.size
        i, j = np.arange(n)[ti], np.arange(n)[si]
        i, j = np.broadcast_arrays(i[..., :, None], j[..., None, :], mask)[:2]
        hit = mask == 0.0
        assert hit.any()
        np.add.at(seen, (np.minimum(i, j)[hit], np.maximum(i, j)[hit]), 1)
    far = np.triu(well_separated(coords[:, None, :] - coords[None, :, :]),
                  k=1)
    np.testing.assert_array_equal(seen, far.astype(np.int64))
    assert pairs == int(far.sum())


def test_index_array_tiles_land_partner_contributions_in_p():
    """Regression: a tile indexed by integer arrays updates both sides
    in ``P``.  ``P[:, index]`` is a view only for slices — for an array
    it is a copy, and partner contributions added through it would
    silently vanish.  The same cells made contiguous and tiled by slices
    are the oracle."""
    rng = np.random.default_rng(11)
    n = 12
    com = rng.normal(size=(3, n)) * 10.0
    V = rng.normal(size=(n, N_MOMENT))
    tgt, src = np.array([[7, 0, 3]]), np.array([[10, 2, 5, 11]])
    mask = np.zeros((1, 3, 4))
    mask[0, 1, 2] = np.inf
    P = m2l_dense(com, V, [((tgt,), (src,), mask)],
                  np.empty((N_GREEN, n, N_MOMENT)), Workspace())

    perm = np.concatenate([tgt[0], src[0]])
    rest = np.setdiff1d(np.arange(n), perm)
    ref = m2l_dense(com[:, perm], V[perm],
                    [((slice(0, 3),), (slice(3, 7),), mask[0])],
                    np.empty((N_GREEN, len(perm), N_MOMENT)), Workspace())
    np.testing.assert_array_equal(P[:, perm], ref)
    assert np.all(P[:, src[0]].any(axis=(0, 2)))
    assert not P[:, rest].any()
