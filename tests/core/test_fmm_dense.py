"""Every FMM level of every tree on the dense sweeps, against an oracle
of the partition.

Step 2 of the solver is one rule on every level: a Green-table leaf
sweep, a dense M2L and one coarse-fine ``p2p_pair`` batch.  The oracle
here (:func:`_partition`, :func:`_oracle_solve`) takes the partition
from its definition instead, level by level: it enumerates integer cell
offsets, applies ``well_separated`` to the cell offset and to the parent
offset, and sends every pair the level handles through the pair kernels
— ``p2p_pair`` when both cells are leaves, ``m2l_pair`` otherwise — and
every leaf near a refined cell against that cell's children through
``p2p_pair``.  It runs through the solver's own upward and downward
passes, so the two differ only in step 2.

The whole module runs under ``np.errstate(all="raise")``: a masked
``inf * 0``, a zero-mass division or an overflow in a dense kernel is an
error here, not a silent NaN.  Only the oracle relaxes ``under`` (see
below).

Tolerance policy
----------------
The pair kernels form ``f = -(mA mB / r^3) dR`` (plus the quadrupole
terms) per pair, divide by the receiving mass and scatter-add; the leaf
sweep's table holds ``-dR / r^3`` and multiplies by the source masses 8
at a time, and the dense M2L contracts each Green component against the
packed moments of all partners before assembling per cell.  Same terms,
other rounding and summation order: fields agree to a few ULPs of the
largest value — bounded here at ``FIELD_BOUND * max|phi|`` and
``FIELD_BOUND * max|acc|`` (measured: ~1e-15).  On uniform trees the
interaction counts agree kind by kind; on adaptive ones the solver sends
far leaf-leaf pairs of a level with refined cells through its M2L (their
quadrupoles are zero), so only the totals agree.  A futurized solve is
byte-identical to the serial one (fixed groups, partials added in plan
order).

The pair kernels stand in ``1e-300`` for a zero mass and divide it back
out, which underflows into denormals (hence ``under="ignore"`` around
the oracle, and around solves with a coarse-fine boundary batch) and
costs *the oracle* bits on zero-mass cells — and, through
``mA M2B``, on the quadrupole part of their acceleration and of the
leaves that inherit it through L2L.  ``acc`` is therefore compared on
cells that carry mass, ``phi`` (which never divides by the receiving
mass) everywhere.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import RHO, Octree, grid, interior
from repro.core.exec import ExecutionEngine
from repro.core.gravity import fmm
from repro.core.gravity.fmm import FmmSolver
from repro.core.gravity.kernels import (N_GREEN, N_MOMENT, TINY_MASS,
                                        green_sweeps, green_tables, m2l_dense,
                                        m2l_pair, p2p_pair, p2p_pair_staged,
                                        sweep_pad)
from repro.core.gravity.stencil import (ROOT_CUBE, leaf_sweep_offsets,
                                        m2l_root_tiles, m2l_sweep_offsets,
                                        p2p_stencil, well_separated)
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


# -- the oracle ---------------------------------------------------------------

def _pairs(lv, root):
    """Every pair of cells of ``lv`` once: ``(a, b, w)`` with ``b = a +
    w`` and ``w`` lexicographically positive.  Below the root only the
    offsets some pair of not-well-separated parents can have."""
    c = lv.coords
    r = int((c.max(axis=0) - c.min(axis=0)).max()) if root else 9
    w = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
    w = w[(w[:, 0] > 0) | ((w[:, 0] == 0) & (w[:, 1] > 0))
          | ((w[:, 0] == 0) & (w[:, 1] == 0) & (w[:, 2] > 0))]
    if not root:
        w = w[~well_separated(np.abs(w) // 2)]
    lo = c.min(axis=0) - r
    slot = np.full(c.max(axis=0) + r + 1 - lo, -1)
    slot[tuple((c - lo).T)] = np.arange(lv.n)
    b = slot[tuple(np.moveaxis(c[None] + w[:, None] - lo, -1, 0))]
    wi, a = np.nonzero(b >= 0)
    return a, b[wi, a], w[wi]


def _partition(solver):
    """Step 2 by definition: ``[(kind, la, a, lb, b)]`` batches.

    A pair of one level is handled there when it is well separated and
    its parents are not (on the root: when it is well separated) — by
    ``p2p`` if both cells are leaves, else ``m2l`` —, and a near pair of
    two leaves is a ``p2p`` pair.  A leaf near a refined cell meets that
    cell's children by ``p2p`` (the coarse-fine boundary)."""
    batches = []
    levels = solver.levels
    for li, lv in enumerate(levels):
        a, b, w = _pairs(lv, li == 0)
        far = well_separated(w)
        if li:
            far &= ~well_separated((lv.coords[b] >> 1) - (lv.coords[a] >> 1))
            near = ~well_separated(w)
        else:
            near = ~far
        leaf_a, leaf_b = lv.leaf[a], lv.leaf[b]
        both = leaf_a & leaf_b
        batches.append(("p2p", lv, a[(far | near) & both], lv,
                        b[(far | near) & both]))
        batches.append(("m2l", lv, a[far & ~both], lv, b[far & ~both]))
        leaf = np.concatenate([a[near & leaf_a & ~leaf_b],
                               b[near & ~leaf_a & leaf_b]])
        refined = np.concatenate([b[near & leaf_a & ~leaf_b],
                                  a[near & ~leaf_a & leaf_b]])
        if len(leaf):
            child = levels[li + 1]
            for bits in itertools.product((0, 1), repeat=3):
                kids, found = child.find(2 * lv.coords[refined] + bits)
                batches.append(("p2p", lv, leaf[found], child, kids[found]))
    return batches


def _accumulate(lv, idx, phi, acc, hess=None):
    lv.phi += np.bincount(idx, phi, lv.n)
    for d in range(3):
        lv.acc[:, d] += np.bincount(idx, acc[:, d], lv.n)
    if hess is not None:
        for i, j in itertools.product(range(3), repeat=2):
            lv.hess[:, i, j] += np.bincount(idx, hess[:, i, j], lv.n)


def _oracle_solve(solver, batches):
    """The oracle's field and ``(p2p, m2l)`` pair counts: the solver's
    upward pass, ``batches`` through the pair kernels, its downward
    pass."""
    solver._reset_taylor()
    solver._upward()
    counts = {"p2p": 0, "m2l": 0}
    with np.errstate(under="ignore"):
        for kind, la, a, lb, b in batches:
            counts[kind] += len(a)
            args = (la.com[a] - lb.com[b], np.maximum(la.m[a], TINY_MASS),
                    np.maximum(lb.m[b], TINY_MASS))
            if kind == "p2p":
                phiA, phiB, accA, accB = p2p_pair(*args)
                HA = HB = None
            else:
                phiA, phiB, accA, accB, HA, HB = m2l_pair(
                    *args, la.M2[a], lb.M2[b])
            _accumulate(la, a, phiA, accA, HA)
            _accumulate(lb, b, phiB, accB, HB)
        solver._downward()
    return solver._collect(), (counts["p2p"], counts["m2l"])


# -- solving and comparing -------------------------------------------------------

def _uniform(depth, _cache={}):
    """(solver, oracle solver, oracle batches) of one uniform depth."""
    if depth not in _cache:
        M = SUBGRID_N << depth
        solvers = [FmmSolver.from_uniform(np.ones((M, M, M)), 1.0 / M,
                                          subgrid_n=SUBGRID_N)
                   for _ in range(2)]
        _cache[depth] = (*solvers, _partition(solvers[1]))
    return _cache[depth]


def _density(M, seed, zero_frac, scale):
    """Random non-negative density with exactly-zero cells and at least
    one massive one."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1 * scale, scale, (M, M, M))
    rho[rng.random((M, M, M)) < zero_frac] = 0.0
    rho.flat[rng.integers(rho.size)] = scale
    return rho


def _solve(solver, rho_by_level, engine=None):
    """The solver's leaf field and its ``(monopole, multipole)`` counts.
    A coarse-fine boundary batch runs the pair kernel, whose zero-mass
    stand-in underflows by design (module docstring); nothing else may."""
    reg = default_registry()
    before = reg.snapshot()
    solver.set_leaf_density(rho_by_level)
    with np.errstate(under="ignore" if solver._boundary else "raise"):
        result = solver.solve(executor=engine)
    after = reg.snapshot()
    return result, tuple(after.get(c, 0.0) - before.get(c, 0.0)
                         for c in COUNTERS)


def _assert_fields_agree(result, ref, solver):
    """``phi`` everywhere, ``acc`` on cells with mass, both within
    :data:`FIELD_BOUND` of the largest oracle value."""
    phi_max = max(np.abs(v).max() for v in ref.phi.values())
    acc_max = max(np.abs(v).max() for v in ref.acc.values())
    for lvl, phi in ref.phi.items():
        massive = solver.levels[lvl].m[ref.leaf_slots[lvl]] > 0.0
        assert np.abs(result.phi[lvl] - phi).max() <= FIELD_BOUND * phi_max
        assert np.abs(result.acc[lvl] - ref.acc[lvl])[massive].max(
            initial=0.0) <= FIELD_BOUND * acc_max


def _assert_momentum_conserved(solver, result):
    """Linear and angular momentum of the leaf field at the thresholds of
    ``test_fmm.py``'s conservation tests."""
    force = np.concatenate([solver.levels[lvl].m[s, None] * result.acc[lvl]
                            for lvl, s in result.leaf_slots.items()])
    pos = np.concatenate([solver.levels[lvl].com[s]
                          for lvl, s in result.leaf_slots.items()])
    assert np.abs(force.sum(0)).max() <= 1e-13 * np.abs(force).sum()
    torque = np.cross(pos, force)
    assert np.abs(torque.sum(0)).max() <= 1e-12 * np.abs(torque).sum()


@pytest.mark.parametrize("depth", [0, 1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       zero_frac=st.sampled_from([0.0, 0.3, 0.95]),
       scale=st.sampled_from([0.1, 1.0, 1e8]))
def test_dense_sweep_matches_pair_lists(depth, seed, zero_frac, scale):
    """Uniform depths 0-2 against the oracle: fields, counts kind by
    kind, conservation."""
    solver, oracle, batches = _uniform(depth)
    rho = {depth: _density(SUBGRID_N << depth, seed, zero_frac, scale)}
    result, counts = _solve(solver, rho)
    oracle.set_leaf_density(rho)
    ref, counts_ref = _oracle_solve(oracle, batches)

    _assert_fields_agree(result, ref, solver)
    assert counts == counts_ref and counts[0] > 0
    assert (counts[1] > 0) == (depth > 0)
    _assert_momentum_conserved(solver, result)


@pytest.mark.parametrize("depth", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       zero_frac=st.sampled_from([0.0, 0.3, 0.95]),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_dense_m2l_matches_pair_lists(depth, seed, zero_frac, scale):
    """The interior levels' M2L over a 1e-6 ... 1e6 mass scale."""
    solver, oracle, batches = _uniform(depth)
    rho = {depth: _density(SUBGRID_N << depth, seed, zero_frac, scale)}
    result, counts = _solve(solver, rho)
    oracle.set_leaf_density(rho)
    ref, counts_ref = _oracle_solve(oracle, batches)

    _assert_fields_agree(result, ref, solver)
    assert counts == counts_ref and counts[1] > 0


@pytest.mark.parametrize("M, subgrid_n", [(3, 3), (5, 5), (7, 7), (9, 9),
                                          (6, 3), (10, 5)])
def test_odd_edge_grid_runs_dense(M, subgrid_n):
    """An odd edge stages into the even parent grid around it: the
    solver records no pair list and agrees with the oracle.  A root
    wider than 8 cells is covered to its far corner (the retired root
    stencil stopped at offsets of 7)."""
    rho = {0: _density(M, M, 0.3, 1.0)}
    solver, oracle = (FmmSolver.from_uniform(rho[0], 1.0 / M,
                                             subgrid_n=subgrid_n)
                      for _ in range(2))
    depth = len(solver.levels) - 1
    rho = {depth: rho[0]}
    result, counts = _solve(solver, rho)
    oracle.set_leaf_density(rho)
    ref, counts_ref = _oracle_solve(oracle, _partition(oracle))

    assert {e.kind for e in solver._plan} <= {"dense", "m2l-dense"}
    _assert_fields_agree(result, ref, solver)
    assert counts == counts_ref
    _assert_momentum_conserved(solver, result)


@st.composite
def _trees(draw):
    """A refined ``Octree`` of 4^3 sub-grids, up to four levels, with a
    random leaf density (exact zeros included): ``(specs, rho)``."""
    tree = Octree(subgrid_n=SUBGRID_N)
    for _ in range(draw(st.integers(1, 6))):
        leaves = sorted(leaf.key for leaf in tree.leaves() if leaf.level < 3)
        tree.refine(*draw(st.sampled_from(leaves)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero_frac = draw(st.sampled_from([0.0, 0.3]))
    for leaf in tree.leaves():
        rho = rng.uniform(0.1, 1.0, interior(leaf.U)[RHO].shape)
        rho[rng.random(rho.shape) < zero_frac] = 0.0
        interior(leaf.U)[RHO] = rho
    return tree.fmm_levels()


def _balanced_solvers(specs):
    """Solver and oracle solver of ``specs``; trees the dense engine
    cannot serve (:func:`test_from_levels_rejects_bad_specs` covers them)
    and oversized ones are not drawn."""
    assume(sum(len(coords) for _, _, coords, _ in specs) <= 6000)
    try:
        return FmmSolver.from_levels(specs), FmmSolver.from_levels(specs)
    except ValueError as exc:
        assert "2:1 balanced" in str(exc)
        assume(False)


@settings(max_examples=20, deadline=None)
@given(tree=_trees())
def test_adaptive_tree_matches_oracle(tree):
    """Drawn adaptive trees: fields within the bound, the interaction
    total, conservation, and one plan of dense entries plus at most one
    boundary ``p2p`` batch per level with leaf and refined cells."""
    specs, rho = tree
    solver, oracle = _balanced_solvers(specs)
    result, counts = _solve(solver, rho)
    oracle.set_leaf_density(rho)
    ref, counts_ref = _oracle_solve(oracle, _partition(oracle))

    _assert_fields_agree(result, ref, solver)
    assert sum(counts) == sum(counts_ref)
    _assert_momentum_conserved(solver, result)
    mixed = [lv for lv in solver.levels if lv.leaf.any() and not lv.leaf.all()]
    boundary = [e for e in solver._plan if e.kind == "p2p"]
    assert {e.kind for e in solver._plan} <= {"dense", "m2l-dense", "p2p"}
    assert len(boundary) <= len(mixed)
    assert len({e.la.level for e in boundary}) == len(boundary)


#: multipole interactions of one solve on the production sub-grid size
#: (8^3 root): the counts the perf ledger pins as exact metrics
MULTIPOLE_PER_SOLVE = {16: 95_472, 32: 1_979_056}


@pytest.mark.parametrize("M", sorted(MULTIPOLE_PER_SOLVE))
def test_dense_m2l_counts_exactly_the_far_pairs(M):
    rho = _density(M, 7, 0.3, 1.0)
    solver = FmmSolver.from_uniform(rho, 1.0 / M)
    depth = len(solver.levels) - 1
    for _ in range(2):        # the plan-building solve and a replay
        _, counts = _solve(solver, {depth: rho})
        assert counts[1] == MULTIPOLE_PER_SOLVE[M]
    assert {e.kind for e in solver._plan} == {"dense", "m2l-dense"}


#: (monopole, multipole) interactions of one solve: uniform grids by
#: edge, and the tree of :func:`_adaptive_specs` on 8^3 sub-grids
COUNTS_PER_SOLVE = {16: (2_276_352, 95_472), 32: (25_251_840, 1_979_056),
                    "adaptive": (6_309_552, 23_585_040)}


def _adaptive_specs(subgrid_n):
    """A three-times refined ``Octree`` (one refinement per level, a
    coarse-fine boundary on every refined level): its ``fmm_levels``."""
    tree = Octree(subgrid_n=subgrid_n)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (0, 1, 0))
    tree.refine(2, (1, 2, 1))
    return tree, tree.fmm_levels()


@pytest.mark.parametrize("grid", list(COUNTS_PER_SOLVE))
def test_interaction_counts_per_solve(grid):
    """Every solve — the plan-building one and a replay — counts the
    same monopole and multipole interactions."""
    if grid == "adaptive":
        specs, rho = _adaptive_specs(8)[1]
        solver = FmmSolver.from_levels(specs)
    else:
        rho = _density(grid, 5, 0.3, 1.0)
        solver = FmmSolver.from_uniform(rho, 1.0 / grid)
        rho = {len(solver.levels) - 1: rho}
    for _ in range(2):
        assert _solve(solver, rho)[1] == COUNTS_PER_SOLVE[grid]


def _assert_futurized_matches_serial(solver, densities):
    with WorkStealingScheduler(1) as sched, \
            CudaDevice(n_streams=2, n_workers=1, name="dense-gpu") as gpu:
        # tiny slot buffer: the plan spans several aggregated launches
        engine = ExecutionEngine(scheduler=sched, devices=[gpu], agg_slots=3)
        for rho in densities:
            result, counts = _solve(solver, rho)
            result_f, counts_f = _solve(solver, rho, engine)
            for lvl in result.phi:
                assert result_f.phi[lvl].tobytes() == result.phi[lvl].tobytes()
                assert result_f.acc[lvl].tobytes() == result.acc[lvl].tobytes()
            assert counts_f == counts
        engine.synchronize()
    assert engine.aggregated_per_launch > 1.0


def test_futurized_dense_solve_is_byte_identical_to_serial():
    depth = 2
    solver = _uniform(depth)[0]
    _assert_futurized_matches_serial(solver, [
        {depth: _density(SUBGRID_N << depth, seed, 0.3, 1.0)}
        for seed in (1, 2, 3)])


def test_futurized_adaptive_solve_is_byte_identical_to_serial():
    """An adaptive tree walks the same dense plan through the engine,
    its coarse-fine boundary batch included."""
    tree, (specs, _) = _adaptive_specs(SUBGRID_N)
    solver = FmmSolver.from_levels(specs)
    densities = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for leaf in tree.leaves():
            interior(leaf.U)[RHO] = rng.uniform(
                0.1, 1.0, interior(leaf.U)[RHO].shape)
        densities.append(tree.fmm_levels()[1])
    _assert_futurized_matches_serial(solver, densities)
    kinds = [e.kind for e in solver._plan]
    assert kinds.count("p2p") == 1 and "m2l-dense" in kinds


def test_uniform_solver_records_no_leaf_level_pair_lists():
    """Stronger than the name: an even-edged uniform solver records no
    pair list of any kind, at any level."""
    for depth in (0, 1, 2):
        kinds = [e.kind for e in _uniform(depth)[0]._plan]
        assert kinds.count("dense") == fmm._DENSE_GROUPS
        assert set(kinds) <= {"dense", "m2l-dense"}
        assert ("m2l-dense" in kinds) == (depth > 0)


def test_sweep_offsets_are_the_parent_near_set():
    """Below the root the near parent offsets, whatever grid holds them;
    on a root every offset its grid holds."""
    near = leaf_sweep_offsets()
    assert len(near) == 257 and np.abs(near).max() == 4
    assert len(leaf_sweep_offsets(4)) == 7 ** 3
    # the M2L sweep visits each near parent pair once: W = 0 dropped (no
    # two siblings are well separated), one of every {W, -W}
    assert len(m2l_sweep_offsets()) == 128


def _plain_sweep(m8, offsets, width, near_only):
    """The leaf sweep as one shifted-slice matmul per offset on the
    unpadded grid, each added into the targets it has."""
    P = len(m8)
    out = np.zeros((P, P, P, 32))
    for w in offsets.tolist():
        target = tuple(slice(max(0, -x), P - max(0, x)) for x in w)
        source = tuple(slice(max(0, x), P + min(0, x)) for x in w)
        out[target] += m8[source] @ _table_oracle(w, fmm._CHILD, width,
                                                  near_only)
    return out


@pytest.mark.parametrize("P, root", [(4, False), (8, False), (16, False),
                                     (2, True), (4, True)])
@pytest.mark.parametrize("near_only", [False, True])
def test_padded_sweep_matches_plain_loop(P, root, near_only):
    """The staged sweep — masses on the y/z-padded grid, one BLAS add per
    offset into a contiguous x-slab — against :func:`_plain_sweep`: the
    same products summed in the same order, so within 4 ulps of the
    largest value of each of the four output components."""
    rng = np.random.default_rng(P)
    m8 = rng.uniform(0.5, 2.0, (P, P, P, 8))
    m8[rng.random(m8.shape) < 0.3] = 0.0
    offsets = leaf_sweep_offsets(P if root else None)
    offsets = offsets[(np.abs(offsets) < P).all(axis=1)]
    py, pz = pad = sweep_pad(offsets)
    sweeps, _ = green_sweeps(P, offsets, fmm._CHILD, 0.5 / P,
                             np.ones(m8.shape, bool), pad, near_only)
    got = p2p_pair_staged(np.pad(m8, [(0, 0), (py, py), (pz, pz), (0, 0)]),
                          sweeps, np.full((P, P, P, 32), np.nan),
                          Workspace()).reshape(-1, 4)
    ref = _plain_sweep(m8, offsets, 0.5 / P, near_only).reshape(-1, 4)
    bound = 4 * np.spacing(np.abs(ref).max(axis=0))
    assert np.all(np.abs(got - ref) <= bound)


def test_staged_sweep_refuses_a_strided_out():
    """BLAS adds into views of ``out``: a strided one is refused, not
    silently left unwritten."""
    out = np.zeros((2, 2, 2, 64))[..., ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        p2p_pair_staged(np.zeros((2, 4, 4, 8)), [], out, Workspace())


def test_pad_margins_stay_zero_across_restages():
    """Only the level's leaf masses are ever staged: the massless pad
    around them stays exactly ``+0.0`` through three solves with
    different densities, on a uniform and on an adaptive tree."""
    tree, (specs, _) = _adaptive_specs(SUBGRID_N)
    uniform = _uniform(2)[0]
    for solver in (uniform, FmmSolver.from_levels(specs)):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            if solver is uniform:
                rho = {2: _density(SUBGRID_N << 2, seed, 0.3, 10.0 ** seed)}
            else:
                for leaf in tree.leaves():
                    interior(leaf.U)[RHO] = rng.uniform(
                        0.1, 10.0 ** seed, interior(leaf.U)[RHO].shape)
                rho = tree.fmm_levels()[1]
            _solve(solver, rho)
            for dense in solver._staged:
                if not isinstance(dense, fmm._DenseLeaf):
                    continue
                P, ny, nz, _ = dense.m8.shape
                py, pz = (ny - P) // 2, (nz - P) // 2
                margin = dense.m8.copy()
                margin[:, py:py + P, pz:pz + P] = 0.0
                assert py > 0 and pz > 0
                assert not margin.any() and not np.signbit(margin).any()
                assert dense.m8[:, py:py + P, pz:pz + P].any()


def test_green_table_rejects_coincident_cells():
    child = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])
    table, = green_tables([(0, 0, 0)], child, 0.5)
    assert np.all(table.reshape(8, 8, 4)[np.arange(8), np.arange(8)] == 0.0)
    broken = child.copy()
    broken[1] = broken[0]
    with pytest.raises(ValueError, match="coincident"):
        green_tables([(1, 0, 0), (0, 0, 0)], broken, 0.5)


def test_green_table_near_only_zeroes_exactly_the_far_pairs():
    child = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])
    w = np.array([(2, 0, 0), (2, 1, 1), (0, 0, 0), (3, 0, 0)])
    full = green_tables(w, child, 0.5).reshape(-1, 8, 8, 4)
    near = green_tables(w, child, 0.5, near_only=True).reshape(-1, 8, 8, 4)
    far = well_separated(child[None, None] - 2 * w[:, None, None]
                         - child[None, :, None])
    assert not near[far].any()
    np.testing.assert_array_equal(near[~far], full[~far])


# -- the plan, one offset at a time -------------------------------------------
#
# The solver builds its plan as arrays: all Green tables or masks of an
# offset group in one broadcast, slab and window bounds as integer
# columns, pair credits in one pass over the grid, the root's tiles and
# masks from one pair-distance matrix.  The oracle below builds the same
# plan the way its definitions read — one parent offset, one tile and
# one Morton cube at a time — and the two must agree bit for bit: every
# table, mask and index array (dtype included), every slice, every pair
# count and the order of all of them.

def _table_oracle(w, child, width, near_only=False):
    """The ``(8, 32)`` Green table of one parent offset ``w``."""
    w = np.asarray(w, dtype=np.int64)
    sep = child[None, :, :] - 2 * w - child[:, None, :]
    dR = sep * float(width)
    r2 = np.einsum("jic,jic->ji", dR, dR)
    if not w.any():
        r2[np.diag_indices(8)] = np.inf
    if near_only:
        r2[well_separated(sep)] = np.inf
    assert not np.any(r2 == 0.0)
    inv = 1.0 / np.sqrt(r2)
    inv3 = inv / r2
    table = np.empty((8, 8, 4))
    table[:, :, 0] = -inv
    table[:, :, 1:] = -dR * inv3[:, :, None]
    return table.reshape(8, 32)


def _sweeps_oracle(edge, offsets, child, width, leaf, pad, near_only):
    """:func:`green_sweeps`, one offset at a time."""
    sweeps, swept = [], 0
    plane = edge * edge
    for w in np.asarray(offsets).tolist():
        table = _table_oracle(w, child, width, near_only)
        hit = table.reshape(8, 8, 4)[..., 0] != 0.0
        if not hit.any():
            continue
        lo, hi = max(0, -w[0]), edge - max(0, w[0])
        window = (slice(lo + w[0], hi + w[0]),) + tuple(
            slice(p + x, p + x + edge) for p, x in zip(pad, w[1:]))
        sweeps.append((slice(lo * plane, hi * plane), window, table))
        credit = 2 if w > [0, 0, 0] else 1 if w == [0, 0, 0] else 0
        if credit:
            target = tuple(slice(max(0, -x), edge - max(0, x)) for x in w)
            source = tuple(slice(max(0, x), edge + min(0, x)) for x in w)
            swept += credit * int(((leaf[source] @ hit.astype(np.int64))
                                   * leaf[target]).sum())
    return sweeps, swept // 2


def _sweep_tiles_oracle(offsets, child, present, x0, full, blocks):
    """:func:`.stencil.m2l_sweep_tiles`, one offset and one tile at a
    time: the full grid's x slabs of each offset (from its first target
    layer on, at absolute parent x) restricted to the grid, whose first
    layer is ``x0``."""
    edge = len(present)
    tiles, pairs = [], 0
    for w in np.asarray(offsets).tolist():
        sep = child[:, None, :] - 2 * np.asarray(w) - child[None, :, :]
        far = well_separated(sep)
        if not far.any():
            continue
        mask = np.where(far, 0.0, np.inf)
        rest_t = tuple(slice(max(0, -x), edge - max(0, x)) for x in w[1:])
        rest_s = tuple(slice(max(0, x), edge + min(0, x)) for x in w[1:])
        step = max(1, blocks // ((full - abs(w[1])) * (full - abs(w[2]))))
        lo, hi = x0 + max(0, -w[0]), x0 + edge - max(0, w[0])
        for cut in range(max(0, -w[0]), hi, step):
            a, b = max(lo, cut) - x0, min(hi, cut + step) - x0
            if a >= b:
                continue
            tiles.append(((slice(a, b),) + rest_t,
                          (slice(a + w[0], b + w[0]),) + rest_s, mask))
            pairs += int(((present[tiles[-1][0]] @ far.astype(np.int64))
                          * present[tiles[-1][1]]).sum())
    return tiles, pairs


def _groups_oracle(offsets, P):
    """The plan groups of a sweep over ``offsets`` on a ``P``^3 parent
    grid, one offset at a time: the fixed table gives offset ``k`` of
    ``n`` the group ``g`` whose run holds it (``n // G`` offsets a run,
    one more for the first ``n % G``), and a group keeps the offsets
    the grid holds."""
    n, G = len(offsets), fmm._DENSE_GROUPS
    runs = [n // G + (g < n % G) for g in range(G)]
    groups, k = [], 0
    for run in runs:
        held = [w for w in offsets[k:k + run].tolist()
                if all(abs(x) < P for x in w)]
        k += run
        if held:
            groups.append(np.array(held, dtype=np.int64))
    return groups


def _root_tiles_oracle(coords):
    """:func:`m2l_root_tiles`, one Morton cube and one axis at a time."""
    n, edge = len(coords), ROOT_CUBE - 1
    cube = coords // ROOT_CUBE
    cubes = np.split(np.arange(n), np.flatnonzero(
        (cube[1:] != cube[:-1]).any(axis=1)) + 1)
    local = coords % ROOT_CUBE
    tiles = []
    for cells in cubes:
        lo, hi = int(cells[0]), int(cells[-1]) + 1
        tiles.append(((slice(lo, hi),), (slice(hi, n),), well_separated(
            coords[lo:hi, None, :] - coords[None, hi:, :])))
    for axis in range(3):
        faces = {}
        for cells in cubes:
            low = cells[local[cells, axis] == 0]
            high = cells[local[cells, axis] == edge]
            d = coords[low, None, :] - coords[None, high, :]
            far = well_separated(d) \
                & ~(np.abs(d[..., :axis]) == edge).any(axis=-1)
            if far.any():
                faces.setdefault(far.shape, []).append((low, high, far))
        for batch in faces.values():
            low, high, far = map(np.stack, zip(*batch))
            tiles.append(((low,), (high,), far))
    tiles = [(tgt, src, far) for tgt, src, far in tiles if far.any()]
    return ([(tgt, src, np.where(far, 0.0, np.inf))
             for tgt, src, far in tiles],
            sum(int(far.sum()) for _, _, far in tiles))


def _plan_oracle(solver):
    """``[(kind, sweeps or tiles, pairs)]`` of the solver's dense plan
    entries, in plan order, built by the oracles above."""
    plan = []
    for li, lv in enumerate(solver.levels):
        root = li == 0
        P, flat, _ = fmm._parent_grid(lv)
        if lv.leaf.any():
            leaf = np.zeros(8 * P ** 3, dtype=bool)
            leaf[flat[lv.leaf]] = True
            parts = _groups_oracle(
                leaf_sweep_offsets(P) if root else leaf_sweep_offsets(), P)
            for part in parts:
                sweeps, pairs = _sweeps_oracle(
                    P, part, fmm._CHILD, lv.width, leaf.reshape(P, P, P, 8),
                    sweep_pad(np.concatenate(parts)), not lv.leaf.all())
                if sweeps:
                    plan.append(("dense", sweeps, pairs))
        if not lv.leaf.all():
            if root:
                groups = [_root_tiles_oracle(lv.coords)]
            else:
                present = np.zeros(8 * P ** 3, dtype=bool)
                present[flat] = True
                # the level's full grid: a SUBGRID_N^3 root refined
                full = (grid.SUBGRID_N << lv.level) // 2
                groups = [_sweep_tiles_oracle(
                    part, fmm._CHILD, present.reshape(P, P, P, 8),
                    int(lv.coords[:, 0].min()) // 2, full,
                    fmm._SWEEP_BLOCKS)
                    for part in _groups_oracle(m2l_sweep_offsets(), P)]
            plan += [("m2l-dense", tiles, pairs)
                     for tiles, pairs in groups if pairs]
    return plan


def _built_plan(solver):
    """The same view of the plan the solver built."""
    solver._build_plan()
    return [(e.kind, e.sweeps, e.pairs) if e.kind == "dense"
            else (e.kind, e.tiles, e.pairs)
            for e in solver._plan if e.kind != "p2p"]


def _assert_same(got, ref, where="plan"):
    """Equal to the bit: the same nesting, slices with the same bounds,
    arrays of the same dtype, shape and bytes, equal values of the same
    type."""
    if isinstance(ref, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), where
        assert got.tobytes() == ref.tobytes(), where
    elif isinstance(ref, (list, tuple)):
        assert type(got) is type(ref) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_same(g, r, f"{where}[{i}]")
    elif isinstance(ref, slice):
        assert isinstance(got, slice), where
        for g, r in ((got.start, ref.start), (got.stop, ref.stop),
                     (got.step, ref.step)):
            assert g == r and (g is None) == (r is None), where
    else:
        assert type(got) is type(ref) and got == ref, where


@pytest.mark.parametrize("M, subgrid_n", [(8, 8), (16, 8), (32, 8),
                                          (16, 16)])
def test_uniform_plan_matches_the_per_offset_oracle(M, subgrid_n):
    """The plan of a uniform M^3 solver: on 8^3 sub-grids an all-leaf
    root, an 8^3 root plus leaves, and a 16^3 interior M2L level between;
    on one 16^3 sub-grid the root leaf sweep over all 3 375 offsets of
    its 8^3 parent grid."""
    solver = FmmSolver.from_uniform(np.ones((M,) * 3), 1.0 / M,
                                    subgrid_n=subgrid_n)
    _assert_same(_built_plan(solver), _plan_oracle(solver))


@st.composite
def _trees_8(draw):
    """The FMM levels of an ``Octree`` of 8^3 sub-grids with up to three
    random refinements on its two coarsest levels."""
    tree = Octree(subgrid_n=8)
    for _ in range(draw(st.integers(1, 3))):
        leaves = sorted(leaf.key for leaf in tree.leaves() if leaf.level < 2)
        tree.refine(*draw(st.sampled_from(leaves)))
    return tree.fmm_levels()[0]


@settings(max_examples=10, deadline=None)
@given(specs=_trees_8())
def test_adaptive_plan_matches_the_per_offset_oracle(specs):
    """Drawn ``from_levels`` trees: the near-only leaf sweeps of levels
    with refined cells, interior M2L sweeps over partly present parent
    grids, and the root's tiles."""
    try:
        solver = FmmSolver.from_levels(specs)
    except ValueError as exc:
        assert "2:1 balanced" in str(exc)
        assume(False)
    _assert_same(_built_plan(solver), _plan_oracle(solver))


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


@settings(max_examples=40, deadline=None)
@given(coords=_root_cells())
def test_root_tiles_match_the_per_cube_oracle(coords):
    """Partial, odd and off-lattice roots: the same tiles, masks and far
    pair count, in the same order, as the per-cube oracle."""
    _assert_same(m2l_root_tiles(coords), _root_tiles_oracle(coords))


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


@pytest.mark.parametrize("rows, partners", [(1, 5), (1, 1), (4, 1), (1, 60)])
def test_one_row_tiles_sum_as_the_wider_tile(rows, partners):
    """A tile with one target row or one partner sums each entry as a
    wider tile does whose extra cells carry zero moments: what a partial
    root's tiles must do for the support-tree SCF to match the full grid
    bit for bit (numpy's one-row ``gemv`` sums in another order)."""
    rng = np.random.default_rng(rows * 100 + partners)
    n = 2 * (rows + partners) + 6
    com = rng.normal(size=(3, n)) * 10.0
    V = rng.normal(size=(n, N_MOMENT))
    tgt, src = slice(0, rows), slice(n // 2, n // 2 + partners)
    P = m2l_dense(com, V, [((tgt,), (src,), np.zeros((rows, partners)))],
                  np.empty((N_GREEN, n, N_MOMENT)), Workspace())
    # the same pairs in a 3 x 4-wider tile, the added cells massless
    wide = V.copy()
    wide[rows:n // 2] = 0.0
    wide[n // 2 + partners:] = 0.0
    wtgt, wsrc = slice(0, rows + 3), slice(n // 2, n // 2 + partners + 4)
    ref = m2l_dense(com, wide, [((wtgt,), (wsrc,),
                                 np.zeros((rows + 3, partners + 4)))],
                    np.empty((N_GREEN, n, N_MOMENT)), Workspace())
    np.testing.assert_array_equal(P[:, tgt], ref[:, tgt])
    np.testing.assert_array_equal(P[:, src], ref[:, src])


#: ``from_uniform`` solvers of M^3 grids on 8^3 roots, by M
_FULL_TREES = {}


def _full_tree(M):
    if M not in _FULL_TREES:
        _FULL_TREES[M] = FmmSolver.from_uniform(np.zeros((M,) * 3), 1.0 / M)
    return _FULL_TREES[M]


@settings(max_examples=20, deadline=None)
@given(M=st.sampled_from([16, 32]),
       lo=st.tuples(*[st.integers(0, 7)] * 3),
       width=st.tuples(*[st.integers(1, 4)] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(M=16, lo=(5, 5, 5), width=(1, 2, 2), seed=924)
@example(M=16, lo=(2, 1, 3), width=(3, 1, 3), seed=873)
@example(M=32, lo=(1, 4, 4), width=(1, 4, 3), seed=28)
@example(M=32, lo=(6, 4, 6), width=(2, 4, 3), seed=809)
def test_sub_tree_field_is_the_full_tree_field(M, lo, width, seed):
    """The complete sub-tree of a box of 1-4 root cells per axis, cut
    from ``from_uniform``'s levels and built by ``from_levels``, gets on
    its leaves the full tree's phi and acc bit for bit, the cells outside
    it massless: a level's sums come in an order that does not depend on
    the grid it is staged on.  Its plan is the per-offset oracle's: the
    fixed offset groups, and the full grid's M2L slabs cut at the
    sub-tree's absolute parent x."""
    full = _full_tree(M)
    depth = len(full.levels) - 1
    lo = np.array(lo)
    hi = np.minimum(lo + width, 8)
    specs = []
    for lv in full.levels:
        root = lv.coords >> lv.level
        k = ((root >= lo) & (root < hi)).all(axis=1)
        specs.append((lv.level, lv.width, lv.coords[k], lv.leaf[k]))
    rng = np.random.default_rng(seed)      # k: the sub-tree's leaves
    rho = np.zeros(full.levels[depth].n)
    rho[k] = np.where(rng.random(k.sum()) < 0.3, 0.0,
                      rng.uniform(0.0, 2.0, k.sum()))
    sub = FmmSolver.from_levels(specs)
    got = _solve(sub, {depth: rho[k]})[0]
    ref = _solve(full, {depth: rho})[0]
    np.testing.assert_array_equal(got.phi[depth], ref.phi[depth][k])
    np.testing.assert_array_equal(got.acc[depth], ref.acc[depth][k])
    _assert_same(_built_plan(sub), _plan_oracle(sub))


def _boundary_oracle(lv, child):
    """``fmm._boundary`` one stencil offset at a time, as it was written
    before it searched every offset at once."""
    a, b = [], []
    for w in p2p_stencil():
        slots, found = lv.find(lv.coords + w)
        sel = found & lv.leaf & ~lv.leaf[slots]
        a.append(np.flatnonzero(sel))
        b.append(slots[sel])
    a, b = np.concatenate(a), np.concatenate(b)
    first = np.searchsorted(child.parent_slot, b)
    count = np.searchsorted(child.parent_slot, b, side="right") - first
    take = np.arange(8) < count[:, None]
    kids = (first[:, None] + np.arange(8))[take]
    if not child.leaf[kids].all():
        raise ValueError(
            f"level {child.level} refines cells near leaves of level "
            f"{lv.level}: the tree is not 2:1 balanced")
    return np.repeat(a, count), kids


def _linked_levels(specs):
    """The Morton-sorted, parent-linked levels of ``specs``, without the
    solver (whose constructor runs ``_boundary`` and may raise)."""
    levels = []
    for lvl, width, coords, leaf in specs:
        order = np.argsort(morton_key(coords), kind="stable")
        lv = fmm.FmmLevel(level=lvl, width=width,
                          coords=coords[order].astype(np.int64),
                          leaf=leaf[order])
        if levels:
            lv.parent_slot = levels[-1].find(lv.coords >> 1)[0]
        levels.append(lv)
    return levels


def _assert_boundary_is_the_oracle(specs, mixed_kinds):
    levels = _linked_levels(specs)
    for lv, child in zip(levels, levels[1:]):
        if not lv.leaf.any() or lv.leaf.all():
            continue
        mixed_kinds.add(bool(2 * lv.leaf.sum() <= lv.n))
        for cap in (fmm._LOOKUP_CELLS, 0):     # dense grid, Morton search
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fmm, "_LOOKUP_CELLS", cap)
                try:
                    ref = _boundary_oracle(lv, child)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        fmm._boundary(lv, child)
                    continue
                got = fmm._boundary(lv, child)
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype
                np.testing.assert_array_equal(g, r)


def test_boundary_matches_the_per_offset_loop_on_fixed_trees():
    """The coarse-fine boundary of trees searched from the leaf side and
    from the refined side, one not 2:1 balanced, and the 8^3-sub-grid
    tree refined twice: the old loop's pairs in the old order, or its
    ``ValueError``."""
    kinds = set()
    for refs, n in (([(0, (0, 0, 0)), (1, (1, 0, 0))], 4),
                    ([(0, (0, 0, 0))] + [(1, (i >> 2 & 1, i >> 1 & 1, i & 1))
                                         for i in range(5)], 4),
                    ([(0, (0, 0, 0)), (1, (1, 0, 0)), (2, (3, 0, 0))], 4),
                    ([(0, (0, 0, 0)), (1, (0, 0, 0))], 8)):
        tree = Octree(subgrid_n=n)
        for key in refs:
            tree.refine(*key)
        _assert_boundary_is_the_oracle(tree.fmm_levels()[0], kinds)
    assert kinds == {False, True}


@settings(max_examples=20, deadline=None)
@given(tree=_trees())
def test_boundary_matches_the_per_offset_loop(tree):
    """Drawn adaptive trees, balanced or not."""
    _assert_boundary_is_the_oracle(tree[0], set())
