"""Dense Green-table leaf sweep against the retained pair-list path.

A fully populated all-leaf level runs its whole leaf-level near field as
shifted-slice matmuls over constant Green tables; everything else stays
on recorded pair lists.  The oracle here is the *same* solver with the
dense plan switched off (``_DenseLeaf.of`` patched to decline), so both
sides cover the identical pair set and differ only in arithmetic.

Tolerance policy
----------------
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
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exec import ExecutionEngine
from repro.core.gravity import fmm
from repro.core.gravity.fmm import FmmSolver
from repro.core.gravity.kernels import green_table
from repro.core.gravity.stencil import leaf_sweep_offsets
from repro.runtime import CudaDevice, WorkStealingScheduler
from repro.runtime.counters import default_registry

SUBGRID_N = 4
FIELD_BOUND = 1e-13
COUNTERS = ("/fmm/interactions/monopole", "/fmm/interactions/multipole")


def _solvers(depth, _cache={}):
    """(dense, pair-list) solvers of one depth, plans built once."""
    if depth not in _cache:
        M = SUBGRID_N << depth
        rho = np.ones((M, M, M))
        dense = FmmSolver.from_uniform(rho, 1.0 / M, subgrid_n=SUBGRID_N)
        dense.solve()
        lists = FmmSolver.from_uniform(rho, 1.0 / M, subgrid_n=SUBGRID_N)
        with mock.patch.object(fmm._DenseLeaf, "of",
                               classmethod(lambda cls, lv, root: None)):
            lists.solve()
        assert dense._dense and not lists._dense
        _cache[depth] = dense, lists
    return _cache[depth]


def _density(M, seed, zero_frac, scale):
    """Random non-negative density with exactly-zero cells and at least
    one massive one."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1 * scale, scale, (M, M, M))
    rho[rng.random((M, M, M)) < zero_frac] = 0.0
    rho.flat[rng.integers(rho.size)] = scale
    return rho


def _solve(solver, depth, rho, engine=None):
    reg = default_registry()
    before = reg.snapshot()
    solver.set_leaf_density({depth: rho})
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
    dense, lists = _solvers(depth)
    M = SUBGRID_N << depth
    rho = _density(M, seed, zero_frac, scale)
    phi, acc, counts = _solve(dense, depth, rho)
    phi_ref, acc_ref, counts_ref = _solve(lists, depth, rho)

    assert np.abs(phi - phi_ref).max() <= FIELD_BOUND * np.abs(phi_ref).max()
    assert np.abs(acc - acc_ref).max() <= FIELD_BOUND * np.abs(acc_ref).max()
    assert counts == counts_ref and counts[0] > 0

    dx = 1.0 / M
    g = (np.arange(M) + 0.5) * dx
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    force = (rho * dx ** 3).reshape(-1, 1) * acc.reshape(-1, 3)
    assert np.abs(force.sum(0)).max() < 1e-13 * np.abs(force).sum()
    torque = np.cross(pos, force)
    assert np.abs(torque.sum(0)).max() < 1e-12 * np.abs(torque).sum()


def test_futurized_dense_solve_is_byte_identical_to_serial():
    depth = 2
    M = SUBGRID_N << depth
    dense, _ = _solvers(depth)
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
    for depth in (0, 1, 2):
        dense, lists = _solvers(depth)
        kinds = [e[0] for e in dense._plan]
        assert kinds.count("dense") == fmm._DENSE_GROUPS
        assert not any(e[1].leaf.any() or e[3].leaf.any()
                       for e in dense._plan if e[0] != "dense")
        assert any(e[1].leaf.all() and e[3].leaf.all() for e in lists._plan)


def test_odd_edge_level_stays_on_pair_lists():
    rho = np.random.default_rng(5).uniform(0.1, 1.0, (3, 3, 3))
    solver = FmmSolver.from_uniform(rho, 0.5, subgrid_n=3)
    phi, _acc = solver.uniform_field(solver.solve())
    assert not solver._dense and np.isfinite(phi).all()


def test_sweep_offsets_are_the_parent_near_set():
    assert len(leaf_sweep_offsets(16)) == 257
    assert len(leaf_sweep_offsets(2)) == 27          # clipped to the grid
    assert len(leaf_sweep_offsets(4, root=True)) == 7 ** 3


def test_green_table_rejects_coincident_cells():
    child = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])
    table = green_table((0, 0, 0), child, 0.5)
    assert np.all(table.reshape(8, 8, 4)[np.arange(8), np.arange(8)] == 0.0)
    broken = child.copy()
    broken[1] = broken[0]
    with pytest.raises(ValueError, match="coincident"):
        green_table((0, 0, 0), broken, 0.5)
