"""The plain gates over the :mod:`kernels_micro` rows that CI runs (the
timings themselves are ``python benchmarks/kernels_micro.py``)."""

import os
import sys

import numpy as np
import pytest

from repro.core import SUBGRID_N
from repro.core.scenario import v1309_binary

sys.path.insert(0, os.path.dirname(__file__))
from kernels_micro import (DEFAULT_AGG_SLOTS, RHS_BATCHES,  # noqa: E402
                           _dist_fill_row, _m2l_solver, _subgrid_tax_row,
                           dense_sweep, fmm, leaf_sweep_offsets,
                           m2l_dense_counts, plan_build_row, rhs_alloc_row,
                           rhs_calls_row, uniform_fields_row)

#: sub-grids per ``compute_rhs`` call of one stage on the ``rhs_calls``
#: layouts before the one RHS rule (node-level box slabs beside sharded
#: box batches): the rule must reproduce them but for the survivors'
#: 2x3x3 box of 18 sub-grids, which is now cut into two slabs of 9
BEFORE_ONE_RULE = {"serial_24": [27], "dist_24": [9, 6, 12],
                   "dist_16": [8], "survivors_24": [9, 18]}

#: leaf pairs the leaf sweep of one uniform solve covers, per grid edge
#: (the perf ledger's monopole interactions at 16^3)
LEAF_PAIRS = {16: 2_276_352, 32: 25_251_840}

#: Python calls of ``repro`` code while a 16^3 plan builds.  Built as
#: arrays the plan makes 83 (numpy 2.4, Python 3.11; fewer on 3.12,
#: which inlines comprehensions); built one parent offset at a time it
#: made 2 127, one Green-table call and seven generator resumptions
#: per offset.
PLAN_BUILD_CALLS = 100

#: leaves of the largest FMM solve allowed while ``v1309_binary(M,
#: scf_iters=12)`` builds, per M: its SCF solves on the tree of its
#: support, 192 leaves (24 root cells) at M = 16 and 2 304 (36) at M =
#: 32; the full grids have 4 096 and 32 768
SCF_SOLVE_LEAVES = {16: 512, 32: 4096}


def test_dist_fill_sends_one_message_per_locality_pair():
    """The gate of the packed halo path: a stage of the 27-block mesh on
    4 localities — one box each — costs one parcelport message per
    directed locality pair whose blocks touch, moves exactly the plan's
    remote bytes and copies nothing inside a box."""
    row = _dist_fill_row(repeats=2)
    assert row["boxes"] == 4
    assert row["msgs_per_stage"] == row["locality_pairs"] > 0
    assert row["remote_bytes_per_stage"] == row["plan_remote_bytes"]
    assert row["local_copies_per_stage"] == 0
    # the largest batch a mesh's default engine makes has a row
    assert DEFAULT_AGG_SLOTS in RHS_BATCHES


def test_rhs_calls_keep_the_ledger_shapes():
    """The gate of the one RHS rule (counts, no timing): the calls and
    sub-grids of a stage on the ledger-shaped layouts are the ones the
    two rules made before, except the survivors' cut box (2 -> 3 calls)."""
    assert rhs_calls_row() == {**BEFORE_ONE_RULE, "survivors_24": [9, 9, 9]}


def test_steady_state_rhs_allocates_no_face_sized_buffer():
    """The gate of the in-place hydro step (counts, no timing): a second
    RHS call on the 24^3 Sedov box with the first call's workspace and
    output allocates less, at its peak, than one face row of the box —
    no primitive, face, flux or spin temporary."""
    row = rhs_alloc_row()
    assert row["face_row_bytes"] == 115_200
    assert row["peak_bytes"] < row["face_row_bytes"]


def test_uniform_fields_leave_ppm_the_fields_with_structure():
    """The gate of the null-row sweep and the uniform-field copy (counts,
    no timing): after 5 steps a Sedov / star / V1309 RHS carries 9 / 10
    / 12 of the 14 fields along each axis, the advected fields that are
    zero over the batch (the unused passive scalars) left out, and PPM
    reconstructs every field it is handed: none is uniform but nonzero."""
    assert uniform_fields_row() == {
        name: {"carried": [rows] * 3, "reconstructed": [rows] * 3}
        for name, rows in (("sedov", 9), ("star", 10), ("v1309", 12))}


def test_subgrid_tax_row_steps_both_tilings_to_the_same_state():
    """The sub-grid tax is a row: one 24^3 block, its 3^3 sub-grids as
    views of one box and the same sub-grids sharded over 4 localities
    take the same Sedov steps to the same CRC (no timing gate)."""
    row = _subgrid_tax_row(repeats=1)
    assert row["one_block"]["blocks"] == 1
    assert row["subgrids"]["blocks"] == row["sharded"]["blocks"] == 27
    assert (row["one_block"]["crc"] == row["subgrids"]["crc"]
            == row["sharded"]["crc"])
    assert row["ratio"] > 0 and row["sharded_ratio"] > 0


def test_m2l_root_dense_evaluates_at_most_1_30_per_far_pair():
    """The gate of the root tiling (counts, no timing): the 8^3 root
    evaluates at most 1.30 Green values per far pair it covers — each
    Morton cube against the cells after it plus face-against-face tiles
    inside the cubes, no masked diagonal block."""
    row = m2l_dense_counts(_m2l_solver())["m2l_root_dense"]
    assert row["pairs"] == 95_472
    assert row["evaluated"] / row["pairs"] <= 1.30


@pytest.mark.parametrize("M", sorted(LEAF_PAIRS))
def test_dense_sweep_adds_every_offset_into_one_contiguous_slab(M):
    """The gate of the padded leaf sweep (counts, no timing): in the plan
    of a uniform M^3 solve every parent offset adds into one contiguous
    x-slab of the output, reading a window of the staged masses of the
    same rows, and the plan covers the leaf pairs ``green_sweeps`` counts
    for all offsets at once."""
    solver = fmm.FmmSolver.from_uniform(np.ones((M,) * 3), 1.0 / M)
    solver.solve()
    P = M // 2
    entries = [e for e in solver._plan if e.kind == "dense"]
    out = np.empty((P ** 3, 32))
    offsets = 0
    for entry in entries:
        assert entry.rows == P ** 3
        for slab, window, _ in entry.sweeps:
            assert slab.step is None
            assert slab.start % P ** 2 == 0 == slab.stop % P ** 2
            assert out[slab].flags.c_contiguous
            assert entry.dense.m8[window].size == 8 * len(out[slab])
            offsets += 1
    assert offsets == len(leaf_sweep_offsets()) == 257
    assert sum(e.pairs for e in entries) == dense_sweep(P)[1] == LEAF_PAIRS[M]


def test_fmm_plan_build_has_no_per_offset_python_loop():
    """The gate of the array-built plan (counts, no timing): the 257
    leaf-sweep offsets of a 16^3 plan are staged without a Python
    function call per offset — the package's own code makes at most
    ``PLAN_BUILD_CALLS`` calls for the whole plan, root tiles included."""
    row = plan_build_row(repeats=1)
    assert row["offsets"] == 257
    assert 0 < row["calls"] <= PLAN_BUILD_CALLS


@pytest.mark.parametrize("M", sorted(SCF_SOLVE_LEAVES))
def test_v1309_scf_solves_on_its_support(M, monkeypatch):
    """The gate of the support-tree SCF (counts, no timing): while the
    V1309 model builds, no full-grid solver is made
    (``FmmSolver.from_uniform``), no solve covers more than
    ``SCF_SOLVE_LEAVES`` leaves, and every level below the root is
    staged on a parent grid narrower than the full grid's (at M = 32
    the interior M2L on 6^3 parents of 8^3, the leaves on 12^3 of
    16^3): the FMM sums in the same order on any grid, so the support
    tree needs no padding."""
    builds, leaves, narrow = [], [], []
    from_uniform = fmm.FmmSolver.from_uniform.__func__
    solve = fmm.FmmSolver.solve

    def counting_build(cls, rho, *args, **kwargs):
        builds.append(np.shape(rho))
        return from_uniform(cls, rho, *args, **kwargs)

    def counting_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        leaves.append(sum(int(lv.leaf.sum()) for lv in self.levels))
        for staged in self._staged:
            grid = staged.m8 if hasattr(staged, "m8") else staged.V
            if staged.lv.level:
                full = SUBGRID_N << staged.lv.level >> 1
                narrow.append(len(grid) < full)
        return result
    monkeypatch.setattr(fmm.FmmSolver, "from_uniform",
                        classmethod(counting_build))
    monkeypatch.setattr(fmm.FmmSolver, "solve", counting_solve)
    v1309_binary(M=M, scf_iters=12)
    assert builds == []
    assert len(leaves) == 12 and max(leaves) <= SCF_SOLVE_LEAVES[M]
    assert narrow and all(narrow)
