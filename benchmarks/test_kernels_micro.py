"""The plain gates over the :mod:`kernels_micro` rows that CI runs (the
timings themselves are ``python benchmarks/kernels_micro.py``)."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from kernels_micro import (DEFAULT_AGG_SLOTS, RHS_BATCHES,  # noqa: E402
                           _dist_fill_row, _m2l_solver, _subgrid_tax_row,
                           m2l_dense_counts, rhs_calls_row)

#: sub-grids per ``compute_rhs`` call of one stage on the ``rhs_calls``
#: layouts before the one RHS rule (node-level box slabs beside sharded
#: box batches): the rule must reproduce them but for the survivors'
#: 2x3x3 box of 18 sub-grids, which is now cut into two slabs of 9
BEFORE_ONE_RULE = {"serial_24": [27], "dist_24": [9, 6, 12],
                   "dist_16": [8], "survivors_24": [9, 18]}


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
