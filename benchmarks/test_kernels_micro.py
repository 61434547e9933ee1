"""Microbenchmarks of the building-block kernels.

Not tied to a single table, but they back Table 2's cost model: one
monopole vs one multipole kernel launch (the 12- vs 455-flop classes of
Sec. 4.3), one FMM solve, and one hydro RHS evaluation.  The fused SoA
kernels are benchmarked against their retained reference
implementations (`m2l_pair_reference`, `kt_flux_reference`,
`compute_rhs_reference`) — the same pairs that feed the ``kernels``
block of ``BENCH_step.json`` via :mod:`kernels_micro`.
"""

import os
import sys

import numpy as np
import pytest

from repro.analysis import (INTERACTIONS_PER_LAUNCH,
                            MONOPOLE_KERNEL_FLOPS, MULTIPOLE_KERNEL_FLOPS)
from repro.core import FmmSolver, IdealGas, NF, NGHOST, RHO, EGAS, TAU
from repro.core.gravity.kernels import (m2l_pair, m2l_pair_reference,
                                        p2p_pair)
from repro.core.hydro.reconstruct import ppm_faces
from repro.core.hydro.riemann import (conserved_to_primitive, kt_flux,
                                      kt_flux_reference)
from repro.core.hydro.solver import (HydroOptions, compute_rhs,
                                     compute_rhs_reference)
from repro.core.mesh import apply_boundary
from repro.core.workspace import Workspace

sys.path.insert(0, os.path.dirname(__file__))
from kernels_micro import (RHS_BATCHES, _dist_fill_row,  # noqa: E402
                           _subgrid_tax_row)


@pytest.fixture(scope="module")
def pair_batch():
    rng = np.random.default_rng(4)
    n = INTERACTIONS_PER_LAUNCH // 8       # one sub-grid's worth / 8
    dR = rng.normal(size=(n, 3)) * 6 + 5
    mA = rng.uniform(0.5, 2.0, n)
    mB = rng.uniform(0.5, 2.0, n)
    M2 = rng.normal(size=(n, 3, 3))
    M2 = 0.5 * (M2 + M2.transpose(0, 2, 1))
    return dR, mA, mB, M2


@pytest.fixture(scope="module")
def hydro_block():
    rng = np.random.default_rng(6)
    opts = HydroOptions(eos=IdealGas())
    m = 32 + 2 * NGHOST
    U = np.zeros((NF, m, m, m))
    U[RHO] = rng.uniform(0.5, 2.0, (m, m, m))
    U[EGAS] = rng.uniform(0.5, 2.0, (m, m, m))
    U[TAU] = opts.eos.tau_from_eint(U[EGAS])
    apply_boundary(U, "periodic")
    return U, opts


def test_monopole_kernel_batch(benchmark, pair_batch):
    """The 12-flop interaction class."""
    dR, mA, mB, _ = pair_batch
    n = len(dR)
    out = (np.empty(n), np.empty(n), np.empty((n, 3)), np.empty((n, 3)))
    benchmark(p2p_pair, dR, mA, mB, out=out)


def test_multipole_kernel_batch(benchmark, pair_batch):
    """The 455-flop interaction class, fused component form."""
    dR, mA, mB, M2 = pair_batch
    n = len(dR)
    out = (np.empty(n), np.empty(n), np.empty((n, 3)), np.empty((n, 3)),
           np.empty((n, 3, 3)), np.empty((n, 3, 3)))
    benchmark(m2l_pair, dR, mA, mB, M2, M2, out=out)


def test_multipole_kernel_reference(benchmark, pair_batch):
    """The einsum-over-Green-tensors baseline the fused kernel replaced."""
    dR, mA, mB, M2 = pair_batch
    benchmark(m2l_pair_reference, dR, mA, mB, M2, M2)


def test_flop_ratio_matches_paper():
    assert MULTIPOLE_KERNEL_FLOPS / MONOPOLE_KERNEL_FLOPS \
        == pytest.approx(455 / 12)


def test_ppm_reconstruct_fused(benchmark, hydro_block):
    """Workspace PPM: per-field chunked, all scratch reused."""
    U, opts = hydro_block
    ws = Workspace()
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    benchmark(ppm_faces, W, NGHOST, 1, ws=ws)


def test_kt_flux_fused(benchmark, hydro_block):
    """Single-pass KT flux (no UL/UR/FL/FR full-field temporaries)."""
    U, opts = hydro_block
    ws = Workspace()
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    WL, WR = (f.copy() for f in ppm_faces(W, NGHOST, 1))
    out = np.empty_like(WL)
    benchmark(kt_flux, WL, WR, opts.eos, 0, out=out, ws=ws)


def test_kt_flux_reference(benchmark, hydro_block):
    """The compose-from-building-blocks baseline."""
    U, opts = hydro_block
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    WL, WR = (f.copy() for f in ppm_faces(W, NGHOST, 1))
    benchmark(kt_flux_reference, WL, WR, opts.eos, 0)


def test_fmm_solve_16(benchmark):
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 1.0, (16, 16, 16))
    solver = FmmSolver.from_uniform(rho, 1.0 / 16)
    benchmark.pedantic(solver.solve, rounds=2, iterations=1)


def test_hydro_rhs_32(benchmark, hydro_block):
    """Full fused RHS: workspace-backed primitives, faces, fluxes."""
    U, opts = hydro_block
    ws = Workspace()
    out = np.empty((NF, 32, 32, 32))
    benchmark.pedantic(compute_rhs, args=(U, 1.0 / 32, opts),
                       kwargs={"out": out, "ws": ws},
                       rounds=3, iterations=1)


def test_hydro_rhs_32_reference(benchmark, hydro_block):
    """The allocate-per-stage RHS composition the fused path replaced."""
    U, opts = hydro_block
    benchmark.pedantic(compute_rhs_reference, args=(U, 1.0 / 32, opts),
                       rounds=3, iterations=1)


def test_dist_fill_sends_one_message_per_locality_pair():
    """The gate of the packed halo path: a stage of the 27-block mesh on
    4 localities costs one parcelport message per directed locality pair
    that shares a halo, and moves exactly the plan's remote bytes."""
    row = _dist_fill_row(repeats=2)
    assert row["msgs_per_stage"] == row["locality_pairs"] > 0
    assert row["remote_halos"] > row["locality_pairs"]
    assert row["remote_bytes_per_stage"] == row["plan_remote_bytes"]
    # the two balanced launches of a 27-sub-grid mesh have rows
    assert {13, 14} <= set(RHS_BATCHES)


def test_subgrid_tax_row_steps_both_tilings_to_the_same_state():
    """The sub-grid tax is a row: one 24^3 block and its 3^3 sub-grids
    take the same Sedov steps to the same CRC (no timing gate)."""
    row = _subgrid_tax_row(repeats=1)
    assert row["one_block"]["blocks"] == 1 and row["subgrids"]["blocks"] == 27
    assert row["one_block"]["crc"] == row["subgrids"]["crc"]
    assert row["ratio"] > 0
