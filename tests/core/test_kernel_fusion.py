"""Property tests for the Sec. 4.3 kernel rework: the fused SoA kernels
against their reference implementations in
:mod:`repro.validation.reference`, plus the floored-cell regression
suite.

Tolerance policy
----------------
Hydro fusion (``kt_flux``, ``ppm_faces``, ``compute_rhs``,
``conserved_signal_speed``) is **bitwise**: the fusion only removes
temporaries and routes results through ``out=``/workspace scratch; every
surviving floating-point operation runs in the reference order, so the
comparisons below use exact equality (``rtol=0``).

The fused ``m2l_pair`` is the one exception: the reference contracts the
quadrupole against full Green tensors with ``np.einsum``, whose internal
summation order is an implementation detail, while the fused kernel sums
the 6/10 unique components explicitly.  Reassociating a ~10-term sum
moves the result by a few ULPs, so that comparison carries a documented
relative tolerance instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IdealGas, NF, NGHOST, RHO, SX, EGAS, TAU
from repro.core.grid import LX, PASSIVE0
from repro.core.gravity.kernels import greens, m2l_pair, p2p_pair
from repro.core.hydro.reconstruct import ppm_faces
from repro.core.hydro.riemann import (conserved_signal_speed,
                                      conserved_to_primitive, kt_flux)
from repro.core.hydro.solver import (HydroOptions, apply_floors, cfl_dt,
                                     compute_rhs)
from repro.core.scenario import equilibrium_star
from repro.core.workspace import Workspace
from repro.validation.reference import (apply_boundary,
                                        compute_rhs_reference,
                                        kt_flux_reference,
                                        m2l_pair_reference, max_signal_speed,
                                        ppm_faces_reference)

FLOOR = 1e-12


# -- seeded batches ---------------------------------------------------------

def pair_batch(n=257, seed=11):
    """Well-separated interaction pairs with symmetric quadrupoles."""
    rng = np.random.default_rng(seed)
    dR = rng.normal(size=(n, 3)) * 4 + np.array([5.0, -5.0, 5.0])
    mA = rng.uniform(0.5, 2.0, n)
    mB = rng.uniform(0.5, 2.0, n)
    M2A = rng.normal(size=(n, 3, 3))
    M2A = 0.5 * (M2A + M2A.transpose(0, 2, 1))
    M2B = rng.normal(size=(n, 3, 3))
    M2B = 0.5 * (M2B + M2B.transpose(0, 2, 1))
    return dR, mA, mB, M2A, M2B


def hydro_block(n=12, seed=3, nasty=True):
    """A ghost-filled conserved block with floored and denormal cells."""
    rng = np.random.default_rng(seed)
    m = n + 2 * NGHOST
    eos = IdealGas()
    U = np.zeros((NF, m, m, m))
    U[RHO] = rng.uniform(0.5, 2.0, (m, m, m))
    for d in range(3):
        U[SX + d] = rng.normal(size=(m, m, m)) * 0.3
    eint = rng.uniform(0.2, 1.5, (m, m, m))
    U[EGAS] = eint + 0.5 * (U[SX] ** 2 + U[SX + 1] ** 2
                            + U[SX + 2] ** 2) / U[RHO]
    U[TAU] = eos.tau_from_eint(eint)
    for f in range(TAU + 1, NF):
        U[f] = rng.uniform(0.0, 0.5, (m, m, m)) * U[RHO]
    if nasty:
        # sprinkle vacuum (below floor), edge-of-floor, and denormal
        # densities with *finite* momenta — the states the headline
        # bugfix is about
        g = NGHOST
        U[:, g + 1, g + 2, g + 3] = 0.0
        U[RHO, g + 1, g + 2, g + 3] = 1e-30
        U[SX, g + 1, g + 2, g + 3] = 0.7
        U[EGAS, g + 1, g + 2, g + 3] = 1e-25
        U[RHO, g + 4, g, g + 2] = FLOOR              # exactly at floor
        U[SX + 1, g + 4, g, g + 2] = -0.4
        U[RHO, g, g + 5, g + 1] = 5e-324             # denormal
        U[SX + 2, g, g + 5, g + 1] = 0.2
        U[TAU, g, g + 5, g + 1] = 1e-200
    apply_boundary(U, "periodic")
    return U


def face_states(axis, seed=7):
    U = hydro_block(seed=seed)
    W = conserved_to_primitive(U, IdealGas(), FLOOR)
    WL, WR = ppm_faces_reference(W, NGHOST, axis + 1)
    return np.ascontiguousarray(WL), np.ascontiguousarray(WR)


# -- gravity kernels --------------------------------------------------------

def test_p2p_out_matches_fresh():
    dR, mA, mB, _, _ = pair_batch()
    fresh = p2p_pair(dR, mA, mB)
    n = len(dR)
    out = (np.empty(n), np.empty(n), np.empty((n, 3)), np.empty((n, 3)))
    ret = p2p_pair(dR, mA, mB, out=out)
    for o, r, f in zip(out, ret, fresh):
        assert r is o
        np.testing.assert_array_equal(o, f)


def test_m2l_out_matches_fresh():
    dR, mA, mB, M2A, M2B = pair_batch()
    fresh = m2l_pair(dR, mA, mB, M2A, M2B)
    n = len(dR)
    out = (np.empty(n), np.empty(n), np.empty((n, 3)), np.empty((n, 3)),
           np.empty((n, 3, 3)), np.empty((n, 3, 3)))
    ret = m2l_pair(dR, mA, mB, M2A, M2B, out=out)
    for o, r, f in zip(out, ret, fresh):
        assert r is o
        np.testing.assert_array_equal(o, f)


def test_m2l_fused_matches_reference_within_ulps():
    # einsum reassociation tolerance — see the module docstring
    dR, mA, mB, M2A, M2B = pair_batch(n=1024)
    fused = m2l_pair(dR, mA, mB, M2A, M2B)
    ref = m2l_pair_reference(dR, mA, mB, M2A, M2B)
    for f, r in zip(fused, ref):
        np.testing.assert_allclose(f, r, rtol=1e-12, atol=1e-15)


def test_greens_tensors_exactly_symmetric_and_traceless():
    dR, *_ = pair_batch()
    g0, g1, g2, g3 = greens(dR)
    # unique components written to every symmetric slot => exact symmetry
    np.testing.assert_array_equal(g2, g2.transpose(0, 2, 1))
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
        np.testing.assert_array_equal(g3, g3.transpose(*perm))
    # 1/r is harmonic away from the origin
    np.testing.assert_allclose(np.trace(g2, axis1=1, axis2=2), 0.0,
                               atol=1e-15)
    np.testing.assert_allclose(np.einsum("niij->nj", g3), 0.0, atol=1e-15)


def test_coincidence_guard_hoisted_out_of_hot_kernels():
    # the r2 == 0 scan moved to plan-build time (green_table checks each
    # table once; a boundary batch pairs a leaf with another cell's
    # children); the per-call hot kernels no longer pay for it, while the
    # geometry-level helpers keep their guard
    dR = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    m = np.ones(2)
    M2 = np.zeros((2, 3, 3))
    with pytest.raises(ValueError, match="coincident"):
        greens(dR)
    with np.errstate(divide="ignore", invalid="ignore"):
        phiA, _, accA, _ = p2p_pair(dR, m, m)
        res = m2l_pair(dR, m, m, M2, M2)
    assert np.isfinite(phiA[0]) and np.isfinite(accA[0]).all()
    assert not np.isfinite(res[0][1])     # garbage in, garbage out — the
    # solver's plan geometry is what guarantees this never happens


# -- reconstruction ---------------------------------------------------------

def parabola_ends(q, ng, axis):
    """A fresh ``(lo, hi)`` pair for :func:`ppm_faces` on ``q``: its
    shape with the ``n + 2`` cells ``-1 .. n`` along ``axis``."""
    shape = list(q.shape)
    shape[axis] -= 2 * ng - 2
    return np.empty(shape), np.empty(shape)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_ppm_workspace_path_bitwise(axis):
    U = hydro_block()
    W = conserved_to_primitive(U, IdealGas(), FLOOR)
    refL, refR = ppm_faces_reference(W, NGHOST, axis)
    ws = Workspace()
    ends = parabola_ends(W, NGHOST, axis)
    for _ in range(3):      # reuse must not leak state between calls
        wsL, wsR = ppm_faces(W, NGHOST, axis, out=ends, ws=ws)
        assert wsL.base is ends[1] and wsR.base is ends[0]
        np.testing.assert_array_equal(wsL, refL)
        np.testing.assert_array_equal(wsR, refR)


def test_ppm_workspace_path_bitwise_1d():
    rng = np.random.default_rng(9)
    q = rng.uniform(0.5, 2.0, 40)
    refL, refR = ppm_faces_reference(q, NGHOST, 0)
    wsL, wsR = ppm_faces(q[None], NGHOST, 1,
                         out=parabola_ends(q[None], NGHOST, 1),
                         ws=Workspace())
    np.testing.assert_array_equal(wsL[0], refL)
    np.testing.assert_array_equal(wsR[0], refR)


# -- the uniform-field identity -----------------------------------------------
#
# For a field whose values all compare equal to one v with v + v finite,
# PPM returns the cells themselves, and the workspace path copies them
# instead of running the arithmetic.  Bits and signbits must still match
# the reference, and fields outside the premise (|v| >= 2^1023, where
# 7/12 (C1 + C2) overflows, inf, NaN) must take the full path to the
# reference's NaN faces.

#: uniform values whose faces are the cells themselves, bit for bit
EXACT = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5,
         8.98e307, -8.98e307]
#: uniform values the reference turns into NaN faces
NAN_FACES = [8.99e307, -8.99e307, np.inf, -np.inf, np.nan]


def _assert_same_bits(got, ref):
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.ascontiguousarray(got).view(np.uint64)
    np.testing.assert_array_equal(
        bits[~nan], np.ascontiguousarray(ref).view(np.uint64)[~nan])


@st.composite
def ppm_batches(draw):
    """A field-major batch ``(nf, ...)`` with the reconstruction axis at
    a drawn position, each field uniform (a drawn value or a random
    +-0 mix) or random, and the kinds of its fields."""
    ng = draw(st.sampled_from([3, 4]))
    dims = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    axis = draw(st.integers(1, len(dims) + 1))
    dims.insert(axis - 1, 2 * ng + draw(st.integers(1, 6)))
    nf = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.empty((nf,) + tuple(dims))
    kinds = []
    for f in range(nf):
        kind = draw(st.sampled_from(["exact", "nan", "zeros", "random"]))
        if kind == "exact":
            q[f] = draw(st.sampled_from(EXACT))
        elif kind == "nan":
            q[f] = draw(st.sampled_from(NAN_FACES))
        elif kind == "zeros":
            q[f] = np.where(rng.random(dims) < 0.5, 0.0, -0.0)
        else:
            q[f] = rng.normal(size=dims)
        kinds.append(kind)
    return q, ng, axis, kinds


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ppm_batches())
def test_ppm_uniform_fields_match_the_reference_bit_for_bit(batch):
    q, ng, axis, kinds = batch
    with np.errstate(all="ignore"):
        refL, refR = ppm_faces_reference(q, ng, axis)
        wsL, wsR = ppm_faces(q, ng, axis, out=parabola_ends(q, ng, axis),
                             ws=Workspace())
    _assert_same_bits(wsL, refL)
    _assert_same_bits(wsR, refR)
    n = q.shape[axis] - 2 * ng
    for f, kind in enumerate(kinds):
        if kind in ("exact", "zeros"):          # the cells themselves
            cells = np.moveaxis(q[f], axis - 1, 0)
            _assert_same_bits(np.moveaxis(wsL[f], axis - 1, 0),
                              cells[ng - 1:ng + n])
            _assert_same_bits(np.moveaxis(wsR[f], axis - 1, 0),
                              cells[ng:ng + n + 1])
        elif kind == "nan":
            assert np.isnan(wsL[f]).all() and np.isnan(wsR[f]).all()


@pytest.mark.parametrize("v", EXACT + NAN_FACES)
def test_ppm_uniform_pencil_1d_matches_the_reference(v):
    q = np.full(3 * NGHOST, v)
    with np.errstate(all="ignore"):
        refL, refR = ppm_faces_reference(q, NGHOST, 0)
        wsL, wsR = ppm_faces(q[None], NGHOST, 1,
                             out=parabola_ends(q[None], NGHOST, 1),
                             ws=Workspace())
    _assert_same_bits(wsL[0], refL)
    _assert_same_bits(wsR[0], refR)


def test_compute_rhs_zero_passives_with_a_negative_zero_field_bitwise():
    """Every passive scalar zero, one of them ``-0.0``: the fused RHS
    skips all five in PPM and still matches the oracle bit for bit."""
    U = hydro_block(nasty=False)
    U[PASSIVE0:PASSIVE0 + 5] = 0.0
    U[PASSIVE0 + 2] = -0.0
    opts = HydroOptions(eos=IdealGas())
    ref = compute_rhs_reference(U, 0.05, opts)
    got = compute_rhs(U, 0.05, opts, ws=Workspace())
    _assert_same_bits(got, ref)


# -- the null-row identity ----------------------------------------------------
#
# An advected field that is +-0 over the whole primitive batch, ghosts
# included, has +-0 fluxes wherever rho, u_n and half_a are finite, so
# compute_rhs leaves it out of the sweep and its rhs row keeps +0.0.
# The batches below zero random subsets of TAU..NF-1 (+0.0, -0.0 or a
# mix), zero some only in the interior or in all blocks but one (those
# stay in the sweep), and are compared bit for bit with the oracle.

DX = 0.05
#: how a drawn advected field is zeroed: over the whole block, in the
#: interior only (its ghosts keep structure), or in every block of the
#: batch but the last
ZERO_KINDS = ("+0", "-0", "mix", "interior", "elsewhere")
#: one workspace for every drawn batch: calls that carry different rows
#: share (and must fully overwrite) its buffers
SHARED_WS = Workspace()


def _random_block(rng, shape, zeroed):
    """A ghosted conserved block of interior ``shape`` with structure in
    every field, then the ``zeroed`` fields zeroed by their kind."""
    g = NGHOST
    m = tuple(n + 2 * g for n in shape)
    U = np.empty((NF,) + m)
    U[RHO] = rng.uniform(0.5, 2.0, m)
    for d in range(3):
        U[SX + d] = rng.normal(size=m) * 0.3
    eint = rng.uniform(0.2, 1.5, m)
    U[EGAS] = eint + 0.5 * (U[SX] ** 2 + U[SX + 1] ** 2
                            + U[SX + 2] ** 2) / U[RHO]
    U[TAU] = IdealGas().tau_from_eint(eint)
    for f in range(TAU + 1, NF):
        U[f] = rng.uniform(-0.5, 0.5, m) * U[RHO]
    for f, kind in zeroed.items():
        if kind == "+0":
            U[f] = 0.0
        elif kind == "-0":
            U[f] = -0.0
        elif kind == "mix":
            U[f] = np.where(rng.random(m) < 0.5, 0.0, -0.0)
        elif kind == "interior":
            U[(f,) + tuple(slice(g, g + n) for n in shape)] = 0.0
    return U


@st.composite
def rhs_batches(draw):
    """Equally shaped blocks with random advected fields zeroed, their
    gravity and corners, and the options (spin correction on or off,
    inertial or rotating frame)."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    B = draw(st.integers(1, 3))
    zeroed = draw(st.dictionaries(st.integers(TAU, NF - 1),
                                  st.sampled_from(ZERO_KINDS)))
    opts = HydroOptions(eos=IdealGas(),
                        omega=draw(st.sampled_from([0.0, 0.3])),
                        spin_correction=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [_random_block(rng, shape, zeroed) for _ in range(B)]
    for f, kind in zeroed.items():
        if kind == "elsewhere":
            for U in blocks[:-1]:
                U[f] = 0.0
    gravity = [rng.normal(size=(3,) + shape) * 0.1 for _ in range(B)]
    origins = [tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(B)]
    return blocks, gravity, origins, opts


def _batched_rhs(batch, **kwargs):
    blocks, gravity, origins, opts = batch
    centers = [tuple(o + (np.arange(n) + 0.5) * DX
                     for o, n in zip(origin, np.shape(gravity[0])[1:]))
               for origin in origins]
    return compute_rhs(blocks, DX, opts, gravity=gravity, centers=centers,
                       ws=SHARED_WS, **kwargs)


def _assert_blocks_match_the_oracle(batch, rhs):
    blocks, gravity, origins, opts = batch
    for b, U in enumerate(blocks):
        ref = compute_rhs_reference(U, DX, opts, origin=origins[b],
                                    gravity=gravity[b])
        _assert_same_bits(rhs[:, b], ref)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rhs_batches())
def test_compute_rhs_null_rows_match_the_reference_bit_for_bit(batch):
    _assert_blocks_match_the_oracle(batch, _batched_rhs(batch))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rhs_batches(), st.sampled_from([RHO, EGAS]),
       st.sampled_from([np.nan, np.inf]), st.data())
def test_non_finite_density_or_pressure_gives_the_reference_nans(
        batch, field, value, data):
    """A NaN or inf density or energy (so pressure) in one interior
    cell makes fluxes of +-0 fields NaN in the oracle; the guard must
    then carry every field, so the NaNs land in the null rows too."""
    blocks = batch[0]
    b = data.draw(st.integers(0, len(blocks) - 1))
    cell = tuple(data.draw(st.integers(NGHOST, m - NGHOST - 1))
                 for m in blocks[b].shape[1:])
    blocks[b][(field,) + cell] = value
    with np.errstate(all="ignore"):
        rhs = _batched_rhs(batch)
        _assert_blocks_match_the_oracle(batch, rhs)


def _reference_fluxes(U, opts):
    """The oracle's face fluxes of each axis, transverse interior only:
    what ``return_fluxes`` hands AMR refluxing, row for row."""
    g = NGHOST
    shape = tuple(m - 2 * g for m in U.shape[1:])
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    fluxes = []
    for axis in range(3):
        WL, WR = ppm_faces_reference(W, g, axis + 1)
        sl = [slice(None)] + [slice(g, g + n) for n in shape]
        sl[1 + axis] = slice(None)
        fluxes.append(kt_flux_reference(WL[tuple(sl)], WR[tuple(sl)],
                                        opts.eos, axis))
    return fluxes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rhs_batches())
def test_return_fluxes_carries_every_row(batch):
    rhs, fluxes = _batched_rhs(batch, return_fluxes=True)
    _assert_blocks_match_the_oracle(batch, rhs)
    for b, U in enumerate(batch[0]):
        for F, ref in zip(fluxes, _reference_fluxes(U, batch[3])):
            assert F.shape[0] == NF
            _assert_same_bits(F[:, b], ref)


# -- fluxes and the full RHS ------------------------------------------------

@pytest.mark.parametrize("axis", [0, 1, 2])
def test_kt_flux_fused_bitwise(axis):
    WL, WR = face_states(axis)
    ref = kt_flux_reference(WL, WR, IdealGas(), axis)
    out = np.empty_like(ref)
    for _ in range(2):      # reuse must not leak state between calls
        assert kt_flux(WL, WR, IdealGas(), axis, out=out) is out
        np.testing.assert_array_equal(out, ref)


def test_compute_rhs_fused_bitwise():
    U = hydro_block()
    n = U.shape[1] - 2 * NGHOST
    rng = np.random.default_rng(13)
    gravity = rng.normal(size=(3, n, n, n)) * 0.1
    opts = HydroOptions(eos=IdealGas(), omega=0.3)
    origin = (-0.3, 0.0, 0.2)
    ref = compute_rhs_reference(U, 0.05, opts, origin=origin,
                                gravity=gravity)
    # the cell centres the oracle derives from its corner, bit for bit
    centers = tuple(o + (np.arange(n) + 0.5) * 0.05 for o in origin)
    plain = compute_rhs(U, 0.05, opts, gravity=gravity, centers=centers)
    np.testing.assert_array_equal(plain, ref)
    ws = Workspace()
    out = np.empty((NF, n, n, n))
    for _ in range(3):      # steady-state reuse of both out and ws
        got = compute_rhs(U, 0.05, opts, gravity=gravity, out=out, ws=ws,
                          centers=centers)
        assert got is out
        np.testing.assert_array_equal(out, ref)
    ws_only = compute_rhs(U, 0.05, opts, gravity=gravity, ws=Workspace(),
                          centers=centers)
    np.testing.assert_array_equal(ws_only, ref)


def test_compute_rhs_return_fluxes_detached_from_workspace():
    U = hydro_block()
    opts = HydroOptions(eos=IdealGas())
    ws = Workspace()
    _, fluxes = compute_rhs(U, 0.05, opts, return_fluxes=True, ws=ws)
    kept = [F.copy() for F in fluxes]
    compute_rhs(U, 0.04, opts, ws=ws)   # must not overwrite held fluxes
    for F, K in zip(fluxes, kept):
        np.testing.assert_array_equal(F, K)


# -- cfl_dt through the fused signal-speed kernel ---------------------------

def reference_cfl_dt(U, dx, options):
    """The old path: materialize the full primitive block, scan per axis."""
    g = NGHOST
    inner = (slice(None),) + tuple(
        slice(g, U.shape[1 + d] - g) for d in range(3))
    W = conserved_to_primitive(U[inner], options.eos, options.rho_floor)
    vmax = np.zeros(W.shape[1:])
    for axis in range(3):
        np.maximum(vmax, max_signal_speed(W, options.eos, axis), out=vmax)
    peak = float(np.max(vmax))
    return np.inf if peak <= 0.0 else options.cfl * dx / peak


def test_cfl_dt_identical_to_primitive_path():
    U = hydro_block()
    opts = HydroOptions(eos=IdealGas())
    ref = reference_cfl_dt(U, 0.05, opts)
    assert cfl_dt(U, 0.05, opts) == ref
    ws = Workspace()
    for _ in range(3):
        assert cfl_dt(U, 0.05, opts, ws=ws) == ref


def test_conserved_signal_speed_bitwise_vs_primitives():
    U = hydro_block()
    opts = HydroOptions(eos=IdealGas())
    W = conserved_to_primitive(U, opts.eos, opts.rho_floor)
    vmax = np.zeros(W.shape[1:])
    for axis in range(3):
        np.maximum(vmax, max_signal_speed(W, opts.eos, axis), out=vmax)
    np.testing.assert_array_equal(
        conserved_signal_speed(U, opts.eos, opts.rho_floor), vmax)


def test_cfl_dt_identical_on_equilibrium_star():
    mesh = equilibrium_star(n=16, domain=4.0)
    mesh._fill(mesh._boxes, 0)
    ref = reference_cfl_dt(mesh.blocks[0, 0, 0], mesh.dx, mesh.options)
    assert mesh.compute_dt() == ref


# -- floored-cell regressions (the headline bugfix) -------------------------

def corrupted_pair():
    """A clean block and a copy with one fault-corrupted interior cell."""
    clean = hydro_block(nasty=False)
    corrupt = clean.copy()
    g = NGHOST
    corrupt[RHO, g + 2, g + 3, g + 4] = 1e-290     # far below the floor
    corrupt[SX, g + 2, g + 3, g + 4] = 1.0         # but finite momentum
    corrupt[EGAS, g + 2, g + 3, g + 4] = 1e-280
    corrupt[TAU, g + 2, g + 3, g + 4] = 1e-280
    apply_boundary(corrupt, "periodic")
    return clean, corrupt


def test_corrupted_cell_does_not_collapse_cfl_dt():
    # pre-fix, 1/1e-290 velocities drove dt to ~1e-291 x the clean value
    clean, corrupt = corrupted_pair()
    opts = HydroOptions(eos=IdealGas())
    dt_clean = cfl_dt(clean, 0.05, opts)
    dt_corrupt = cfl_dt(corrupt, 0.05, opts)
    assert np.isfinite(dt_corrupt)
    assert dt_corrupt > dt_clean / 10.0


def test_c2p_zeroes_specific_fields_of_floored_cells():
    U = hydro_block()
    g = NGHOST
    at = (g + 4, g, g + 2)          # rho == rho_floor exactly (<= fires)
    below = (g + 1, g + 2, g + 3)   # rho = 1e-30
    W = conserved_to_primitive(U, IdealGas(), FLOOR)
    for cell in (at, below):
        assert W[(RHO,) + cell] == FLOOR
        for f in (SX, SX + 1, SX + 2, *range(TAU, NF)):
            assert W[(f,) + cell] == 0.0
    # above-floor cells keep the plain division result
    ok = (g, g, g)
    assert U[(RHO,) + ok] > FLOOR
    assert W[(SX,) + ok] == U[(SX,) + ok] / U[(RHO,) + ok]


def test_apply_floors_zeroes_momenta_of_floored_cells():
    U = hydro_block(nasty=False)
    g = NGHOST
    cell = (g + 1, g + 1, g + 1)
    U[(RHO,) + cell] = 1e-40
    for d in range(3):
        U[(SX + d,) + cell] = 0.5 - 0.1 * d
    U[(TAU,) + cell] = -1e-3
    keep = (g + 2, g + 2, g + 2)
    s_keep = [U[(SX + d,) + keep] for d in range(3)]
    opts = HydroOptions(eos=IdealGas())
    apply_floors(U, opts)
    assert U[(RHO,) + cell] == opts.rho_floor
    for d in range(3):
        assert U[(SX + d,) + cell] == 0.0        # no stale kinetic energy
        assert U[(SX + d,) + keep] == s_keep[d]  # healthy cells untouched
    assert U[(TAU,) + cell] == 0.0


def test_floored_cell_flows_clean_through_dual_energy():
    # after the floors, kin == 0, so diff/safe == 1 > eta1/eta2: the
    # dual-energy switch trusts egas and sync_tau rederives tau from it
    # instead of locking onto the stale tracer
    eos = IdealGas()
    U = hydro_block(nasty=False)
    g = NGHOST
    cell = (g + 3, g + 2, g + 1)
    U[(RHO,) + cell] = 1e-100
    U[(SX,) + cell] = 2.0            # stale momentum about to be zeroed
    U[(EGAS,) + cell] = 1e-6
    U[(TAU,) + cell] = 1e3           # wildly stale tracer
    opts = HydroOptions(eos=eos)
    apply_floors(U, opts)
    args = tuple(U[(f,) + cell] for f in (RHO, SX, SX + 1, SX + 2,
                                          EGAS, TAU))
    assert eos.internal_energy(*args) == U[(EGAS,) + cell]
    assert eos.sync_tau(*args) == eos.tau_from_eint(U[(EGAS,) + cell])


def test_eos_floor_unified_with_solver_floor():
    # HydroOptions propagates its floor into the EOS it holds
    eos = HydroOptions(eos=IdealGas(), rho_floor=1e-6).eos
    assert eos.rho_floor == 1e-6
    # the clamp is the configured floor, not a hard-wired 1e-300
    assert eos.sound_speed(1e-30, 1.0) \
        == np.sqrt(eos.gamma * 1.0 / 1e-6)
    assert eos.kinetic(1e-30, 3.0, 0.0, 0.0) == 0.5 * 9.0 / 1e-6
    with pytest.raises(ValueError):
        HydroOptions(eos=IdealGas(), rho_floor=0.0)


def test_spin_fields_survive_fusion():
    # the L slots ride the same fused machinery; a rotating-frame RHS
    # must still match the reference on them specifically
    U = hydro_block()
    opts = HydroOptions(eos=IdealGas(), omega=0.5)
    ref = compute_rhs_reference(U, 0.05, opts)
    got = compute_rhs(U, 0.05, opts, ws=Workspace())
    np.testing.assert_array_equal(got[LX:LX + 3], ref[LX:LX + 3])
