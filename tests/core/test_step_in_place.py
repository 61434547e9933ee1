"""The step writes into memory it owns, with the bits of the allocating
expressions: the RK update forms ``dt k1`` in the predictor and
``0.5 dt (k1 + k2)`` in the stage-1 right-hand sides, and a domain wall
is filled one ghost layer at a time."""

import zlib

import numpy as np
import pytest

from repro.core import (EGAS, NF, NGHOST, RHO, SX, TAU, BlockMesh, IdealGas,
                        Octree, equilibrium_star, sedov_blast)
from repro.core import amr as amr_module
from repro.core import mesh as mesh_module
from repro.core.amr import AmrMesh
from repro.core.distmesh import DistBlockMesh
from repro.core.hydro.solver import apply_floors
from repro.core.mesh import fill_wall, interior
from repro.runtime.counters import CounterRegistry, default_registry
from repro.validation.reference import apply_boundary


def _rk2_step_allocating(mesh, blocks, dt, fill, rhs, gravity=None):
    """:func:`repro.core.mesh.rk2_step` with the allocating update
    expressions ``U + dt k1`` and ``U + 0.5 dt (k1 + k2)``."""
    if dt is None:
        dt = mesh.compute_dt()
    options = mesh.options
    eos = options.eos
    acc = gravity.for_state(blocks) if gravity is not None else None
    fill(blocks, 0)
    k1 = rhs(blocks, acc, 0)
    predicted = {}
    for key, U in blocks.items():
        U1 = mesh._stage.get(key)
        if U1 is None:
            U1 = mesh._stage[key] = np.empty_like(U)
        I = interior(U1)
        np.copyto(I, interior(U))
        I += dt * k1[key]
        apply_floors(I, options)
        predicted[key] = U1
    fill(predicted, 1)
    if gravity is not None:
        acc = gravity.solve(predicted)
    k2 = rhs(predicted, acc, 1)
    for key, U in blocks.items():
        I = interior(U)
        I += 0.5 * dt * (k1[key] + k2[key])
        apply_floors(I, options)
        cells = I.shape[1:]
        eos.sync_tau(I[RHO], I[SX], I[SX + 1], I[SX + 2], I[EGAS], I[TAU],
                     (np.empty(cells), np.empty(cells)),
                     np.empty(cells, bool))
    if gravity is not None:
        gravity.close_step(blocks)
    mesh.time += dt
    mesh.steps += 1
    default_registry().increment("/hydro/steps")
    return dt


def _amr_blob():
    tree = Octree(domain=1.0)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (1, 1, 1))
    eos = IdealGas()
    for leaf in tree.leaves():
        I = interior(leaf.U)
        x, y, z = tree.cell_centers(leaf.level, leaf.ipos)
        r2 = (x - 0.4) ** 2 + (y - 0.5) ** 2 + (z - 0.45) ** 2
        I[RHO] = 1.0 + 0.5 * np.exp(-r2 / 0.02)
        I[SX] = 0.2 * I[RHO]
        eint = 1.0 + np.exp(-r2 / 0.02)
        I[EGAS] = eint + 0.5 * I[SX] ** 2 / I[RHO]
        I[TAU] = eos.tau_from_eint(eint)
    return AmrMesh(tree)


def _crc(mesh):
    if isinstance(mesh, AmrMesh):
        state = [interior(U) for _, U in sorted(mesh.blocks.items())]
    else:
        state = [mesh.gather_interior()]
    crc = 0
    for a in state:
        crc = zlib.crc32(np.ascontiguousarray(a), crc)
    return crc


MESHES = {
    "block": lambda: BlockMesh.retile(sedov_blast(16)),
    "dist4": lambda: DistBlockMesh.retile(
        sedov_blast(16), n_localities=4, reorder_seed=7,
        registry=CounterRegistry()),
    "amr": _amr_blob,
    "gravity": lambda: equilibrium_star(16),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_rk2_step_in_place_matches_the_allocating_update(name, monkeypatch):
    """Three steps through the in-place update end on the state, to the
    byte, that the allocating expressions reach, on a box of sub-grids,
    a sharded mesh with reordered halos, an AMR tree with refluxing and
    a self-gravitating star."""
    crcs = []
    for step in (mesh_module.rk2_step, _rk2_step_allocating):
        monkeypatch.setattr(mesh_module, "rk2_step", step)
        monkeypatch.setattr(amr_module, "rk2_step", step)
        mesh = MESHES[name]()
        for _ in range(3):
            mesh.step()
        crcs.append(_crc(mesh))
    assert crcs[0] == crcs[1]


def _nasty_box(seed):
    """A ghosted box whose ghosts are garbage and whose interior holds
    zeros of both signs, a NaN with a payload and infinities."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(NF, 11, 12, 13))
    inner = interior(U)
    inner[rng.random(inner.shape) < 0.1] = 0.0
    inner[rng.random(inner.shape) < 0.1] = -0.0
    inner[rng.random(inner.shape) < 0.02] = np.inf
    inner.reshape(-1)[5::97] = np.frombuffer(
        np.uint64(0x7FF8DEADBEEF0001).tobytes())[0]
    return U


def _slab_fill(U, axis, side, bc):
    """The whole-slab form of a wall fill: one broadcast or flipped copy
    of the ghost slab, then the normal momentum negated."""
    g = NGHOST
    n = U.shape[1 + axis] - 2 * g

    def sl(a, b):
        s = [slice(None)] * 4
        s[1 + axis] = slice(a, b)
        return tuple(s)

    if side < 0:
        ghost, edge, mirror, wrap = (sl(0, g), sl(g, g + 1), sl(g, 2 * g),
                                     sl(n, n + g))
    else:
        ghost, edge, mirror, wrap = (sl(n + g, n + 2 * g),
                                     sl(n + g - 1, n + g), sl(n, n + g),
                                     sl(g, 2 * g))
    if bc == "outflow":
        U[ghost] = U[edge]
    elif bc == "periodic":
        U[ghost] = U[wrap]
    else:
        U[ghost] = np.flip(U[mirror], 1 + axis).copy()
        U[(SX + axis,) + ghost[1:]] *= -1.0


@pytest.mark.parametrize("bc", ["outflow", "reflect", "periodic"])
@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_fill_wall_layer_by_layer_matches_the_slab_copy(axis, side, bc):
    U = _nasty_box(3 * axis + side + 7)
    want = U.copy()
    _slab_fill(want, axis, side, bc)
    fill_wall(U, axis, side, bc)
    np.testing.assert_array_equal(U.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bc", ["outflow", "reflect", "periodic"])
def test_apply_boundary_is_the_padded_interior(bc):
    """Every face in turn fills the ghost shell, edges and corners
    included, with what ``np.pad`` makes of the interior: edge values,
    a mirror (normal momentum negated) or the far side."""
    g = NGHOST
    U = _nasty_box(1)
    mode = {"outflow": "edge", "reflect": "symmetric",
            "periodic": "wrap"}[bc]
    want = np.pad(interior(U), [(0, 0)] + [(g, g)] * 3, mode=mode)
    if bc == "reflect":
        for axis in range(3):
            ghost = [slice(None)] * 3
            for part in (slice(0, g), slice(-g, None)):
                ghost[axis] = part
                want[(SX + axis,) + tuple(ghost)] *= -1.0
    apply_boundary(U, bc)
    np.testing.assert_array_equal(U.view(np.uint64), want.view(np.uint64))
