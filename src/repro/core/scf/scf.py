"""Hachisu self-consistent-field (SCF) solver (Sec. 4.2).

"Finally, we assemble the initial scenario using the Self-Consistent
Field technique alongside the FMM solver.  Octo-Tiger can produce initial
models for binary systems that are in contact, semi-detached, or
detached."

The Hachisu (1986) iteration for rigidly rotating n = 1.5 polytropes:
given the current density, solve gravity (with the FMM), then impose the
Bernoulli integral

    H + Phi - 1/2 Omega^2 varpi^2 = C_k

on the side of each star k, fixing the constants from surface points,
where H = 0: each star's C_k from one point, Omega^2 from a *spin pair*
of points.  Enthalpy maps back to density through the polytropic
relation H = (n + 1) K rho^(1/n).  One loop (:func:`_iterate`) runs
every model.  :func:`scf_single_star` is its one-star case, spun by its
equator and pole (at rest without them); :func:`scf_binary` its
two-star case, spun by the primary's outer and inner edge.  A star is
seeded with a (1 - r^2/R^2)^n cap of its seed radius R and keeps to its
*lobe*, the ball of 1.25 R: beyond the corotation radius the Bernoulli
surface H = 0 reopens (centrifugal wins), and Hachisu's prescription
keeps matter only inside the lobes.

Gravity is solved where the stars can be, as Octo-Tiger refines its
octree only where they are.  An iteration reads phi only on its
*support*: the lobes and the cells of its surface points.  Each call
builds one FMM solver (:meth:`FmmSolver.from_levels`) on the tree of
that support, the full grid's levels cut down to the root cells whose
subtrees hold a support cell (:func:`_support_gravity`), and phi there
is the full grid's to the bit.  For the V1309 binary on 16^3 cells that
is 24 of 512 root cells and 192 of 4 096 leaves.
:attr:`ScfResult.phi`, the full-grid potential of the returned density,
is solved only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ...util import is_integer
from ..gravity.fmm import FmmSolver
from ..grid import SUBGRID_N

__all__ = ["ScfResult", "scf_single_star", "scf_binary"]

#: the polytropic index of every SCF model
N_POLY = 1.5
#: a star's lobe radius, in seed radii: no matter lies outside the lobes
LOBE = 1.25


@dataclass
class ScfResult:
    """Converged SCF model on a uniform grid (G = 1 units)."""

    rho: np.ndarray
    omega: float
    K: float
    n_poly: float
    dx: float
    origin: tuple[float, float, float]
    iterations: int
    residuals: list[float]

    def pressure(self) -> np.ndarray:
        return self.K * self.rho ** (1.0 + 1.0 / self.n_poly)

    @cached_property
    def phi(self) -> np.ndarray:
        """The full-grid potential of ``rho``, solved on first read."""
        solver = FmmSolver.from_uniform(self.rho, self.dx)
        return solver.uniform_field(solver.solve())[0]


class _Star(NamedTuple):
    """One component, centred on the x axis at ``centre``: its seed
    radius, its peak density, and the point whose phi fixes its C."""

    centre: float
    radius: float
    peak: float
    surface: tuple[float, float, float]


def _grid_axes(M: int, dx: float, origin):
    ax = [origin[d] + (np.arange(M) + 0.5) * dx for d in range(3)]
    return (ax[0][:, None, None], ax[1][None, :, None], ax[2][None, None, :])


def _octree_depth(M) -> int:
    """``L`` of a grid edge ``M = SUBGRID_N * 2^L``."""
    if is_integer(M) and M >= SUBGRID_N:
        depth = (M // SUBGRID_N).bit_length() - 1
        if SUBGRID_N << depth == M:
            return depth
    raise ValueError(f"M must be a grid edge {SUBGRID_N} * 2^L: {M!r} is "
                     f"not {SUBGRID_N} * 2^L for any integer L >= 0")


def _check_arguments(M, max_iter, **positive: float) -> None:
    """Reject bad arguments here, before any array is made, not as a zero
    division, an unbound name or a NaN-sized grid deep inside."""
    _octree_depth(M)
    if not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer: {max_iter!r}")
    for name, value in positive.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive: {value!r}")


def _support_gravity(support: np.ndarray, dx: float):
    """The SCF's gravity: ``solve(rho) -> phi`` on the ``(M, M, M)`` grid,
    for densities that vanish outside the bool grid ``support``, with
    ``phi`` set at the ``support`` cells (zero elsewhere) and equal there
    to :meth:`FmmSolver.from_uniform`'s to the bit.

    The solver keeps ``from_uniform``'s level structure, cut down to the
    tree of the support: every root cell (``SUBGRID_N`` per edge) whose
    subtree holds a support cell, with its complete subtree down to the
    ``M``^3 leaves.  Every level stays pure (all refined, or all leaf),
    so there is no coarse-fine boundary, and every pair of support cells
    is split between the root M2L and the leaf sweep as on the full
    grid.  The cells left out are massless: on the full grid they add
    exact zeros to the same sums, which the FMM adds in the same order
    on any grid a level is staged on.  A one-level tree is the whole
    root: an all-leaf root sweeps every offset its grid holds.

    The root's M2L runs on the tree's root cells alone.  BLAS ``gemm``
    (OpenBLAS, Haswell kernels) sums each entry of a matmul in the same
    order however many zero terms the full grid adds; numpy sends a
    one-row product to ``gemv`` instead, which
    :func:`..gravity.kernels.m2l_dense` avoids.  A full ``support`` is
    the full tree.
    """
    M = support.shape[0]
    depth = _octree_depth(M)
    s = M // SUBGRID_N
    roots = support.reshape((SUBGRID_N, s) * 3).any((1, 3, 5)) | (depth == 0)
    specs = []
    for lvl in range(depth + 1):
        k = 1 << lvl
        cells = np.argwhere(roots.repeat(k, 0).repeat(k, 1).repeat(k, 2))
        specs.append((lvl, dx * (M // (SUBGRID_N * k)), cells,
                      np.full(len(cells), lvl == depth)))
    solver = FmmSolver.from_levels(specs)
    leaves = np.ravel_multi_index(tuple(solver.levels[depth].coords.T),
                                  support.shape)
    read = support.reshape(-1)[leaves]
    cells, slots = leaves[read], np.flatnonzero(read)

    def solve(rho: np.ndarray) -> np.ndarray:
        solver.set_leaf_density({depth: rho.reshape(-1)[leaves]})
        phi = np.zeros(M ** 3)
        phi[cells] = solver.solve().phi[depth][slots]
        return phi.reshape(M, M, M)
    return solve


def _varpi2(point) -> float:
    return point[0] ** 2 + point[1] ** 2


def _iterate(stars: list[_Star], spin, M: int, domain: float,
             max_iter: int, tol: float) -> ScfResult:
    """The SCF iteration of ``stars`` on an ``M``^3 grid centred on the
    origin.

    The stars sit on the x axis in descending x, and each owns the cells
    between the midplanes to its neighbours.  ``spin`` is the pair of
    surface points that fixes Omega^2, ``None`` for stars at rest.
    phi at a point is read in the cell that holds it.  The first star's
    peak density fixes K and is the unit of the residuals; every other
    star is rescaled to its own peak.
    """
    if spin and _varpi2(spin[0]) == _varpi2(spin[1]):
        raise ValueError(f"the spin pair {spin} fixes no Omega^2: both "
                         f"points lie at one distance from the axis")
    dx = domain / M
    origin = (-domain / 2.0,) * 3
    x, y, z = _grid_axes(M, dx, origin)
    varpi2 = x * x + y * y
    owner = np.zeros((M, M, M), dtype=int)
    for a, b in zip(stars, stars[1:]):
        owner += x <= 0.5 * (a.centre + b.centre)
    allowed = np.zeros((M, M, M), dtype=bool)
    seeds = []
    for s in stars:
        r2 = (x - s.centre) ** 2 + y * y + z * z
        allowed |= r2 <= (LOBE * s.radius) ** 2
        r = np.sqrt(r2)
        seeds.append(np.where(r < s.radius, s.peak * np.clip(
            1 - (r / s.radius) ** 2, 0, None) ** N_POLY, 0.0))
    sides = [(owner == k) & allowed for k in range(len(stars))]
    points = dict.fromkeys([*(spin or ()), *(s.surface for s in stars)])
    cells = [tuple(int(np.clip((p[d] - origin[d]) / dx, 0, M - 1))
                   for d in range(3)) for p in points]
    # gravity where mass can be (the lobes) and where phi is read (the
    # surface points' cells, which may lie outside the lobes)
    support = allowed.copy()
    for c in cells:
        support[c] = True
    solve_phi = _support_gravity(support, dx)
    rho = sum(seeds)
    residuals: list[float] = []
    omega2, K = 0.0, 1.0

    for it in range(max_iter):
        phi = solve_phi(rho)
        at = {p: phi[c] for p, c in zip(points, cells)}
        if spin:
            pA, pB = spin
            omega2 = max(2.0 * (at[pA] - at[pB])
                         / (_varpi2(pA) - _varpi2(pB)), 0.0)
        C = np.array([at[s.surface] - 0.5 * omega2 * _varpi2(s.surface)
                      for s in stars])
        H = np.clip(C[owner] - phi + 0.5 * omega2 * varpi2, 0.0, None)
        hmax = [H[side].max() for side in sides]
        if hmax[0] <= 0:
            raise ValueError(
                f"SCF lost its first star at iteration {it} on M={M} cells "
                f"over a domain of {domain:g}: its boundary points sample "
                f"phi in x cells {[c[0] for c in cells]}")
        closed = [k for k, h in enumerate(hmax) if h <= 0]
        if closed:
            # a companion's Bernoulli surface closed this iteration —
            # reseed it and keep iterating (common for extreme q on
            # coarse grids)
            for k in closed:
                rho = np.where(sides[k], np.maximum(rho, seeds[k]), rho)
            residuals.append(1.0)
            continue
        K = hmax[0] / ((N_POLY + 1.0) * stars[0].peak ** (1.0 / N_POLY))
        rho_new = np.where(allowed,
                           (H / ((N_POLY + 1.0) * K)) ** N_POLY, 0.0)
        for side, s in zip(sides[1:], stars[1:]):
            rho_new[side] *= s.peak / rho_new[side].max()
        res = float(np.abs(rho_new - rho).max() / stars[0].peak)
        residuals.append(res)
        rho = 0.5 * rho + 0.5 * rho_new     # under-relaxation
        if res < tol:
            break
    return ScfResult(rho=rho, omega=float(np.sqrt(omega2)), K=K,
                     n_poly=N_POLY, dx=dx, origin=origin,
                     iterations=it + 1, residuals=residuals)


def scf_single_star(M: int = 32, domain: float = 4.0,
                    axis_ratio: float = 1.0, max_iter: int = 60,
                    tol: float = 1e-6) -> ScfResult:
    """SCF model of a single (optionally rotating) polytrope at the
    origin, of unit equatorial radius and unit peak density.

    ``axis_ratio`` = polar/equatorial surface radius; 1.0 gives the
    non-rotating star (Omega = 0), whose profile is Lane-Emden's;
    smaller values spin it up.
    """
    if not 0.0 < axis_ratio <= 1.0:
        raise ValueError("axis ratio must be in (0, 1]")
    _check_arguments(M, max_iter, domain=domain, tol=tol)
    equator = (1.0, 0.0, 0.0)
    spin = None if axis_ratio == 1.0 else (equator, (0.0, 0.0, axis_ratio))
    return _iterate([_Star(0.0, 1.0, 1.0, equator)], spin, M, domain,
                    max_iter, tol)


def scf_binary(M: int = 32, domain: float = 8.0, separation: float = 3.0,
               mass_ratio: float = 0.35, max_iter: int = 80,
               tol: float = 1e-5) -> ScfResult:
    """SCF model of a synchronously rotating binary (Hachisu 1986 II).

    The primary (unit seed radius, unit peak density) sits at x1 > 0, the
    secondary (peak density ``mass_ratio``) at x2 < 0, with the centre of
    mass at the origin.  Boundary points on the x axis: the outer and
    inner edges of the primary fix its C and Omega^2, the outer edge of
    the secondary fixes its C.
    """
    _check_arguments(M, max_iter, domain=domain, tol=tol,
                     separation=separation)
    if not 0.0 < mass_ratio <= 1.0:
        raise ValueError(f"mass_ratio must be in (0, 1]: {mass_ratio!r}")
    q = mass_ratio
    x1 = separation * q / (1.0 + q)         # primary offset (+x)
    x2 = x1 - separation                    # secondary offset (-x)
    # Roche-ish secondary radius, floored to stay resolvable on the grid
    radius2 = max(max(q, 1e-3) ** 0.4, 2.0 * (domain / M))
    outer = (x1 + 1.0, 0.0, 0.0)
    stars = [_Star(x1, 1.0, 1.0, outer),
             _Star(x2, radius2, q, (x2 - radius2, 0.0, 0.0))]
    return _iterate(stars, (outer, (x1 - 1.0, 0.0, 0.0)), M, domain,
                    max_iter, tol)
