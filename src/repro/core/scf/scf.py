"""Hachisu self-consistent-field (SCF) solver (Sec. 4.2).

"Finally, we assemble the initial scenario using the Self-Consistent
Field technique alongside the FMM solver.  Octo-Tiger can produce initial
models for binary systems that are in contact, semi-detached, or
detached."

The Hachisu (1986) iteration for a rigidly rotating polytrope: given the
current density, solve gravity (with the FMM), then impose the Bernoulli
integral

    H + Phi - 1/2 Omega^2 varpi^2 = C

fixing the integration constants from boundary points.  For a single
rotating star the constants are (C, Omega^2) fixed by the equatorial and
polar surface radii; for a binary, two constants C1, C2 (one per star)
and Omega^2 follow from three boundary points (the outer equatorial edge
of each star plus one inner point).  Enthalpy maps back to density through
the polytropic relation H = (n + 1) K rho^(1/n).

Gravity is solved where the stars can be, as Octo-Tiger refines its
octree only where they are.  An iteration reads phi only on its
*support*: the cells that can hold mass (for a binary, the two lobes)
and the cells of its boundary points.  Each call builds one FMM solver
(:meth:`FmmSolver.from_levels`) on the tree of that support, the full
grid's levels cut down to the root cells whose subtrees hold a support
cell (:func:`_support_gravity`), and phi there is the full grid's to the
bit.  For the V1309 binary on 16^3 cells that is 24 of 512 root cells
and 192 of 4 096 leaves.  A single star has no mask, so its support is
every cell and its tree the full one.  :attr:`ScfResult.phi`, the
full-grid potential of the returned density, is solved only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...util import is_integer
from ..gravity.fmm import FmmSolver
from ..grid import SUBGRID_N
from .lane_emden import Polytrope, solve_lane_emden

__all__ = ["ScfResult", "scf_single_star", "scf_binary"]


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


def _grid_axes(M: int, dx: float, origin):
    ax = [origin[d] + (np.arange(M) + 0.5) * dx for d in range(3)]
    return (ax[0][:, None, None], ax[1][None, :, None], ax[2][None, None, :])


def _check_iteration(domain: float, max_iter: int, tol: float) -> None:
    """Reject bad iteration arguments here, not as an unbound name or a
    NaN-sized grid deep inside."""
    if not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer: {max_iter!r}")
    for name, value in (("domain", domain), ("tol", tol)):
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
    depth = max(M // SUBGRID_N, 1).bit_length() - 1
    if support.shape != (M, M, M) or SUBGRID_N << depth != M:
        raise ValueError(f"grid edge {M} is not {SUBGRID_N} * 2^L for any L")
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


def scf_single_star(M: int = 32, domain: float = 4.0, n_poly: float = 1.5,
                    radius_eq: float = 1.0, axis_ratio: float = 1.0,
                    rho_max: float = 1.0, max_iter: int = 60,
                    tol: float = 1e-6) -> ScfResult:
    """SCF model of a single (optionally rotating) polytrope.

    ``axis_ratio`` = polar/equatorial surface radius; 1.0 gives the
    non-rotating Lane-Emden star (Omega = 0), smaller values spin it up.
    """
    if not 0.0 < axis_ratio <= 1.0:
        raise ValueError("axis ratio must be in (0, 1]")
    _check_iteration(domain, max_iter, tol)
    dx = domain / M
    origin = (-domain / 2.0,) * 3
    x, y, z = _grid_axes(M, dx, origin)
    r = np.sqrt(x * x + y * y + z * z)
    # seed with a sphere
    rho = np.where(r < radius_eq, rho_max * (1 - (r / radius_eq) ** 2), 0.0)
    rho = np.clip(rho, 0.0, None) ** n_poly
    rho *= rho_max / max(rho.max(), 1e-300)
    solve_phi = _support_gravity(np.ones((M, M, M), dtype=bool), dx)
    residuals: list[float] = []
    omega2 = 0.0
    K = 1.0
    varpi2 = x * x + y * y

    def interp_phi(phi, point):
        # nearest-cell sample (adequate on the SCF grid)
        idx = tuple(int(np.clip((point[d] - origin[d]) / dx, 0, M - 1))
                    for d in range(3))
        return phi[idx]

    for it in range(max_iter):
        phi = solve_phi(rho)
        # boundary points: equatorial surface (radius_eq, 0, 0) and pole
        pA = (radius_eq, 0.0, 0.0)
        pB = (0.0, 0.0, axis_ratio * radius_eq)
        phiA = interp_phi(phi, pA)
        phiB = interp_phi(phi, pB)
        if axis_ratio < 1.0:
            # H = 0 at both surface points:
            # C = phiA - 1/2 w2 Req^2 (equator) and C = phiB (pole)
            omega2 = max(2.0 * (phiA - phiB) / radius_eq ** 2, 0.0)
        C = phiA - 0.5 * omega2 * radius_eq ** 2
        H = C - phi + 0.5 * omega2 * varpi2
        H = np.clip(H, 0.0, None)
        Hmax = H.max()
        if Hmax <= 0:
            raise RuntimeError("SCF enthalpy collapsed to zero")
        # K from normalizing the maximum density
        K = Hmax / ((n_poly + 1.0) * rho_max ** (1.0 / n_poly))
        rho_new = (H / ((n_poly + 1.0) * K)) ** n_poly
        res = float(np.abs(rho_new - rho).max() / rho_max)
        residuals.append(res)
        rho = 0.5 * rho + 0.5 * rho_new     # under-relaxation
        if res < tol:
            break
    return ScfResult(rho=rho, omega=float(np.sqrt(omega2)), K=K,
                     n_poly=n_poly, dx=dx, origin=origin,
                     iterations=it + 1, residuals=residuals)


def scf_binary(M: int = 32, domain: float = 8.0, n_poly: float = 1.5,
               separation: float = 3.0, mass_ratio: float = 0.35,
               radius1: float = 1.0, rho_max: float = 1.0,
               max_iter: int = 80, tol: float = 1e-5) -> ScfResult:
    """SCF model of a synchronously rotating binary (Hachisu 1986 II).

    The primary sits at x1 > 0, the secondary at x2 < 0 (centre of mass at
    the origin).  Boundary points: the outer equatorial edges of the two
    stars fix (C1 shared with Omega^2); densities renormalize so the
    maxima of each lobe keep the requested mass ratio.
    """
    _check_iteration(domain, max_iter, tol)
    dx = domain / M
    origin = (-domain / 2.0,) * 3
    x, y, z = _grid_axes(M, dx, origin)
    q = mass_ratio
    x1 = separation * q / (1.0 + q)         # primary offset (+x)
    x2 = x1 - separation                    # secondary offset (-x)
    # Roche-ish secondary radius, floored to stay resolvable on the grid
    radius2 = max(radius1 * max(q, 1e-3) ** 0.4, 2.0 * dx)
    r1 = np.sqrt((x - x1) ** 2 + y * y + z * z)
    r2 = np.sqrt((x - x2) ** 2 + y * y + z * z)
    rho = np.where(r1 < radius1,
                   rho_max * np.clip(1 - (r1 / radius1) ** 2, 0, None)
                   ** n_poly, 0.0)
    rho = rho + np.where(
        r2 < radius2,
        q * rho_max * np.clip(1 - (r2 / radius2) ** 2, 0, None) ** n_poly,
        0.0)
    varpi2 = x * x + y * y
    side1 = np.broadcast_to(x > 0.5 * (x1 + x2),
                            (M, M, M))
    # the Bernoulli surface H = 0 reopens beyond the corotation radius
    # (centrifugal wins); Hachisu's prescription keeps matter only inside
    # the two stellar lobes bounded by the edge points
    lobe1 = (x - x1) ** 2 + y * y + z * z <= (1.25 * radius1) ** 2
    lobe2 = (x - x2) ** 2 + y * y + z * z <= (1.25 * radius2) ** 2
    allowed = lobe1 | lobe2
    residuals: list[float] = []
    omega2 = separation ** (-3)             # Keplerian seed
    K = 1.0

    def cell(px):
        return int(np.clip((px - origin[0]) / dx, 0, M - 1))

    # Hachisu's three boundary points: the outer and inner edges of the
    # primary fix (C1, omega^2); the outer edge of the secondary fixes
    # C2.  Each side of the binary uses its own constant.  phi is
    # sampled in the cell on the x axis that holds each point.
    pA = x1 + radius1        # primary outer edge
    pB = x1 - radius1        # primary inner edge
    pC = x2 - radius2        # secondary outer edge
    cells = [cell(px) for px in (pA, pB, pC)]
    j = cell(0.0)
    # gravity where mass can be (the lobes) and where phi is read (the
    # boundary-point cells, which may lie outside the lobes)
    support = allowed.copy()
    support[cells, j, j] = True
    solve_phi = _support_gravity(support, dx)

    for it in range(max_iter):
        phi = solve_phi(rho)
        phiA, phiB, phiC = (phi[i, j, j] for i in cells)
        denom = pA ** 2 - pB ** 2
        if abs(denom) < 1e-12:
            omega2 = separation ** (-3)
        else:
            omega2 = max(2.0 * (phiA - phiB) / denom, 0.0)
        C1 = phiA - 0.5 * omega2 * pA ** 2
        C2 = phiC - 0.5 * omega2 * pC ** 2
        Cfield = np.where(side1, C1, C2)
        H = np.clip(Cfield - phi + 0.5 * omega2 * varpi2, 0.0, None)
        H1max = H[side1 & allowed].max()
        H2max = H[(~side1) & allowed].max()
        if H1max <= 0:
            raise ValueError(
                f"SCF lost the primary component at iteration {it} on "
                f"M={M} cells over a domain of {domain:g}: its boundary "
                f"points (primary outer and inner edge, secondary outer "
                f"edge) sample phi in x cells {cells}")
        if H2max <= 0:
            # the secondary's Bernoulli surface closed this iteration —
            # reseed its lobe and keep iterating (common for extreme q on
            # coarse grids)
            seed2 = np.where(
                r2 < radius2,
                q * rho_max * np.clip(1 - (r2 / radius2) ** 2, 0,
                                      None) ** n_poly, 0.0)
            rho = np.where(~side1, np.maximum(rho, seed2), rho)
            residuals.append(1.0)
            continue
        K = H1max / ((n_poly + 1.0) * rho_max ** (1.0 / n_poly))
        rho_new = np.where(allowed,
                           (H / ((n_poly + 1.0) * K)) ** n_poly, 0.0)
        # keep the secondary's peak density at q^x of the primary's
        peak2 = rho_new[(~side1) & allowed].max()
        if peak2 > 0:
            rho_new[~side1] *= (q * rho_max) / peak2
        res = float(np.abs(rho_new - rho).max() / rho_max)
        residuals.append(res)
        rho = 0.5 * rho + 0.5 * rho_new
        if res < tol:
            break
    return ScfResult(rho=rho, omega=float(np.sqrt(omega2)), K=K,
                     n_poly=n_poly, dx=dx, origin=origin,
                     iterations=it + 1, residuals=residuals)
