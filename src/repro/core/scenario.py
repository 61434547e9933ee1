"""Scenario builders: the verification suite and the V1309 merger.

The four verification tests recommended by Tasker et al. (Sec. 4.2):

1. :func:`sod_tube` — Sod shock tube (analytic solution available);
2. :func:`sedov_blast` — Sedov-Taylor point explosion;
3. :func:`equilibrium_star` — a polytrope in equilibrium at rest;
4. the same star in uniform motion (``velocity`` argument).

Plus :func:`v1309_binary` — a scaled-down contact-binary model of
V1309 Scorpii built with the SCF solver (Sec. 3/6): mass ratio
q = 0.17/1.54 ~ 0.11, synchronous rotation, common envelope.  The paper's
physical parameters (1.02e3 R_sun domain, 6.37 R_sun separation) are kept
as ratios; code units are G = M_primary = a_separation = 1.
"""

from __future__ import annotations

import numpy as np

from .eos import IdealGas
from .grid import EGAS, LX, PASSIVE0, RHO, SX, TAU
from .hydro.solver import HydroOptions
from .mesh import BlockMesh
from .scf.lane_emden import Polytrope
from .scf.scf import scf_binary
from ..util import is_integer

__all__ = ["sod_tube", "sedov_blast", "equilibrium_star", "v1309_binary",
           "V1309_MASS_RATIO"]

#: Sec. 6: 1.54 + 0.17 M_sun components
V1309_MASS_RATIO = 0.17 / 1.54


def _require_positive(**values: float) -> None:
    """Reject a non-positive size or extent here, not as a NaN deep inside."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def sod_tube(n: tuple[int, int, int] = (128, 8, 8), gamma: float = 1.4
             ) -> BlockMesh:
    """The Sod tube along x on a thin box; analytic solution in
    :mod:`repro.validation.sod`."""
    opts = HydroOptions(eos=IdealGas(gamma=gamma))
    mesh = BlockMesh(1, n=n, domain=1.0, options=opts, bc="outflow")
    x, y, z = mesh.cell_centers()
    left = x < 0.5
    rho = np.where(left, 1.0, 0.125) + 0.0 * y + 0.0 * z
    p = np.where(left, 1.0, 0.1) + 0.0 * y + 0.0 * z
    mesh.load_primitives(rho, 0.0, 0.0, 0.0, p)
    # tag the two chambers with passive scalars
    mesh.interior[PASSIVE0] = np.where(left, rho, 0.0)
    mesh.interior[PASSIVE0 + 1] = np.where(left, 0.0, rho)
    return mesh


def sedov_blast(n: int = 32, gamma: float = 1.4, E: float = 1.0,
                rho0: float = 1.0, r_init: float | None = None
                ) -> BlockMesh:
    """Sedov-Taylor blast: energy E deposited in a small central sphere."""
    _require_positive(n=n, E=E, rho0=rho0)
    opts = HydroOptions(eos=IdealGas(gamma=gamma))
    mesh = BlockMesh(1, n=n, domain=1.0, options=opts, bc="outflow")
    x, y, z = mesh.cell_centers()
    r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
    p_ambient = 1e-6
    mesh.load_primitives(rho0, 0.0, 0.0, 0.0, p_ambient)
    r0 = r_init if r_init is not None else 2.0 * mesh.dx
    src = r < r0
    n_src = int(src.sum())
    if n_src == 0:
        raise ValueError("initial blast radius below one cell")
    eint = E / (n_src * mesh.dx ** 3)
    I = mesh.interior
    I[EGAS][src] = eint
    I[TAU][src] = opts.eos.tau_from_eint(np.full(n_src, eint))
    return mesh


def equilibrium_star(n: int = 32, domain: float = 4.0, n_poly: float = 1.5,
                     radius: float = 1.0, mass: float = 1.0,
                     velocity: tuple[float, float, float] = (0.0, 0.0, 0.0),
                     rho_floor: float = 1e-10) -> BlockMesh:
    """A Lane-Emden polytrope in equilibrium, optionally in motion.

    Verification tests 3/4 of Sec. 4.2: the structure should persist.
    gamma = 1 + 1/n so the polytropic relation is adiabatic.
    """
    _require_positive(n=n, domain=domain, n_poly=n_poly, radius=radius,
                      mass=mass)
    if len(velocity) != 3 or not np.isfinite(velocity).all():
        raise ValueError(
            f"velocity must be three finite components, got {velocity!r}")
    gamma = 1.0 + 1.0 / n_poly
    opts = HydroOptions(eos=IdealGas(gamma=gamma), rho_floor=rho_floor)
    mesh = BlockMesh(1, n=n, domain=domain, origin=(-domain / 2,) * 3,
                     options=opts, bc="outflow", self_gravity=True)
    x, y, z = mesh.cell_centers()
    r = np.sqrt(x * x + y * y + z * z)
    star = Polytrope(n=n_poly, radius=radius, mass=mass)
    rho, p = star.profile(r.ravel())
    rho = np.maximum(rho.reshape(r.shape), rho_floor)
    p = np.maximum(p.reshape(r.shape), rho_floor * 1e-4)
    mesh.load_primitives(rho, *velocity, p)
    mesh.interior[PASSIVE0] = np.where(r < radius, rho, 0.0)
    return mesh


def v1309_binary(M: int = 32, mass_ratio: float = V1309_MASS_RATIO,
                 separation: float = 3.0, domain_factor: float = 8.0 / 3.0,
                 rho_floor: float = 1e-8, scf_iters: int = 40
                 ) -> BlockMesh:
    """Scaled-down V1309 contact-binary model, SCF-initialized.

    The mesh rotates with the binary (``options.omega`` is set to the SCF
    orbital frequency); passive scalars tag the two components and the
    common envelope, as in Sec. 4.2.
    """
    _require_positive(M=M, separation=separation, domain_factor=domain_factor,
                      scf_iters=scf_iters)
    if not is_integer(scf_iters):
        raise ValueError(f"scf_iters must be an integer, got {scf_iters!r}")
    if not 0.0 < mass_ratio <= 1.0:
        raise ValueError(f"mass_ratio must be in (0, 1], got {mass_ratio}")
    # the secondary's centre sits separation / (1 + q) from the centre of
    # mass, which is the centre of the domain
    if not domain_factor > 2.0 / (1.0 + mass_ratio):
        raise ValueError(
            f"domain_factor must exceed 2 / (1 + mass_ratio) = "
            f"{2.0 / (1.0 + mass_ratio):.4g} for the domain to hold both "
            f"stars, got {domain_factor}")
    try:
        scf = scf_binary(M=M, domain=separation * domain_factor,
                         separation=separation, mass_ratio=mass_ratio,
                         max_iter=scf_iters)
    except ValueError as exc:
        raise ValueError(f"v1309_binary(M={M}, domain_factor="
                         f"{domain_factor:.4g}) has no SCF model: {exc}"
                         ) from exc
    gamma = 1.0 + 1.0 / scf.n_poly
    opts = HydroOptions(eos=IdealGas(gamma=gamma), rho_floor=rho_floor,
                        omega=scf.omega)
    domain = separation * domain_factor
    mesh = BlockMesh(1, n=M, domain=domain, origin=(-domain / 2,) * 3,
                     options=opts, bc="outflow", self_gravity=True)
    rho = np.maximum(scf.rho, rho_floor)
    p = np.maximum(scf.pressure(), rho_floor * 1e-4)
    mesh.load_primitives(rho, 0.0, 0.0, 0.0, p)
    # passives: accretor (x > mid), donor (x < mid), common atmosphere
    x, y, z = mesh.cell_centers()
    q = mass_ratio
    x1 = separation * q / (1.0 + q)
    x2 = x1 - separation
    mid = 0.5 * (x1 + x2)
    dense = scf.rho > 0.05 * scf.rho.max()
    I = mesh.interior
    I[PASSIVE0] = np.where(dense & (x + 0 * y + 0 * z > mid), rho, 0.0)
    I[PASSIVE0 + 1] = np.where(dense & (x + 0 * y + 0 * z <= mid), rho, 0.0)
    I[PASSIVE0 + 2] = np.where(~dense & (scf.rho > 0), rho, 0.0)
    return mesh
