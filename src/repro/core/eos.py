"""Ideal-gas equation of state with the dual-energy formalism.

Octo-Tiger evolves both the gas total energy E and an entropy tracer tau
(Sec. 4.2, following Bryan et al. 2014): "Numerical precision of internal
energy densities can suffer greatly in high mach flows, where the kinetic
energy dwarfs the gas internal energy. ... We evolve both the gas total
energy as well as the entropy.  The internal energy is then computed from
one or the other depending on the mach number (entropy for high mach flows
and total gas energy for low mach ones)."

The tracer is tau = (rho * e_int)^(1/gamma), which is advected passively
and satisfies d(tau)/dt = 0 along streamlines for smooth adiabatic flow;
e_int recovers as tau**gamma / rho (specific) or tau**gamma (density).
"""

from __future__ import annotations

import numpy as np

__all__ = ["IdealGas", "DEFAULT_GAMMA", "DEFAULT_RHO_FLOOR",
           "DUAL_ENERGY_ETA1", "DUAL_ENERGY_ETA2"]

#: monatomic / fully convective stellar matter
DEFAULT_GAMMA = 5.0 / 3.0
#: use tau when (E - K)/E falls below this (high-Mach switch)
DUAL_ENERGY_ETA1 = 1e-3
#: re-sync tau from E when (E - K)/E exceeds this (trustworthy regime)
DUAL_ENERGY_ETA2 = 1e-1
#: default vacuum density floor, shared with the hydro solver options
DEFAULT_RHO_FLOOR = 1e-12

_FLOOR = 1e-300


class IdealGas:
    """p = (gamma - 1) rho e ideal gas with dual-energy bookkeeping.

    ``rho_floor`` is the density below which a cell counts as vacuum:
    the *same* floor the hydro solver applies to the state
    (:class:`repro.core.hydro.solver.HydroOptions` owns the value and
    syncs it here), so every layer agrees on what vacuum means.  An
    independent, smaller clamp inside :meth:`sound_speed` /
    :meth:`kinetic` would let a fault-corrupted cell with
    ``rho ~ 1e-200`` and finite momentum report ~1e100 kinetic energies
    and signal speeds.
    """

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if not (np.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma: need a finite gamma > 1, got {gamma!r}")
        self.gamma = float(gamma)
        self.rho_floor = DEFAULT_RHO_FLOOR

    # -- basic relations ---------------------------------------------------

    def pressure(self, rho: np.ndarray, eint: np.ndarray) -> np.ndarray:
        """Pressure from density and internal energy *density*."""
        return (self.gamma - 1.0) * np.maximum(eint, 0.0)

    def sound_speed(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.sqrt(self.gamma * np.maximum(p, 0.0)
                       / np.maximum(rho, self.rho_floor))

    # The ``*_into`` methods are the allocation-free forms the hydro
    # kernels call: the operations of their namesakes, in the same order
    # (so the same bits), written into the caller's ``out`` with the
    # caller's scratch; ``out`` may be one of the inputs.

    def pressure_into(self, eint: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`pressure` into ``out``."""
        np.maximum(eint, 0.0, out=out)
        return np.multiply(self.gamma - 1.0, out, out=out)

    def sound_speed_into(self, rho: np.ndarray, p: np.ndarray,
                         out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """:meth:`sound_speed` into ``out``, ``tmp`` shaped like it."""
        np.maximum(p, 0.0, out=out)
        np.multiply(self.gamma, out, out=out)
        np.maximum(rho, self.rho_floor, out=tmp)
        np.divide(out, tmp, out=out)
        return np.sqrt(out, out=out)

    def tau_from_eint(self, eint: np.ndarray) -> np.ndarray:
        """Entropy tracer from internal energy density."""
        return np.maximum(eint, 0.0) ** (1.0 / self.gamma)

    def eint_from_tau(self, tau: np.ndarray) -> np.ndarray:
        return np.maximum(tau, 0.0) ** self.gamma

    # -- dual-energy selection -----------------------------------------------

    def kinetic(self, rho: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                sz: np.ndarray) -> np.ndarray:
        return 0.5 * (sx * sx + sy * sy + sz * sz) \
            / np.maximum(rho, self.rho_floor)

    def internal_energy(self, rho: np.ndarray, sx: np.ndarray,
                        sy: np.ndarray, sz: np.ndarray, egas: np.ndarray,
                        tau: np.ndarray) -> np.ndarray:
        """Dual-energy internal energy density.

        Uses E - K where it is numerically trustworthy, tau**gamma in
        high-Mach regions where the difference of large numbers loses
        precision.
        """
        kin = self.kinetic(rho, sx, sy, sz)
        diff = egas - kin
        safe = np.maximum(egas, _FLOOR)
        use_e = diff / safe > DUAL_ENERGY_ETA1
        return np.where(use_e, np.maximum(diff, 0.0),
                        self.eint_from_tau(tau))

    def _energy_split(self, rho: np.ndarray, sx: np.ndarray,
                      sy: np.ndarray, sz: np.ndarray, egas: np.ndarray,
                      t: np.ndarray, u: np.ndarray) -> None:
        """The dual-energy switch's operands, with :meth:`kinetic`'s
        operations in their order: ``diff = egas - kin`` into ``t`` and
        ``diff / max(egas, tiny)`` into ``u``."""
        np.multiply(sx, sx, out=t)
        np.multiply(sy, sy, out=u)
        np.add(t, u, out=t)
        np.multiply(sz, sz, out=u)
        np.add(t, u, out=t)
        np.multiply(0.5, t, out=t)
        np.maximum(rho, self.rho_floor, out=u)
        np.divide(t, u, out=t)
        np.subtract(egas, t, out=t)
        np.maximum(egas, _FLOOR, out=u)
        np.divide(t, u, out=u)

    def internal_energy_into(self, rho: np.ndarray, sx: np.ndarray,
                             sy: np.ndarray, sz: np.ndarray,
                             egas: np.ndarray, tau: np.ndarray,
                             out: np.ndarray, tmp: tuple[np.ndarray, ...],
                             mask: np.ndarray) -> np.ndarray:
        """:meth:`internal_energy` into ``out``, with two float arrays
        ``tmp`` and the bool ``mask``, all shaped like it.  ``tau **
        gamma`` is evaluated only in the cells that select it: ``pow``
        is the costliest pass, and evaluated where ``np.where`` takes it
        it gives the same bits."""
        t, u = tmp
        self._energy_split(rho, sx, sy, sz, egas, t, u)
        np.greater(u, DUAL_ENERGY_ETA1, out=mask)   # use_e
        np.maximum(t, 0.0, out=out)
        np.logical_not(mask, out=mask)              # NaN ratios take tau
        np.maximum(tau, 0.0, out=u, where=mask)
        return np.power(u, self.gamma, out=out, where=mask)

    def sync_tau(self, rho: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                 sz: np.ndarray, egas: np.ndarray, tau: np.ndarray,
                 tmp: tuple[np.ndarray, np.ndarray],
                 mask: np.ndarray) -> None:
        """Re-derive ``tau`` in place from E - K where the energy update
        is reliable ((E - K)/E > :data:`DUAL_ENERGY_ETA2`), with two
        float arrays ``tmp`` and the bool ``mask``, all shaped like
        ``tau``.  :meth:`tau_from_eint`'s ``pow`` runs only in the
        trusted cells, where E - K is positive; the other cells keep
        their bits."""
        t, u = tmp
        self._energy_split(rho, sx, sy, sz, egas, t, u)
        np.greater(u, DUAL_ENERGY_ETA2, out=mask)
        np.power(t, 1.0 / self.gamma, out=tau, where=mask)
