"""Lane-Emden polytropes: the single-star equilibria of the test suite.

A polytrope p = K rho^(1 + 1/n) in hydrostatic equilibrium satisfies the
Lane-Emden equation for theta(xi) with rho = rho_c theta^n.  n = 3/2
(gamma = 5/3) models the fully convective stars of the V1309 system; the
third/fourth verification tests of Sec. 4.2 place such a star on the grid
at rest / in uniform motion and require the structure to persist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LaneEmdenSolution", "solve_lane_emden", "Polytrope"]


@dataclass(frozen=True)
class LaneEmdenSolution:
    """theta(xi) profile up to the first zero xi_1."""

    n: float
    xi: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    xi1: float
    dtheta_xi1: float

    def theta_at(self, xi: np.ndarray) -> np.ndarray:
        """theta at ``xi`` (zero outside the surface): the cubic Hermite
        interpolant of the samples ``(xi, theta, dtheta)``, good to a few
        1e-12 where linear interpolation between them was good to 1e-7."""
        x = np.asarray(xi, float)
        k = np.clip(np.searchsorted(self.xi, x) - 1, 0, len(self.xi) - 2)
        h = self.xi[k + 1] - self.xi[k]
        t = (x - self.xi[k]) / h
        s = 1.0 - t
        # Hermite basis in Bernstein form: theta at both ends, slopes
        # scaled by the interval
        out = s * s * ((1.0 + 2.0 * t) * self.theta[k]
                       + t * h * self.dtheta[k]) \
            + t * t * ((3.0 - 2.0 * t) * self.theta[k + 1]
                       - s * h * self.dtheta[k + 1])
        return np.where(x <= self.xi[-1], np.clip(out, 0.0, None), 0.0)


#: integrator of :func:`solve_lane_emden` and its tolerances, chosen by
#: measurement: over n = 0 .. 4 the 8th-order Dormand-Prince pair puts
#: ``xi1`` and ``-xi1^2 theta'(xi1)`` within 2.1e-11 of the analytic
#: values (n = 0, 1) and of the same integrator at ``rtol`` 1e-14,
#: ``atol`` 1e-18 (the rest), in 854 RHS evaluations for n = 1.5 (at
#: most 1 385)
_METHOD, _RTOL, _ATOL = "DOP853", 1e-13, 1e-12


def solve_lane_emden(n: float = 1.5, xi_max: float = 20.0
                     ) -> LaneEmdenSolution:
    """Integrate the Lane-Emden equation to the surface theta = 0.

    Adaptive steps of :data:`_METHOD` at :data:`_RTOL` / :data:`_ATOL`,
    as many as the tolerance needs and no step cap: the profile is read
    through the integrator's own dense output (2 000 samples up to
    ``xi1``, and ``theta'`` at ``xi1``), so a long step costs it no
    resolution.
    """
    if not (np.isfinite(n) and n >= 0):
        raise ValueError(
            f"n must be a finite non-negative polytropic index, got {n!r}")
    # imported here, not with the package: scipy.integrate costs every
    # process that imports repro.core ~23 MB of resident memory, and
    # only a star built from a Lane-Emden profile needs it
    from scipy.integrate import solve_ivp

    def rhs(xi, y):
        theta, dtheta = y
        th = max(theta, 0.0)
        return [dtheta, -th ** n - 2.0 * dtheta / xi]

    def surface(xi, y):
        return y[0]
    surface.terminal = True
    surface.direction = -1

    # series start away from the singular origin
    eps = 1e-6
    y0 = [1.0 - eps ** 2 / 6.0, -eps / 3.0]
    sol = solve_ivp(rhs, (eps, xi_max), y0, method=_METHOD, events=surface,
                    rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not sol.t_events[0].size:
        raise RuntimeError(f"no Lane-Emden surface found below xi={xi_max}")
    xi1 = float(sol.t_events[0][0])
    xi = np.linspace(eps, xi1, 2000)
    y = sol.sol(xi)
    dth1 = float(sol.sol(xi1)[1])
    return LaneEmdenSolution(n=n, xi=xi, theta=np.clip(y[0], 0.0, None),
                             dtheta=y[1], xi1=xi1, dtheta_xi1=dth1)


@dataclass(frozen=True)
class Polytrope:
    """A physical polytropic star: radius R, mass M, index n (G = 1)."""

    n: float
    radius: float
    mass: float

    def profile(self, r: np.ndarray,
                le: LaneEmdenSolution | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """(rho, p) at radii ``r``.

        Central density and K follow from (M, R, n) via the Lane-Emden
        scalings: M = -4 pi a^3 rho_c xi1^2 theta'(xi1), R = a xi1.
        """
        le = le or solve_lane_emden(self.n)
        a = self.radius / le.xi1
        rho_c = self.mass / (-4.0 * np.pi * a ** 3 * le.xi1 ** 2
                             * le.dtheta_xi1)
        # 4 pi G a^2 = (n+1) K rho_c^(1/n - 1)  =>  K
        K = 4.0 * np.pi * a ** 2 * rho_c ** (1.0 - 1.0 / self.n) \
            / (self.n + 1.0)
        theta = le.theta_at(np.asarray(r, float) / a)
        rho = rho_c * theta ** self.n
        p = K * rho ** (1.0 + 1.0 / self.n)
        return rho, p
