"""Lane-Emden / SCF initial models and scenario builders."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (EGAS, PASSIVE0, RHO, SX, IdealGas, Polytrope,
                        scf_binary, scf_single_star, sedov_blast, sod_tube,
                        solve_lane_emden)


#: ``(xi1, -xi1^2 theta'(xi1))`` of the polytropes without a closed form,
#: from a 25-digit Taylor-series integration (mpmath ``odefun``, series
#: start at xi = 1e-4); scipy's DOP853 at rtol 1e-14 / atol 1e-18 agrees
#: to 1e-13
LANE_EMDEN_REFERENCE = {1.5: (3.65375373621912, 2.71405512010865),
                        3.0: (6.89684861937696, 2.01823595096623)}

#: relative accuracy asserted for the surface and the mass integral:
#: the solver measures within 1.2e-11 of every value here
LE_REL = 1e-10

#: absolute accuracy asserted for ``theta_at`` between the samples: the
#: cubic Hermite interpolant measures 2.8e-12 (n = 1.5) to 7.0e-12 (n = 3)
THETA_AT_ABS = 1e-11


def _surface_and_mass(n):
    le = solve_lane_emden(n)
    return le.xi1, -le.xi1 ** 2 * le.dtheta_xi1


class TestLaneEmden:
    def test_n0_analytic(self):
        """n = 0: theta = 1 - xi^2/6, surface at sqrt(6), theta'(xi1) =
        -xi1/3."""
        xi1, mass = _surface_and_mass(0.0)
        assert xi1 == pytest.approx(np.sqrt(6.0), rel=LE_REL)
        assert mass == pytest.approx(2.0 * np.sqrt(6.0), rel=LE_REL)

    def test_n1_analytic(self):
        """n = 1: theta = sin(xi)/xi, surface at pi, theta'(xi1) =
        -1/pi."""
        xi1, mass = _surface_and_mass(1.0)
        assert xi1 == pytest.approx(np.pi, rel=LE_REL)
        assert mass == pytest.approx(np.pi, rel=LE_REL)

    def test_n15_literature_values(self):
        xi1, mass = _surface_and_mass(1.5)
        assert (xi1, mass) == pytest.approx(LANE_EMDEN_REFERENCE[1.5],
                                            rel=LE_REL)

    def test_n3_reference_values(self):
        xi1, mass = _surface_and_mass(3.0)
        assert (xi1, mass) == pytest.approx(LANE_EMDEN_REFERENCE[3.0],
                                            rel=LE_REL)

    def test_theta_monotone_decreasing(self):
        le = solve_lane_emden(1.5)
        assert (np.diff(le.theta) <= 1e-12).all()

    @pytest.mark.parametrize("n", [1.0, 1.5, 3.0])
    def test_theta_at_matches_a_tight_integration(self, n):
        """``theta_at`` against DOP853 at ``rtol`` 3e-14 (scipy clamps
        anything tighter to 2.22e-14) from the same series start, on 20 001
        radii up to the surface: within ``THETA_AT_ABS`` everywhere,
        the last 0.01 in xi included (linear interpolation between the
        samples was off by 1.4e-7, and by 4.7e-8 over that last 0.01)."""
        from scipy.integrate import solve_ivp
        le = solve_lane_emden(n)

        def rhs(xi, y):
            return [y[1], -max(y[0], 0.0) ** n - 2.0 * y[1] / xi]
        eps = le.xi[0]
        ref = solve_ivp(rhs, (eps, le.xi1), [1.0 - eps ** 2 / 6.0, -eps / 3.0],
                        method="DOP853", rtol=3e-14, atol=1e-20,
                        dense_output=True)
        xi = np.linspace(eps, le.xi1, 20_001)
        err = np.abs(le.theta_at(xi) - ref.sol(xi)[0])
        assert err.max() <= THETA_AT_ABS
        assert err[xi > le.xi1 - 0.01].max() <= THETA_AT_ABS

    def test_theta_at_clamps_outside_surface(self):
        le = solve_lane_emden(1.5)
        assert le.theta_at(np.array([le.xi1 * 2])) == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            solve_lane_emden(-1.0)


class TestPolytrope:
    def test_mass_integral_matches(self):
        """Integrating the density profile recovers the requested mass."""
        star = Polytrope(n=1.5, radius=1.0, mass=2.0)
        r = np.linspace(1e-4, 1.0, 4000)
        rho, _p = star.profile(r)
        m = np.trapezoid(4 * np.pi * r ** 2 * rho, r)
        assert m == pytest.approx(2.0, rel=1e-3)

    def test_density_zero_outside(self):
        star = Polytrope(n=1.5, radius=1.0, mass=1.0)
        rho, p = star.profile(np.array([1.5]))
        assert rho[0] == 0.0 and p[0] == 0.0

    def test_central_density_scaling(self):
        centre = np.array([0.0])
        a = Polytrope(n=1.5, radius=1.0, mass=1.0).profile(centre)[0][0]
        b = Polytrope(n=1.5, radius=1.0, mass=2.0).profile(centre)[0][0]
        assert b == pytest.approx(2 * a, rel=1e-10)


#: L1 relative error of the non-rotating SCF star against Lane-Emden
#: (n = 1.5, scaled to the model's central density and to the radius
#: 1 + dx/2 of the edge cell's centre): 0.267 at M = 16 and 0.0743 at
#: M = 32, an order of 1.85
LANE_EMDEN_ORDER = (1.7, 2.0)
LANE_EMDEN_L1_32 = 0.08


def _radii(res):
    """Distance of each cell centre of an SCF model from the origin."""
    x = res.origin[0] + (np.arange(res.rho.shape[0]) + 0.5) * res.dx
    return np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2
                   + x[None, None, :] ** 2)


class TestScfSingle:
    def test_converges_and_matches_lane_emden(self):
        """The non-rotating model converges to the Lane-Emden profile at
        the measured order from M = 16 to 32."""
        errors = []
        for M in (16, 32):
            res = scf_single_star(M=M, domain=4.0, tol=1e-6)
            assert res.residuals[-1] < 1e-6
            assert res.omega == 0.0
            assert res.rho.max() == pytest.approx(1.0, rel=0.05)
            star = Polytrope(n=1.5, radius=1.0 + res.dx / 2, mass=1.0)
            shape = star.profile(_radii(res))[0] / star.profile([0.0])[0]
            ref = res.rho.max() * shape
            errors.append(np.abs(res.rho - ref).sum() / ref.sum())
        order = np.log2(errors[0] / errors[1])
        assert LANE_EMDEN_ORDER[0] < order < LANE_EMDEN_ORDER[1], errors
        assert errors[1] < LANE_EMDEN_L1_32

    def test_rotating_model_flattens(self):
        """A spun-up star converges, holds no density outside its lobe of
        1.25 equatorial radii or on a box face, and is oblate."""
        for axis_ratio in (0.85, 0.7):
            res = scf_single_star(M=16, domain=4.0, axis_ratio=axis_ratio,
                                  max_iter=30, tol=1e-4)
            assert res.residuals[-1] < 1e-4
            assert res.omega > 0.0
            assert not res.rho[_radii(res) > 1.25].any()
            for axis in range(3):
                assert not res.rho.take([0, -1], axis=axis).any()
            eq_extent = (res.rho[:, 8, 8] > 0).sum()
            ax_extent = (res.rho[8, 8, :] > 0).sum()
            assert eq_extent > ax_extent

    def test_bad_axis_ratio_rejected(self):
        with pytest.raises(ValueError):
            scf_single_star(axis_ratio=1.5)


@pytest.mark.parametrize("scf", [scf_single_star, scf_binary])
@pytest.mark.parametrize("name, bad", [
    ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5), ("max_iter", True),
    ("domain", float("nan")), ("domain", float("inf")), ("domain", 0.0),
    ("tol", float("nan")), ("tol", -1e-6), ("tol", 0.0),
    ("M", 0), ("M", -8), ("M", 8.0), ("M", True), ("M", 4), ("M", 12)])
def test_scf_rejects_bad_iteration_arguments(scf, name, bad):
    """A grid edge ``M`` that is not ``SUBGRID_N * 2^L`` cells, a
    ``max_iter`` that is not a positive integer, a ``domain`` or ``tol``
    that is not finite and positive: a ``ValueError`` naming the argument
    before any array is made, not a zero division, an unbound name or a
    NaN-sized grid."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        scf(**{"M": 8, name: bad})


@pytest.mark.parametrize("name, bad, match", [
    ("mass_ratio", 0.0, None), ("mass_ratio", -0.5, None),
    ("mass_ratio", 1.5, None), ("mass_ratio", float("nan"), None),
    ("separation", 0.0, None), ("separation", -3.0, None),
    ("separation", float("inf"), None), ("separation", float("nan"), None),
    # the primary's edges x1 +- 1 square to one float: no Omega^2
    ("mass_ratio", 1e-20, "^the spin pair .* fixes no Omega"),
    ("separation", 1e-20, "^the spin pair .* fixes no Omega")])
def test_scf_binary_rejects_a_bad_binary(name, bad, match):
    """A mass ratio outside (0, 1] or a separation that is not finite and
    positive, or a binary so tight that its spin pair fixes no Omega^2:
    a ``ValueError`` naming it, before any solve."""
    with pytest.raises(ValueError, match=match or f"^{name} must be"):
        scf_binary(M=8, **{name: bad})


class TestScenarios:
    def test_sod_tube_initial_state(self):
        mesh = sod_tube(n=(32, 8, 8))
        I = mesh.interior
        assert I[RHO][0, 0, 0] == pytest.approx(1.0)
        assert I[RHO][-1, 0, 0] == pytest.approx(0.125)
        # passive scalars tag the chambers
        assert I[PASSIVE0][0, 0, 0] > 0 and I[PASSIVE0][-1, 0, 0] == 0.0

    def test_sedov_energy_deposited(self):
        E = 0.7
        mesh = sedov_blast(n=16, E=E)
        total = mesh.conserved_totals()["egas"]
        ambient = 1e-6 / (IdealGas(gamma=1.4).gamma - 1.0)
        assert total == pytest.approx(E + ambient, rel=1e-6)

    def test_sedov_requires_resolvable_radius(self):
        with pytest.raises(ValueError):
            sedov_blast(n=16, r_init=1e-9)

    def test_sedov_is_centred(self):
        mesh = sedov_blast(n=16)
        I = mesh.interior
        peak = np.unravel_index(np.argmax(I[EGAS]), I[EGAS].shape)
        centre = ((np.array(peak) + 0.5) * mesh.dx)
        assert np.abs(centre - 0.5).max() <= 2.0 * mesh.dx


#: steps a Sedov blast, then a self-gravitating mesh, then builds a star,
#: reporting after each whether scipy.integrate and scipy.linalg are
#: loaded
IMPORT_PROBE = """
import sys
import repro.core
from repro.core import BlockMesh
from repro.core.scenario import equilibrium_star, sedov_blast
def loaded():
    print("scipy.integrate" in sys.modules, "scipy.linalg" in sys.modules)
sedov_blast(8).step()
loaded()
mesh = BlockMesh(2, self_gravity=True)
mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
mesh.step()
loaded()
equilibrium_star(8)
loaded()
"""


def test_scipy_integrate_loads_only_when_a_star_is_built():
    """``import repro.core`` and a Sedov step leave scipy.integrate (~23
    MB of resident memory) and scipy.linalg (scipy's own OpenBLAS, ~28
    MB) unloaded; a self-gravity step loads scipy.linalg, and solving a
    Lane-Emden profile loads scipy.integrate."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True",
                                   "True", "True"]
