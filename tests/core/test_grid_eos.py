"""SubGrid state container and the dual-energy EOS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (EGAS, LX, NF, NGHOST, RHO, SUBGRID_N, SX, SY, SZ,
                        TAU, IdealGas, SubGrid)
from repro.core.mesh import _conserved_totals


def _angular_momentum(g):
    """Orbital plus spin angular momentum of a sub-grid's interior, as the
    conservation monitor books it."""
    return _conserved_totals(g.interior, g.dx, g.origin, None)[
        "angular_momentum"]


class TestSubGrid:
    def test_default_is_paper_geometry(self):
        g = SubGrid()
        assert g.n == SUBGRID_N == 8
        assert g.U.shape == (NF, 8 + 2 * NGHOST, 8 + 2 * NGHOST,
                             8 + 2 * NGHOST)

    def test_interior_view_is_writable_window(self):
        g = SubGrid()
        g.interior[RHO] = 2.0
        assert g.U[RHO, NGHOST, NGHOST, NGHOST] == 2.0
        assert g.U[RHO, 0, 0, 0] == 0.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            SubGrid(n=0)

    def test_cell_centers_inside_bounds(self):
        g = SubGrid(origin=(1.0, 2.0, 3.0), dx=0.5, n=4)
        x, y, z = g.cell_centers()
        assert x.min() == pytest.approx(1.25)
        assert z.max() == pytest.approx(3.0 + 3.5 * 0.5)

    def test_total_mass(self):
        g = SubGrid(dx=0.5, n=4)
        g.interior[RHO] = 2.0
        assert g.total_mass() == pytest.approx(2.0 * (4 * 0.5) ** 3)

    def test_total_momentum(self):
        g = SubGrid(dx=1.0, n=2)
        g.interior[SX] = 1.0
        g.interior[SY] = -2.0
        np.testing.assert_allclose(g.total_momentum(), [8.0, -16.0, 0.0])

    def test_angular_momentum_includes_spin(self):
        g = SubGrid(dx=1.0, n=2)
        g.interior[LX + 2] = 3.0
        L = _angular_momentum(g)
        assert L[2] == pytest.approx(3.0 * 8.0)

    def test_angular_momentum_of_rotation(self):
        g = SubGrid(origin=(-2.0, -2.0, -2.0), dx=1.0, n=4)
        x, y, _z = g.cell_centers()
        g.interior[RHO] = 1.0
        g.interior[SX] = -y + 0.0 * x
        g.interior[SY] = x + 0.0 * y
        L = _angular_momentum(g)
        expected = float((x * x + y * y + 0.0 * _z).sum())
        assert L[2] == pytest.approx(expected)
        assert abs(L[0]) < 1e-12 and abs(L[1]) < 1e-12

    def test_copy_is_deep(self):
        g = SubGrid()
        g.interior[RHO] = 1.0
        h = g.copy()
        h.interior[RHO] = 5.0
        assert g.interior[RHO].max() == 1.0


class TestIdealGas:
    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            IdealGas(gamma=1.0)

    def test_pressure_relation(self):
        eos = IdealGas(gamma=5 / 3)
        assert eos.pressure(np.array(1.0), np.array(3.0)) \
            == pytest.approx(2.0)

    def test_sound_speed(self):
        eos = IdealGas(gamma=1.4)
        cs = eos.sound_speed(np.array(1.0), np.array(1.0))
        assert cs == pytest.approx(np.sqrt(1.4))

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_tau_roundtrip(self, eint):
        eos = IdealGas()
        tau = eos.tau_from_eint(np.array(eint))
        back = eos.eint_from_tau(tau)
        assert back == pytest.approx(eint, rel=1e-12)

    def test_internal_energy_from_total_when_reliable(self):
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(0.1)
        egas = np.array(10.0)
        tau = eos.tau_from_eint(np.array(123.0))  # deliberately wrong
        eint = eos.internal_energy(rho, s, s * 0, s * 0, egas, tau)
        assert eint == pytest.approx(10.0 - 0.005)

    def test_internal_energy_from_tau_at_high_mach(self):
        """The dual-energy switch (Sec. 4.2): kinetic dwarfs internal."""
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(100.0)       # kinetic = 5000
        true_eint = 1e-4
        egas = 0.5 * s * s / rho + true_eint
        tau = eos.tau_from_eint(np.array(true_eint))
        eint = eos.internal_energy(rho, s, s * 0, s * 0,
                                   np.array(egas), tau)
        assert eint == pytest.approx(true_eint, rel=1e-10)

    def test_sync_tau_updates_in_trusted_regime(self):
        eos = IdealGas()
        rho, s = np.array(1.0), np.array(0.0)
        egas = np.array(2.0)
        stale = eos.tau_from_eint(np.array(1.0))
        new = eos.sync_tau(rho, s, s, s, egas, stale)
        assert new == pytest.approx(eos.tau_from_eint(np.array(2.0)))

    def test_sync_tau_keeps_value_at_high_mach(self):
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(100.0)
        egas = np.array(0.5 * 100.0 ** 2 + 1e-4)
        tau = eos.tau_from_eint(np.array(1e-4))
        assert eos.sync_tau(rho, s, s * 0, s * 0, egas, tau) \
            == pytest.approx(tau)

    @given(st.floats(1e-8, 1e3), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_internal_energy_nonnegative(self, rho, v):
        eos = IdealGas()
        rhoa = np.array(rho)
        s = np.array(rho * v)
        egas = np.array(max(0.4 * rho * v * v, 1e-30))
        tau = np.array(0.0)
        assert eos.internal_energy(rhoa, s, s * 0, s * 0, egas, tau) >= 0.0
