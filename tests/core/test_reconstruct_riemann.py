"""PPM reconstruction and the KT flux."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NF, NGHOST, RHO, SX, EGAS, IdealGas
from repro.core.hydro import reconstruct
from repro.core.hydro.riemann import (KT_SCRATCH, conserved_to_primitive,
                                      kt_flux)
from repro.core.workspace import Workspace
from repro.validation.reference import (max_signal_speed, physical_flux,
                                        primitive_to_conserved)


def ppm_faces(q: np.ndarray, ng: int, axis: int):
    """The PPM kernel on one unbatched array: ``q`` as a batch of one
    field, with fresh parabola ends and workspace."""
    shape = [1, *q.shape]
    shape[axis + 1] -= 2 * ng - 2
    qL, qR = reconstruct.ppm_faces(q[None], ng, axis + 1, ws=Workspace(),
                                   out=(np.empty(shape), np.empty(shape)))
    return qL[0], qR[0]


def _block_1d(values: np.ndarray) -> np.ndarray:
    """Embed a 1-D profile (with ghosts) into a (n+2g, 1+2g, 1+2g) block."""
    g = NGHOST
    n = len(values) - 2 * g
    out = np.empty((len(values), 1 + 2 * g, 1 + 2 * g))
    out[...] = values[:, None, None]
    return out


class TestReconstruction:
    @pytest.mark.parametrize("method", [ppm_faces])
    def test_constant_field_reconstructs_exactly(self, method):
        q = _block_1d(np.full(16 + 2 * NGHOST, 3.14))
        qL, qR = method(q, NGHOST, axis=0)
        assert np.allclose(qL, 3.14) and np.allclose(qR, 3.14)

    @pytest.mark.parametrize("method", [ppm_faces])
    def test_linear_profile_faces_exact(self, method):
        g = NGHOST
        x = np.arange(16 + 2 * g, dtype=float)
        q = _block_1d(2.0 * x + 1.0)
        qL, qR = method(q, g, axis=0)
        faces = 2.0 * (np.arange(17) + g - 0.5) + 1.0
        np.testing.assert_allclose(qL[:, g, g], faces, rtol=1e-12)
        np.testing.assert_allclose(qR[:, g, g], faces, rtol=1e-12)

    def test_ppm_higher_order_on_smooth_data(self):
        g = NGHOST

        def mean_face_error(n):
            x = (np.arange(n + 2 * g) - g + 0.5) / n
            q = _block_1d(np.sin(2 * np.pi * x))
            qL, _ = ppm_faces(q, g, axis=0)
            # mean error: PPM's monotonizer clips smooth extrema, so stay
            # away from the max-norm (the standard PPM caveat)
            return np.abs(qL[:, g, g]
                          - np.sin(2 * np.pi * np.arange(n + 1) / n)).mean()

        # doubling the resolution beats a second-order scheme's 4x
        # (measured: 5.7x)
        assert mean_face_error(16) / mean_face_error(32) > 4.0

    @pytest.mark.parametrize("method", [ppm_faces])
    def test_no_new_extrema(self, method):
        rng = np.random.default_rng(3)
        q = _block_1d(rng.uniform(0.1, 1.0, 24 + 2 * NGHOST))
        qL, qR = method(q, NGHOST, axis=0)
        assert qL.min() >= q.min() - 1e-12
        assert qL.max() <= q.max() + 1e-12
        assert qR.min() >= q.min() - 1e-12
        assert qR.max() <= q.max() + 1e-12

    def test_ppm_requires_three_ghosts(self):
        q = np.zeros((10, 10, 10))
        with pytest.raises(ValueError):
            ppm_faces(q, 2, axis=0)

    @given(st.integers(0, 2))
    @settings(max_examples=3, deadline=None)
    def test_axes_equivalent_under_transpose(self, axis):
        rng = np.random.default_rng(7)
        m = 8 + 2 * NGHOST
        q = rng.uniform(0.5, 1.5, (m, m, m))
        qL0, _ = ppm_faces(q, NGHOST, axis=0)
        qT = np.moveaxis(q, 0, axis)
        qLa, _ = ppm_faces(qT, NGHOST, axis=axis)
        np.testing.assert_allclose(np.moveaxis(qLa, axis, 0), qL0)


class TestPrimitiveConversion:
    def _random_state(self, rng, n=50):
        W = np.zeros((NF, n))
        W[RHO] = rng.uniform(0.1, 10.0, n)
        for d in range(3):
            W[SX + d] = rng.uniform(-2, 2, n)
        W[EGAS] = rng.uniform(0.01, 5.0, n)     # pressure slot
        for f in range(5, NF):
            W[f] = rng.uniform(0, 1, n)
        return W

    def test_roundtrip(self, rng):
        eos = IdealGas()
        W = self._random_state(rng)
        back = conserved_to_primitive(primitive_to_conserved(W, eos), eos)
        np.testing.assert_allclose(back, W, rtol=1e-10, atol=1e-12)

    def test_pressure_positive(self, rng):
        eos = IdealGas()
        W = self._random_state(rng)
        U = primitive_to_conserved(W, eos)
        W2 = conserved_to_primitive(U, eos)
        assert (W2[EGAS] >= 0).all()


class TestKtFlux:
    def test_consistency_with_physical_flux(self, rng):
        """F(q, q) must equal the exact Euler flux (KT consistency)."""
        eos = IdealGas(gamma=1.4)
        W = np.zeros((NF, 10))
        W[RHO] = rng.uniform(0.5, 2.0, 10)
        W[SX] = rng.uniform(-1, 1, 10)
        W[EGAS] = rng.uniform(0.1, 2.0, 10)
        F = kt_flux(W, W, eos, 0, out=np.empty_like(W),
                    scratch=np.empty((KT_SCRATCH,) + W.shape[1:]))
        np.testing.assert_allclose(F, physical_flux(W, eos, axis=0),
                                   rtol=1e-13)

    def test_mass_flux_is_rho_u(self):
        eos = IdealGas()
        W = np.zeros((NF, 1))
        W[RHO], W[SX], W[EGAS] = 2.0, 3.0, 1.0
        F = physical_flux(W, eos, axis=0)
        assert F[RHO, 0] == pytest.approx(6.0)

    def test_momentum_flux_includes_pressure(self):
        eos = IdealGas()
        W = np.zeros((NF, 1))
        W[RHO], W[EGAS] = 1.0, 2.5
        F = physical_flux(W, eos, axis=0)
        assert F[SX, 0] == pytest.approx(2.5)   # static gas: pure pressure

    def test_signal_speed(self):
        eos = IdealGas(gamma=1.4)
        W = np.zeros((NF, 1))
        W[RHO], W[SX], W[EGAS] = 1.0, 2.0, 1.0
        a = max_signal_speed(W, eos, axis=0)
        assert a[0] == pytest.approx(2.0 + np.sqrt(1.4))

    def test_dissipation_vanishes_for_equal_states(self, rng):
        eos = IdealGas()
        W = np.zeros((NF, 5))
        W[RHO] = 1.0
        W[EGAS] = 1.0
        WL = W.copy()
        WR = W.copy()
        WR[RHO] += 0.5
        scratch = np.empty((KT_SCRATCH,) + W.shape[1:])
        F_eq = kt_flux(WL, WL, eos, 0, out=np.empty_like(W), scratch=scratch)
        F_ne = kt_flux(WL, WR, eos, 0, out=np.empty_like(W), scratch=scratch)
        # unequal states produce a dissipative difference in mass flux
        assert not np.allclose(F_eq[RHO], F_ne[RHO])
