"""FMM stencils (the 1074-element set, the exact partition) and kernels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gravity.kernels import m2l_pair, p2p_pair
from repro.core.gravity.stencil import (m2l_sweep_tiles, p2p_stencil,
                                        well_separated)
from repro.simulator.flops import INTERACTIONS_PER_LAUNCH, STENCIL_SIZE
from repro.validation.reference import LEVI_CIVITA, greens


def paper_stencil():
    """The paper's same-level stencil by brute force: the offsets of an
    11^3 box outside the opening radius."""
    r = 5
    pts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
    return pts[well_separated(pts)]


class TestCanonicalStencil:
    def test_has_exactly_1074_elements(self):
        """Sec. 4.3: 'each cell interacts with 1074 of its close
        neighbors'."""
        assert len(paper_stencil()) == STENCIL_SIZE == 1074

    def test_interactions_per_launch(self):
        assert 512 * len(paper_stencil()) == INTERACTIONS_PER_LAUNCH \
            == 549_888

    def test_bounded_by_11_cubed_box(self):
        s = paper_stencil()
        assert np.abs(s).max() == 5

    def test_all_elements_well_separated(self):
        assert well_separated(paper_stencil()).all()

    def test_symmetric_under_negation(self):
        s = {tuple(w) for w in paper_stencil()}
        assert all((-a, -b, -c) in s for (a, b, c) in s)


class TestExactPartition:
    """Every cell pair must be handled exactly once: by the same-level
    M2L pass at the coarsest well-separated level, or by leaf P2P."""

    @given(st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                     st.integers(-12, 12)),
           st.tuples(st.integers(0, 1), st.integers(0, 1),
                     st.integers(0, 1)))
    @settings(max_examples=300, deadline=None)
    def test_pair_handled_exactly_once_across_two_levels(self, w, parity):
        w_arr = np.array([w])
        if not w_arr.any():
            return
        parent = np.floor_divide(w_arr + np.array(parity), 2)
        handled_by_parent_or_higher = bool(well_separated(parent)[0])
        is_p2p = not well_separated(w_arr)[0]
        is_m2l_here = bool(well_separated(w_arr)[0]) \
            and not handled_by_parent_or_higher
        # exactly one of: handled coarser, handled here, P2P at leaf
        assert int(handled_by_parent_or_higher) + int(is_m2l_here) \
            + int(is_p2p) == 1
        if handled_by_parent_or_higher:
            return
        # and the dense M2L sweep's static mask is exactly the "handled
        # here" set: parent offset W, target child = the parity, partner
        # child = (parity + w) mod 2 (seen from the lex-positive side)
        W, i, j = parent[0], np.array(parity), (np.array(parity) + w) % 2
        if tuple(W) < (0, 0, 0):
            W, i, j = -W, j, i
        child = np.array(list(itertools.product((0, 1), repeat=3)))
        tiles, _ = m2l_sweep_tiles([W], child,
                                   np.ones((5, 5, 5, 8), dtype=bool), 0, 5,
                                   1 << 10)
        masked = not tiles or tiles[0][2][
            (child == i).all(1).argmax(), (child == j).all(1).argmax()] > 0
        assert (not masked) == is_m2l_here

    def test_p2p_stencil_is_near_region(self):
        s = p2p_stencil()
        assert (~well_separated(s)).all()
        assert ((s * s).sum(axis=1) > 0).all()


class TestGreens:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            greens(np.zeros((1, 3)))

    def test_g2_traceless(self, rng):
        dR = rng.normal(size=(20, 3)) * 5
        _g0, _g1, g2, _g3 = greens(dR)
        np.testing.assert_allclose(np.trace(g2, axis1=1, axis2=2), 0.0,
                                   atol=1e-14)

    def test_g3_traceless(self, rng):
        dR = rng.normal(size=(20, 3)) * 5
        _g0, _g1, _g2, g3 = greens(dR)
        np.testing.assert_allclose(np.einsum("nijj->ni", g3), 0.0,
                                   atol=1e-13)

    def test_g1_is_gradient_of_g0(self):
        x = np.array([[1.0, 2.0, -0.5]])
        eps = 1e-6
        g0, g1, _g2, _g3 = greens(x)
        for d in range(3):
            xp = x.copy()
            xp[0, d] += eps
            xm = x.copy()
            xm[0, d] -= eps
            num = (greens(xp)[0][0] - greens(xm)[0][0]) / (2 * eps)
            assert g1[0, d] == pytest.approx(num, rel=1e-6)


class TestPairKernels:
    def test_p2p_matches_newton(self):
        dR = np.array([[3.0, 0.0, 0.0]])
        m = np.array([2.0])
        phiA, phiB, accA, accB = p2p_pair(dR, m, np.array([5.0]))
        assert phiA[0] == pytest.approx(-5.0 / 3.0)
        assert accA[0, 0] == pytest.approx(-5.0 / 9.0)
        assert phiB[0] == pytest.approx(-2.0 / 3.0)

    def test_p2p_pair_momentum_exact(self, rng):
        dR = rng.normal(size=(50, 3)) * 4
        mA = rng.uniform(0.5, 2.0, 50)
        mB = rng.uniform(0.5, 2.0, 50)
        _pa, _pb, aA, aB = p2p_pair(dR, mA, mB)
        resid = mA[:, None] * aA + mB[:, None] * aB
        assert np.abs(resid).max() < 1e-15

    def test_m2l_reduces_to_p2p_for_zero_quadrupoles(self, rng):
        dR = rng.normal(size=(20, 3)) * 6
        mA = rng.uniform(1, 3, 20)
        mB = rng.uniform(1, 3, 20)
        Z = np.zeros((20, 3, 3))
        pa, pb, aA, aB, HA, HB = m2l_pair(dR, mA, mB, Z, Z)
        pa2, pb2, aA2, aB2 = p2p_pair(dR, mA, mB)
        np.testing.assert_allclose(pa, pa2, rtol=1e-13)
        np.testing.assert_allclose(aA, aA2, rtol=1e-13)

    def test_noether_identity_machine_precision(self, rng):
        """R x F + tau_A + tau_B = 0 — the angular-momentum-conserving
        FMM property (Marcello 2017 / Sec. 4.2)."""
        n = 200
        dR = rng.normal(size=(n, 3)) * 8
        mA = rng.uniform(0.5, 4.0, n)
        mB = rng.uniform(0.5, 4.0, n)

        def sym(a):
            return 0.5 * (a + a.transpose(0, 2, 1))

        M2A = sym(rng.normal(size=(n, 3, 3)))
        M2B = sym(rng.normal(size=(n, 3, 3)))
        _pa, _pb, aA, _aB, _HA, _HB = m2l_pair(dR, mA, mB, M2A, M2B)
        F = mA[:, None] * aA
        # analytic spin torques tau_A_l = mB eps_jlm M2A_mk g2_jk
        _g0, _g1, g2, _g3 = greens(dR)
        tauA = mB[:, None] * np.einsum("jlm,nmk,njk->nl", LEVI_CIVITA, M2A, g2)
        tauB = mA[:, None] * np.einsum("jlm,nmk,njk->nl", LEVI_CIVITA, M2B, g2)
        resid = np.cross(dR, F) + tauA + tauB
        scale = np.abs(np.cross(dR, F)).max()
        assert np.abs(resid).max() / scale < 1e-13

    def test_quadrupole_improves_accuracy(self, rng):
        """The 455-flop multipole kernel beats the 12-flop monopole one
        against a resolved point-mass cluster."""
        pts = rng.normal(size=(8, 3)) * 0.3
        ms = rng.uniform(0.5, 1.5, 8)
        com = (ms[:, None] * pts).sum(0) / ms.sum()
        d = pts - com
        M2 = np.einsum("n,ni,nj->ij", ms, d, d)
        target = np.array([8.0, 1.0, -3.0])
        r = np.linalg.norm(target - pts, axis=1)
        phi_exact = -(ms / r).sum()
        dR = (target - com)[None]
        one = np.array([1.0])
        Z = np.zeros((1, 3, 3))
        phi_q = m2l_pair(dR, one, np.array([ms.sum()]), Z, M2[None])[0][0]
        phi_m = m2l_pair(dR, one, np.array([ms.sum()]), Z, Z)[0][0]
        assert abs(phi_q - phi_exact) < 0.2 * abs(phi_m - phi_exact)
