"""Direct-summation reference solver and Morton utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gravity.fmm import FmmSolver
from repro.util import morton_encode, morton_key, spread_bits
from repro.validation.reference import (direct_field, direct_potential,
                                        direct_summation)


class TestDirectField:
    def test_two_body_newton(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        mass = np.array([1.0, 3.0])
        phi, acc = direct_field(pos, mass)
        assert phi[0] == pytest.approx(-1.5)     # -3/2
        assert phi[1] == pytest.approx(-0.5)     # -1/2
        assert acc[0, 0] == pytest.approx(0.75)  # toward +x
        assert acc[1, 0] == pytest.approx(-0.25)

    def test_momentum_conservation(self, rng):
        pos = rng.normal(size=(40, 3))
        mass = rng.uniform(0.5, 2.0, 40)
        _phi, acc = direct_field(pos, mass)
        resid = (mass[:, None] * acc).sum(0)
        assert np.abs(resid).max() < 1e-12 * np.abs(
            mass[:, None] * acc).sum()

    def test_self_interaction_excluded(self):
        pos = np.array([[1.0, 1.0, 1.0]])
        phi, acc = direct_field(pos, np.array([5.0]))
        assert phi[0] == 0.0 and np.all(acc[0] == 0.0)

    def test_external_targets(self):
        pos = np.array([[0.0, 0.0, 0.0]])
        mass = np.array([2.0])
        tg = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        phi, acc = direct_field(pos, mass, targets=tg)
        assert phi[0] == pytest.approx(-2.0 / 3.0)
        assert phi[1] == pytest.approx(-0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            direct_field(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            direct_field(np.zeros((3, 3)), np.zeros(2))

    def test_direct_potential_wrapper(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        phi = direct_potential(pos, np.array([1.0, 1.0]))
        np.testing.assert_allclose(phi, [-1.0, -1.0])

    def test_fmm_converges_to_direct_on_grid(self, rng):
        """Whole-grid comparison (complements the sampled FMM tests)."""
        M = 8
        rho = rng.uniform(0.1, 1.0, (M, M, M))
        dx = 1.0 / M
        phi_d, acc_d = direct_summation(rho, dx)
        solver = FmmSolver.from_uniform(rho, dx)
        phi_f, acc_f = solver.uniform_field(solver.solve())
        err = np.linalg.norm(acc_f - acc_d, axis=-1) \
            / np.maximum(np.linalg.norm(acc_d, axis=-1), 1e-30)
        assert np.median(err) < 0.02
        assert err.max() < 0.2   # near-field cells see larger rel. error


class TestMortonUtil:
    def test_spread_bits_small_values(self):
        assert int(spread_bits(np.array([0b11]))[0]) == 0b1001

    def test_morton_key_matches_encode(self, rng):
        c = rng.integers(0, 1024, size=(20, 3)).astype(np.int64)
        np.testing.assert_array_equal(
            morton_key(c), morton_encode(c[:, 0], c[:, 1], c[:, 2]))

    @given(st.integers(0, 2 ** 20 - 1), st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_along_axes(self, a, b):
        """Along one axis with others fixed, keys are strictly ordered."""
        if a == b:
            return
        lo, hi = sorted((a, b))
        k_lo = morton_encode(np.array([lo]), np.array([0]), np.array([0]))
        k_hi = morton_encode(np.array([hi]), np.array([0]), np.array([0]))
        assert k_lo[0] < k_hi[0]

    def test_parent_prefix_property(self, rng):
        """morton(c >> 1) == morton(c) >> 3 — the octree-key relation the
        FMM's parent lookup relies on."""
        c = rng.integers(0, 2 ** 15, size=(50, 3)).astype(np.int64)
        parents = morton_key(c >> 1)
        np.testing.assert_array_equal(
            parents, morton_key(c) >> np.uint64(3))
