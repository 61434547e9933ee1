"""The SCF solves gravity on the tree of its support, bit for bit.

``scf_binary`` and ``scf_single_star`` solve the FMM only on the root
cells whose subtrees can hold mass or are read (``_support_gravity``).
The claim is exact: phi on the support cells is
:meth:`FmmSolver.from_uniform`'s to the bit, so every SCF output is the
full-grid iteration's.  The full-grid iteration is kept here as the
oracle: the same SCF with its gravity swapped for one full-grid solver,
as it was solved before the support tree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gravity import fmm
from repro.core.gravity.fmm import FmmSolver
from repro.core.scenario import V1309_MASS_RATIO
from repro.core.scf import scf as scf_module
from repro.core.scf.scf import (_support_gravity, scf_binary,
                                scf_single_star)


def _full_grid_phi(rho, dx):
    solver = FmmSolver.from_uniform(rho, dx)
    return solver.uniform_field(solver.solve())[0]


def _full_grid_gravity(support, dx):
    """The oracle's gravity: one full-grid solver, every cell solved."""
    box = []

    def solve(rho):
        if not box:
            box.append(FmmSolver.from_uniform(rho, dx))
        solver = box[0]
        solver.set_leaf_density({solver._uniform_shape[0]: rho})
        return solver.uniform_field(solver.solve())[0]
    return solve


def _mask(M, kind, seed):
    """A support on an ``M``^3 grid: ``kind`` is a random scatter, one or
    two balls, one cell, one cell on the grid's boundary or the whole
    grid."""
    rng = np.random.default_rng(seed)
    g = np.indices((M,) * 3)
    if kind == "scatter":
        mask = rng.random((M,) * 3) < rng.uniform(0.005, 0.2)
    elif kind in ("ball", "two balls"):
        mask = np.zeros((M,) * 3, dtype=bool)
        for _ in range(1 if kind == "ball" else 2):
            c = rng.integers(0, M, 3)[:, None, None, None]
            r = rng.integers(1, M // 2 + 1)
            mask |= ((g - c) ** 2).sum(axis=0) <= r * r
    elif kind == "full":
        mask = np.ones((M,) * 3, dtype=bool)
    else:
        mask = np.zeros((M,) * 3, dtype=bool)
        at = rng.integers(0, M, 3)
        if kind == "boundary cell":
            at[rng.integers(3)] = rng.choice([0, M - 1])
        mask[tuple(at)] = True
    mask.flat[rng.integers(M ** 3)] = True     # never empty
    return mask


@settings(max_examples=30, deadline=None)
@given(M=st.sampled_from([8, 16, 32]),
       kind=st.sampled_from(["scatter", "ball", "two balls", "cell",
                             "boundary cell", "full"]),
       seed=st.integers(0, 2 ** 32 - 1),
       zero_frac=st.sampled_from([0.0, 0.5]))
@example(M=16, kind="cell", seed=0, zero_frac=0.0)
@example(M=16, kind="boundary cell", seed=1, zero_frac=0.0)
@example(M=8, kind="full", seed=2, zero_frac=0.0)
@example(M=32, kind="boundary cell", seed=3, zero_frac=0.0)
def test_support_phi_is_the_full_grid_phi(M, kind, seed, zero_frac):
    """Random supports on 8^3, 16^3 and 32^3 grids with random
    non-negative densities inside them (exact zeros included): phi on
    every support cell equals the full grid's bit for bit."""
    support = _mask(M, kind, seed)
    rng = np.random.default_rng(seed + 1)
    rho = np.where(support & (rng.random(support.shape) >= zero_frac),
                   rng.uniform(0.0, 2.0, support.shape), 0.0)
    dx = 1.0 / M
    phi = _support_gravity(support, dx)(rho)
    np.testing.assert_array_equal(phi[support],
                                  _full_grid_phi(rho, dx)[support])


#: (M, iterations, domain_factor): the ledger's recipe, a longer run, a
#: tight domain, and the 8^3 grids, where one boundary point lies
#: outside the lobes at domain_factor 3.0
SCF_CONFIGS = [(16, 12, 8 / 3), (16, 40, 8 / 3), (16, 12, 1.9),
               (8, 12, 2.2), (8, 12, 3.0), (8, 12, 8 / 3)]
#: (M, axis_ratio) of the single stars: at rest and spun up
SINGLE_CONFIGS = [(8, 1.0), (8, 0.85), (16, 1.0), (16, 0.85)]


@pytest.mark.parametrize("scf, kwargs", [
    pytest.param(scf_binary, dict(M=M, domain=3.0 * f, separation=3.0,
                                  mass_ratio=V1309_MASS_RATIO, max_iter=it),
                 id=f"{M}-{it}-{f}") for M, it, f in SCF_CONFIGS] + [
    pytest.param(scf_single_star, dict(M=M, axis_ratio=a, max_iter=20),
                 id=f"single-{M}-{a}") for M, a in SINGLE_CONFIGS])
def test_scf_binary_is_the_full_grid_iteration(scf, kwargs, monkeypatch):
    """``rho``, ``omega``, ``K`` and the residuals of the binary and of
    the single star equal a full-grid SCF's bit for bit."""
    res = scf(**kwargs)
    monkeypatch.setattr(scf_module, "_support_gravity", _full_grid_gravity)
    ref = scf(**kwargs)
    np.testing.assert_array_equal(res.rho, ref.rho)
    assert (res.omega, res.K, res.residuals, res.iterations) \
        == (ref.omega, ref.K, ref.residuals, ref.iterations)


def test_result_phi_is_solved_when_read(monkeypatch):
    """No full-grid solve while the SCF runs; ``ScfResult.phi`` is the
    full-grid potential of ``rho``, solved once, on first read."""
    builds = []
    original = FmmSolver.from_uniform.__func__

    def counting(cls, *args, **kwargs):
        builds.append(args[0].shape)
        return original(cls, *args, **kwargs)
    monkeypatch.setattr(fmm.FmmSolver, "from_uniform",
                        classmethod(counting))
    res = scf_binary(M=16, domain=8.0, separation=3.0,
                     mass_ratio=V1309_MASS_RATIO, max_iter=12)
    assert builds == []
    phi = res.phi
    assert builds == [(16, 16, 16)]
    assert res.phi is phi and len(builds) == 1
    monkeypatch.undo()
    np.testing.assert_array_equal(phi, _full_grid_phi(res.rho, res.dx))


def test_support_gravity_refuses_a_grid_off_the_octree():
    with pytest.raises(ValueError, match="is not 8 \\* 2\\^L"):
        _support_gravity(np.ones((12,) * 3, dtype=bool), 1.0)
