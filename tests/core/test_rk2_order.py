"""The stepping core is second-order in time — measured, not assumed.

Every mesh advances through one ``rk2_step``, so tiling-invariance
identities cannot catch a wrong stage weight: both sides would share it.
This pins the *algorithm*: a smooth periodic blob advected for a fixed
time ``T`` in 4, 8 and 16 steps (fixed ``dx``, so the spatial error
cancels in the differences) must self-converge at order two.  Forward
Euler, a half-weight predictor or a 0.4/0.6 corrector all measure ~1.0-1.3
on this set-up.
"""

import numpy as np
import pytest

from repro.core import RHO, BlockMesh, IdealGas
from repro.core.hydro.solver import HydroOptions

T = 0.04


def _advect(nsteps):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    mesh = BlockMesh(1, n=16, domain=1.0, options=opts, bc="periodic")
    x, y, z = mesh.cell_centers()
    blob = (np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)) ** 2
    mesh.load_primitives(1.0 + 0.2 * blob, 0.3, 0.2, 0.1, 0.25)
    for _ in range(nsteps):
        mesh.step(T / nsteps)
    assert mesh.time == pytest.approx(T)
    return mesh.interior[RHO].copy()


def test_temporal_self_convergence_is_second_order():
    u4, u8, u16 = (_advect(n) for n in (4, 8, 16))
    order = np.log2(np.abs(u4 - u8).max() / np.abs(u8 - u16).max())
    assert 1.8 <= order <= 2.2, order     # measured: 2.06
