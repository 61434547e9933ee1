"""APEX-style counters are fed by the physics (Sec. 4.1: diagnostics)."""

import numpy as np

from repro.core import BlockMesh, FmmSolver
from repro.runtime import default_registry


class TestCountersIntegration:
    def test_fmm_solve_counts_interactions(self):
        reg = default_registry()
        before = dict.fromkeys(
            ("/fmm/solves", "/fmm/interactions/monopole"), 0.0)
        for k in before:
            try:
                before[k] = reg.value(k)
            except KeyError:
                pass
        rho = np.random.default_rng(0).uniform(0.1, 1.0, (8, 8, 8))
        solver = FmmSolver.from_uniform(rho, 1.0 / 8)
        solver.solve()
        assert reg.value("/fmm/solves") == before["/fmm/solves"] + 1
        assert reg.value("/fmm/interactions/monopole") \
            > before["/fmm/interactions/monopole"]

    def test_replay_counts_too(self):
        reg = default_registry()
        rho = np.random.default_rng(1).uniform(0.1, 1.0, (8, 8, 8))
        solver = FmmSolver.from_uniform(rho, 1.0 / 8)
        solver.solve()
        a = reg.value("/fmm/interactions/monopole")
        solver.solve()      # replay path
        assert reg.value("/fmm/interactions/monopole") > a

    def test_hydro_steps_counted(self):
        reg = default_registry()
        try:
            before = reg.value("/hydro/steps")
        except KeyError:
            before = 0.0
        mesh = BlockMesh(1, n=8)
        mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
        mesh.step(1e-4)
        assert reg.value("/hydro/steps") == before + 1
