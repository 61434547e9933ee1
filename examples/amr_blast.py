#!/usr/bin/env python3
"""Adaptive mesh refinement: a blast wave across resolution jumps.

Builds an octree refined around the explosion site, evolves the blast
with the refluxing AMR driver, and shows that mass/energy are conserved
to machine precision across the coarse-fine boundaries — the AMR half of
Octo-Tiger's Sec. 4.2 datastructure.

Run:  python examples/amr_blast.py
"""

import numpy as np

from repro.core import EGAS, RHO, TAU, IdealGas, Octree, interior
from repro.core.amr import AmrMesh
from repro.core.hydro.solver import HydroOptions


def main() -> None:
    eos = IdealGas(gamma=1.4)
    tree = Octree(domain=1.0)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (0, 0, 0))       # extra resolution near the corner blast

    for leaf in tree.leaves():
        I = interior(leaf.U)
        I[RHO] = 1.0
        I[EGAS] = 1e-6 / (eos.gamma - 1.0)
        I[TAU] = eos.tau_from_eint(np.asarray(I[EGAS]))
        x, y, z = tree.cell_centers(leaf.level, leaf.ipos)
        # blast centred on the coarse-fine boundary at (0.5, 0.45, 0.45)
        src = ((x - 0.5) ** 2 + (y - 0.45) ** 2
               + (z - 0.45) ** 2) < 0.09 ** 2
        n_src = int(src.sum())
        if n_src:
            eint = 0.05 / (n_src * tree.cell_width(leaf.level) ** 3)
            I[EGAS][src] = eint
            I[TAU][src] = eos.tau_from_eint(np.full(n_src, eint))

    mesh = AmrMesh(tree, HydroOptions(eos=eos), bc="reflect")
    levels = sorted({leaf.level for leaf in tree.leaves()})
    print(f"octree: {tree.n_nodes} nodes, {tree.n_leaves} leaves on "
          f"levels {levels}")
    t0 = mesh.conserved_totals()
    print(f"initial: mass={t0['mass']:.6f} egas={t0['egas']:.6f}")

    for _ in range(12):
        dt = min(mesh.compute_dt(), 0.003)
        mesh.step(dt)
    t1 = mesh.conserved_totals()
    print(f"t={mesh.time:.4f} ({mesh.steps} steps)")
    print(f"mass drift across AMR boundaries: "
          f"{abs(t1['mass'] - t0['mass']) / t0['mass']:.2e}")
    print(f"energy drift:                     "
          f"{abs(t1['egas'] - t0['egas']) / t0['egas']:.2e}")
    peak = max(float(interior(leaf.U)[RHO].max())
               for leaf in tree.leaves())
    print(f"peak compression: {peak:.2f} "
          f"(strong-shock limit {(1.4 + 1) / (1.4 - 1):.0f})")


if __name__ == "__main__":
    main()
