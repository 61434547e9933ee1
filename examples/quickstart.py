#!/usr/bin/env python3
"""Quickstart: a self-gravitating star on the grid in ~40 lines.

Builds a Lane-Emden polytrope in hydrostatic equilibrium, evolves it with
the coupled FMM-gravity + PPM-hydro solver, and prints the conservation
report — the smallest end-to-end tour of the public API.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import RHO, ConservationMonitor, equilibrium_star, evolve

def main() -> None:
    # a polytropic star (n = 3/2, the fully convective stars of V1309)
    # centred in a 4-radius box, with FMM self-gravity enabled
    mesh = equilibrium_star(n=16, domain=4.0, n_poly=1.5,
                            radius=1.0, mass=1.0)
    rho0 = mesh.interior[RHO].copy()
    print(f"initial model: {mesh.shape[0]}^3 cells, "
          f"central density {rho0.max():.3f}, "
          f"mass {mesh.conserved_totals()['mass']:.4f}")

    monitor = ConservationMonitor()
    evolve(mesh, t_end=0.5, monitor=monitor, max_steps=40)

    drift = np.abs(mesh.interior[RHO] - rho0).max() / rho0.max()
    report = monitor.report()
    print(f"evolved to t={mesh.time:.3f} in {mesh.steps} steps")
    print(f"density drift (hydrostatic equilibrium): {drift:.2e}")
    print(f"mass drift:             {report['mass']:.2e}")
    print(f"momentum drift:         {report['momentum']:.2e}")
    print(f"angular momentum drift: {report['angular_momentum']:.2e}")
    print("OK" if drift < 0.1 else "WARNING: equilibrium not held")


if __name__ == "__main__":
    main()
