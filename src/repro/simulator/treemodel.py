"""Structural octree model of the V1309 scenario (Table 4).

The scaling experiments need the tree *shape* at refinement levels 13-17
(sub-grid counts, leaf/interior split, spatial distribution for the SFC
partition) without paying for 2.3 TB of physics state.  This module grows
the octree geometrically from the scenario description in Sec. 6:

* cubic domain with 1.02e3 R_sun edges, binary separation 6.37 R_sun;
* "both stars are refined down to 12 levels, with the core of the accretor
  and donor refined to 13 and 14 levels respectively" for the level-14 run,
  "the 15, 16, and 17 level runs are successively refined one more level in
  each refinement regime";
* a base level keeps the envelope/domain resolved everywhere.

Region radii are calibrated so total node counts match Table 4 (see
EXPERIMENTS.md); the generator is fully vectorized (level-at-a-time NumPy
expansion) so even the 1.5M-sub-grid level-17 tree builds in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RefinementRegion", "ScenarioTree", "v1309_tree",
           "TABLE4_PAPER_COUNTS", "MEMORY_GB_PER_SUBGRID"]

#: paper Table 4: level of refinement -> (sub-grids, memory GB)
TABLE4_PAPER_COUNTS: dict[int, tuple[int, float]] = {
    13: (5_417, 8.0),
    14: (10_928, 16.37),
    15: (42_947, 56.92),
    16: (224_000, 271.94),
    17: (1_500_000, 2_305.92),
}

#: empirical bytes-per-sub-grid constant implied by Table 4 (~1.45 MB:
#: 8^3 cells x ~15 fields x 8 B plus halos, multipole buffers, workspace)
MEMORY_GB_PER_SUBGRID = 1.45e-3

#: domain edge in R_sun (Sec. 6)
DOMAIN_EDGE = 1.02e3
#: binary separation in R_sun
SEPARATION = 6.37
#: component masses in M_sun -> centre-of-mass offsets along x
M_PRIMARY, M_SECONDARY = 1.54, 0.17
_X1 = SEPARATION * M_SECONDARY / (M_PRIMARY + M_SECONDARY)   # accretor
_X2 = -SEPARATION * M_PRIMARY / (M_PRIMARY + M_SECONDARY)    # donor


@dataclass(frozen=True)
class RefinementRegion:
    """A sphere that forces refinement down to ``target_level``."""

    name: str
    center: tuple[float, float, float]
    radius: float
    target_level: int


@dataclass
class ScenarioTree:
    """A structural octree: per-level sub-grid centres, no physics state.

    ``levels[l]`` is an (n, 3) array of sub-grid centres at octree level l;
    ``refined[l]`` is a matching bool mask (True = has children).
    """

    max_level: int
    domain_edge: float = DOMAIN_EDGE
    levels: list[np.ndarray] = field(default_factory=list)
    refined: list[np.ndarray] = field(default_factory=list)

    @property
    def total_subgrids(self) -> int:
        return sum(len(c) for c in self.levels)

    @property
    def n_interior(self) -> int:
        return int(sum(r.sum() for r in self.refined))

    @property
    def n_leaves(self) -> int:
        return self.total_subgrids - self.n_interior

    def memory_gb(self) -> float:
        return self.total_subgrids * MEMORY_GB_PER_SUBGRID


def _cube_sphere_intersects(centers: np.ndarray, half: float,
                            sphere_c: np.ndarray, radius: float) -> np.ndarray:
    """Vectorized cube-sphere overlap test for sub-grid cubes."""
    d = np.abs(centers - sphere_c)
    clamped = np.maximum(d - half, 0.0)
    return np.einsum("ij,ij->i", clamped, clamped) <= radius * radius


def build_tree(regions: list[RefinementRegion], max_level: int,
               base_level: int = 4, domain_edge: float = DOMAIN_EDGE,
               nesting_margin: float = 0.05) -> ScenarioTree:
    """Grow the octree: a sub-grid refines while any region demands it.

    ``nesting_margin`` inflates each region test by a fraction of the
    sub-grid half-width, emulating Octo-Tiger's proper-nesting padding.
    """
    tree = ScenarioTree(max_level=max_level, domain_edge=domain_edge)
    centers = np.zeros((1, 3))
    for level in range(max_level + 1):
        half = domain_edge / (2.0 ** (level + 1))
        refine = np.zeros(len(centers), dtype=bool)
        if level < max_level:
            if level < base_level:
                refine[:] = True
            else:
                pad = half * (1.0 + nesting_margin)
                for region in regions:
                    if level >= region.target_level:
                        continue
                    hit = _cube_sphere_intersects(
                        centers, pad, np.asarray(region.center), region.radius)
                    refine |= hit
                    if refine.all():
                        break
        tree.levels.append(centers)
        tree.refined.append(refine)
        if not refine.any():
            break
        parents = centers[refine]
        child_half = half / 2.0
        offsets = np.array([(i, j, k) for i in (-1, 1)
                            for j in (-1, 1) for k in (-1, 1)], dtype=float)
        centers = (parents[:, None, :]
                   + offsets[None, :, :] * child_half).reshape(-1, 3)
    return tree


#: Calibrated V1309 region radii (R_sun) at the level-13 baseline run.
#: Octo-Tiger refines on density, so at higher run levels the deepest
#: refinement hugs an ever-steeper density contour: ``shrink`` scales a
#: region's radius by that factor per run level above 13, which is what
#: produces Table 4's sub-octree growth ratios (x3.9, x5.2, x6.7 < x8).
V1309_REGIONS_SPEC = {
    "accretor": {"center": (_X1, 0.0, 0.0), "radius": 2.20,
                 "level_offset": 2, "shrink": 0.965},
    "donor": {"center": (_X2, 0.0, 0.0), "radius": 0.90,
              "level_offset": 2, "shrink": 0.965},
    "accretor_core": {"center": (_X1, 0.0, 0.0), "radius": 0.24,
                      "level_offset": 1, "shrink": 0.965},
    "donor_core": {"center": (_X2, 0.0, 0.0), "radius": 0.20,
                   "level_offset": 0, "shrink": 0.965},
    "atmosphere": {"center": (0.0, 0.0, 0.0), "radius": 3.0,
                   "level_offset": 5, "shrink": 1.0},
}


def v1309_regions(level: int) -> list[RefinementRegion]:
    """Refinement regions for the level-``level`` V1309 run (Sec. 6).

    ``level_offset`` is subtracted from the run's maximum level: stars
    refine to L-2, the accretor core to L-1, the donor core to L, the
    common atmosphere stays five levels coarser.
    """
    return [
        RefinementRegion(
            name, tuple(spec["center"]),
            spec["radius"] * spec["shrink"] ** (level - 13),
            level - spec["level_offset"])
        for name, spec in V1309_REGIONS_SPEC.items()
    ]


def v1309_tree(level: int, base_level: int = 4) -> ScenarioTree:
    """The structural V1309 octree for a level-``level`` run (Table 4)."""
    if level < base_level:
        raise ValueError(f"scenario level {level} below base level {base_level}")
    return build_tree(v1309_regions(level), max_level=level,
                      base_level=base_level)
