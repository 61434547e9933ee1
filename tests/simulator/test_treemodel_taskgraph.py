"""Structural V1309 tree (Table 4) and workload profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (TABLE4_PAPER_COUNTS, WorkloadProfile,
                             profile_tree, v1309_tree)
from repro.simulator.scaling import subgrid_table
from repro.simulator.treemodel import (RefinementRegion, build_tree,
                                       v1309_regions)
from repro.util import morton_encode

from . import full_scale


@pytest.fixture(scope="module")
def tree14():
    return v1309_tree(14)


@pytest.fixture(scope="module")
def profile14(tree14):
    return profile_tree(tree14)


class TestTreeStructure:
    def test_background_levels_fully_refined(self, tree14):
        """Levels 0..4 are uniformly refined (the envelope base grid)."""
        for lvl in range(5):
            assert len(tree14.levels[lvl]) == 8 ** lvl
            assert tree14.refined[lvl].all() or lvl == 4

    def test_total_counts_consistent(self, tree14):
        assert tree14.total_subgrids == \
            sum(len(c) for c in tree14.levels)
        assert tree14.n_interior + tree14.n_leaves == tree14.total_subgrids

    def test_children_come_in_eights(self, tree14):
        for lvl in range(len(tree14.levels) - 1):
            n_children = len(tree14.levels[lvl + 1])
            n_refined = int(tree14.refined[lvl].sum())
            assert n_children == 8 * n_refined

    def test_max_level_respected(self, tree14):
        assert len(tree14.levels) - 1 <= 14

    def test_deterministic(self):
        a = v1309_tree(13)
        b = v1309_tree(13)
        assert a.total_subgrids == b.total_subgrids
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la, lb)


TABLE4_LEVELS = [13, 14, 15, pytest.param(16, marks=full_scale),
                 pytest.param(17, marks=full_scale)]


class TestTable4Reproduction:
    @pytest.mark.parametrize("level", TABLE4_LEVELS)
    def test_subgrid_counts_match_paper_within_25pct(self, level):
        tree = v1309_tree(level)
        paper, _mem = TABLE4_PAPER_COUNTS[level]
        assert tree.total_subgrids == pytest.approx(paper, rel=0.25)

    @pytest.mark.parametrize("level", TABLE4_LEVELS)
    def test_memory_matches_paper_within_30pct(self, level):
        tree = v1309_tree(level)
        _paper, mem = TABLE4_PAPER_COUNTS[level]
        assert tree.memory_gb() == pytest.approx(mem, rel=0.30)

    def test_growth_ratio_below_octree_factor(self):
        """Table 4 growth is sub-x8 (density-threshold refinement)."""
        n13, n14, n15 = (n for _lvl, n, _gb in subgrid_table((13, 14, 15)))
        assert 1.5 < n14 / n13 < 8.0
        assert 2.0 < n15 / n14 < 8.0

    def test_regions_shift_with_level(self):
        r13 = {r.name: r for r in v1309_regions(13)}
        r14 = {r.name: r for r in v1309_regions(14)}
        assert r14["donor_core"].target_level == \
            r13["donor_core"].target_level + 1
        assert r14["accretor"].radius < r13["accretor"].radius

    def test_empty_region_tree_is_base_grid(self):
        tree = build_tree([], max_level=6, base_level=3)
        assert tree.total_subgrids == 1 + 8 + 64 + 512


class TestMorton:
    def test_zero_maps_to_zero(self):
        assert morton_encode(np.array([0]), np.array([0]),
                             np.array([0]))[0] == 0

    def test_axis_bit_positions(self):
        x = morton_encode(np.array([1]), np.array([0]), np.array([0]))[0]
        y = morton_encode(np.array([0]), np.array([1]), np.array([0]))[0]
        z = morton_encode(np.array([0]), np.array([0]), np.array([1]))[0]
        assert (int(x), int(y), int(z)) == (4, 2, 1)

    @given(st.lists(st.tuples(st.integers(0, 2 ** 15 - 1),
                              st.integers(0, 2 ** 15 - 1),
                              st.integers(0, 2 ** 15 - 1)),
                    min_size=2, max_size=50, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_injective(self, coords):
        arr = np.array(coords, dtype=np.int64)
        keys = morton_encode(arr[:, 0], arr[:, 1], arr[:, 2])
        assert len(np.unique(keys)) == len(coords)


class TestWorkloadProfile:
    def test_counts_match_tree(self, tree14, profile14):
        assert profile14.n_subgrids == tree14.total_subgrids
        assert profile14.n_interior == tree14.n_interior

    def test_pairs_reference_valid_subgrids(self, profile14):
        assert profile14.pair_a.min() >= 0
        assert profile14.pair_b.max() < profile14.n_subgrids
        # unordered pairs listed once
        assert (profile14.pair_a < profile14.pair_b).all()

    def test_partition_covers_all_subgrids_contiguously(self, profile14):
        owner = profile14.partition(16)
        assert owner.min() == 0 and owner.max() == 15
        assert (np.diff(owner) >= 0).all()     # SFC blocks

    def test_partition_single_node(self, profile14):
        assert (profile14.partition(1) == 0).all()

    def test_remote_traffic_zero_on_one_node(self, profile14):
        msgs, byts, pr, pc = profile14.remote_traffic(
            profile14.partition(1))
        assert msgs.sum() == 0 and byts.sum() == 0

    def test_remote_traffic_grows_with_nodes(self, profile14):
        m8 = profile14.remote_traffic(profile14.partition(8))[0].sum()
        m64 = profile14.remote_traffic(profile14.partition(64))[0].sum()
        assert m64 > m8 > 0

    def test_remote_counts_both_endpoints(self, profile14):
        owner = profile14.partition(4)
        msgs, _b, pr, pc = profile14.remote_traffic(owner)
        remote_pairs = (owner[profile14.pair_a]
                        != owner[profile14.pair_b]).sum()
        assert msgs.sum() == 2 * remote_pairs
        assert pc.sum() == remote_pairs
