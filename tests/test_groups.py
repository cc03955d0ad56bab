"""Tests for pattern-group discovery (sections 3.4 / 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import PatternGroup, discover_pattern_groups
from repro.core.pattern import TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid


@pytest.fixture
def grid():
    return Grid(BoundingBox.unit(), nx=10, ny=10)


def cells(*pairs):
    """Patterns from (col, row) pairs on the 10x10 grid."""
    return TrajectoryPattern(tuple(r * 10 + c for c, r in pairs))


class TestPatternGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternGroup(())
        with pytest.raises(ValueError):
            PatternGroup((TrajectoryPattern((1,)), TrajectoryPattern((1, 2))))

    def test_length_property(self):
        g = PatternGroup((TrajectoryPattern((1, 2)),))
        assert g.length == 2
        assert len(g) == 1

    def test_representative_of_singleton(self, grid):
        p = TrajectoryPattern((1, 2))
        assert PatternGroup((p,)).representative(grid) == p

    def test_representative_is_medoid(self, grid):
        # Three collinear patterns: the middle one is the medoid.
        left, mid, right = cells((0, 0)), cells((1, 0)), cells((2, 0))
        group = PatternGroup((left, mid, right))
        assert group.representative(grid) == mid

    def test_is_mutually_similar(self, grid):
        a, b = cells((0, 0)), cells((1, 0))
        group = PatternGroup((a, b))
        assert group.is_mutually_similar(grid, gamma=0.1)
        assert not group.is_mutually_similar(grid, gamma=0.01)


class TestDiscovery:
    def test_gamma_validation(self, grid):
        with pytest.raises(ValueError):
            discover_pattern_groups([TrajectoryPattern((0,))], grid, gamma=-1.0)

    def test_single_pattern(self, grid):
        groups = discover_pattern_groups([TrajectoryPattern((0, 1))], grid, 0.1)
        assert len(groups) == 1 and len(groups[0]) == 1

    def test_duplicates_collapse(self, grid):
        p = TrajectoryPattern((0, 1))
        groups = discover_pattern_groups([p, p], grid, 0.1)
        assert len(groups) == 1 and len(groups[0]) == 1

    def test_different_lengths_never_group(self, grid):
        groups = discover_pattern_groups(
            [TrajectoryPattern((0,)), TrajectoryPattern((0, 1))], grid, 10.0
        )
        assert len(groups) == 2

    def test_partition_property(self, grid, rng):
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.integers(0, 100, size=2)))
            for _ in range(20)
        ]
        unique = list(dict.fromkeys(patterns))
        groups = discover_pattern_groups(patterns, grid, gamma=0.15)
        members = [p for g in groups for p in g.patterns]
        assert sorted(p.cells for p in members) == sorted(p.cells for p in unique)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.5])
    def test_groups_are_mutually_similar(self, grid, rng, gamma):
        """Every emitted group satisfies Definition 1 pairwise."""
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.integers(0, 100, size=3)))
            for _ in range(25)
        ]
        groups = discover_pattern_groups(patterns, grid, gamma=gamma)
        for group in groups:
            assert group.is_mutually_similar(grid, gamma * (1 + 1e-9) + 1e-12)

    def test_close_patterns_grouped(self, grid):
        # Two tight bundles far apart.
        bundle_a = [cells((0, 0), (0, 1)), cells((1, 0), (1, 1))]
        bundle_b = [cells((8, 8), (8, 9)), cells((9, 8), (9, 9))]
        groups = discover_pattern_groups(bundle_a + bundle_b, grid, gamma=0.15)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [2, 2]

    def test_gamma_zero_groups_only_identical(self, grid):
        a, b = cells((0, 0)), cells((1, 0))
        groups = discover_pattern_groups([a, b], grid, gamma=0.0)
        assert len(groups) == 2

    def test_huge_gamma_single_group_per_length(self, grid, rng):
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.integers(0, 100, size=2)))
            for _ in range(10)
        ]
        unique = list(dict.fromkeys(patterns))
        groups = discover_pattern_groups(patterns, grid, gamma=10.0)
        assert len(groups) == 1
        assert len(groups[0]) == len(unique)

    def test_paper_worked_example_shape(self, grid):
        """The section 4.2 example: six length-2 patterns ending in the
        groups (P2), (P4), (P5), (P6), (P1, P3)."""
        # First snapshot: {P1, P3, P4, P5} cluster at left, {P2, P6} right.
        # Second snapshot: {P1', P3', P6'} top, {P2', P4'} mid, {P5'} alone.
        p1 = cells((0, 0), (0, 9))
        p3 = cells((0, 1), (0, 8))  # near p1 at both snapshots
        p4 = cells((1, 0), (5, 5))  # left cluster, mid cluster
        p5 = cells((1, 1), (9, 0))  # left cluster, alone at snapshot 2
        p2 = cells((8, 0), (5, 6))  # right cluster, mid cluster
        p6 = cells((9, 0), (1, 9))  # right cluster, top cluster
        groups = discover_pattern_groups([p1, p2, p3, p4, p5, p6], grid, gamma=0.25)
        group_sets = sorted(tuple(sorted(p.cells for p in g.patterns)) for g in groups)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 1, 1, 2]
        pair = next(g for g in groups if len(g) == 2)
        assert {p.cells for p in pair.patterns} == {p1.cells, p3.cells}

    def test_longer_lengths_emitted_first(self, grid):
        short = TrajectoryPattern((0,))
        long = TrajectoryPattern((0, 1, 2))
        groups = discover_pattern_groups([short, long], grid, 0.1)
        assert groups[0].length == 3
        assert groups[1].length == 1


class TestCompleteLinkage:
    """The scipy-free complete linkage equals scipy's, ties and all."""

    @staticmethod
    def _scipy_clusters(coords, gamma):
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import pdist

        labels = fcluster(
            linkage(pdist(coords), method="complete"), t=gamma, criterion="distance"
        )
        clusters: dict[int, set[int]] = {}
        for i, label in enumerate(labels):
            clusters.setdefault(int(label), set()).add(i)
        return list(clusters.values())

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 34), min_size=2, max_size=30),
        gamma_pick=st.integers(0, 10_000),
        extra=st.sampled_from([0.05, 0.1, 0.2, 0.45]),
    )
    def test_matches_scipy_on_grid_centres(self, cells, gamma_pick, extra):
        # Grid centres repeat and sit at many equal distances; gamma is
        # either one of those distances exactly or a fixed threshold.
        import numpy as np

        from repro.core.groups import _complete_linkage_clusters

        coords = Grid(BoundingBox.unit(), nx=7, ny=5).cell_centers(cells)
        dists = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1)).ravel()
        positive = dists[dists > 0]
        gammas = [extra]
        if len(positive):
            gammas.append(positive[gamma_pick % len(positive)])
        for gamma in gammas:
            got = _complete_linkage_clusters(coords, float(gamma))
            assert got == self._scipy_clusters(coords, float(gamma))
