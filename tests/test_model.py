"""Core type validation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from emstclust import (
    Cluster,
    ClusterReport,
    ConfigError,
    CriterionConfig,
    Dataset,
    Dendrogram,
    Edge,
    InputError,
    MODE_STD,
    MODE_ZAHN,
    Point,
    Partition,
    SpanningForest,
)


def p(*coords):
    return Point(tuple(float(c) for c in coords))


class TestPointAndDataset:
    def test_point_coords_frozen_tuple(self):
        pt = Point((1, 2))
        assert pt.coords == (1.0, 2.0)
        assert pt.dimension == 2

    def test_point_rejects_empty(self):
        with pytest.raises(InputError):
            Point(())

    def test_point_rejects_non_finite(self):
        with pytest.raises(InputError):
            Point((float("nan"),))
        with pytest.raises(InputError):
            Point((float("inf"), 0.0))

    def test_dataset_rejects_empty(self):
        with pytest.raises(InputError):
            Dataset(())

    def test_dataset_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            Dataset((p(0), p(0, 1)))

    def test_dataset_allows_duplicates(self):
        ds = Dataset((p(1, 1), p(1, 1)))
        assert len(ds) == 2
        assert ds.dimension == 2


class TestEdge:
    def test_endpoints_normalized(self):
        e = Edge(5, 2, 1.5)
        assert e.endpoints == (2, 5)
        assert Edge(2, 5, 1.5) == e

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Edge(3, 3, 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            Edge(0, 1, -0.5)

    def test_rejects_non_finite_weight(self):
        with pytest.raises(InputError):
            Edge(0, 1, float("inf"))

    def test_zero_weight_allowed(self):
        assert Edge(0, 1, 0.0).weight == 0.0


class TestSpanningForest:
    def test_component_count_chain(self):
        edges = [Edge(i, i + 1, 1.0) for i in range(4)]
        forest = SpanningForest(5, frozenset(edges))
        assert forest.component_count == 1
        smaller = SpanningForest(5, frozenset(edges[:1] + edges[2:]))
        assert smaller.component_count == 2

    def test_components_sorted_by_lowest_member(self):
        forest = SpanningForest(5, frozenset([Edge(3, 4, 1.0), Edge(0, 2, 1.0)]))
        part = Partition.of_forest(5, forest.u, forest.v, forest.w)
        assert [part.members_of(c).tolist() for c in range(part.count)] == [
            [0, 2],
            [1],
            [3, 4],
        ]
        assert part.labels.tolist() == [0, 1, 0, 2, 2]

    def test_rejects_cycle(self):
        with pytest.raises(InputError):
            SpanningForest(
                3, frozenset([Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(0, 2, 1.0)])
            )

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            SpanningForest(2, frozenset([Edge(0, 5, 1.0)]))

    def test_total_weight(self):
        forest = SpanningForest(3, frozenset([Edge(0, 1, 1.5), Edge(1, 2, 2.5)]))
        assert forest.total_weight == 4.0


class TestCluster:
    def test_valid_singleton(self):
        c = Cluster(frozenset({7}), frozenset())
        assert c.size == 1

    def test_edge_count_must_fit_members(self):
        with pytest.raises(InputError):
            Cluster(frozenset({0, 1, 2}), frozenset([Edge(0, 1, 1.0)]))

    def test_edges_must_stay_inside(self):
        with pytest.raises(InputError):
            Cluster(frozenset({0, 1}), frozenset([Edge(0, 2, 1.0)]))

    def test_rejects_internal_cycle(self):
        with pytest.raises(InputError):
            Cluster(
                frozenset({0, 1, 2, 3}),
                frozenset([Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(0, 2, 1.0)]),
            )


class TestClusterReport:
    def test_valid_report(self):
        report = ClusterReport(0, 3.0, 6.0, 2.0, 4)
        assert report.radius == 3.0

    def test_radius_cannot_exceed_diameter(self):
        with pytest.raises(InputError):
            ClusterReport(0, 5.0, 4.0, 1.0, 3)

    def test_diameter_capped_by_twice_radius(self):
        with pytest.raises(InputError):
            ClusterReport(0, 1.0, 2.5, 1.0, 3)

    def test_singleton_zeros(self):
        report = ClusterReport(9, 0.0, 0.0, 0.0, 1)
        assert report.diameter == 0.0

    @pytest.mark.parametrize("radius", [1.0, 0.1, 3e-300, 7.5e200])
    def test_one_ulp_over_either_bound_is_refused(self, radius):
        ClusterReport(0, radius, radius, 1.0, 3)
        ClusterReport(0, radius, 2.0 * radius, 1.0, 3)
        with pytest.raises(InputError, match="exceeds diameter"):
            ClusterReport(0, math.nextafter(radius, math.inf), radius, 1.0, 3)
        with pytest.raises(InputError, match="exceeds twice the radius"):
            ClusterReport(0, radius, math.nextafter(2.0 * radius, math.inf), 1.0, 3)


class TestDendrogram:
    def test_single_leaf(self):
        d = Dendrogram(1, [], [], [])
        assert d.final_level == 0.0

    @pytest.mark.parametrize(
        "leaf_count, left, right, level, message",
        [
            (3, [0], [1], [1.0], "3 leaves need left, right and level of length 2"),
            (3, [0, 3], [1, 2], [1.0], "3 leaves need left, right and level of length 2"),
            (3, [[0, 3]], [[1, 2]], [[1.0, 4.0]], "3 leaves need left, right and level of length 2"),
            (3, [0, 4], [1, 2], [1.0, 2.0], "each merge must join two nodes formed before it"),
            (3, [0, 9], [1, 2], [1.0, 2.0], "each merge must join two nodes formed before it"),
            (3, [0, 3], [-1, 2], [1.0, 2.0], "each merge must join two nodes formed before it"),
            (3, [0, 0], [1, 2], [1.0, 2.0], "node 0 is joined 2 times, not once"),
            (3, [0, 1], [0, 2], [1.0, 2.0], "node 0 is joined 2 times, not once"),
            (4, [0, 2, 1], [1, 4, 3], [1.0, 2.0, 3.0], "node 1 is joined 2 times, not once"),
            (3, [0, 3], [1, 3], [1.0, 2.0], "node 3 is joined 2 times, not once"),
            (3, [0, 2.9], [1, 2], [1.0, 2.0], "node ids must be whole numbers"),
            (3, [0, 3], [1, math.nan], [1.0, 2.0], "node ids must be whole numbers"),
            (3, [0, 3], [1, "two"], [1.0, 2.0], "node ids must be whole numbers"),
            (3, [0, 3], [1, 2], [1.0, math.nan], "merge levels must be finite, >= 0 and non-"),
            (3, [0, 3], [1, 2], [1.0, math.inf], "merge levels must be finite, >= 0 and non-"),
            (3, [0, 3], [1, 2], [-1.0, 2.0], "merge levels must be finite, >= 0 and non-"),
            (3, [0, 3], [1, 2], [2.0, 1.0], "merge levels must be finite, >= 0 and non-"),
            (0, [], [], [], "a dendrogram needs at least one leaf"),
            (2.5, [0], [1], [1.0], "leaf_count must be a whole number, got 2.5"),
        ],
        ids=[
            "one-merge-short", "level-short", "two-dimensional", "node-not-formed-yet",
            "node-never-formed", "negative-node", "left-joined-twice", "joined-with-itself",
            "subtree-joined-twice", "node-never-joined", "fractional-id", "nan-id",
            "string-id", "nan-level", "infinite-level", "negative-level", "decreasing-level",
            "no-leaves", "fractional-leaf-count",
        ],
    )
    def test_refused(self, leaf_count, left, right, level, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Dendrogram(leaf_count, left, right, level)

    def test_valid_three_leaves(self):
        d = Dendrogram(3, [0, 3], [1, 2], [1.0, 4.0])
        assert d.final_level == 4.0

    def test_arrays_are_read_only_copies(self):
        left = np.array([0, 3])
        d = Dendrogram(3.0, left, np.array([1, 2]), [1.0, 4.0])
        left[0] = 1
        assert d.leaf_count == 3 and d.left.tolist() == [0, 3]
        assert (d.left.dtype, d.right.dtype, d.level.dtype) == (np.int64, np.int64, np.float64)
        with pytest.raises(ValueError):
            d.level[0] = 0.0


class TestCriterionConfig:
    def test_defaults(self):
        config = CriterionConfig()
        assert config.mode == MODE_STD
        assert config.zahn_c == 2.0
        assert config.zahn_f == 2.0
        assert config.zahn_depth == 2

    def test_zahn_mode(self):
        assert CriterionConfig(mode=MODE_ZAHN).mode == MODE_ZAHN

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            CriterionConfig(mode="median")

    def test_non_positive_parameters(self):
        with pytest.raises(ConfigError):
            CriterionConfig(zahn_c=0.0)
        with pytest.raises(ConfigError):
            CriterionConfig(zahn_f=-1.0)
        with pytest.raises(ConfigError):
            CriterionConfig(zahn_depth=0)

    def test_non_integral_depth_refused(self):
        with pytest.raises(ConfigError, match="zahn_depth must be a whole number, got 1.7"):
            CriterionConfig(zahn_depth=1.7)
        for depth in (3, np.int32(3), 3.0):
            assert CriterionConfig(zahn_depth=depth).zahn_depth == 3

    @pytest.mark.parametrize("depth", [math.nan, math.inf, -math.inf])
    def test_non_finite_depth_refused(self, depth):
        with pytest.raises(ConfigError, match=f"zahn_depth must be a whole number, got {depth!r}"):
            CriterionConfig(zahn_depth=depth)
