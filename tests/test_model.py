"""Core type validation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from emstclust import (
    Cluster,
    ClusteringResult,
    ConfigError,
    CriterionConfig,
    Dataset,
    Dendrogram,
    Edge,
    InputError,
    MODE_STD,
    MODE_ZAHN,
    Point,
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

    def test_whole_endpoints_of_any_type(self):
        e = Edge(np.int32(5), 2.0, 1)
        assert (e.u, e.v, e.weight) == (2, 5, 1.0)
        assert type(e.u) is int and type(e.v) is int

    @pytest.mark.parametrize(
        "u, v, message",
        [
            (2.9, 5, "edge endpoints must be whole numbers"),
            (0, math.nan, "edge endpoints must be whole numbers"),
            (0, math.inf, "edge endpoints must be whole numbers"),
            ("a", 1, "edge endpoints must be whole numbers"),
            (-1, 2, "vertex indices must be non-negative"),
        ],
        ids=["fractional", "nan", "infinite", "string", "negative"],
    )
    def test_refused(self, u, v, message):
        # Edge(2.9, 5, 1.0) used to be truncated to Edge(2, 5, 1.0).
        with pytest.raises(InputError, match=message):
            Edge(u, v, 1.0)


# Refusals shared by both tree types, as (u, v, w, message). Cycles and
# ids out of range have named tests in each type's class.
EDGE_REFUSALS = {
    "fractional-endpoint": ([0, 1.5], [1, 2], [1.0, 1.0], "edge endpoints must be whole numbers"),
    "nan-endpoint": ([0, math.nan], [1, 2], [1.0, 1.0], "edge endpoints must be whole numbers"),
    "string-endpoint": ([0, "a"], [1, 2], [1.0, 1.0], "edge endpoints must be whole numbers"),
    "repeated-pair": ([0, 1], [1, 0], [1.0, 2.0], "the edges close a cycle"),
    "length-mismatch": ([0, 1], [1], [1.0, 1.0], "u, v and w must be 1-D and of one length"),
    "two-dimensional": ([[0, 1]], [[1, 2]], [[1.0, 1.0]], "u, v and w must be 1-D and of one"),
    "self-loop": ([0, 1], [1, 1], [1.0, 1.0], "self-loop at vertex 1"),
    "nan-weight": ([0, 1], [1, 2], [1.0, math.nan], "edge weights must be finite and >= 0"),
    "negative-weight": ([0, 1], [1, 2], [-1.0, 1.0], "edge weights must be finite and >= 0"),
}

# Inputs numpy cannot make an array of, which used to escape as a bare
# ValueError from the conversion.
UNCONVERTIBLE_EDGES = {
    "string-weight": ([0, 1], [1, 2], [1.0, "a"], "edge weights must be finite and >= 0"),
    "ragged-weights": ([0, 1], [1, 2], [[1.0], [1.0, 2.0]], "edge weights must be finite and"),
    "ragged-u": ([[0], [1, 2]], [1, 2], [1.0, 1.0], "u, v and w must be 1-D and of one length"),
    "ragged-v": ([0, 1], [[1, 2], [2]], [1.0, 1.0], "u, v and w must be 1-D and of one length"),
}


class TestSpanningForest:
    def test_component_count_chain(self):
        forest = SpanningForest(5, [0, 1, 2, 3], [1, 2, 3, 4], [1.0] * 4)
        assert forest.component_count == 1
        smaller = SpanningForest(5, [0, 2, 3], [1, 3, 4], [1.0] * 3)
        assert smaller.component_count == 2

    def test_components_sorted_by_lowest_member(self):
        forest = SpanningForest(5, [3, 0], [4, 2], [1.0, 1.0])
        assert [forest.members_of(c).tolist() for c in range(forest.component_count)] == [
            [0, 2],
            [1],
            [3, 4],
        ]
        assert forest.labels.tolist() == [0, 1, 0, 2, 2]
        assert forest.member_start.tolist() == [0, 2, 3, 5]
        for view in (forest.labels, forest.members, forest.member_start, *forest.edges_of(0)):
            assert not view.flags.writeable

    def test_component_edges_in_ascending_order(self):
        # Components {0, 2, 4, 5} and {1, 3}, their edges given out of order.
        forest = SpanningForest(6, [4, 1, 2, 0], [5, 3, 4, 2], [4.0, 2.0, 3.0, 1.0])
        assert [tuple(a.tolist() for a in forest.edges_of(c)) for c in range(2)] == [
            ([0, 2, 4], [2, 4, 5], [1.0, 3.0, 4.0]),
            ([1], [3], [2.0]),
        ]
        single = SpanningForest(1, [], [], [])
        assert single.labels.tolist() == [0] and single.members_of(0).tolist() == [0]
        assert [a.tolist() for a in single.edges_of(0)] == [[], [], []]

    def test_rejects_cycle(self):
        with pytest.raises(InputError, match="the edges close a cycle"):
            SpanningForest(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError, match=re.escape("edge endpoints must lie in 0..1")):
            SpanningForest(2, [0], [5], [1.0])

    def test_total_weight(self):
        forest = SpanningForest(3, [0, 1], [1, 2], [1.5, 2.5])
        assert forest.total_weight == 4.0

    def test_any_order_and_orientation_held_as_read_only_copies(self):
        u = np.array([2, 1, 0])
        forest = SpanningForest(4.0, u, (1, 0, 3), [3, 1.0, 2.0])
        u[0] = 3
        assert forest.vertex_count == 4
        assert (forest.u.tolist(), forest.v.tolist(), forest.w.tolist()) == (
            [0, 0, 1], [1, 3, 2], [1.0, 2.0, 3.0]
        )
        assert (forest.u.dtype, forest.v.dtype, forest.w.dtype) == (np.int64, np.int64, np.float64)
        assert forest.edges == {Edge(0, 1, 1.0), Edge(0, 3, 2.0), Edge(1, 2, 3.0)}
        with pytest.raises(ValueError):
            forest.w[0] = 0.0

    @pytest.mark.parametrize(
        "vertex_count, u, v, w, message",
        [
            (2.5, [0], [1], [1.0], "vertex_count must be a whole number, got 2.5"),
            (math.nan, [], [], [], "vertex_count must be a whole number, got nan"),
            (0, [], [], [], "a forest needs at least one vertex"),
            (3, [-1], [1], [1.0], "edge endpoints must lie in 0..2"),
            *((3, *case) for case in EDGE_REFUSALS.values()),
        ],
        ids=[
            "fractional-vertex-count", "nan-vertex-count", "no-vertices", "negative-endpoint",
            *EDGE_REFUSALS,
        ],
    )
    def test_refused(self, vertex_count, u, v, w, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SpanningForest(vertex_count, u, v, w)

    @pytest.mark.parametrize(
        "u, v, w, message", UNCONVERTIBLE_EDGES.values(), ids=list(UNCONVERTIBLE_EDGES)
    )
    def test_unconvertible_refused(self, u, v, w, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SpanningForest(3, u, v, w)


class TestCluster:
    def test_valid_singleton(self):
        c = Cluster([7], [], [], [])
        assert c.size == 1 and c.members == {7} and c.edges == frozenset()

    def test_edge_count_must_fit_members(self):
        with pytest.raises(InputError, match="3 members need 2 edges, got 1"):
            Cluster([0, 1, 2], [0], [1], [1.0])

    def test_edges_must_stay_inside(self):
        with pytest.raises(InputError, match="an edge leaves the member set"):
            Cluster([0, 1], [0], [2], [1.0])

    def test_rejects_internal_cycle(self):
        # Three edges over four members that close a cycle leave one out.
        with pytest.raises(InputError, match="the edges close a cycle, so they do not connect"):
            Cluster([0, 1, 2, 3], [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])

    def test_any_order_and_orientation_held_as_read_only_copies(self):
        ids = np.array([9, 4, 7])
        c = Cluster(ids, [9, 4], [7, 7], [2.0, 1])
        ids[0] = 5
        assert (c.ids.tolist(), c.u.tolist(), c.v.tolist(), c.w.tolist()) == (
            [4, 7, 9], [4, 7], [7, 9], [1.0, 2.0]
        )
        assert (c.ids.dtype, c.u.dtype, c.w.dtype) == (np.int64, np.int64, np.float64)
        assert c.members == {4, 7, 9} and c.edges == {Edge(4, 7, 1.0), Edge(7, 9, 2.0)}
        with pytest.raises(ValueError):
            c.ids[0] = 0

    @pytest.mark.parametrize(
        "ids, u, v, w, message",
        [
            ([0.5, 1.7], [0], [1], [1.0], "member ids must be whole numbers"),
            ([0, math.nan], [0], [1], [1.0], "member ids must be whole numbers"),
            (["a", "b"], [0], [1], [1.0], "member ids must be whole numbers"),
            ([-1], [], [], [], "cluster members must be distinct and >= 0"),
            ([0, 1, 1], [0, 1], [1, 2], [1.0, 1.0], "cluster members must be distinct and >= 0"),
            ([], [], [], [], "a cluster needs a 1-D sequence of at least one member"),
            (7, [], [], [], "a cluster needs a 1-D sequence of at least one member"),
            ([0, 2], [0], [1], [1.0], "an edge leaves the member set"),
            ([0, 1], [-1], [1], [1.0], "an edge leaves the member set"),
            *(([0, 1, 2], *case) for case in EDGE_REFUSALS.values()),
            # m - 1 edges that leave the members disconnected close a cycle.
            ([0, 1, 2, 3, 4, 5], [0, 1, 0, 3, 4], [1, 2, 2, 4, 5], [1.0] * 5,
             "the edges close a cycle, so they do not connect the members"),
        ],
        ids=[
            "fractional-member", "nan-member", "string-member", "negative-member",
            "repeated-member", "no-members", "not-a-sequence", "edge-between-members",
            "negative-endpoint", *EDGE_REFUSALS,
            "disconnected",
        ],
    )
    def test_refused(self, ids, u, v, w, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Cluster(ids, u, v, w)

    @pytest.mark.parametrize(
        "u, v, w, message", UNCONVERTIBLE_EDGES.values(), ids=list(UNCONVERTIBLE_EDGES)
    )
    def test_unconvertible_refused(self, u, v, w, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Cluster([0, 1, 2], u, v, w)

    def test_ragged_ids_refused(self):
        with pytest.raises(InputError, match="member ids must be whole numbers"):
            Cluster([[0], [1, 2]], [0, 1], [1, 2], [1.0, 1.0])


def report(radius, diameter, variance=1.0, center=1):
    """A ClusteringResult whose one cluster, the path 0 - 1 - 2, reports
    the given center, radius, diameter and variance."""
    forest = SpanningForest(3, [0, 1], [1, 2], [1.0, 1.0])
    return ClusteringResult(
        forest, [center], [radius], [diameter], [variance], Dataset([p(0)]), ([], [], [], [])
    )


class TestClusterReport:
    """The per-cluster arrays of a ClusteringResult, checked by its
    constructor: radius <= diameter <= 2 * radius, exactly, and every value
    finite and >= 0, with the first cluster that fails named."""

    def test_valid_report(self):
        result = report(3.0, 6.0, 2.0)
        assert result.radius.tolist() == [3.0]
        assert (result.center.dtype, result.radius.dtype) == (np.int64, np.float64)

    def test_radius_cannot_exceed_diameter(self):
        with pytest.raises(InputError, match="cluster 0: radius 5.0 exceeds diameter 4.0"):
            report(5.0, 4.0)

    def test_diameter_capped_by_twice_radius(self):
        with pytest.raises(InputError, match="cluster 0: diameter 2.5 exceeds twice the radius 1.0"):
            report(1.0, 2.5)

    def test_singleton_zeros(self):
        forest = SpanningForest(2, [], [], [])
        result = ClusteringResult(
            forest, [0, 1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], Dataset([p(0), p(1)]),
            ([0], [1], [1.0], [1]),
        )
        assert result.diameter.tolist() == [0.0, 0.0]
        assert result.removed_edges == ((Edge(0, 1, 1.0), "longest"),)

    @pytest.mark.parametrize("radius", [1.0, 0.1, 3e-300, 7.5e200])
    def test_one_ulp_over_either_bound_is_refused(self, radius):
        report(radius, radius)
        report(radius, 2.0 * radius)
        with pytest.raises(InputError, match="exceeds diameter"):
            report(math.nextafter(radius, math.inf), radius)
        with pytest.raises(InputError, match="exceeds twice the radius"):
            report(radius, math.nextafter(2.0 * radius, math.inf))

    def test_largest_radius_bounds_any_diameter(self):
        big = 1.5e308  # 2 * big overflows, and the bound holds
        assert report(big, big).diameter.tolist() == [big]

    @pytest.mark.parametrize(
        "values, message",
        [
            ((-1.0, 1.0, 1.0), "radius must be finite and >= 0, got -1.0"),
            ((1.0, math.inf, 1.0), "diameter must be finite and >= 0, got inf"),
            ((1.0, 1.0, math.nan), "variance must be finite and >= 0, got nan"),
        ],
    )
    def test_non_finite_or_negative_refused(self, values, message):
        with pytest.raises(InputError, match=re.escape(f"cluster 0: {message}")):
            report(*values)

    def test_first_failing_cluster_is_named(self):
        forest = SpanningForest(4, [0, 2], [1, 3], [1.0, 1.0])
        points = Dataset([p(0), p(2)])
        removed = ([1], [2], [1.0], [1])
        with pytest.raises(InputError, match="cluster 1: radius 2.0 exceeds diameter 1.0"):
            ClusteringResult(forest, [0, 2], [1.0, 2.0], [1.0, 1.0], [0.5, 0.5], points, removed)
        with pytest.raises(InputError, match="cluster 1: variance must be finite"):
            ClusteringResult(forest, [0, 2], [1.0, 1.0], [1.0, 1.0], [0.5, -0.5], points, removed)


class TestCallerArrays:
    def test_constructors_leave_int64_arrays_unchanged_and_writeable(self):
        # An int64 array passes the id check as it is, so each constructor
        # must copy before it orders, swaps or freezes what it keeps.
        u, v = np.array([2, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64)
        ids, center = np.array([2, 0, 1], dtype=np.int64), np.array([1, 3], dtype=np.int64)
        cut_u, cut_v, fired = (np.array([x], dtype=np.int64) for x in (2, 3, 0))
        arrays = (u, v, ids, center, cut_u, cut_v, fired)
        before = [a.copy() for a in arrays]
        w = np.array([1.0, 1.0])
        forest = SpanningForest(4, u, v, w)
        Cluster(ids, u, v, w)
        result = ClusteringResult(
            forest, center, [1.0, 0.0], [2.0, 0.0], [1.0, 0.0], Dataset([p(0), p(1)]),
            (cut_u, cut_v, [5.0], fired),
        )
        for array, copy in zip(arrays, before):
            assert array.flags.writeable
            assert np.array_equal(array, copy)
        assert not result.center.flags.writeable


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

    @pytest.mark.parametrize(
        "left, right, level, message",
        [
            ([0, 3], [1, 2], [1.0, "a"], "merge levels must be finite, >= 0 and non-decreasing"),
            ([0, 3], [1, 2], [[1.0], [1.0, 2.0]], "merge levels must be finite, >= 0 and non-"),
            ([[0], [3, 1]], [1, 2], [1.0, 2.0], "3 leaves need left, right and level of length 2"),
            ([0, 3], [[1, 2], [2]], [1.0, 2.0], "3 leaves need left, right and level of length 2"),
        ],
        ids=["string-level", "ragged-levels", "ragged-left", "ragged-right"],
    )
    def test_unconvertible_refused(self, left, right, level, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Dendrogram(3, left, right, level)

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

    @pytest.mark.parametrize("name", ["zahn_c", "zahn_f"])
    @pytest.mark.parametrize("value", ["x", None, [2.0]])
    def test_non_numeric_parameters_refused(self, name, value):
        # float("x") used to escape as a bare ValueError.
        message = f"{name} must be finite and > 0, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            CriterionConfig(**{name: value})

    def test_non_integral_depth_refused(self):
        with pytest.raises(ConfigError, match="zahn_depth must be a whole number, got 1.7"):
            CriterionConfig(zahn_depth=1.7)
        for depth in (3, np.int32(3), 3.0):
            assert CriterionConfig(zahn_depth=depth).zahn_depth == 3

    @pytest.mark.parametrize("depth", [math.nan, math.inf, -math.inf])
    def test_non_finite_depth_refused(self, depth):
        with pytest.raises(ConfigError, match=f"zahn_depth must be a whole number, got {depth!r}"):
            CriterionConfig(zahn_depth=depth)
