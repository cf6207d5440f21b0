"""Tree path metrics, cluster variance and compactness."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emstclust import (
    Cluster,
    Dataset,
    DistanceTable,
    Edge,
    EdgeStats,
    InputError,
    Point,
    build_emst,
    center_and_radius,
    cluster_compactness,
    cluster_variance,
    diameter_and_set,
    emstrd,
    emstucc,
    path_distance_table,
    tree_eccentricities,
)
from emstclust.emst import _emst_arrays
from emstclust.metrics import _CHUNK, _center, _mean, _rms, _rms_spread
from oracles import (
    edge_lists,
    eccentricities_oracle,
    mean_std,
    path_distance_oracle,
    random_tree,
    tree_as_cluster,
)


def p(*coords):
    return Point(tuple(float(c) for c in coords))


def chain_cluster(weights):
    n = len(weights) + 1
    edges = [Edge(i, i + 1, w) for i, w in enumerate(weights)]
    return tree_as_cluster(n, edges)


# The running example: 1-D points {0, 1, 3, 6, 10}, EMST chain with
# weights 1, 2, 3, 4 between consecutive vertices.
CHAIN = chain_cluster([1.0, 2.0, 3.0, 4.0])


class TestPathDistanceTable:
    @pytest.mark.parametrize("vertices", [(0.5, 1.5), (0, 2.9), (0, math.nan), (0, "a")])
    def test_fractional_vertices_refused(self, vertices):
        # (0.5, 1.5) used to be truncated to (0, 1).
        with pytest.raises(InputError, match="vertices must be whole numbers"):
            DistanceTable(vertices, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "vertices, distances, message",
        [
            ((), np.zeros((0, 0)), "a distance table needs at least one vertex"),
            ((0, 0), [[0.0, 1.0], [1.0, 0.0]], "distance table vertices must be distinct"),
            ((0, 1), [[0.0]], re.escape("distance matrix must be 2x2, got (1, 1)")),
            ((0, 1), [[0.0, -1.0], [-1.0, 0.0]], "distances must be finite and >= 0"),
            ((0, 1), [[0.0, math.inf], [math.inf, 0.0]], "distances must be finite and >= 0"),
            ((0, 1), [[0.5, 1.0], [1.0, 0.0]], "self distances must be exactly zero"),
            ((0, 1), [[0.0, 1.0], [2.0, 0.0]], "distance matrix must be exactly symmetric"),
        ],
    )
    def test_malformed_table_refused(self, vertices, distances, message):
        with pytest.raises(InputError, match=message):
            DistanceTable(vertices, distances)

    def test_unknown_vertex_refused(self):
        table = path_distance_table(CHAIN)
        with pytest.raises(InputError, match="vertex 7 is not in this table"):
            table.distance(0, 7)

    def test_two_hop_chain(self):
        table = path_distance_table(chain_cluster([1.0, 2.0]))
        assert table.distance(0, 2) == 3.0

    def test_chain_example_distances(self):
        table = path_distance_table(CHAIN)
        assert table.distance(0, 4) == 10.0
        assert table.distance(1, 3) == 5.0

    def test_symmetry_and_zero_diagonal_exact(self):
        table = path_distance_table(CHAIN)
        for x in table.vertices:
            assert table.distance(x, x) == 0.0
            for y in table.vertices:
                assert table.distance(x, y) == table.distance(y, x)

    def test_singleton(self):
        table = path_distance_table(tree_as_cluster(1, []))
        assert table.distance(0, 0) == 0.0

    def test_matches_path_walk_oracle(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(2, 50)
            edges = random_tree(rng, n)
            table = path_distance_table(tree_as_cluster(n, edges))
            expected = path_distance_oracle(n, edges)
            for (u, v), d in expected.items():
                assert table.distance(u, v) == d

    def test_duplicate_points_never_negative(self):
        # Rerooting from (2, 0) through a sqrt(2) edge used to leave the zero
        # path between the two copies of (3, 2) at -1 ulp, which the table
        # rejected, so emstrd failed on this valid input.
        ds = Dataset((p(2, 0), p(3, 2), p(3, 2), p(2, 1)))
        result = emstrd(ds, 1)
        table = path_distance_table(result.clusters[0])
        assert table.distance(1, 2) == 0.0
        expected = path_distance_oracle(4, sorted(result.clusters[0].edges))
        for (u, v), d in expected.items():
            assert table.distance(u, v) == pytest.approx(d, abs=1e-12)


class TestEccentricityCenterDiameter:
    def test_chain_eccentricities(self):
        table = path_distance_table(CHAIN)
        assert table.vertices == (0, 1, 2, 3, 4)
        assert table.eccentricities.tolist() == [10.0, 9.0, 7.0, 6.0, 10.0]

    def test_chain_center_and_radius(self):
        centers, radius = center_and_radius(path_distance_table(CHAIN))
        assert radius == 6.0
        assert centers == frozenset({3})

    def test_chain_diameter_and_set(self):
        diameter, attaining = diameter_and_set(path_distance_table(CHAIN))
        assert diameter == 10.0
        assert attaining == frozenset({0, 4})

    def test_unit_star(self):
        star = tree_as_cluster(
            4, [Edge(0, 1, 1.0), Edge(0, 2, 1.0), Edge(0, 3, 1.0)]
        )
        table = path_distance_table(star)
        centers, radius = center_and_radius(table)
        assert (centers, radius) == (frozenset({0}), 1.0)
        diameter, attaining = diameter_and_set(table)
        assert diameter == 2.0
        assert attaining == frozenset({1, 2, 3})

    def test_singleton_zero(self):
        table = path_distance_table(tree_as_cluster(1, []))
        assert table.eccentricities.tolist() == [0.0]
        assert center_and_radius(table) == (frozenset({0}), 0.0)
        assert diameter_and_set(table) == (0.0, frozenset({0}))

    def test_radius_diameter_bounds_random_trees(self):
        rng = random.Random(211)
        for _ in range(50):
            n = rng.randint(1, 50)
            table = path_distance_table(tree_as_cluster(n, random_tree(rng, n)))
            _, radius = center_and_radius(table)
            diameter, _ = diameter_and_set(table)
            assert radius <= diameter <= 2.0 * radius

    def test_agrees_with_oracle_eccentricities(self):
        rng = random.Random(307)
        for _ in range(25):
            n = rng.randint(2, 40)
            edges = random_tree(rng, n)
            table = path_distance_table(tree_as_cluster(n, edges))
            expected = eccentricities_oracle(n, edges)
            for v, ecc in zip(table.vertices, table.eccentricities):
                assert ecc == expected[v]


PARENT_OF = {
    "path": lambda i, rng: i - 1,
    "star": lambda i, rng: 0,
    "binary": lambda i, rng: (i - 1) // 2,
    "random": lambda i, rng: rng.randrange(i),
}

WEIGHT_OF = {
    "duplicates": lambda rng: rng.choice([0.0, 0.0, 0.5, 1.0]),
    "integer_ties": lambda rng: float(rng.randint(0, 3)),
    "mixed_scale": lambda rng: rng.choice([1e-3, 1e6]) * rng.uniform(1.0, 2.0),
    "uniform": lambda rng: rng.uniform(0.0, 10.0),
    "wide_range": lambda rng: 10.0 ** rng.uniform(-8.0, 8.0),
}


def shaped_cluster(rng, n, shape, weight, offset=0):
    """A tree of the given shape on members offset .. offset + n - 1, with
    vertex labels shuffled so the lowest member can sit anywhere in it."""
    label = list(range(offset, offset + n))
    rng.shuffle(label)
    edges = [
        Edge(label[i], label[PARENT_OF[shape](i, rng)], WEIGHT_OF[weight](rng))
        for i in range(1, n)
    ]
    return Cluster(label, *edge_lists(edges))


def assert_same_as_table(cluster):
    table = path_distance_table(cluster)
    result = tree_eccentricities(cluster)
    assert result.vertices == table.vertices
    # Bit for bit, the sign of zero included.
    assert result.eccentricities.tobytes() == table.eccentricities.tobytes()
    assert list(result.eccentricities) == list(table.distances.max(axis=1))
    assert center_and_radius(result) == center_and_radius(table)
    assert diameter_and_set(result) == diameter_and_set(table)


class TestTreeEccentricities:
    @pytest.mark.parametrize("weight", sorted(WEIGHT_OF))
    @pytest.mark.parametrize("shape", sorted(PARENT_OF))
    def test_equals_table_exactly(self, shape, weight):
        rng = random.Random(f"{shape}-{weight}")
        for _ in range(30):
            cluster = shaped_cluster(
                rng, rng.randint(1, 60), shape, weight, offset=rng.randint(0, 9)
            )
            assert_same_as_table(cluster)

    def test_singleton(self):
        cluster = tree_as_cluster(1, [])
        assert_same_as_table(cluster)
        result = tree_eccentricities(cluster)
        assert result.vertices == (0,)
        assert result.eccentricities.tolist() == [0.0]

    def test_emst_of_small_integer_points(self):
        # Duplicate points and sqrt weights: sums and differences taken in
        # other orders leave zero paths at -1 ulp before the clamp.
        rng = random.Random(907)
        for _ in range(60):
            n = rng.randint(2, 40)
            ds = Dataset(
                tuple(p(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n))
            )
            tree = build_emst(ds)
            assert_same_as_table(Cluster(range(n), tree.u, tree.v, tree.w))

    @pytest.mark.parametrize("weight", sorted(WEIGHT_OF))
    @pytest.mark.parametrize("shape", sorted(PARENT_OF))
    def test_equals_fsum_path_oracle(self, shape, weight):
        # Each eccentricity is the correctly rounded length of the longest
        # path, so the radius and diameter meet their contract exactly.
        rng = random.Random(f"fsum-{shape}-{weight}")
        for _ in range(8):
            cluster = shaped_cluster(
                rng, rng.randint(1, 40), shape, weight, offset=rng.randint(0, 9)
            )
            result = tree_eccentricities(cluster)
            expected = eccentricities_oracle(max(cluster.members) + 1, sorted(cluster.edges))
            assert result.eccentricities.tolist() == [expected[v] for v in result.vertices]
            _, radius = center_and_radius(result)
            diameter, _ = diameter_and_set(result)
            assert radius <= diameter <= 2.0 * radius

    def test_path_sum_is_rounded_once(self):
        # Adding 0.1 ten times in a row gives 0.9999999999999999.
        result = tree_eccentricities(chain_cluster([0.1] * 10))
        assert result.eccentricities[0] == result.eccentricities[-1] == 1.0

    def test_subnormal_and_huge_weights(self):
        weights = [5e-324, 1e300, 2.5e-320, 1e-300, 7.0, 1e300, 0.0]
        cluster = chain_cluster(weights)
        expected = eccentricities_oracle(len(weights) + 1, sorted(cluster.edges))
        assert tree_eccentricities(cluster).eccentricities.tolist() == expected

    def test_path_beyond_the_float_range_refused(self):
        cluster = chain_cluster([1e308, 1e308])
        with pytest.raises(InputError, match="longer than the largest float"):
            tree_eccentricities(cluster)
        with pytest.raises(InputError, match="longer than the largest float"):
            path_distance_table(cluster)

    def test_identical_points_get_equal_eccentricities(self):
        # Copies of a point hang off one another by zero-weight edges, so
        # their longest paths have the same exact length.
        rng = random.Random(1709)
        base = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(300)]
        rows = [rng.choice(base) for _ in range(1500)]
        result = emstrd(Dataset(tuple(Point(row) for row in rows)), 4)
        for cluster in result.clusters:
            ecc = tree_eccentricities(cluster)
            by_row: dict[tuple[float, ...], set[float]] = {}
            for v, value in zip(ecc.vertices, ecc.eccentricities.tolist()):
                by_row.setdefault(rows[v], set()).add(value)
            assert all(len(values) == 1 for values in by_row.values())

    @pytest.mark.parametrize("shape", ["path", "star", "binary"])
    def test_memory_far_below_the_table(self, shape):
        m = 5000
        rng = random.Random(shape)
        cluster = shaped_cluster(rng, m, shape, "uniform")
        tracemalloc.start()
        try:
            tree_eccentricities(cluster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * m * m


@st.composite
def zero_heavy_clusters(draw):
    """A tree on 1-40 members with gaps between their ids, its shape and
    labelling drawn so that the lowest member can sit anywhere. One tree in
    four has only zero weights; in the rest about two weights in three are
    0 and the others are spread over 2^-300 .. 2^300."""
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    positive = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-300, 300))
    zero = st.just(True) if draw(st.integers(0, 3)) == 0 else st.sampled_from([True, True, False])
    weights = [0.0 if draw(zero) else draw(positive) for _ in parents]
    return Cluster(ids, ids[1:], [ids[j] for j in parents], weights)


def expected_center(cluster):
    """_center's result taken from tree_eccentricities of the whole tree."""
    ecc = tree_eccentricities(cluster)
    centers, radius = center_and_radius(ecc)
    return min(centers), radius, diameter_and_set(ecc)[0]


def grid_rows(seed, n, side, dim):
    return np.random.default_rng(seed).integers(0, side, (n, dim)).astype(float)


class TestZeroWeightContraction:
    """_center contracts each group of members joined by zero-weight edges
    to its lowest member before the sweeps; the result must be the one of
    the whole tree."""

    @settings(max_examples=300, deadline=None)
    @given(zero_heavy_clusters())
    @example(Cluster([4], [], [], []))
    @example(Cluster([0, 1, 2], [0, 1], [1, 2], [0.0, 0.0]))
    # The lowest member hangs off its group by a zero edge.
    @example(Cluster([3, 5, 9], [3, 5], [9, 9], [0.0, 2.0]))
    # Groups {1, 7} and {2, 8} tie at the smallest eccentricity.
    @example(Cluster([1, 2, 7, 8], [2, 1, 2], [7, 7, 8], [1.0, 0.0, 0.0]))
    @example(Cluster(range(5), [0, 1, 1, 2], [4, 4, 2, 3], [0.0, 3.0, 0.0, 3.0]))
    def test_equals_the_uncontracted_eccentricities(self, cluster):
        got = _center(cluster.ids, cluster.u, cluster.v, cluster.w)
        assert got == expected_center(cluster)

    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_emstrd_on_duplicate_grid_rows(self, k):
        rows = grid_rows(k, 300, 4, 3)
        result = emstrd(Dataset._of_array(rows), k)
        assert (result.forest.w == 0.0).any() or k == len(rows)
        for c, cluster in enumerate(result.clusters):
            table = path_distance_table(cluster)
            centers, radius = center_and_radius(table)
            got = (int(result.center[c]), float(result.radius[c]), float(result.diameter[c]))
            assert got == (min(centers), radius, diameter_and_set(table)[0])

    def test_emstucc_on_duplicate_centers(self):
        # Like a run at k close to n on duplicate-heavy rows: many clusters
        # share a center point, so the meta tree has zero-weight edges.
        result = emstucc(Dataset._of_array(grid_rows(7, 600, 5, 3)))
        meta = result.meta_tree
        assert (meta.w == 0.0).sum() > len(meta.w) // 2
        whole = Cluster(range(meta.vertex_count), meta.u, meta.v, meta.w)
        assert (result.central_cluster, result.meta_radius) == expected_center(whole)[:2]

    def test_peak_memory_follows_the_distinct_points(self):
        # 4000 rows on the 8^3 grid, 512 distinct: 3488 of the 3999 EMST
        # edges have weight 0. Measured at 0.29 MB with the contraction and
        # 1.17 MB without it; the bound is the first plus a quarter.
        u, v, w = _emst_arrays(grid_rows(1, 4000, 8, 3))
        ids = np.arange(4000)
        tracemalloc.start()
        try:
            _center(ids, u, v, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 0.29 * 2**20


class TestCentroidMeasures:
    def test_cluster_variance_rms_not_mean(self):
        # {0,0,0,4}: centroid 1, squared deviations {1,1,1,9}. The RMS form
        # gives sqrt(3); a mean-distance form would give 1.5 instead.
        assert cluster_variance([p(0), p(0), p(0), p(4)]) == pytest.approx(
            math.sqrt(3.0), abs=1e-12
        )

    def test_cluster_variance_pair(self):
        assert cluster_variance([p(0), p(2)]) == 1.0

    def test_cluster_variance_of_tiny_and_huge_spreads(self):
        # Unscaled, the squares of 1e-170 underflow to 0 and those of 5e154
        # overflow.
        assert cluster_variance([p(1e-170), p(3e-170)]) == pytest.approx(1e-170, rel=1e-15)
        assert cluster_variance([p(i * 1e154, 0.0) for i in range(11)]) == pytest.approx(
            math.sqrt(10) * 1e154, rel=1e-15
        )
        # The first column sums past the largest float; the mean (1e308,
        # 1/3) lies 1/3, 1/3 and 2/3 from the points.
        pts = [p(1e308, 0.0), p(1e308, 0.0), p(1e308, 1.0)]
        assert cluster_variance(pts) == pytest.approx(math.sqrt(2) / 3, rel=1e-15)

    def test_cluster_variance_chain_prefix(self):
        assert cluster_variance([p(0), p(1), p(3), p(6)]) == pytest.approx(
            math.sqrt(5.25), abs=1e-12
        )

    def test_variance_equals_centroid_radius(self):
        rng = random.Random(503)
        for _ in range(50):
            n = rng.randint(1, 25)
            dim = rng.choice([1, 2, 3])
            pts = [
                p(*(rng.uniform(-100, 100) for _ in range(dim)))
                for _ in range(n)
            ]
            mu = np.mean([q.coords for q in pts], axis=0).tolist()
            by_coordinates = math.sqrt(
                math.fsum(
                    math.fsum((c - m) ** 2 for c, m in zip(q.coords, mu))
                    for q in pts
                )
                / n
            )
            assert cluster_variance(pts) == pytest.approx(by_coordinates, abs=1e-12)

    def test_translation_invariance(self):
        rng = random.Random(601)
        for _ in range(20):
            n = rng.randint(2, 15)
            pts = [p(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
            shift = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            moved = [
                p(pt.coords[0] + shift[0], pt.coords[1] + shift[1]) for pt in pts
            ]
            assert cluster_variance(moved) == pytest.approx(
                cluster_variance(pts), abs=1e-9
            )


class TestOneStatisticsRule:
    def test_edge_stats_equal_the_textbook_formula(self):
        rng = random.Random(907)
        for _ in range(2000):
            top = rng.choice([1.0, 10.0, 1000.0])
            weights = [rng.uniform(0.0, top) for _ in range(rng.randint(1, 40))]
            weights += rng.sample(weights, rng.randint(0, len(weights)))  # ties
            assert EdgeStats.of(weights) == EdgeStats(*mean_std(weights))

    def test_edge_stats_of_an_array_equal_those_of_its_list(self):
        # emstrd passes the EMST's weight array and the zahn sides pass
        # lists; both give the same floats, including where the sum overflows.
        rng = random.Random(919)
        for e in (-700, 0, 300, 1000):
            for _ in range(200):
                weights = [math.ldexp(rng.uniform(0.0, 10.0), e) for _ in range(rng.randint(1, 60))]
                assert EdgeStats.of(np.array(weights)) == EdgeStats.of(weights)
        for weights in ([1.7e308, 1.7e308, 0.0], [], [0.0]):
            assert EdgeStats.of(np.array(weights)) == EdgeStats.of(weights)

    @pytest.mark.parametrize(
        "weights", [[0.0, 10.0, 10.0, 10.0], [1e300, 1e300, 1e300, math.nextafter(1e300, 0.0)]]
    )
    def test_largest_deviation_at_the_smallest_value(self, weights):
        # The mean of the second list rounds to 1e300 itself, so the largest
        # value deviates by 0 and only the smallest one's deviation (one ulp,
        # about 2^944) gives a scale under which no scaled deviation overflows.
        # The oracle squares unscaled, so it sees the weights below 1. A list
        # and a float64 array take separate branches of _rms.
        e = math.frexp(max(weights))[1]
        mean, std = (math.ldexp(x, e) for x in mean_std([math.ldexp(w, -e) for w in weights]))
        for values in (weights, np.array(weights)):
            assert _rms(values, mean) == std
            assert EdgeStats.of(values) == EdgeStats(mean, std)

    def test_edge_stats_of_an_array_makes_no_copy(self):
        # The deviations stream through math.fsum; as a numpy array they
        # traced 1.6 MB here.
        weights = np.random.default_rng(12).random(100_000)
        tracemalloc.start()
        try:
            EdgeStats.of(weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_edge_stats_scale_exactly(self):
        # Unscaled, the squares of the deviations would be subnormal from
        # about e = -510 down.
        rng = random.Random(911)
        for e in range(-900, 401):
            weights = [rng.uniform(0.5, 10.0) for _ in range(rng.randint(1, 12))]
            stats = EdgeStats.of(weights)
            assert EdgeStats.of([math.ldexp(w, e) for w in weights]) == EdgeStats(
                math.ldexp(stats.mean, e), math.ldexp(stats.std, e)
            )

    def test_squares_are_multiplies_not_pow(self):
        # The mean is 1.4133..., so the distances are 0.9666..., 0.9633...
        # and 0.0033...; with ** 2, this platform's libm pow rounds one
        # square differently and the spread comes out one ulp larger,
        # 0x1.936a9b884c848p-1.
        pts = [p(2.38), p(0.45), p(1.41)]
        assert cluster_variance(pts) == float.fromhex("0x1.936a9b884c847p-1")
        assert cluster_variance(pts) == mean_std([2.38, 0.45, 1.41])[1]

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("scale", [1e3, 1e307], ids=["plain", "sums-overflow"])
    def test_spread_across_chunks_equals_the_whole_list_formula(self, n, scale):
        # Past one chunk the distances go into a float64 array a chunk at a
        # time; at 1e307 the column sums overflow and _mean takes its
        # scaled path over the array.
        rows = np.random.default_rng(n).uniform(2.0, 9.0, (n, 3)) * scale
        lists = rows.tolist()
        mu = [_mean(column) for column in zip(*lists)]
        assert _rms_spread(rows) == _rms([math.dist(row, mu) for row in lists])

    def test_spread_memory_follows_the_array(self):
        # The distances as one float64 array (1.6 MB) and one chunk of row
        # lists; row lists of the whole array took 40 MB.
        rows = np.random.default_rng(8).random((200_000, 2))
        tracemalloc.start()
        try:
            _rms_spread(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes

    def test_mean_of_values_whose_sum_overflows(self):
        # Halved, four values of 1e308 would still overflow.
        assert _mean([1e308] * 4) == 1e308
        assert _mean([2.0**1023, 2.0**1023, 2.0**1022]) == math.ldexp(5 / 3, 1022)


class TestCompactness:
    def test_whole_dataset_is_exactly_one(self):
        ds = Dataset((p(0), p(1), p(5), p(9)))
        result = emstrd(ds, 1)
        value, degenerate = cluster_compactness(result.clusters, ds)
        assert value == 1.0
        assert degenerate is False

    def test_two_pair_anchor(self):
        ds = Dataset((p(0), p(2), p(10), p(12)))
        result = emstrd(ds, 2)
        value, degenerate = cluster_compactness(result.clusters, ds)
        assert value == pytest.approx(1.0 / math.sqrt(26.0), abs=1e-9)
        assert degenerate is False

    def test_degenerate_identical_points(self):
        ds = Dataset((p(3, 3), p(3, 3), p(3, 3)))
        clusters = [Cluster([0, 1, 2], [0, 1], [1, 2], [0.0, 0.0])]
        value, degenerate = cluster_compactness(clusters, ds)
        assert value == 0.0
        assert degenerate is True

    def test_no_cluster_refused(self):
        with pytest.raises(InputError, match="at least one cluster is required"):
            cluster_compactness([], Dataset((p(0), p(1))))

    def test_partition_enforced(self):
        ds = Dataset((p(0), p(1), p(2)))
        incomplete = [Cluster([0, 1], [0], [1], [1.0])]
        with pytest.raises(InputError, match="clusters must partition the dataset indices"):
            cluster_compactness(incomplete, ds)
        beyond = [Cluster([0, 1], [0], [1], [1.0]), Cluster([2, 3], [2], [3], [1.0])]
        with pytest.raises(InputError, match="clusters must partition the dataset indices"):
            cluster_compactness(beyond, ds)
        overlapping = [
            Cluster([0, 1], [0], [1], [1.0]),
            Cluster([1, 2], [1], [2], [1.0]),
        ]
        with pytest.raises(InputError, match="clusters overlap"):
            cluster_compactness(overlapping, ds)
