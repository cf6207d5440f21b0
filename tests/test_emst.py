"""EMST construction, the exhaustive reference, and edge statistics."""

from __future__ import annotations

import math
import random

import pytest

from emstclust import (
    Dataset,
    DegenerateInputError,
    InputError,
    Point,
    build_emst,
    edge_statistics,
)
from oracles import (
    brute_force_mst_weight,
    brute_mst_weight_subsets,
    canonical_kruskal,
    max_min_separation,
)


def dataset_1d(*values):
    return Dataset(tuple(Point((float(v),)) for v in values))


def random_dataset(rng, n, dim):
    return Dataset(
        tuple(
            Point(tuple(rng.uniform(0, 10) for _ in range(dim))) for _ in range(n)
        )
    )


class TestBuildEmst:
    def test_single_point_has_no_edges(self):
        tree = build_emst(dataset_1d(42))
        assert tree.vertex_count == 1
        assert tree.edges == frozenset()
        assert tree.component_count == 1

    def test_two_points(self):
        tree = build_emst(Dataset((Point((0.0, 0.0)), Point((3.0, 4.0)))))
        (edge,) = tree.edges
        assert edge.endpoints == (0, 1)
        assert edge.weight == 5.0

    def test_chain_example(self):
        tree = build_emst(dataset_1d(0, 1, 3, 6, 10))
        got = sorted((e.u, e.v, e.weight) for e in tree.edges)
        assert got == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)]
        assert tree.total_weight == 10.0

    def test_duplicate_points_zero_weight_edges(self):
        tree = build_emst(dataset_1d(5, 5, 5))
        assert tree.component_count == 1
        assert all(e.weight == 0.0 for e in tree.edges)

    def test_squared_distance_overflow_rejected(self):
        # d^2 overflows to inf here; Prim used to re-pick a tree vertex and
        # return a one-edge "tree" over four points.
        with pytest.raises(InputError, match="squared-distance overflow"):
            build_emst(dataset_1d(0, 1e200, 2e200, 3e200))

    def test_deterministic_under_ties(self):
        # A 3x3 unit lattice has many equal-weight candidate edges.
        pts = tuple(
            Point((float(x), float(y))) for x in range(3) for y in range(3)
        )
        first = build_emst(Dataset(pts))
        second = build_emst(Dataset(pts))
        assert first.edges == second.edges
        assert first.total_weight == 8.0

    def test_spanning_single_component(self):
        rng = random.Random(11)
        for _ in range(20):
            ds = random_dataset(rng, rng.randint(2, 30), rng.choice([1, 2, 3]))
            tree = build_emst(ds)
            assert tree.component_count == 1
            assert len(tree.edges) == len(ds) - 1

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 7)
            ds = random_dataset(rng, n, rng.choice([1, 2, 3]))
            total = build_emst(ds).total_weight
            expected = brute_mst_weight_subsets(list(ds.points))
            assert total == pytest.approx(expected, abs=1e-9)

    def test_heaviest_edge_split_maximizes_min_separation(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(3, 8)
            ds = random_dataset(rng, n, rng.choice([1, 2]))
            tree = build_emst(ds)
            heaviest = min(tree.edges, key=lambda e: (-e.weight, e.u, e.v))
            rest = frozenset(tree.edges) - {heaviest}
            from emstclust import SpanningForest

            parts = SpanningForest(n, rest).components()
            assert len(parts) == 2
            achieved = min(
                math.dist(ds.points[i].coords, ds.points[j].coords)
                for i in parts[0]
                for j in parts[1]
            )
            assert achieved == pytest.approx(max_min_separation(list(ds.points)), abs=1e-9)


def integer_grid(rng, n, dim, side):
    return [tuple(float(rng.randrange(side)) for _ in range(dim)) for _ in range(n)]


def duplicates(rng, n, dim):
    base = [tuple(rng.uniform(-5, 5) for _ in range(dim)) for _ in range(max(1, n // 4))]
    return [rng.choice(base) for _ in range(n)]


def collinear(rng, n, dim):
    direction = [rng.uniform(-1, 1) for _ in range(dim)]
    return [tuple(t * c for c in direction) for t in (rng.randrange(12) for _ in range(n))]


CANONICAL_CASES = {
    "one_point": [(3.0, 1.0)],
    "two_points": [(1.0, 1.0), (0.0, 0.0)],
    "two_identical": [(2.0,), (2.0,)],
    "lattice_3x3": [(float(x), float(y)) for x in range(3) for y in range(3)],
    "lattice_3x3_reversed": [(float(x), float(y)) for x in range(2, -1, -1) for y in range(3)],
    "lattice_4x4x2": [(float(x), float(y), float(z)) for z in range(2) for y in range(4) for x in range(4)],
    "all_identical": [(1.5, -2.0, 0.25)] * 7,
    "collinear_equal_steps": [(float(t), 2.0 * t) for t in (4, 0, 2, 1, 3, 1)],
}


def random_canonical_cases():
    rng = random.Random(61)
    cases = []
    for dim in (1, 2, 3, 5, 8, 16):
        for _ in range(4):
            n = rng.randint(2, 40)
            cases.append(integer_grid(rng, n, dim, 3))
            cases.append(duplicates(rng, n, dim))
            cases.append(collinear(rng, n, dim))
    return cases


class TestCanonicalEdgeSet:
    """build_emst returns the unique tree of the canonical edge order
    (d^2, min endpoint, max endpoint), weights included."""

    @staticmethod
    def check(coords):
        points = [Point(c) for c in coords]
        tree = build_emst(Dataset(tuple(points)))
        assert {(e.u, e.v, e.weight) for e in tree.edges} == canonical_kruskal(points)

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_fixed_cases(self, name):
        self.check(CANONICAL_CASES[name])

    def test_random_ties_duplicates_and_lines(self):
        for coords in random_canonical_cases():
            self.check(coords)


class TestBruteForce:
    def test_triangle_example(self):
        assert brute_force_mst_weight(dataset_1d(0, 1, 5)) == 5.0

    def test_single_point(self):
        assert brute_force_mst_weight(dataset_1d(3)) == 0.0

    def test_two_points(self):
        assert brute_force_mst_weight(dataset_1d(2, 9)) == 7.0

    def test_size_cap(self):
        with pytest.raises(InputError):
            brute_force_mst_weight(dataset_1d(*range(9)))

    def test_agrees_with_subset_enumeration(self):
        rng = random.Random(47)
        for _ in range(15):
            n = rng.randint(2, 7)
            ds = random_dataset(rng, n, rng.choice([1, 2, 3]))
            assert brute_force_mst_weight(ds) == pytest.approx(
                brute_mst_weight_subsets(list(ds.points)), abs=1e-12
            )


class TestEdgeStatistics:
    def test_chain_example(self):
        stats = edge_statistics(build_emst(dataset_1d(0, 1, 3, 6, 10)))
        assert stats.mean == 2.5
        assert stats.std == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert stats.variance == pytest.approx(1.25, abs=1e-12)

    def test_population_not_sample_deviation(self):
        # Two edges of weights 1 and 3: population std is 1, sample std would
        # be sqrt(2).
        stats = edge_statistics(build_emst(dataset_1d(0, 1, 4)))
        assert stats.std == pytest.approx(1.0, abs=1e-12)

    def test_empty_tree_rejected(self):
        with pytest.raises(DegenerateInputError):
            edge_statistics(build_emst(dataset_1d(1)))
