"""EMST construction, the exhaustive reference, and edge statistics."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from emstclust import (
    Dataset,
    DegenerateInputError,
    InputError,
    Point,
    build_emst,
    edge_statistics,
    euclidean_distance,
)
from emstclust import emst
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

    @pytest.mark.parametrize("builder", [emst._prim_emst, emst._kdtree_emst])
    @pytest.mark.parametrize("coords", ["line", "two_groups"])
    def test_builders_reject_squared_distance_overflow(self, builder, coords):
        with pytest.raises(InputError, match="squared-distance overflow"):
            builder(OVERFLOW_INPUTS[coords])

    def test_two_groups_overflow_rejected_by_either_builder(self):
        # 20 points stay on Prim, 2000 go to the k-d tree kernel.
        for n in (20, 2000):
            coords = two_groups_1e200_apart(n)
            with pytest.raises(InputError, match="squared-distance overflow"):
                build_emst(Dataset(tuple(Point(tuple(c)) for c in coords.tolist())))

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


def two_groups_1e200_apart(n):
    """Two tight 2-D groups whose every cross difference squares to inf."""
    rng = np.random.default_rng(3)
    near = rng.uniform(0, 1, (n // 2, 2))
    far = np.column_stack([np.full(n - n // 2, 1e200), rng.uniform(0, 1, n - n // 2)])
    return np.vstack([near, far])


OVERFLOW_INPUTS = {
    "line": np.array([[0.0], [1e200], [2e200], [3e200]]),
    "two_groups": two_groups_1e200_apart(60),
}


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


def kernel_tree(coords):
    """(u, v, weight) triples of the k-d tree kernel's tree, bypassing the
    size and dimension dispatch of build_emst."""
    points = [Point(c) for c in coords]
    u, v = emst._kdtree_emst(np.array(coords, dtype=np.float64).reshape(len(coords), -1))
    return {
        (min(a, b), max(a, b), euclidean_distance(points[a], points[b]))
        for a, b in zip(u.tolist(), v.tolist())
    }


class TestKdTreeKernel:
    """The k-d tree Boruvka returns the canonical tree itself, on inputs
    small enough that build_emst would hand them to Prim."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_fixed_cases(self, name):
        coords = CANONICAL_CASES[name]
        assert kernel_tree(coords) == canonical_kruskal([Point(c) for c in coords])

    def test_random_ties_duplicates_and_lines(self):
        for coords in random_canonical_cases():
            assert kernel_tree(coords) == canonical_kruskal([Point(c) for c in coords])


@st.composite
def tie_heavy_points(draw):
    """Integer grids, duplicates or collinear points; up to 400 points (a
    dozen or more leaves) in up to 16 dimensions. A grid of tenths has ties
    in exact arithmetic that rounding breaks, so there both builders agree
    only if they round every d^2 alike."""
    dim = draw(st.integers(1, 16))
    n = draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["grid", "tenths", "duplicates", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("grid", "tenths"):
        grid = rng.integers(0, draw(st.integers(2, 5)), (n, dim)).astype(float)
        return grid * 0.1 if kind == "tenths" else grid
    if kind == "duplicates":
        base = rng.uniform(-5, 5, (draw(st.integers(1, max(1, n // 3))), dim))
        return base[rng.integers(0, len(base), n)]
    return rng.integers(-20, 20, (n, 1)) * rng.uniform(-1, 1, dim)


def edge_set(ends):
    u, v = ends
    return {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}


@settings(max_examples=60, deadline=None)
@given(tie_heavy_points())
def test_kernel_matches_prim_and_scipy(coords):
    tree = edge_set(emst._kdtree_emst(coords))
    assert tree == edge_set(emst._prim_emst(coords))
    # scipy reads a zero distance as a missing edge, so duplicates go first;
    # they only add zero-weight edges to the tree.
    unique = np.unique(coords, axis=0)
    expected = minimum_spanning_tree(squareform(pdist(unique))).sum() if len(unique) > 1 else 0.0
    total = math.fsum(math.dist(coords[a], coords[b]) for a, b in tree)
    assert total == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestSquaredDistance:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_row_and_block_forms_agree_bit_for_bit(self, dim):
        # Magnitudes mixed from 1e-3 to 1e6 within each point.
        rng = np.random.default_rng(dim)
        scale = 10.0 ** rng.uniform(-3, 6, (60, dim))
        coords = rng.uniform(-1, 1, (60, dim)) * scale
        rows = np.array([emst._sq_dist(coords - coords[i]) for i in range(len(coords))])
        block = emst._sq_dist(coords[:, None, :] - coords[None, :, :])
        assert rows.tobytes() == block.tobytes()
        # Prim's original row expression, so the edge sets did not move.
        literal = np.array([np.einsum("ij,ij->i", coords - c, coords - c) for c in coords])
        assert rows.tobytes() == literal.tobytes()


def blob_dataset(n):
    rng = np.random.default_rng(5)
    centers = rng.uniform(0, 100, (10, 2))
    coords = centers[rng.integers(0, 10, n)] + rng.normal(0, 1, (n, 2))
    return Dataset(tuple(Point(tuple(c)) for c in coords.tolist()))


PEAK_SCRIPT = """
import json
from emstclust import emst, build_emst
from test_emst import blob_dataset, traced_peak

dataset = blob_dataset(4000)
kernel_sizes = emst._KDTREE_MIN_N
assert len(dataset) >= kernel_sizes[2]  # the k-d tree runs

def peak(sizes):
    emst._KDTREE_MIN_N = sizes
    return traced_peak(build_emst, dataset)

peak(kernel_sizes), peak({})  # one-time caches are no call's memory
print(json.dumps([peak(kernel_sizes), peak({})]))
"""


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_build_emst_peak_not_above_dense_prim(self):
        # In a fresh interpreter: what earlier tests leave in caches and free
        # lists moves an in-process peak by up to ~15 kB.
        child = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
        )
        kernel, prim = json.loads(child.stdout)
        # Both peaks are the Edge objects and their set, 1.1 MB here; the
        # two paths leave free lists differing by under a kilobyte.
        assert kernel <= prim * 1.01

    def test_kernel_peak_is_linear_at_50k(self):
        # About 8 MB; one n_leaves^2 float64 matrix (2048 leaves) is 33.5 MB.
        coords = np.random.default_rng(9).random((50_000, 2))
        assert traced_peak(emst._kdtree_emst, coords) < 12e6


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
