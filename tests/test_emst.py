"""EMST construction, the exhaustive reference, and edge statistics."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    emstrd,
)
from emstclust import emst
from emstclust.cli import main
from oracles import (
    brute_force_mst_weight,
    brute_mst_weight_subsets,
    canonical_kruskal,
    max_min_separation,
    scaled_rows,
    tree_as_forest,
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

    def test_underflowing_squared_distances_keep_their_order(self):
        # Unscaled, every d^2 among the first three points underflows to 0
        # and the index tie-break takes (0, 2) before (1, 2).
        tree = build_emst(dataset_1d(0, 1e-200, 3e-200, 1))
        assert (tree.u.tolist(), tree.v.tolist()) == ([0, 0, 1], [1, 3, 2])
        assert tree.w.tolist() == pytest.approx([1e-200, 1.0, 2e-200], rel=1e-12, abs=0)

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
            rest = [e for e in tree.edges if e != heaviest]
            forest = tree_as_forest(n, rest)
            assert forest.component_count == 2
            achieved = min(
                math.dist(ds.points[i].coords, ds.points[j].coords)
                for i in forest.members_of(0).tolist()
                for j in forest.members_of(1).tolist()
            )
            assert achieved == pytest.approx(max_min_separation(list(ds.points)), abs=1e-9)


# Edge lists a builder might return for the four points of TREE_CHECK_POINTS,
# each wrong in one way. The range check before the distinct rows are
# renumbered, SpanningForest's constructor and build_emst's one-component
# check must refuse every one between them.
BAD_TREES = {
    "repeated edge": ([0, 0, 1], [1, 1, 2]),
    "cycle": ([0, 1, 0], [1, 2, 2]),
    "self-loop": ([0, 1, 3], [1, 2, 3]),
    "vertex past the end": ([0, 1, 2], [1, 2, 4]),
    "negative vertex": ([0, 1, 2], [1, 2, -1]),  # -1 would index vertex 3
    "n - 2 edges": ([0, 1], [1, 2]),
    "n edges": ([0, 1, 2, 0], [1, 2, 3, 3]),
}
TREE_CHECK_POINTS = (0.0, 1.0, 3.0, 6.0)


class TestTreeCheck:
    """The EMST is checked once, by build_emst; nothing downstream checks it
    again, so a broken builder must be refused there."""

    @pytest.fixture(params=["_prim_emst", "_kdtree_emst"])
    def broken_builder(self, request, monkeypatch):
        """Run the given builder on TREE_CHECK_POINTS and return what the
        test sets in `returns`; the other builder must not run."""
        returns = {}

        def broken(coords):
            assert coords.shape == (len(TREE_CHECK_POINTS), 1)
            u, v = returns["tree"]
            return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)

        def unused(coords):
            raise AssertionError("the other builder ran")

        other = {"_prim_emst": "_kdtree_emst", "_kdtree_emst": "_prim_emst"}[request.param]
        monkeypatch.setattr(emst, request.param, broken)
        monkeypatch.setattr(emst, other, unused)
        crossover = {1: 1} if request.param == "_kdtree_emst" else {}
        monkeypatch.setattr(emst, "_KDTREE_MIN_N", crossover)
        return returns

    @pytest.mark.parametrize("case", sorted(BAD_TREES))
    def test_refused_by_library_and_cli(self, broken_builder, case, tmp_path, capsys):
        broken_builder["tree"] = BAD_TREES[case]
        ds = dataset_1d(*TREE_CHECK_POINTS)
        with pytest.raises(InputError):
            build_emst(ds)
        with pytest.raises(InputError):
            emstrd(ds, 2)
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{x!r}\n" for x in TREE_CHECK_POINTS))
        code = main(["--input", str(path), "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_a_good_tree_passes(self, broken_builder):
        broken_builder["tree"] = ([1, 0, 3], [2, 1, 2])  # any order, either way round
        tree = build_emst(dataset_1d(*TREE_CHECK_POINTS))
        assert (tree.u.tolist(), tree.v.tolist(), tree.w.tolist()) == (
            [0, 1, 2],
            [1, 2, 3],
            [1.0, 2.0, 3.0],
        )

    @pytest.mark.parametrize("case", sorted(BAD_TREES))
    def test_refused_when_duplicates_are_collapsed(self, broken_builder, case):
        # Point 4 repeats point 0, so the builder sees the four distinct rows
        # of TREE_CHECK_POINTS; a -1 must not wrap to the last of them.
        broken_builder["tree"] = BAD_TREES[case]
        with pytest.raises(InputError):
            build_emst(dataset_1d(*TREE_CHECK_POINTS, TREE_CHECK_POINTS[0]))


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


def clustered(rng, n, dim):
    """A few groups 1000 apart, each of three repeated integer points: after
    the first Boruvka rounds whole k-d tree nodes lie in one component."""
    groups = rng.randint(2, 5)
    base = [[tuple(1000.0 * g + rng.randrange(3) for _ in range(dim)) for _ in range(3)] for g in range(groups)]
    return [rng.choice(base[rng.randrange(groups)]) for _ in range(n)]


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
    for dim in (1, 2, 3, 5):
        cases.append(clustered(rng, rng.randint(100, 400), dim))
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


def builder_tree(builder, coords):
    """(u, v, weight) triples of one builder's tree, bypassing the scaling,
    the collapse of duplicates and the size and dimension dispatch of
    build_emst."""
    points = [Point(tuple(c)) for c in coords]
    u, v = builder(np.array(coords, dtype=np.float64).reshape(len(coords), -1))
    return {
        (min(a, b), max(a, b), math.dist(points[a].coords, points[b].coords))
        for a, b in zip(u.tolist(), v.tolist())
    }


class TestKdTreeKernel:
    """The k-d tree Boruvka returns the canonical tree itself, on inputs
    small enough that build_emst would hand them to Prim."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_fixed_cases(self, name):
        coords = CANONICAL_CASES[name]
        assert builder_tree(emst._kdtree_emst, coords) == canonical_kruskal([Point(c) for c in coords])

    def test_random_ties_duplicates_and_lines(self):
        for coords in random_canonical_cases():
            assert builder_tree(emst._kdtree_emst, coords) == canonical_kruskal([Point(c) for c in coords])


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def bench_inputs():
    """bench/inputs.py by path; it imports only numpy and pathlib."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestKdTreeKernelWork:
    """The k-d tree kernel's work on the seed-1 points of the benchmark's two
    k-d tree workloads (bench/run.py), as counts, which do not depend on the
    host: a batching regression fails here instead of hiding in timing noise."""

    # _Boruvka._rows calls measured on these points; the test allows 1.5x.
    ROWS_CALLS = {"blobs2d_k10_svg": 195, "tinyblobs_k200_std": 232}

    @pytest.mark.parametrize("workload", sorted(ROWS_CALLS))
    def test_rounds_and_rows_calls(self, workload, monkeypatch):
        inputs = bench_inputs()
        rng = np.random.default_rng(1)
        if workload == "blobs2d_k10_svg":
            points, _ = inputs.blobs(rng, 10, 800, 2, 30.0, 1.0)
        else:
            points, _ = inputs.lattice_blobs(rng, 200, 20, 7, 0.08)
        calls = {"_rows": 0, "_merge": 0}

        def counted(name):
            method = getattr(emst._Boruvka, name)

            def count(self, *args):
                calls[name] += 1
                return method(self, *args)

            return count

        for name in calls:
            monkeypatch.setattr(emst._Boruvka, name, counted(name))
        u, _, _ = emst._emst_arrays(points)
        assert len(u) == len(points) - 1
        # Each round at least halves the components.
        assert 0 < calls["_merge"] <= math.ceil(math.log2(len(points)))
        assert calls["_rows"] < 1.5 * self.ROWS_CALLS[workload]


class TestPrimKernel:
    """Dense Prim returns the canonical tree itself on the inputs that
    build_emst no longer hands it whole: repeated points, ties that
    rounding breaks, identical points. Its outside vertices move between
    slots as others join the tree, so ties must be broken on vertex ids."""

    @pytest.mark.parametrize("dim", [1, 3, 8, 16])
    @pytest.mark.parametrize("kind", ["grid", "tenths", "uniform", "identical"])
    def test_matches_canonical_kruskal(self, dim, kind):
        rng = np.random.default_rng(dim)
        for n in (2, 40, 300):
            if kind == "identical":
                coords = duplicate_heavy(rng, n, dim, 1, "uniform")
            else:
                coords = duplicate_heavy(rng, n, dim, int(rng.integers(1, n // 2 + 2)), kind)
            expected = canonical_kruskal([Point(tuple(c)) for c in coords.tolist()])
            assert builder_tree(emst._prim_emst, coords.tolist()) == expected

    @pytest.mark.parametrize(
        "coords",
        [
            [[0.0], [1.0], [2.0], [1e200], [3e200]],
            [[0.0, 0.0], [1e200, 0.0], [1.0, 0.0], [1e200, 1.0], [2.0, 0.0], [1e200, 2.0]],
        ],
    )
    def test_overflow_rejected_after_far_points_move(self, coords):
        # The far points sit in the last slots and move into the slots of
        # near points as those join the tree.
        with pytest.raises(InputError, match="squared-distance overflow"):
            emst._prim_emst(np.array(coords))


def duplicate_heavy(rng, n, dim, distinct, kind):
    """n rows drawn from `distinct` base rows: distinct integer grid points,
    uniform reals, tenths (ties that rounding breaks), reals scaled by 1e-170,
    whose squared differences underflow to 0 unless scaled, or reals with
    some coordinates scaled by 1e-250, too small for any scaling to keep
    their squared differences from underflowing."""
    if kind == "grid":
        # Distinct cells of the smallest grid that holds them all.
        side = max(2, math.ceil(distinct ** (1 / dim)))
        while side**dim < distinct:
            side += 1
        cells = rng.choice(side**dim, distinct, replace=False)
        base = np.stack(np.unravel_index(cells, (side,) * dim), axis=1).astype(float)
    elif kind == "tenths":
        base = rng.integers(0, 4, (distinct, dim)) * 0.1
    else:
        base = rng.uniform(-5, 5, (distinct, dim))
        if kind == "tiny":
            base *= 1e-170
        elif kind == "wide":
            base[rng.random(base.shape) < 0.5] *= 1e-250
    return base[rng.integers(0, distinct, n)]


DUPLICATE_KINDS = ["grid", "tenths", "uniform", "tiny", "wide"]


def arrays_tree(coords):
    u, v, w = emst._emst_arrays(coords)
    return set(zip(u.tolist(), v.tolist(), w.tolist()))


class TestDistinctRows:
    """The builder runs on the distinct rows and duplicates join the lowest
    index of their group; the tree must be the canonical tree of all rows."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", DUPLICATE_KINDS)
    @pytest.mark.parametrize("crossover", ["measured", "kdtree_from_2"])
    def test_matches_canonical_kruskal(self, dim, kind, crossover, monkeypatch):
        if crossover == "kdtree_from_2":
            monkeypatch.setattr(emst, "_KDTREE_MIN_N", {d: 2 for d in range(1, 9)})
        rng = np.random.default_rng(dim * 100 + DUPLICATE_KINDS.index(kind))
        for _ in range(6):
            n = int(rng.integers(2, 80))
            coords = duplicate_heavy(rng, n, dim, int(rng.integers(1, n + 1)), kind)
            expected = canonical_kruskal([Point(tuple(c)) for c in coords.tolist()])
            assert arrays_tree(coords) == expected

    @pytest.mark.parametrize(
        "dim, distinct",
        [(1, 300), (1, 900), (2, 600), (2, 1500), (3, 600), (3, 1500), (3, 4000), (8, 200)],
    )
    @pytest.mark.parametrize("kind", ["grid", "tiny"])
    def test_matches_prim_on_all_rows(self, dim, distinct, kind):
        # Distinct counts on both sides of the k-d tree crossover (d = 8
        # always uses Prim); the tree of all rows comes from Prim unaided,
        # on the scaled rows the builders see.
        rng = np.random.default_rng(dim * distinct)
        coords = duplicate_heavy(rng, 2 * distinct, dim, distinct, kind)
        a, b = emst._prim_emst(scaled_rows(coords))
        u, v, _ = emst._emst_arrays(coords)
        assert set(zip(u.tolist(), v.tolist())) == set(
            zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
        )

    def test_distinct_points_with_zero_d2_are_not_merged(self):
        # Unscaled, 1e-200 squares to 0, all three pairs tie at d^2 = 0 and
        # the index tie-break takes (0, 2). Scaled, only the two zeros tie.
        # The edges come in the builder's order, so they are compared sorted.
        u, v, w = emst._emst_arrays(np.array([[1e-200], [0.0], [0.0]]))
        assert sorted(zip(u.tolist(), v.tolist(), w.tolist())) == [(0, 1, 1e-200), (1, 2, 0.0)]
        # 1e-250 is too small for any scaling beside 1, so the builder runs
        # on every row and the zeros stay tied with it.
        u, v, _ = emst._emst_arrays(np.array([[1.0], [1e-250], [0.0], [0.0]]))
        assert sorted(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 2), (1, 3)]

    def test_builder_sees_only_distinct_rows(self, monkeypatch):
        seen = []

        def spy(builder):
            def run(coords):
                seen.append(len(coords))
                return builder(coords)

            return run

        monkeypatch.setattr(emst, "_prim_emst", spy(emst._prim_emst))
        monkeypatch.setattr(emst, "_kdtree_emst", spy(emst._kdtree_emst))
        n = 8000
        u, v, w = emst._emst_arrays(np.full((n, 2), 3.5))
        assert seen == [1]
        assert u.tolist() == [0] * (n - 1)
        assert v.tolist() == list(range(1, n))
        assert not w.any()


@st.composite
def tie_heavy_points(draw):
    """Integer grids, duplicates, collinear points or far-apart groups of
    duplicates; up to 400 points (a dozen or more leaves) in up to 16
    dimensions. A grid of tenths has ties in exact arithmetic that rounding
    breaks, so there both builders agree only if they round every d^2
    alike. In the groups whole k-d tree nodes soon lie in one component."""
    dim = draw(st.integers(1, 16))
    n = draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["grid", "tenths", "duplicates", "collinear", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "clustered":
        groups = draw(st.integers(2, 5))
        base = rng.integers(0, 3, (groups, 3, dim)) + 1000.0 * np.arange(groups)[:, None, None]
        return base[rng.integers(0, groups, n), rng.integers(0, 3, n)]
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


def reference_sq_dist(diff):
    """d^2 of one row of differences, in the order _sq_dist documents, one
    Python float at a time: two lanes over the even and the odd axes, each
    added in axis order, and the two lanes added last."""
    lanes = [0.0, 0.0]
    for k, x in enumerate(diff):
        lanes[k % 2] = x * x + lanes[k % 2]
    return lanes[0] + lanes[1]


def hard_rows(rng, n, dim):
    """Coordinates with magnitudes mixed from 1e-3 to 1e6 within each
    point, and about a fifth of them 0. Rows 4i + 1 negate rows 4i, so
    their differences tie exactly; rows 4i + 2 reverse the axes of rows
    4i, so their differences have the same squares in another order."""
    scale = 10.0 ** rng.uniform(-3, 6, (n, dim))
    coords = rng.uniform(-1, 1, (n, dim)) * scale
    coords[rng.random((n, dim)) < 0.2] = 0.0
    coords[1::4] = -coords[0::4][: len(coords[1::4])]
    coords[2::4] = coords[0::4][: len(coords[2::4]), ::-1]
    return coords


# Three 8-D points on which adding the squares in another order picks
# another tree (TestSquaredDistance).
ORDER_PINNED = [
    [0.0] * 8,
    [10.023643249400514, 10.900927392651871, 9.288319225439267, 10.897298894274488,
     9.623662904020971, 9.846652897945152, 10.655405187640884, 9.818398272738323],
    [10.655405187640886, 9.818398272738323, 9.623662904020971, 9.846652897945152,
     9.288319225439267, 10.897298894274488, 10.023643249400514, 10.900927392651871],
]


class TestSquaredDistance:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_row_and_block_forms_agree_bit_for_bit(self, dim):
        # Magnitudes mixed from 1e-3 to 1e6 within each point.
        rng = np.random.default_rng(dim)
        scale = 10.0 ** rng.uniform(-3, 6, (60, dim))
        coords = rng.uniform(-1, 1, (60, dim)) * scale
        rows = np.array([emst._sq_dist(emst._planes(coords - coords[i])) for i in range(len(coords))])
        block = emst._sq_dist(emst._planes(coords[:, None, :] - coords[None, :, :]))
        assert rows.tobytes() == block.tobytes()
        # Prim's form: written into a preallocated buffer.
        into = np.empty(len(coords))
        for i in range(len(coords)):
            emst._sq_dist(emst._planes(coords - coords[i]), out=into)
            assert into.tobytes() == rows[i].tobytes()

    @pytest.mark.parametrize("dim", range(1, 25))
    def test_matches_the_documented_order(self, dim):
        coords = hard_rows(np.random.default_rng(100 + dim), 40, dim)
        diff = (coords[:, None, :] - coords[None, :, :]).reshape(-1, dim)
        expected = np.array([reference_sq_dist(row) for row in diff.tolist()])
        # Dense Prim runs with smaller ufunc buffers, and its last step is
        # one pair, (d, 1); the order must move with neither.
        for bufsize in (8192, emst._PRIM_BUFSIZE):
            default = np.setbufsize(bufsize)
            try:
                wide = emst._sq_dist(emst._planes(diff))
                pairs = [emst._sq_dist(emst._planes(diff[i : i + 1])) for i in range(len(diff))]
                nested = [emst._sq_dist(emst._planes(diff[i : i + 1, None])) for i in range(len(diff))]
            finally:
                np.setbufsize(default)
            assert wide.tobytes() == expected.tobytes()
            assert np.concatenate(pairs).tobytes() == expected.tobytes()
            assert np.concatenate(nested).ravel().tobytes() == expected.tobytes()

    def test_the_documented_order_decides_a_tree(self):
        # Row 2 is row 1 with its axis pairs in reverse order and axis 0 one
        # ulp up, so their exact d^2 to row 0 lie within an ulp. Added in
        # axis order, row 2 is nearer; with the pairs reversed, row 1 is.
        rows = ORDER_PINNED
        natural = [reference_sq_dist(row) for row in rows[1:]]
        reversed_pairs = [reference_sq_dist(row[6:] + row[4:6] + row[2:4] + row[:2]) for row in rows[1:]]
        assert natural[1] < natural[0] and reversed_pairs[0] < reversed_pairs[1]
        expected = {(0, 2), (1, 2)}
        assert {(u, v) for u, v, _ in canonical_kruskal([Point(tuple(r)) for r in rows])} == expected
        assert edge_set(emst._prim_emst(np.array(rows))) == expected
        assert edge_set(emst._kdtree_emst(np.array(rows))) == expected
        u, v, _ = emst._emst_arrays(np.array(rows))
        assert set(zip(u.tolist(), v.tolist())) == expected

    @pytest.mark.parametrize("dim", [3, 8, 13])
    def test_any_memory_layout_gives_the_same_bits(self, dim):
        diff = emst._planes(hard_rows(np.random.default_rng(dim), 50, dim))
        expected = emst._sq_dist(diff.copy())
        # Axis-major (d, 50, 2) of which only the first column is read, and
        # a transposed copy: neither is C-contiguous.
        wide = np.repeat(diff[..., None], 2, axis=-1)
        assert emst._sq_dist(wide[..., 0]).tobytes() == expected.tobytes()
        flipped = np.asfortranarray(diff)
        assert emst._sq_dist(flipped).tobytes() == expected.tobytes()


@st.composite
def box_points(draw):
    dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 300))
    return hard_rows(np.random.default_rng(seed), n, dim)


@settings(max_examples=40, deadline=None)
@given(box_points())
def test_box_bounds_bracket_every_member_pair(coords):
    # Two nodes of one level of the k-d tree are two boxes; their bounds
    # must hold for the computed d^2 of every pair of their members.
    tree = emst._KdLeaves(coords)
    planes = emst._planes(coords)
    for level in range(tree.depth + 1):
        first = (1 << level) - 1
        span = tree.leaves >> level  # leaves under one node of this level
        members = [
            np.unique(tree.perm[tree.pad[i * span : (i + 1) * span]]) for i in range(1 << level)
        ]
        a, b = np.divmod(np.arange((1 << level) ** 2), 1 << level)
        lower, upper = tree.bounds(a + first, b + first)
        for i, j, lo, hi in zip(a, b, lower, upper):
            x, y = members[i], members[j]
            d2 = emst._sq_dist(planes[:, x, None] - planes[:, None, y])
            assert lo <= d2.min() and d2.max() <= hi


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
rows = dataset.coords.copy()
kernel_sizes = emst._KDTREE_MIN_N
assert len(dataset) >= kernel_sizes[2]  # the k-d tree runs

def peaks(sizes, builder):
    emst._KDTREE_MIN_N = sizes
    return traced_peak(build_emst, dataset), traced_peak(builder, rows)

peaks(kernel_sizes, emst._kdtree_emst), peaks({}, emst._prim_emst)  # one-time caches
print(json.dumps([peaks(kernel_sizes, emst._kdtree_emst), peaks({}, emst._prim_emst)]))
"""


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_build_emst_peak_is_its_builders_plus_one_weight_chunk(self):
        # In a fresh interpreter: what earlier tests leave in caches and free
        # lists moves an in-process peak by up to ~15 kB.
        child = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
        )
        # Beyond the builder, build_emst holds a few arrays of n values and
        # one chunk of endpoint rows for the weights: two 2-D row lists and
        # one float per edge, under 256 bytes. Here build_emst peaks 0.1 MB
        # above either builder (1.1 MB for the k-d tree, 0.3 MB for Prim);
        # weights taken over whole row lists of n - 1 edges held 1.2 MB on
        # both paths.
        for build, builder in json.loads(child.stdout):
            assert build <= builder + emst._CHUNK * 256

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
        assert stats.std**2 == pytest.approx(1.25, abs=1e-12)

    def test_population_not_sample_deviation(self):
        # Two edges of weights 1 and 3: population std is 1, sample std would
        # be sqrt(2).
        stats = edge_statistics(build_emst(dataset_1d(0, 1, 4)))
        assert stats.std == pytest.approx(1.0, abs=1e-12)

    def test_empty_tree_rejected(self):
        with pytest.raises(DegenerateInputError):
            edge_statistics(build_emst(dataset_1d(1)))
