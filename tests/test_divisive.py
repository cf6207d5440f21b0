"""Divisive clustering: edge selection, the inconsistency test, emstrd."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstclust import (
    CRITERION_LONGEST,
    CRITERION_THRESHOLD,
    CRITERION_ZAHN,
    MODE_STD,
    CriterionConfig,
    Dataset,
    DegenerateInputError,
    Edge,
    InputError,
    MODE_ZAHN,
    Point,
    SpanningForest,
    build_emst,
    cluster_compactness,
    edge_statistics,
    emstrd,
    emstucc,
    select_edge_to_remove,
    zahn_inconsistent,
)
from emstclust import divisive
from oracles import (
    eccentricities_oracle,
    gaussian_blobs,
    removal_replay,
    scaled_dataset,
    scaled_datasets,
    tree_as_forest,
)


def dataset_1d(*values):
    return Dataset(tuple(Point((float(v),)) for v in values))


def chain_forest(weights):
    edges = [Edge(i, i + 1, w) for i, w in enumerate(weights)]
    return tree_as_forest(len(weights) + 1, edges)


STD = CriterionConfig()
ZAHN = CriterionConfig(mode=MODE_ZAHN)


class TestSelectEdgeStd:
    def test_threshold_clause_fires_above_mean_plus_std(self):
        tree = build_emst(dataset_1d(0, 1, 3, 6, 10))
        stats = edge_statistics(tree)
        edge, fired = select_edge_to_remove(tree, stats, STD)
        assert edge.weight == 4.0
        assert fired == CRITERION_THRESHOLD

    def test_longest_clause_below_threshold(self):
        tree = build_emst(dataset_1d(0, 1, 3, 6, 10))
        stats = edge_statistics(tree)
        keep = tree.w != 4.0
        remaining = SpanningForest(5, tree.u[keep], tree.v[keep], tree.w[keep])
        edge, fired = select_edge_to_remove(remaining, stats, STD)
        assert edge.weight == 3.0
        assert fired == CRITERION_LONGEST

    def test_weight_tie_broken_lexicographically(self):
        forest = tree_as_forest(
            4, [Edge(2, 3, 5.0), Edge(0, 1, 5.0), Edge(1, 2, 1.0)]
        )
        stats = edge_statistics(forest)
        edge, _ = select_edge_to_remove(forest, stats, STD)
        assert edge.endpoints == (0, 1)

    def test_no_edges_rejected(self):
        empty = tree_as_forest(1, [])
        with pytest.raises(DegenerateInputError):
            select_edge_to_remove(empty, None, STD)


class TestZahnInconsistent:
    def test_long_bridge_in_short_chain(self):
        forest = chain_forest([1.0, 1.0, 10.0, 1.0, 1.0])
        flags = [
            zahn_inconsistent(forest, e, ZAHN)
            for e in sorted(forest.edges)
        ]
        assert flags == [False, False, True, False, False]

    def test_uniform_chain_flags_nothing(self):
        forest = chain_forest([2.0] * 6)
        assert not any(
            zahn_inconsistent(forest, e, ZAHN) for e in forest.edges
        )

    def test_two_vertex_tree_not_inconsistent(self):
        forest = chain_forest([5.0])
        (edge,) = forest.edges
        assert not zahn_inconsistent(
            forest, edge, CriterionConfig(mode=MODE_ZAHN, zahn_depth=1)
        )

    def test_edge_must_belong_to_tree(self):
        forest = chain_forest([1.0, 1.0])
        with pytest.raises(InputError):
            zahn_inconsistent(forest, Edge(0, 2, 1.0), ZAHN)

    def test_edge_with_another_weight_rejected(self):
        forest = chain_forest([1.0, 1.0])
        with pytest.raises(InputError):
            zahn_inconsistent(forest, Edge(0, 1, 2.0), ZAHN)

    @pytest.mark.parametrize("edge", [Edge(3, 4, 1.0), Edge(1, 5, 1.0)])
    def test_endpoint_past_the_vertex_count_rejected(self, edge):
        forest = chain_forest([1.0, 1.0])
        with pytest.raises(InputError, match=re.escape(f"edge {edge.endpoints} is not in the tree")):
            zahn_inconsistent(forest, edge, ZAHN)

    def test_builds_no_edge_views(self):
        tree = build_emst(dataset_1d(0, 1, 3, 6, 10))
        edge = Edge(tree.u[2], tree.v[2], tree.w[2])
        zahn_inconsistent(tree, edge, ZAHN)
        assert "edges" not in tree.__dict__

    def test_ratio_condition_with_spread_neighborhood(self):
        # Neighborhood weights {1, 9} on one side: mean 5, std 4, so the
        # first two conditions fail for w = 12 at c = 2 (threshold 13) until
        # the ratio clause 12 / max(c*std) = 1.5 is compared against f.
        edges = [
            Edge(0, 1, 1.0),
            Edge(1, 2, 9.0),
            Edge(2, 3, 12.0),
        ]
        forest = tree_as_forest(4, edges)
        tight = CriterionConfig(mode=MODE_ZAHN, zahn_f=1.4)
        loose = CriterionConfig(mode=MODE_ZAHN, zahn_f=2.0)
        target = Edge(2, 3, 12.0)
        assert zahn_inconsistent(forest, target, tight)
        assert not zahn_inconsistent(forest, target, loose)

    def test_ratio_exactly_f_is_consistent(self):
        # Both sides of (0, 1) are {1, 3}: mean 2 and std 1, so at c = 1
        # clause 1 fails (2 <= 3) and the ratio 2 / 1 is exactly 2. Clause 3
        # asks for a ratio above f.
        forest = SpanningForest(6, [0, 0, 0, 1, 1], [1, 2, 3, 4, 5], [2.0, 1.0, 3.0, 1.0, 3.0])
        edge = Edge(0, 1, 2.0)
        at_f = CriterionConfig(mode=MODE_ZAHN, zahn_c=1.0, zahn_f=2.0, zahn_depth=1)
        below_f = CriterionConfig(mode=MODE_ZAHN, zahn_c=1.0, zahn_f=1.999, zahn_depth=1)
        assert not zahn_inconsistent(forest, edge, at_f)
        assert zahn_inconsistent(forest, edge, below_f)


class TestSelectEdgeZahn:
    def test_picks_heaviest_inconsistent_edge(self):
        forest = chain_forest([1.0, 1.0, 10.0, 1.0, 1.0])
        edge, fired = select_edge_to_remove(forest, None, ZAHN)
        assert edge.weight == 10.0
        assert fired == CRITERION_ZAHN

    def test_vertex_ids_beyond_the_edge_count(self):
        # Six vertices, three edges: the adjacency has a list per vertex.
        forest = SpanningForest(6, [0, 3, 4], [1, 4, 5], [1.0, 2.0, 9.0])
        edge, fired = select_edge_to_remove(forest, edge_statistics(forest), ZAHN)
        assert (edge, fired) == (Edge(4, 5, 9.0), CRITERION_ZAHN)
        assert zahn_inconsistent(forest, edge, ZAHN)

    def test_falls_back_to_longest_when_consistent(self):
        forest = chain_forest([2.0] * 6)
        edge, fired = select_edge_to_remove(forest, None, ZAHN)
        assert fired == CRITERION_LONGEST
        assert edge.weight == 2.0
        assert edge.endpoints == (0, 1)


class TestSelectEdgeIsFirstRemoval:
    @pytest.mark.parametrize("config", [STD, ZAHN])
    def test_equals_emstrd_first_removal(self, config):
        for seed in range(3):
            for ds in replay_datasets(seed):
                tree = build_emst(ds)
                got = select_edge_to_remove(tree, edge_statistics(tree), config)
                assert got == emstrd(ds, 2, config).removed_edges[0]
                assert "edges" not in tree.__dict__


class TestEmstrd:
    def test_k1_single_cluster(self):
        ds = dataset_1d(0, 1, 3, 6, 10)
        result = emstrd(ds, 1)
        assert result.cluster_count == 1
        assert result.removed_edges == ()
        assert sorted(result.clusters[0].members) == [0, 1, 2, 3, 4]

    def test_k_equals_n_singletons(self):
        ds = dataset_1d(4, 7, 15)
        result = emstrd(ds, 3)
        assert result.cluster_count == 3
        assert len(result.removed_edges) == 2
        assert [cluster.size for cluster in result.clusters] == [1, 1, 1]
        assert result.center.tolist() == [0, 1, 2]
        for values in (result.radius, result.diameter, result.variance):
            assert values.tolist() == [0.0, 0.0, 0.0]

    def test_chain_k2_worked_example(self):
        ds = dataset_1d(0, 1, 3, 6, 10)
        result = emstrd(ds, 2)
        assert [sorted(c.members) for c in result.clusters] == [[0, 1, 2, 3], [4]]
        ((edge, fired),) = result.removed_edges
        assert edge.weight == 4.0
        assert fired == CRITERION_THRESHOLD
        assert result.center.tolist() == [2, 4]
        assert result.radius.tolist() == [3.0, 0.0]
        assert result.diameter.tolist() == [6.0, 0.0]
        assert result.variance[0] == pytest.approx(math.sqrt(5.25), abs=1e-12)
        assert result.centers[0].coords == (3.0,)
        assert result.centers[1].coords == (10.0,)

    @pytest.mark.parametrize("config", [STD, ZAHN])
    def test_result_is_read_only_arrays(self, config):
        ds = dataset_1d(0, 1, 3, 6, 10, 11, 20)
        for k in (1, 3, len(ds)):
            result = emstrd(ds, k, config)
            per_cluster = (result.center, result.radius, result.diameter, result.variance)
            for array, length in [*((a, k) for a in per_cluster), *((a, k - 1) for a in result.removed)]:
                assert isinstance(array, np.ndarray) and array.shape == (length,)
                assert not array.flags.writeable
            assert [a.dtype.kind for a in per_cluster] == ["i", "f", "f", "f"]
            assert [a.dtype for a in result.removed] == [np.int64, np.int64, np.float64, np.uint8]

    def test_length_mismatch_refused(self):
        result = emstrd(dataset_1d(0, 1, 3, 6, 10), 3)
        message = "3 clusters need 3 centers, radii, diameters, variances and 2 removals"
        for name in ("center", "radius", "diameter", "variance"):
            with pytest.raises(InputError, match=message):
                dataclasses.replace(result, **{name: getattr(result, name)[:-1]})
        for i in range(4):
            removed = list(result.removed)
            removed[i] = removed[i][:-1]
            with pytest.raises(InputError, match=message):
                dataclasses.replace(result, removed=tuple(removed))
        with pytest.raises(InputError, match=message):
            dataclasses.replace(result, center_set=Dataset._of_array(np.zeros((2, 1))))

    def test_negative_ids_and_weights_refused(self):
        result = emstrd(dataset_1d(0, 1, 3, 6, 10), 3)
        u, v, w, fired = result.removed
        ids = re.escape("center ids and removed edge ends must lie in 0..4")
        weights = "removed edge weights must be finite and >= 0"
        for changed, message in (
            ({"center": -result.center}, ids),
            ({"center": [0, 1, 7]}, ids),
            ({"removed": (-u, v, w, fired)}, ids),
            ({"removed": ([0, 2], [99, 3], w, fired)}, ids),
            ({"removed": (u, v, -w, fired)}, weights),
            ({"removed": (u, v, w * np.nan, fired)}, weights),
        ):
            with pytest.raises(InputError, match=message):
                dataclasses.replace(result, **changed)

    def test_centers_and_removed_edges_must_fit_the_forest(self):
        # Points 0, 1 and 5 at k = 2: clusters {0, 1} and {2}, and the
        # removed edge (1, 2).
        result = emstrd(dataset_1d(0, 1, 5), 2)
        assert (result.center.tolist(), result.forest.labels.tolist()) == ([0, 2], [0, 0, 1])
        _, _, w, fired = result.removed
        for center, message in (
            ([1, 0], "cluster 1's center 0 is in cluster 0"),
            ([2, 2], "cluster 0's center 2 is in cluster 1"),
        ):
            with pytest.raises(InputError, match=message):
                dataclasses.replace(result, center=center)
        with pytest.raises(InputError, match=re.escape("removed edge (0, 1) is inside cluster 0")):
            dataclasses.replace(result, removed=([0], [1], w, fired))
        assert dataclasses.replace(result, center=[1, 2]).center.tolist() == [1, 2]

    def test_unknown_criteria_refused(self):
        result = emstrd(dataset_1d(0, 1, 3, 6, 10), 3)
        u, v, w, fired = result.removed
        for criteria in ([3, 0], [-1, 1], [255, 2]):
            with pytest.raises(InputError, match="removal criteria must be among 0..2"):
                dataclasses.replace(result, removed=(u, v, w, criteria))
        for criteria in ([None, 1], [0.5, 1], ["longest", "zahn"]):
            with pytest.raises(InputError, match="removal criteria must be whole numbers"):
                dataclasses.replace(result, removed=(u, v, w, criteria))
        ok = dataclasses.replace(result, removed=(u, v, w, [2, 0]))
        assert ok.removed[3].tolist() == [2, 0]
        assert [fired for _, fired in ok.removed_edges] == ["zahn", "threshold"]

    def test_constructor_copies_its_arrays(self):
        result = emstrd(dataset_1d(0, 1, 3, 6, 10), 3)
        radius, weights = result.radius.copy(), result.removed[2].copy()
        copy = dataclasses.replace(
            result, radius=radius, removed=(*result.removed[:2], weights, result.removed[3])
        )
        radius[:], weights[:] = 0.0, 0.0
        assert copy.radius.tolist() == result.radius.tolist()
        assert copy.removed[2].tolist() == result.removed[2].tolist()

    def test_k_out_of_range(self):
        ds = dataset_1d(1, 2, 3)
        with pytest.raises(InputError):
            emstrd(ds, 0)
        with pytest.raises(InputError):
            emstrd(ds, 4)

    def test_non_integral_k_refused(self):
        ds = dataset_1d(1, 2, 3, 7)
        with pytest.raises(InputError, match="k must be a whole number, got 2.9"):
            emstrd(ds, 2.9)
        for k in (2, np.int64(2), 2.0):
            assert emstrd(ds, k).cluster_count == 2

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_refused(self, k):
        with pytest.raises(InputError, match=f"k must be a whole number, got {k!r}"):
            emstrd(dataset_1d(1, 2, 3, 7), k)

    def test_single_point_k1(self):
        result = emstrd(dataset_1d(9), 1)
        assert result.cluster_count == 1
        assert np.diff(result.forest.member_start).tolist() == [1]

    def test_partition_and_edge_conservation(self):
        rng = random.Random(613)
        for _ in range(10):
            n = rng.randint(2, 25)
            ds = Dataset(
                tuple(
                    Point((rng.uniform(0, 10), rng.uniform(0, 10)))
                    for _ in range(n)
                )
            )
            tree_edges = frozenset(build_emst(ds).edges)
            for k in range(1, n + 1):
                result = emstrd(ds, k)
                assert result.cluster_count == k
                assert len(result.removed_edges) == k - 1
                members = sorted(
                    m for c in result.clusters for m in c.members
                )
                assert members == list(range(n))
                kept = frozenset(
                    e for c in result.clusters for e in c.edges
                )
                removed = frozenset(e for e, _ in result.removed_edges)
                assert kept | removed == tree_edges
                assert not (kept & removed)

    def test_nesting_refinement(self):
        rng = random.Random(619)
        for config in (STD, ZAHN):
            ds = Dataset(
                tuple(
                    Point((rng.uniform(0, 10), rng.uniform(0, 10)))
                    for _ in range(20)
                )
            )
            for k in range(1, 20):
                coarse = emstrd(ds, k, config)
                fine = emstrd(ds, k + 1, config)
                for small in fine.clusters:
                    assert any(
                        small.members <= big.members for big in coarse.clusters
                    )

    def test_std_removals_in_descending_weight_order(self):
        rng = random.Random(631)
        ds = Dataset(
            tuple(Point((rng.uniform(0, 100),)) for _ in range(30))
        )
        result = emstrd(ds, 12)
        weights = [e.weight for e, _ in result.removed_edges]
        assert weights == sorted(weights, reverse=True)
        lightest_removed = min(weights)
        heaviest_kept = max(
            (e.weight for c in result.clusters for e in c.edges), default=0.0
        )
        assert lightest_removed >= heaviest_kept

    def test_max_diameter_never_grows_with_k(self):
        rng = random.Random(641)
        ds = Dataset(
            tuple(
                Point((rng.uniform(0, 50), rng.uniform(0, 50)))
                for _ in range(30)
            )
        )
        previous = math.inf
        for k in range(1, 31):
            result = emstrd(ds, k)
            widest = result.diameter.max()
            assert widest <= previous + 1e-12
            previous = widest

    def test_reports_equal_fsum_path_oracle(self):
        # Radius, diameter and center come from correctly rounded path
        # lengths: they match the oracle exactly and meet the contract
        # radius <= diameter <= 2 * radius with no tolerance.
        rng = random.Random(1213)
        for k in (1, 3, 7, 40):
            ds = Dataset(
                tuple(
                    Point((rng.uniform(0, 10), rng.choice([1e-3, 1e3]) * rng.random()))
                    for _ in range(40)
                )
            )
            result = emstrd(ds, k)
            values = zip(result.center.tolist(), result.radius.tolist(), result.diameter.tolist())
            for cluster, (center, radius, diameter) in zip(result.clusters, values):
                ecc = eccentricities_oracle(len(ds), sorted(cluster.edges))
                members = sorted(cluster.members)
                assert radius == min(ecc[v] for v in members)
                assert diameter == max(ecc[v] for v in members)
                assert center == min(v for v in members if ecc[v] == radius)
                assert radius <= diameter <= 2.0 * radius

    def test_two_blob_recovery_std(self):
        rng = random.Random(701)
        points, labels = gaussian_blobs(
            rng, [(0.0, 0.0), (20.0, 0.0)], per_blob=30
        )
        result = emstrd(Dataset(tuple(points)), 2)
        got = result.forest.labels.tolist()
        split = {label: set() for label in (0, 1)}
        for idx, cid in enumerate(got):
            split[labels[idx]].add(cid)
        assert split[0] != split[1]
        assert all(len(s) == 1 for s in split.values())

    def test_two_blob_recovery_zahn_tags_bridge(self):
        rng = random.Random(709)
        points, labels = gaussian_blobs(
            rng, [(0.0, 0.0), (20.0, 0.0)], per_blob=30
        )
        result = emstrd(Dataset(tuple(points)), 2, ZAHN)
        ((edge, fired),) = result.removed_edges
        assert fired == CRITERION_ZAHN
        got = result.forest.labels.tolist()
        first = {i for i, lab in enumerate(labels) if lab == 0}
        one_side = {i for i, cid in enumerate(got) if cid == got[0]}
        assert one_side in (first, set(range(len(points))) - first)


def replay_datasets(seed: int):
    """Uniform 3-D points, small-integer 2-D points (ties and duplicates)
    and 1-D points, n between 20 and 60."""
    rng = random.Random(seed)
    for make in (
        lambda: (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)),
        lambda: (float(rng.randint(0, 6)), float(rng.randint(0, 6))),
        lambda: (rng.uniform(0, 100),),
    ):
        yield Dataset(tuple(Point(make()) for _ in range(rng.randint(20, 60))))


class TestRemovalReplay:
    # (c, f, depth); large c with small f lets condition 3 decide alone.
    ZAHN_CONFIGS = [(2.0, 2.0, 2), (1.0, 1.2, 1), (1.5, 1.3, 3), (3.0, 1.1, 2)]

    def test_std_matches_replay(self):
        rng = random.Random(811)
        for seed in range(4):
            for ds in replay_datasets(seed):
                edges = list(build_emst(ds).edges)
                for k in (2, rng.randint(3, 12), len(ds)):
                    expected = removal_replay(edges, k, "std")
                    got = emstrd(ds, k, STD).removed_edges
                    assert list(got) == [(e, tag) for e, tag, _ in expected]

    def test_zahn_matches_replay_and_every_outcome_occurs(self):
        rng = random.Random(821)
        first_clause = Counter()
        cases = [ds for seed in range(4) for ds in replay_datasets(seed)]
        cases.append(Dataset(tuple(Point((x, y)) for x in range(4) for y in range(4))))
        for ds in cases:
            edges = list(build_emst(ds).edges)
            for c, f, depth in self.ZAHN_CONFIGS:
                k = rng.randint(2, 10)
                config = CriterionConfig(
                    mode=MODE_ZAHN, zahn_c=c, zahn_f=f, zahn_depth=depth
                )
                expected = removal_replay(edges, k, "zahn", c, f, depth)
                got = emstrd(ds, k, config).removed_edges
                assert list(got) == [(e, tag) for e, tag, _ in expected]
                first_clause.update(
                    min(held) if held else tag for _, tag, held in expected
                )
        assert first_clause[1] and first_clause[3]
        assert first_clause[CRITERION_LONGEST]
        # Condition 2 implies condition 1 on the side with the larger
        # threshold (an empty side's threshold is 0), so it never decides.
        assert 2 not in first_clause


class TestZahnWork:
    """The zahn criterion's work, bounded by the tree and the forest rather
    than by its parameters or the host."""

    def test_depth_past_the_tree_is_the_whole_side(self):
        # Eight vertices, branches of one to four hops: every side ends
        # within 7 hops, so depth 10**8 must walk each side to its end and
        # stop there. A walk that turned once per unit of depth took 8.1 s
        # per side at 10**8 on a 2-vCPU host.
        forest = SpanningForest(
            8, [0, 1, 1, 3, 3, 5, 6], [1, 2, 3, 4, 5, 6, 7], [1.0, 4.0, 2.0, 9.0, 3.0, 1.5, 7.0]
        )
        whole = CriterionConfig(mode=MODE_ZAHN, zahn_depth=8)
        past = CriterionConfig(mode=MODE_ZAHN, zahn_depth=10**8)
        flags = []
        for e in forest.edges:
            start = time.perf_counter()
            flags.append(zahn_inconsistent(forest, e, past))
            assert time.perf_counter() - start < 0.25
            assert flags[-1] == zahn_inconsistent(forest, e, whole)
        assert True in flags and False in flags
        for ds in replay_datasets(5):
            for k in (2, 7):
                got = emstrd(ds, k, past).removed_edges
                assert got == emstrd(ds, k, dataclasses.replace(past, zahn_depth=len(ds))).removed_edges

    def test_scan_tests_each_live_edge_at_most_once_per_removal(self, monkeypatch):
        # No edge of the unit lattice is flagged, so each of the 20 removals
        # at k = 21 tests every live edge once and falls back to the
        # longest: sum of 399 - r for r in 0..19, 7,790 tests in all.
        calls = 0
        test = divisive._zahn_test

        def counted(*args):
            nonlocal calls
            calls += 1
            return test(*args)

        monkeypatch.setattr(divisive, "_zahn_test", counted)
        lattice = Dataset(tuple(Point((float(x), float(y))) for x in range(20) for y in range(20)))
        result = emstrd(lattice, 21, ZAHN)
        assert {fired for _, fired in result.removed_edges} == {CRITERION_LONGEST}
        assert calls <= sum(399 - r for r in range(20)) == 7790


class TestPowerOfTwoScaling:
    """Scaling every coordinate by 2^e is exact, so it must change no
    decision, and every length must scale by exactly 2^e: the edge
    statistics and the spread scale their squares, the EMST its rows, and
    path lengths and math.dist are exact or correctly rounded. At 2^-600
    and 2^-700 unscaled squares of the edge weights' deviations underflow;
    at 2^300 the EMST takes the rows unscaled."""

    @pytest.mark.parametrize("mode", [MODE_STD, MODE_ZAHN])
    @pytest.mark.parametrize("e", [-700, -600, 300])
    def test_decisions_equal_and_lengths_scale_exactly(self, e, mode):
        config = CriterionConfig(mode=mode)
        for seed in range(25):
            rng = random.Random(seed)
            n, dim = rng.randint(20, 120), rng.randint(1, 3)
            centers = [[rng.uniform(-10, 10) for _ in range(dim)] for _ in range(3)]
            coords = [
                tuple(rng.gauss(c, rng.choice([0.3, 1.0])) for c in rng.choice(centers))
                for _ in range(n)
            ]
            ds, big = scaled_dataset(coords, 0), scaled_dataset(coords, e)
            a, b = emstrd(ds, 5, config), emstrd(big, 5, config)
            (ua, va, wa, fa), (ub, vb, wb, fb) = a.removed, b.removed
            assert (ub.tolist(), vb.tolist(), fb.tolist()) == (ua.tolist(), va.tolist(), fa.tolist())
            assert wb.tolist() == [math.ldexp(w, e) for w in wa.tolist()]
            assert np.array_equal(b.forest.labels, a.forest.labels)
            assert np.array_equal(b.center, a.center)
            for name in ("radius", "diameter", "variance"):
                x, y = getattr(a, name).tolist(), getattr(b, name).tolist()
                assert y == [math.ldexp(z, e) for z in x]
            assert cluster_compactness(b.clusters, big) == cluster_compactness(a.clusters, ds)
            meta_a, meta_b = emstucc(a.center_set), emstucc(b.center_set)
            assert meta_b.central_cluster == meta_a.central_cluster
            assert meta_b.meta_radius == math.ldexp(meta_a.meta_radius, e)
            x, y = meta_a.dendrogram, meta_b.dendrogram
            assert (y.left.tolist(), y.right.tolist()) == (x.left.tolist(), x.right.tolist())
            assert y.level.tolist() == [math.ldexp(z, e) for z in x.level.tolist()]


@settings(max_examples=40, deadline=None)
@given(scaled_datasets(), st.data())
def test_one_more_cluster_is_one_more_cut(ds, data):
    """emstrd at k + 1 removes the edges it removes at k, in the same order,
    and one more, so its labels refine the k labels."""
    k = data.draw(st.integers(1, len(ds) - 1), label="k")
    for config in (STD, ZAHN):
        coarse, fine = emstrd(ds, k, config), emstrd(ds, k + 1, config)
        for x, y in zip(fine.removed, coarse.removed):
            assert np.array_equal(x[: k - 1], y)
        pairs = set(zip(fine.forest.labels.tolist(), coarse.forest.labels.tolist()))
        assert len(pairs) == fine.cluster_count == k + 1
