"""Meta stage: meta EMST, central cluster, dendrogram."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from emstclust import (
    Dataset,
    Edge,
    InputError,
    MetaResult,
    Point,
    build_emst,
    central_cluster,
    emstrd,
    emstucc,
)
from emstclust import meta as emst_meta
from oracles import eccentricities_oracle, random_tree, tree_as_forest


def p(*coords):
    return Point(tuple(float(c) for c in coords))


class TestBuildMetaEmst:
    def test_three_centers_chain(self):
        meta = build_emst(Dataset([p(0), p(1), p(5)]))
        assert sorted((e.u, e.v, e.weight) for e in meta.edges) == [
            (0, 1, 1.0),
            (1, 2, 4.0),
        ]

    def test_single_center(self):
        meta = build_emst(Dataset([p(2, 2)]))
        assert meta.vertex_count == 1
        assert meta.edges == frozenset()

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            build_emst(Dataset([]))


class TestCentralCluster:
    def test_three_center_chain(self):
        meta = build_emst(Dataset([p(0), p(1), p(5)]))
        assert central_cluster(meta) == (1, 4.0)

    def test_two_centers_tie_goes_low(self):
        meta = build_emst(Dataset([p(0), p(7)]))
        assert central_cluster(meta) == (0, 7.0)

    def test_single_center(self):
        meta = build_emst(Dataset([p(4)]))
        assert central_cluster(meta) == (0, 0.0)

    def test_disconnected_rejected(self):
        forest = tree_as_forest(3, [Edge(0, 1, 1.0)])
        with pytest.raises(InputError):
            central_cluster(forest)

    def test_matches_brute_force_scan(self):
        rng = random.Random(823)
        for _ in range(50):
            n = rng.randint(1, 50)
            edges = random_tree(rng, n)
            forest = tree_as_forest(n, edges)
            index, radius = central_cluster(forest)
            ecc = eccentricities_oracle(n, edges)
            assert radius == min(ecc)
            assert index == ecc.index(radius)


class TestEmstucc:
    def test_three_center_worked_example(self):
        result = emstucc([p(0), p(1), p(5)])
        d = result.dendrogram
        records = list(zip(d.level.tolist(), d.left.tolist(), d.right.tolist()))
        assert records == [(1.0, 0, 1), (4.0, 3, 2)]
        assert result.central_cluster == 1
        assert result.meta_radius == 4.0
        assert result.dendrogram.leaf_count == 3

    def test_single_center(self):
        result = emstucc([p(9, 9)])
        assert result.dendrogram.leaf_count == 1
        d = result.dendrogram
        assert len(d.left) == len(d.right) == len(d.level) == 0
        assert result.central_cluster == 0
        assert result.meta_radius == 0.0

    def test_duplicate_centers_merge_at_zero(self):
        result = emstucc([p(1), p(1), p(4)])
        levels = result.dendrogram.level.tolist()
        assert levels[0] == 0.0
        assert levels == sorted(levels)

    def test_levels_sum_to_meta_weight_random(self):
        rng = random.Random(907)
        for _ in range(30):
            k = rng.randint(1, 25)
            centers = [
                p(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(k)
            ]
            result = emstucc(centers)
            assert len(result.dendrogram.level) == k - 1
            levels = result.dendrogram.level.tolist()
            assert levels == sorted(levels)
            assert math.fsum(levels) == pytest.approx(
                result.meta_tree.total_weight, abs=1e-9
            )

    def test_meta_radius_equals_fsum_path_oracle(self):
        rng = random.Random(919)
        for _ in range(20):
            k = rng.randint(1, 30)
            result = emstucc([p(rng.uniform(0, 100), rng.uniform(0, 1)) for _ in range(k)])
            edges = sorted(result.meta_tree.edges)
            ecc = eccentricities_oracle(k, edges)
            assert result.meta_radius == min(ecc)
            assert result.central_cluster == ecc.index(result.meta_radius)

    def test_other_input_errors_pass_unchanged(self, monkeypatch):
        # Only the overflow message is reworded to name the cluster centers.
        error = InputError("not an overflow")

        def refuse(centers):
            raise error

        monkeypatch.setattr(emst_meta, "build_emst", refuse)
        with pytest.raises(InputError) as caught:
            emstucc([p(0), p(1)])
        assert caught.value is error

    def test_every_leaf_eventually_joins(self):
        rng = random.Random(911)
        centers = [p(rng.uniform(0, 10)) for _ in range(12)]
        result = emstucc(centers)
        seen = set()
        seen.update(result.dendrogram.left.tolist())
        seen.update(result.dendrogram.right.tolist())
        assert set(range(12)) <= seen


class TestMetaResult:
    """A MetaResult works out its dendrogram and central cluster from the
    meta tree alone."""

    def test_worked_out_from_the_meta_tree(self):
        # The centers of 100 uniform 3-D points at k = 5.
        centers = emstrd(Dataset._of_array(np.random.default_rng(4).random((100, 3))), 5).center_set
        meta = emstucc(centers)
        again = MetaResult(meta.meta_tree)
        assert (again.central_cluster, again.meta_radius) == (meta.central_cluster, meta.meta_radius) == (
            3, 0.830444140466861
        )
        for name in ("left", "right", "level"):
            assert getattr(again.dendrogram, name).tobytes() == getattr(meta.dendrogram, name).tobytes()

    @pytest.mark.parametrize(
        "name, value", [("dendrogram", None), ("central_cluster", 0), ("meta_radius", 1.0)]
    )
    def test_values_cannot_be_handed_in(self, name, value):
        meta = emstucc([p(0), p(1), p(5)])
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(meta, **{name: value})

    def test_disconnected_meta_tree_refused(self):
        with pytest.raises(InputError, match="the meta tree must be a single connected component"):
            MetaResult(tree_as_forest(3, [Edge(0, 1, 1.0)]))
