"""Agglomerative meta clustering over cluster centers.

A second EMST is built on the center points (meta vertex i corresponds to
cluster i) by build_emst, like the first. Merging its edges in ascending
weight order yields a dendrogram, and the center of the meta tree, the
vertex whose farthest path distance is smallest, designates the central
cluster. MetaResult works out both from the meta tree alone; emstucc
builds that tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .emst import _Overflow, build_emst
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
    """Outcome of the meta stage over k centers, worked out from the meta
    EMST alone: its dendrogram, and the central cluster with the meta
    tree's radius (central_cluster).

    The dendrogram starts from k singleton groups and repeatedly merges
    across the minimum remaining meta EMST edge; the merge level is that
    edge's weight. Ties are broken on (weight, min endpoint, max endpoint).
    Contracting the two endpoint groups never rescales the remaining edges,
    so consuming the fixed edge set in ascending order is an exact
    implementation. Merge levels are therefore non-decreasing and they sum
    to the meta tree's total weight.

    Dendrogram leaves are nodes 0 .. k - 1 (cluster ids); merge m creates
    node k - 1 + m. Each merge's left node is the group containing the
    edge's smaller endpoint.
    """

    meta_tree: SpanningForest
    dendrogram: Dendrogram = field(init=False)
    central_cluster: int = field(init=False)
    meta_radius: float = field(init=False)

    def __post_init__(self) -> None:
        tree = self.meta_tree
        index, radius = central_cluster(tree)
        k, u, v, w = tree.vertex_count, tree.u, tree.v, tree.w
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
        object.__setattr__(self, "dendrogram", Dendrogram(k, left, right, w[ordered]))
        object.__setattr__(self, "central_cluster", index)
        object.__setattr__(self, "meta_radius", radius)


def emstucc(centers: Dataset | Sequence[Point]) -> MetaResult:
    """The meta stage over cluster centers: MetaResult over their EMST.

    Raises InputError, naming the cluster centers, when their squared
    distances overflow float64.
    """
    if not isinstance(centers, Dataset):
        centers = Dataset(centers)
    try:
        meta_tree = build_emst(centers)
    except _Overflow:
        raise InputError(
            "squared-distance overflow: the cluster centers are too far apart to square"
            " their differences in float64, so the meta EMST over them cannot be built"
        ) from None
    return MetaResult(meta_tree)
