"""Agglomerative meta clustering over cluster centers.

A second EMST is built on the center points (meta vertex i corresponds to
cluster i). Merging its edges in ascending weight order yields a dendrogram,
and the eccentricity center of the meta tree designates the central cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .emst import build_emst
from .errors import InputError
from .metrics import center_and_radius, tree_eccentricities
from .model import Cluster, Dendrogram, MergeRecord, Point, SpanningForest, _UnionFind


@dataclass(frozen=True)
class TreeDistance:
    """Edge-set difference between two trees, both directions kept.

    in_first_only counts edges of the first tree missing from the second,
    in_second_only the reverse. Edges are compared by endpoint pair only,
    weights do not participate. The two counts coincide whenever the trees
    have equally many edges; they are reported separately rather than
    collapsed so any asymmetry stays visible.
    """

    in_first_only: int
    in_second_only: int

    @property
    def symmetric(self) -> bool:
        return self.in_first_only == self.in_second_only


def tree_distance(t1: SpanningForest, t2: SpanningForest) -> TreeDistance:
    """Count edges of each tree that the other lacks, by endpoint pair."""
    first = {e.endpoints for e in t1.edges}
    second = {e.endpoints for e in t2.edges}
    return TreeDistance(
        in_first_only=len(first - second),
        in_second_only=len(second - first),
    )


def build_meta_emst(centers: Sequence[Point]) -> SpanningForest:
    """EMST over the center points; meta vertex i is cluster i."""
    from .model import Dataset

    return build_emst(Dataset(points=tuple(centers)))


def central_cluster(meta_tree: SpanningForest) -> tuple[int, float]:
    """Lowest-index center vertex of the meta tree and the tree radius.

    The designated vertex minimizes the maximum weighted path distance to
    every other meta vertex; ties go to the lowest index.
    """
    if meta_tree.component_count != 1:
        raise InputError("the meta tree must be a single connected component")
    whole = Cluster(
        members=frozenset(range(meta_tree.vertex_count)),
        edges=meta_tree.edges,
    )
    centers, radius = center_and_radius(tree_eccentricities(whole))
    return min(centers), radius


@dataclass(frozen=True)
class MetaResult:
    """Outcome of the meta stage over k centers."""

    meta_tree: SpanningForest
    dendrogram: Dendrogram
    central_cluster: int
    meta_radius: float


def emstucc(centers: Sequence[Point]) -> MetaResult:
    """Agglomerate cluster centers into a dendrogram and pick the center.

    Starts from k singleton groups and repeatedly merges across the minimum
    remaining meta EMST edge; the merge level is that edge's weight. Ties
    are broken on (weight, min endpoint, max endpoint). Contracting the two
    endpoint groups never rescales the remaining edges, so consuming the
    fixed edge set in ascending order is an exact implementation. Merge
    levels are therefore non-decreasing and they sum to the meta tree's
    total weight.

    Dendrogram leaves are nodes 0 .. k - 1 (cluster ids); merge m creates
    node k - 1 + m. Each record's left side is the group containing the
    edge's smaller endpoint.
    """
    centers = tuple(centers)
    meta = build_meta_emst(centers)
    k = meta.vertex_count

    groups = _UnionFind(k)
    node_of = list(range(k))
    records: list[MergeRecord] = []
    ordered = sorted(meta.edges, key=lambda e: (e.weight, e.u, e.v))
    for m, edge in enumerate(ordered, start=1):
        ra, rb = groups.find(edge.u), groups.find(edge.v)
        new_node = k - 1 + m
        records.append(
            MergeRecord(
                m=m,
                level=edge.weight,
                left=node_of[ra],
                right=node_of[rb],
                new_node=new_node,
            )
        )
        groups.union(ra, rb)
        node_of[rb] = new_node

    dendrogram = Dendrogram(leaf_count=k, merges=tuple(records))
    index, radius = central_cluster(meta)
    return MetaResult(
        meta_tree=meta,
        dendrogram=dendrogram,
        central_cluster=index,
        meta_radius=radius,
    )
