"""Divisive clustering by repeated removal of long EMST edges.

The tree is split one edge per iteration. Each removal raises the component
count by exactly one, so reaching k clusters takes exactly k - 1 removals.
Edge weight statistics are computed once on the original tree and reused
unchanged for every removal decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The benchmark's layer trace looks up build_emst, edge_statistics (in
# metrics.py with every statistic), center_and_radius, diameter_and_set,
# cluster_variance and path_distance_table here; this module uses none.
from .emst import _emst_arrays, build_emst  # noqa: F401
from .errors import DegenerateInputError, InputError
from .metrics import (  # noqa: F401
    EdgeStats,
    _center,
    _rms_spread,
    center_and_radius,
    cluster_variance,
    diameter_and_set,
    edge_statistics,
    path_distance_table,
)
from .model import (
    MODE_ZAHN,
    Cluster,
    ClusterReport,
    CriterionConfig,
    Dataset,
    Edge,
    Partition,
    Point,
    SpanningForest,
    _whole,
)

CRITERION_THRESHOLD = "threshold"
CRITERION_LONGEST = "longest"
CRITERION_ZAHN = "zahn"

_Adjacency = dict[int, dict[int, float]]
# A tree's edges as parallel lists: u, v and weight.
_EdgeLists = tuple[list[int], list[int], list[float]]


def _edge_lists(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> _EdgeLists:
    return u.tolist(), v.tolist(), w.tolist()


def _heaviest_first(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> list[int]:
    """Edge positions ordered by weight descending, ties by (u, v)."""
    return np.lexsort((v, u, -w)).tolist()


def _adjacency(edges: _EdgeLists) -> _Adjacency:
    adj: _Adjacency = {}
    for a, b, w in zip(*edges):
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    return adj


def _neighborhood_weights(
    adj: _Adjacency, start: int, other: int, depth: int
) -> list[float]:
    """Weights of all edges within `depth` hops of `start`, never crossing
    the edge (start, other).

    In a forest `other` is reachable from `start` only through that edge, so
    marking both visited up front excludes exactly the edge itself.
    """
    weights: list[float] = []
    visited = {start, other}
    frontier = [start]
    for _ in range(depth):
        nxt: list[int] = []
        for v in frontier:
            for nb, w in adj[v].items():
                if nb in visited:
                    continue
                visited.add(nb)
                weights.append(w)
                nxt.append(nb)
        if not nxt:
            break
        frontier = nxt
    return weights


def _zahn_test(adj: _Adjacency, u: int, v: int, w: float, config: CriterionConfig) -> bool:
    c = config.zahn_c
    deviations = []
    for a, b in ((u, v), (v, u)):
        side = _neighborhood_weights(adj, a, b, config.zahn_depth)
        stats = EdgeStats.of(side)
        deviations.append(c * stats.std)
        # Condition 1 compares only against sides that actually have edges.
        if side and w > stats.mean + deviations[-1]:
            return True
    top_dev = max(deviations)
    return top_dev > 0.0 and w / top_dev > config.zahn_f


def zahn_inconsistent(tree: SpanningForest, e: Edge, config: CriterionConfig) -> bool:
    """Neighborhood inconsistency test for one tree edge.

    Let N1 and N2 be the edge sets reachable within `zahn_depth` hops of the
    edge's two endpoints, excluding the edge itself, and let mean_i and std_i
    be the mean and population standard deviation of their weights. The edge
    with weight w is inconsistent when any of the following holds, checked
    in order:

      1. w > mean_i + c * std_i for a non-empty side i,
      2. w > max(mean_1 + c * std_1, mean_2 + c * std_2),
      3. w / max(c * std_1, c * std_2) > f, only when that maximum is > 0.

    An empty neighborhood contributes mean 0 and deviation 0 where a value
    is required; an edge with both neighborhoods empty is never inconsistent.
    Condition 2 is implied by condition 1, so only 1 and 3 are evaluated:
    an empty side's bound is 0 and a non-empty side's is >= 0, so some
    non-empty side attains the maximum, and condition 1 holds on it.
    """
    if e not in tree.edges:
        raise InputError(f"edge {e.endpoints} is not in the tree")
    return _zahn_test(_adjacency(_edge_lists(tree.u, tree.v, tree.w)), e.u, e.v, e.weight, config)


def _select(
    order: list[int],
    edges: _EdgeLists,
    adj: _Adjacency | None,
    stats: EdgeStats,
    config: CriterionConfig,
) -> tuple[int, str]:
    """Position in `order` of the edge to remove next, and the clause that
    chose it. `order` holds the positions in `edges` of the remaining edges,
    heaviest first; `adj` is their adjacency, needed in MODE_ZAHN only."""
    if not order:
        raise DegenerateInputError("no edges left to remove")
    us, vs, ws = edges
    if config.mode == MODE_ZAHN:
        for i, e in enumerate(order):
            if _zahn_test(adj, us[e], vs[e], ws[e], config):
                return i, CRITERION_ZAHN
        return 0, CRITERION_LONGEST
    if ws[order[0]] > stats.mean + stats.std:
        return 0, CRITERION_THRESHOLD
    return 0, CRITERION_LONGEST


def select_edge_to_remove(
    forest: SpanningForest, stats: EdgeStats, config: CriterionConfig
) -> tuple[Edge, str]:
    """Pick the next edge to remove and report which clause selected it.

    The forest's edges are ordered heaviest first, weight ties broken
    lexicographically on (min endpoint, max endpoint). In MODE_STD the first
    edge of that order is returned, tagged "threshold" when its weight
    exceeds stats.mean + stats.std (the original tree's statistics) and
    "longest" otherwise. In MODE_ZAHN the first edge of that order that
    zahn_inconsistent flags is returned tagged "zahn", falling back to the
    first edge tagged "longest" when no edge is inconsistent.
    """
    us, vs, ws = edges = _edge_lists(forest.u, forest.v, forest.w)
    order = _heaviest_first(forest.u, forest.v, forest.w)
    adj = _adjacency(edges) if config.mode == MODE_ZAHN else None
    i, fired = _select(order, edges, adj, stats, config)
    e = order[i]
    return Edge(us[e], vs[e], ws[e]), fired


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Outcome of a divisive run: clusters, their reports, and the removal log.

    partition holds the clusters as arrays, ordered by lowest member; that
    order defines the cluster ids used everywhere else. reports run parallel
    to it, and center_set holds each cluster's center point. removed lists
    (u, v, weight, fired criterion) per removed edge, in removal order.
    clusters, centers and removed_edges give the same as objects (Cluster,
    Point, (Edge, criterion)) and are built on first access.
    """

    partition: Partition
    reports: tuple[ClusterReport, ...]
    center_set: Dataset
    removed: tuple[tuple[int, int, float, str], ...]

    @property
    def cluster_count(self) -> int:
        return self.partition.count

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        part = self.partition
        return tuple(
            Cluster._of_arrays(part.members_of(c), *part.edges_of(c))
            for c in range(part.count)
        )

    @cached_property
    def centers(self) -> tuple[Point, ...]:
        return self.center_set.points

    @cached_property
    def removed_edges(self) -> tuple[tuple[Edge, str], ...]:
        return tuple((Edge(u, v, w), fired) for u, v, w, fired in self.removed)


def _report(coords: np.ndarray, part: Partition, c: int) -> ClusterReport:
    """Cluster c's report: its tree center, radius and diameter (_center)
    and the RMS spread of its coordinates."""
    ids = part.members_of(c)
    variance = _rms_spread(coords[ids].tolist())
    return ClusterReport(*_center(ids, *part.edges_of(c)), variance, size=len(ids))


def emstrd(
    dataset: Dataset, k: int, config: CriterionConfig | None = None
) -> ClusteringResult:
    """Split a dataset into k clusters by removing k - 1 EMST edges.

    Builds the EMST, fixes its edge weight statistics and sorts its edges
    once, heaviest first with ties broken on (min endpoint, max endpoint).
    Each of the k - 1 removals takes an edge out of that single ordered list
    by the rule select_edge_to_remove documents: in MODE_STD always the
    first edge, in MODE_ZAHN the first edge the neighborhood test flags in
    the remaining forest (else the first edge). The clusters are the
    components of the kept edges, found in one pass; the tree was checked
    once when it was built, and nothing is validated again. Because the
    criterion depends only on the original statistics and the current
    forest, the k + 1 clustering always refines the k clustering for the
    same dataset and configuration.
    """
    if config is None:
        config = CriterionConfig()
    coords = dataset.coords
    n = len(coords)
    k = _whole(k, "k", InputError)
    if k < 1 or k > n:
        raise InputError(f"k must be in [1, {n}], got {k}")

    u, v, w = _emst_arrays(coords)
    us, vs, ws = edges = _edge_lists(u, v, w)
    stats = EdgeStats.of(ws)
    order = _heaviest_first(u, v, w)
    # Only the zahn test reads neighborhoods, so std mode builds no adjacency.
    adj = _adjacency(edges) if config.mode == MODE_ZAHN else None
    keep = np.ones(len(order), dtype=bool)
    removed: list[tuple[int, int, float, str]] = []
    while 1 + len(removed) < k:
        i, fired = _select(order, edges, adj, stats, config)
        e = order.pop(i)
        if adj is not None:
            del adj[us[e]][vs[e]], adj[vs[e]][us[e]]
        keep[e] = False
        removed.append((us[e], vs[e], ws[e], fired))
    del adj, edges, us, vs, ws

    part = Partition.of_forest(n, u[keep], v[keep], w[keep])
    reports = tuple(_report(coords, part, c) for c in range(part.count))
    center_set = Dataset._of_array(coords[[r.center_index for r in reports]])
    return ClusteringResult(
        partition=part, reports=reports, center_set=center_set, removed=tuple(removed)
    )
