"""Divisive clustering by repeated removal of long EMST edges.

Each removal raises the component count by exactly one, so reaching k
clusters takes exactly k - 1 removals, all chosen by one routine
(_removals). Edge weight statistics are computed once on the original tree
and reused unchanged for every removal decision.
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


def _adjacency(us: list[int], vs: list[int], ws: list[float]) -> _Adjacency:
    adj: _Adjacency = {}
    for a, b, w in zip(us, vs, ws):
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
    adj = _adjacency(tree.u.tolist(), tree.v.tolist(), tree.w.tolist())
    # The same test as Edge equality, without building the tree's edge views.
    if adj.get(e.u, {}).get(e.v) != e.weight:
        raise InputError(f"edge {e.endpoints} is not in the tree")
    return _zahn_test(adj, e.u, e.v, e.weight, config)


def _removals(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, count: int, stats: EdgeStats, config: CriterionConfig
) -> list[tuple[int, str]]:
    """The first `count` edges to remove from the forest (u, v, w) by the
    rule emstrd documents, in removal order: each one's position in the
    arrays and the clause that chose it."""
    if count > len(w):
        raise DegenerateInputError("no edges left to remove")
    order = np.lexsort((v, u, -w))
    if config.mode != MODE_ZAHN:
        cut = order[:count]
        above = w[cut] > stats.mean + stats.std
        return [
            (e, CRITERION_THRESHOLD if a else CRITERION_LONGEST)
            for e, a in zip(cut.tolist(), above.tolist())
        ]
    us, vs, ws = u.tolist(), v.tolist(), w.tolist()
    adj = _adjacency(us, vs, ws)
    live = order.tolist()
    cuts: list[tuple[int, str]] = []
    for _ in range(count):
        for i, e in enumerate(live):
            if _zahn_test(adj, us[e], vs[e], ws[e], config):
                fired = CRITERION_ZAHN
                break
        else:
            i, fired = 0, CRITERION_LONGEST
        e = live.pop(i)
        del adj[us[e]][vs[e]], adj[vs[e]][us[e]]
        cuts.append((e, fired))
    return cuts


def select_edge_to_remove(
    forest: SpanningForest, stats: EdgeStats, config: CriterionConfig
) -> tuple[Edge, str]:
    """The edge emstrd would remove next from the forest, given the
    original tree's statistics, and the clause that chose it."""
    ((e, fired),) = _removals(forest.u, forest.v, forest.w, 1, stats, config)
    return Edge(forest.u[e], forest.v[e], forest.w[e]), fired


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
            Cluster(part.members_of(c), *part.edges_of(c))
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

    The EMST's edges are ordered once, heaviest first, weight ties broken
    lexicographically on (min endpoint, max endpoint), and its edge weight
    statistics are fixed once. In MODE_STD the removals are the first
    k - 1 edges of that order, each tagged "threshold" when its weight
    exceeds mean + std of the original tree's edge weights and "longest"
    otherwise. In MODE_ZAHN each removal takes the first remaining edge of
    that order that the neighborhood test (zahn_inconsistent) flags in the
    remaining forest, tagged "zahn", and falls back to the first remaining
    edge, tagged "longest", when none is flagged. The clusters are the
    components of the kept edges, found in one pass; the tree was checked
    once when it was built, and nothing is validated again. Because each
    removal depends only on the original statistics and the current
    forest, the k + 1 clustering removes the same edges as the k
    clustering and one more, so it refines it.
    """
    if config is None:
        config = CriterionConfig()
    coords = dataset.coords
    n = len(coords)
    k = _whole(k, "k", InputError)
    if k < 1 or k > n:
        raise InputError(f"k must be in [1, {n}], got {k}")

    u, v, w = _emst_arrays(coords)
    cuts = _removals(u, v, w, k - 1, EdgeStats.of(w.tolist()), config)
    cut = np.array([e for e, _ in cuts], dtype=np.int64)
    keep = np.ones(len(w), dtype=bool)
    keep[cut] = False
    removed = tuple(zip(u[cut].tolist(), v[cut].tolist(), w[cut].tolist(), (f for _, f in cuts)))

    part = Partition.of_forest(n, u[keep], v[keep], w[keep])
    reports = tuple(_report(coords, part, c) for c in range(part.count))
    center_set = Dataset._of_array(coords[[r.center_index for r in reports]])
    return ClusteringResult(
        partition=part, reports=reports, center_set=center_set, removed=removed
    )
