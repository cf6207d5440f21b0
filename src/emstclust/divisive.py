"""Divisive clustering by repeated removal of long EMST edges.

The tree is split one edge per iteration. Each removal raises the component
count by exactly one, so reaching k clusters takes exactly k - 1 removals.
Edge weight statistics are computed once on the original tree and reused
unchanged for every removal decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .emst import EdgeStats, build_emst, edge_statistics
from .errors import DegenerateInputError, InputError
from .metrics import (
    center_and_radius,
    cluster_variance,
    diameter_and_set,
    path_distance_table,  # noqa: F401 -- the benchmark's layer trace looks it up here
    tree_eccentricities,
)
from .model import (
    MODE_ZAHN,
    Cluster,
    ClusterReport,
    CriterionConfig,
    Dataset,
    Edge,
    Point,
    SpanningForest,
)

CRITERION_THRESHOLD = "threshold"
CRITERION_LONGEST = "longest"
CRITERION_ZAHN = "zahn"

_Adjacency = dict[int, dict[int, float]]


def _heaviest_first(e: Edge) -> tuple[float, int, int]:
    return (-e.weight, e.u, e.v)


def _adjacency(edges: Iterable[Edge]) -> _Adjacency:
    adj: _Adjacency = {}
    for e in edges:
        adj.setdefault(e.u, {})[e.v] = e.weight
        adj.setdefault(e.v, {})[e.u] = e.weight
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


def _zahn_test(adj: _Adjacency, e: Edge, config: CriterionConfig) -> bool:
    c = config.zahn_c
    side_a = _neighborhood_weights(adj, e.u, e.v, config.zahn_depth)
    side_b = _neighborhood_weights(adj, e.v, e.u, config.zahn_depth)
    if not side_a and not side_b:
        return False
    w = e.weight
    deviations = []
    for side in (side_a, side_b):
        stats = EdgeStats.of(side)
        deviations.append(c * stats.std)
        # Condition 1 compares only against sides that actually have edges.
        if side and w > stats.mean + deviations[-1]:
            return True
    top_dev = max(deviations)
    if top_dev > 0.0 and w / top_dev > config.zahn_f:
        return True
    return False


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
    return _zahn_test(_adjacency(tree.edges), e, config)


def _select(
    order: list[Edge], adj: _Adjacency | None, stats: EdgeStats, config: CriterionConfig
) -> tuple[int, str]:
    """Position in `order` of the edge to remove next, and the clause that
    chose it. `order` holds the remaining edges sorted by _heaviest_first;
    `adj` is their adjacency, needed in MODE_ZAHN only."""
    if not order:
        raise DegenerateInputError("no edges left to remove")
    if config.mode == MODE_ZAHN:
        for i, e in enumerate(order):
            if _zahn_test(adj, e, config):
                return i, CRITERION_ZAHN
        return 0, CRITERION_LONGEST
    if order[0].weight > stats.mean + stats.std:
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
    order = sorted(forest.edges, key=_heaviest_first)
    i, fired = _select(order, _adjacency(order), stats, config)
    return order[i], fired


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of a divisive run: clusters, their reports, and the removal log.

    clusters are ordered by lowest member index and that order defines the
    cluster ids used everywhere else. reports and centers run parallel to
    clusters; removed_edges lists (edge, fired criterion) in removal order.
    """

    clusters: tuple[Cluster, ...]
    reports: tuple[ClusterReport, ...]
    centers: tuple[Point, ...]
    removed_edges: tuple[tuple[Edge, str], ...]

    def __post_init__(self) -> None:
        clusters = tuple(self.clusters)
        reports = tuple(self.reports)
        centers = tuple(self.centers)
        removed = tuple(self.removed_edges)
        if not clusters:
            raise InputError("a result needs at least one cluster")
        if len(reports) != len(clusters) or len(centers) != len(clusters):
            raise InputError("reports and centers must run parallel to clusters")
        if len(removed) != len(clusters) - 1:
            raise InputError(
                f"{len(clusters)} clusters need {len(clusters) - 1} removals,"
                f" got {len(removed)}"
            )
        seen: set[int] = set()
        for cluster, report in zip(clusters, reports):
            if not cluster.members.isdisjoint(seen):
                raise InputError("clusters overlap")
            seen |= cluster.members
            if report.center_index not in cluster.members:
                raise InputError(
                    f"center {report.center_index} is outside its cluster"
                )
            if report.size != cluster.size:
                raise InputError("report size disagrees with cluster size")
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "reports", reports)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "removed_edges", removed)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def assignments(self) -> dict[int, int]:
        """Point index to cluster id, ids following the cluster order."""
        out: dict[int, int] = {}
        for cid, cluster in enumerate(self.clusters):
            for member in cluster.members:
                out[member] = cid
        return dict(sorted(out.items()))


def _clusters_from_forest(n: int, edges: list[Edge]) -> tuple[Cluster, ...]:
    forest = SpanningForest(vertex_count=n, edges=frozenset(edges))
    components = forest.components()
    grouped: dict[int, list[Edge]] = {i: [] for i in range(len(components))}
    owner: dict[int, int] = {}
    for i, comp in enumerate(components):
        for v in comp:
            owner[v] = i
    for e in edges:
        grouped[owner[e.u]].append(e)
    return tuple(
        Cluster(members=comp, edges=frozenset(grouped[i]))
        for i, comp in enumerate(components)
    )


def _report_for(cluster: Cluster, dataset: Dataset) -> tuple[ClusterReport, Point]:
    ecc = tree_eccentricities(cluster)
    centers, radius = center_and_radius(ecc)
    diameter, _ = diameter_and_set(ecc)
    center_index = min(centers)
    member_points = [dataset.points[i] for i in sorted(cluster.members)]
    report = ClusterReport(
        center_index=center_index,
        radius=radius,
        diameter=diameter,
        variance=cluster_variance(member_points),
        size=cluster.size,
    )
    return report, dataset.points[center_index]


def emstrd(
    dataset: Dataset, k: int, config: CriterionConfig | None = None
) -> ClusteringResult:
    """Split a dataset into k clusters by removing k - 1 EMST edges.

    Builds the EMST, fixes its edge weight statistics and sorts its edges
    once, heaviest first with ties broken on (min endpoint, max endpoint).
    Each of the k - 1 removals takes an edge out of that single ordered list
    by the rule select_edge_to_remove documents: in MODE_STD always the
    first edge, in MODE_ZAHN the first edge the neighborhood test flags in
    the remaining forest (else the first edge). The forest is validated once
    more when the final clusters are formed, not after every removal.
    Because the criterion depends only on the original statistics and the
    current forest, the k + 1 clustering always refines the k clustering for
    the same dataset and configuration.
    """
    if config is None:
        config = CriterionConfig()
    n = len(dataset.points)
    k = int(k)
    if k < 1 or k > n:
        raise InputError(f"k must be in [1, {n}], got {k}")

    tree = build_emst(dataset)
    stats = edge_statistics(tree) if tree.edges else EdgeStats(0.0, 0.0)
    order = sorted(tree.edges, key=_heaviest_first)
    # Only the zahn test reads neighborhoods, so std mode builds no adjacency.
    adj = _adjacency(order) if config.mode == MODE_ZAHN else None
    removed: list[tuple[Edge, str]] = []
    while 1 + len(removed) < k:
        i, fired = _select(order, adj, stats, config)
        edge = order.pop(i)
        if adj is not None:
            del adj[edge.u][edge.v], adj[edge.v][edge.u]
        removed.append((edge, fired))
    del adj

    clusters = _clusters_from_forest(n, order)
    reports: list[ClusterReport] = []
    centers: list[Point] = []
    for cluster in clusters:
        report, center = _report_for(cluster, dataset)
        reports.append(report)
        centers.append(center)
    return ClusteringResult(
        clusters=clusters,
        reports=tuple(reports),
        centers=tuple(centers),
        removed_edges=tuple(removed),
    )
