"""Divisive clustering by repeated removal of long EMST edges.

Each removal raises the component count by exactly one, so reaching k
clusters takes exactly k - 1 removals, all chosen by one routine
(_removals). Edge weight statistics are computed once on the original tree
and reused unchanged for every removal decision. The zahn scan deletes each
removed edge from the one adjacency (model._neighbors) that it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .emst import build_emst
from .errors import DegenerateInputError, InputError
# The benchmark's layer trace looks up edge_statistics (in metrics.py with
# every statistic), center_and_radius, diameter_and_set, cluster_variance
# and path_distance_table here; this module uses none of them.
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
    CriterionConfig,
    Dataset,
    Edge,
    Point,
    SpanningForest,
    _as_array,
    _neighbors,
    _read_only,
    _values,
    _whole,
    _whole_ids,
)

CRITERION_THRESHOLD = "threshold"
CRITERION_LONGEST = "longest"
CRITERION_ZAHN = "zahn"
_CRITERIA = (CRITERION_THRESHOLD, CRITERION_LONGEST, CRITERION_ZAHN)
# The removal log holds each clause as its index in _CRITERIA, one byte.
_THRESHOLD, _LONGEST, _ZAHN = range(len(_CRITERIA))

def _neighborhood_weights(adj: list, start: int, other: int, depth: int) -> list[float]:
    """Weights of all edges within `depth` hops of `start`, never crossing
    the edge (start, other), in the adjacency lists adj (model._neighbors).

    In a forest `other` is reachable from `start` only through that edge, so
    marking both visited up front excludes exactly the edge itself.
    """
    weights: list[float] = []
    visited = {start, other}
    frontier = [start]
    for _ in range(depth):
        nxt: list[int] = []
        for v in frontier:
            for nb, w in adj[v]:
                if nb in visited:
                    continue
                visited.add(nb)
                weights.append(w)
                nxt.append(nb)
        frontier = nxt
    return weights


def _zahn_test(adj: list, u: int, v: int, w: float, config: CriterionConfig) -> bool:
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
    adj = _neighbors(tree.vertex_count, tree.u.tolist(), tree.v.tolist(), tree.w.tolist())
    # The same test as Edge equality, without the tree's edge views (e.u < e.v).
    if e.u >= tree.vertex_count or (e.v, e.weight) not in adj[e.u]:
        raise InputError(f"edge {e.endpoints} is not in the tree")
    return _zahn_test(adj, e.u, e.v, e.weight, config)


def _removals(
    forest: SpanningForest, count: int, stats: EdgeStats, config: CriterionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` edges to remove from the forest by the rule emstrd
    documents, in removal order, as two arrays: each one's position in the
    forest's u, v and w, and the clause that chose it (uint8)."""
    u, v, w = forest.u, forest.v, forest.w
    if count > len(w):
        raise DegenerateInputError("no edges left to remove")
    order = np.lexsort((v, u, -w))
    if config.mode != MODE_ZAHN:
        cut = order[:count]
        above = w[cut] > stats.mean + stats.std
        return cut, np.where(above, _THRESHOLD, _LONGEST).astype(np.uint8)
    us, vs, ws = u.tolist(), v.tolist(), w.tolist()
    adj = _neighbors(forest.vertex_count, us, vs, ws)
    live = order.tolist()
    cuts, clauses = [], []
    for _ in range(count):
        for i, e in enumerate(live):
            if _zahn_test(adj, us[e], vs[e], ws[e], config):
                fired = _ZAHN
                break
        else:
            i, fired = 0, _LONGEST
        e = live.pop(i)
        # Each (neighbour, weight) entry is unique in a forest.
        adj[us[e]].remove((vs[e], ws[e]))
        adj[vs[e]].remove((us[e], ws[e]))
        cuts.append(e)
        clauses.append(fired)
    return np.array(cuts, dtype=np.int64), np.array(clauses, dtype=np.uint8)


def select_edge_to_remove(
    forest: SpanningForest, stats: EdgeStats, config: CriterionConfig
) -> tuple[Edge, str]:
    """The edge emstrd would remove next from the forest, given the
    original tree's statistics, and the clause that chose it."""
    (e,), (fired,) = _removals(forest, 1, stats, config)
    return Edge(forest.u[e], forest.v[e], forest.w[e]), _CRITERIA[fired]


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Outcome of a divisive run, held as read-only arrays.

    forest is the EMST less the removed edges; its components are the
    clusters. center (int64), radius, diameter and variance (float64) run
    parallel to them, and center_set holds the center points. removed holds
    the removal log as arrays (u, v, w, criterion), in removal order, each
    criterion a uint8 index in _CRITERIA. The constructor copies and checks
    them once: lengths, ids in range, each center in its own cluster and
    each removed edge between two, values finite and >= 0, and radius <=
    diameter <= 2 * radius exactly. clusters, centers and removed_edges give
    the same as objects (Cluster, Point, (Edge, criterion name)) on first
    access.
    """

    forest: SpanningForest
    center: np.ndarray
    radius: np.ndarray
    diameter: np.ndarray
    variance: np.ndarray
    center_set: Dataset
    removed: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        k, n, labels = self.forest.component_count, self.forest.vertex_count, self.forest.labels
        shape = f"{k} clusters need {k} centers, radii, diameters, variances and {k - 1} removals"
        u, v, w, fired = self.removed
        center = _whole_ids(self.center, "center ids").copy()
        ends = _whole_ids(_as_array((u, v), None, shape), "removed edge endpoints")
        fired = _whole_ids(fired, "removal criteria")
        values = _as_array((self.radius, self.diameter, self.variance), np.float64, shape)
        w = _as_array(w, np.float64, shape).copy()
        if not (center.shape == (k,) == (len(self.center_set),) and values.shape == (3, k)
                and ends.shape == (2, k - 1) == (2, *w.shape) == (2, *fired.shape)):
            raise InputError(shape)
        ids = np.append(center, ends)
        if ((ids < 0) | (ids >= n)).any():
            raise InputError(f"center ids and removed edge ends must lie in 0..{n - 1}")
        if not (np.isfinite(w) & (w >= 0.0)).all():
            raise InputError("removed edge weights must be finite and >= 0")
        if ((fired < 0) | (fired >= len(_CRITERIA))).any():
            raise InputError(f"removal criteria must be among 0..{len(_CRITERIA) - 1}")
        away = labels[center] != np.arange(k)
        if away.any():
            c = int(np.argmax(away))
            raise InputError(f"cluster {c}'s center {center[c]} is in cluster {labels[center[c]]}")
        inside = labels[ends[0]] == labels[ends[1]]
        if inside.any():
            a, b = ends[:, np.argmax(inside)].tolist()
            raise InputError(f"removed edge ({a}, {b}) is inside cluster {labels[a]}")
        bad = ~(np.isfinite(values) & (values >= 0.0))
        if bad.any():
            c, i = np.argwhere(bad.T)[0]
            name, value = ("radius", "diameter", "variance")[i], values[i, c].item()
            raise InputError(f"cluster {c}: {name} must be finite and >= 0, got {value!r}")
        radius, diameter = values[0], values[1]
        with np.errstate(over="ignore"):  # 2 * radius may be inf, which bounds nothing
            fails = (radius > diameter) | (diameter > 2.0 * radius)
        if fails.any():
            c = int(np.argmax(fails))
            r, d = radius[c].item(), diameter[c].item()
            raise InputError(
                f"cluster {c}: radius {r} exceeds diameter {d}" if r > d
                else f"cluster {c}: diameter {d} exceeds twice the radius {r}"
            )
        for name, array in zip(("center", "radius", "diameter", "variance"), (center, *values)):
            object.__setattr__(self, name, _read_only(array))
        removed = (*ends, w, fired.astype(np.uint8))
        object.__setattr__(self, "removed", tuple(map(_read_only, removed)))

    @property
    def cluster_count(self) -> int:
        return self.forest.component_count

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        f = self.forest
        return tuple(Cluster(f.members_of(c), *f.edges_of(c)) for c in range(self.cluster_count))

    @cached_property
    def centers(self) -> tuple[Point, ...]:
        return self.center_set.points

    @cached_property
    def removed_edges(self) -> tuple[tuple[Edge, str], ...]:
        return tuple((Edge(u, v, w), _CRITERIA[c]) for u, v, w, c in _values(*self.removed))


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
    components of the kept edges. Each forest, the EMST and the kept edges,
    is checked once, by SpanningForest's constructor, and the result once,
    by its own.
    Because each removal depends only on the original statistics and the
    current forest, the k + 1 clustering removes the same edges as the k
    clustering and one more, so it refines it.
    """
    if config is None:
        config = CriterionConfig()
    coords = dataset.coords
    n = len(coords)
    k = _whole(k, "k", InputError)
    if k < 1 or k > n:
        raise InputError(f"k must be in [1, {n}], got {k}")

    tree = build_emst(dataset)
    cut, fired = _removals(tree, k - 1, EdgeStats.of(tree.w), config)
    u, v, w = tree.u, tree.v, tree.w
    removed = (u[cut], v[cut], w[cut], fired)
    kept = [np.delete(a, cut) for a in (u, v, w)]
    # The EMST goes before the kept forest is built, which can then reuse
    # its memory, and the kept arrays once the forest holds sorted copies.
    del tree, u, v, w
    forest = SpanningForest(n, *kept)
    del kept

    center = np.empty(k, dtype=np.int64)
    radius, diameter, variance = np.empty((3, k))
    for c in range(k):
        ids = forest.members_of(c)
        center[c], radius[c], diameter[c] = _center(ids, *forest.edges_of(c))
        variance[c] = _rms_spread(coords[ids])
    center_set = Dataset._of_array(coords[center])
    return ClusteringResult(forest, center, radius, diameter, variance, center_set, removed)
