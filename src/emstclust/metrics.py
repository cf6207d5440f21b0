"""Weighted tree path metrics and coordinate spread measures.

Tree metrics (eccentricities, center, radius, diameter) are defined on the
weighted path distances of a cluster's subtree, not on direct point-to-point
distances. The variance is an RMS quantity over raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .model import Cluster, Dataset, Point


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs weighted tree path distances for one component.

    vertices lists the component's vertex indices; distances[i][j] is the
    path distance between vertices[i] and vertices[j]. The matrix is exactly
    symmetric with an exactly zero diagonal.
    """

    vertices: tuple[int, ...]
    distances: np.ndarray

    def __post_init__(self) -> None:
        vertices = tuple(int(v) for v in self.vertices)
        if not vertices:
            raise InputError("a distance table needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise InputError("distance table vertices must be distinct")
        m = len(vertices)
        dist = np.array(self.distances, dtype=np.float64)
        if dist.shape != (m, m):
            raise InputError(f"distance matrix must be {m}x{m}, got {dist.shape}")
        if not np.all(np.isfinite(dist)) or np.any(dist < 0.0):
            raise InputError("distances must be finite and >= 0")
        if np.any(np.diagonal(dist) != 0.0):
            raise InputError("self distances must be exactly zero")
        if not np.array_equal(dist, dist.T):
            raise InputError("distance matrix must be exactly symmetric")
        dist.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "distances", dist)

    def index_of(self, vertex: int) -> int:
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise InputError(f"vertex {vertex} is not in this table") from None

    def distance(self, x: int, y: int) -> float:
        return float(self.distances[self.index_of(x), self.index_of(y)])

    @property
    def eccentricities(self) -> np.ndarray:
        """Each vertex's largest distance, parallel to vertices."""
        return self.distances.max(axis=1)


@dataclass(frozen=True)
class TreeEccentricities:
    """The eccentricities of one component's vertices, without the distances.

    eccentricities[i] is the largest path distance from vertices[i] to any
    other vertex; tree_eccentricities computes it.
    """

    vertices: tuple[int, ...]
    eccentricities: np.ndarray


class _RootedTree(NamedTuple):
    """A cluster's tree rooted at its lowest member, in local indices.

    Local index i is the cluster's i-th lowest member. order is a stack DFS
    preorder over the adjacency in ascending edge order, so every subtree
    occupies the contiguous positions pos[v] .. pos[v] + size[v] - 1 of it.
    """

    order: list[int]
    parent: list[int]
    parent_w: list[float]
    pos: list[int]
    size: list[int]


def _rooted(ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> _RootedTree:
    """Root the tree on members ids (ascending) with edges u, v, w in
    ascending (u, v) order."""
    m = len(ids)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    local_u = np.searchsorted(ids, u).tolist()
    local_v = np.searchsorted(ids, v).tolist()
    for a, b, weight in zip(local_u, local_v, w.tolist()):
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))

    order: list[int] = []
    parent = [-1] * m
    parent_w = [0.0] * m
    seen = [False] * m
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for nb, weight in adjacency[v]:
            if not seen[nb]:
                seen[nb] = True
                parent[nb] = v
                parent_w[nb] = weight
                stack.append(nb)

    pos = [0] * m
    for i, v in enumerate(order):
        pos[v] = i
    size = [1] * m
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    return _RootedTree(order, parent, parent_w, pos, size)


def _row_tails(tree: _RootedTree) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (p, tail) once per vertex, where p is the vertex's preorder
    position and tail[j] its raw path distance to the vertex at position
    p + j.

    The root's row is summed along the preorder. Every other row is its
    parent's row plus w outside the vertex's subtree and minus w inside it,
    taken as `row + w` and then `row[subtree] -= 2.0 * w`, so each entry is
    the same float whatever order the rows are visited in. Only tails are
    formed: a vertex and all of its descendants sit after its position.
    The child with the largest subtree is visited last and reuses its
    parent's buffer in place; its siblings get new ones. At most
    1 + log2(m) buffers are then alive. A yielded tail is overwritten later, so consume it
    before advancing.
    """
    order, parent, parent_w, pos, size = tree
    m = len(order)
    children: list[list[int]] = [[] for _ in range(m)]
    for v in order[1:]:
        children[parent[v]].append(v)
    root = np.zeros(m)
    for v in order[1:]:
        root[pos[v]] = root[pos[parent[v]]] + parent_w[v]

    # Entries are (vertex, the parent's tail, whether to reuse that buffer).
    stack: list[tuple[int, np.ndarray, bool]] = [(order[0], root, True)]
    while stack:
        v, above, reuse = stack.pop()
        if parent[v] < 0:
            tail = above
        else:
            w = parent_w[v]
            tail = above[pos[v] - pos[parent[v]] :]
            if reuse:
                tail += w
            else:
                tail = tail + w
            tail[: size[v]] -= 2.0 * w
        yield pos[v], tail
        kids = children[v]
        if kids:
            heavy = max(kids, key=size.__getitem__)
            stack.append((heavy, tail, True))
            stack.extend((c, tail, False) for c in kids if c != heavy)


def path_distance_table(cluster: Cluster) -> DistanceTable:
    """All-pairs path distances over a cluster's subtree.

    Roots the tree at the lowest member, takes one DFS preorder so every
    subtree is a contiguous index interval, then derives each vertex's row
    from its parent's row (add w outside the subtree, subtract w inside).
    The strict upper triangle is mirrored afterwards, which makes symmetry
    and the zero diagonal exact. O(m^2) time and memory: tree_eccentricities
    gives the same eccentricities without the matrix.
    """
    tree = _rooted(cluster.ids, cluster.u, cluster.v, cluster.w)
    m = len(tree.order)
    upper = np.zeros((m, m))
    for p, tail in _row_tails(tree):
        # Subtracting in another order than the sums were taken can leave a
        # zero path (between duplicate points) at -1 ulp.
        np.maximum(tail[1:], 0.0, out=upper[p, p + 1 :])
    dist = upper + upper.T
    perm = np.array(tree.pos)
    dist = dist[np.ix_(perm, perm)]
    return DistanceTable(vertices=tuple(cluster.ids.tolist()), distances=dist)


def tree_eccentricities(cluster: Cluster) -> TreeEccentricities:
    """Each member's largest path distance to any other member.

    Equal, float for float, to path_distance_table(cluster).eccentricities:
    for preorder positions i < j the table holds max(raw, 0) of row i's raw
    entry j at (i, j) and at (j, i), so a vertex's largest distance is the
    largest of 0, its own raw row after its position, and the raw entries in
    its column from the rows before it. The rows are streamed one at a time
    and only those two maxima kept, so memory is O(m log m) while time stays
    O(m^2).
    """
    return _tree_eccentricities(cluster.ids, cluster.u, cluster.v, cluster.w)


def _tree_eccentricities(
    ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> TreeEccentricities:
    """tree_eccentricities of the tree on members ids (ascending) with edges
    u, v, w in ascending (u, v) order."""
    tree = _rooted(ids, u, v, w)
    m = len(tree.order)
    row_max = np.zeros(m)
    col_max = np.zeros(m)
    for p, tail in _row_tails(tree):
        if p + 1 < m:
            row_max[p] = tail[1:].max()
            np.maximum(col_max[p + 1 :], tail[1:], out=col_max[p + 1 :])
    ecc = np.maximum(row_max, col_max)[tree.pos]
    ecc.flags.writeable = False
    return TreeEccentricities(vertices=tuple(ids.tolist()), eccentricities=ecc)


def center_and_radius(
    table: DistanceTable | TreeEccentricities,
) -> tuple[frozenset[int], float]:
    """Vertices of the smallest eccentricities and that minimum (the radius)."""
    ecc = table.eccentricities
    radius = float(ecc.min())
    centers = frozenset(
        table.vertices[i] for i in np.flatnonzero(ecc == radius)
    )
    return centers, radius


def diameter_and_set(
    table: DistanceTable | TreeEccentricities,
) -> tuple[float, frozenset[int]]:
    """Largest of the eccentricities and the vertices attaining it."""
    ecc = table.eccentricities
    diameter = float(ecc.max())
    attaining = frozenset(
        table.vertices[i] for i in np.flatnonzero(ecc == diameter)
    )
    return diameter, attaining


def _rms_spread(rows: Sequence[Sequence[float]]) -> float:
    """Root mean squared Euclidean distance from coordinate rows to their
    mean: the one routine behind cluster_variance, the cluster reports
    and compactness. Each distance is math.dist."""
    mu = [math.fsum(column) / len(rows) for column in zip(*rows)]
    return math.sqrt(math.fsum([math.dist(row, mu) ** 2 for row in rows]) / len(rows))


def cluster_variance(points: Sequence[Point]) -> float:
    """Root mean squared Euclidean distance from the points to their mean."""
    return _rms_spread(Dataset(points).coords.tolist())


class Compactness(NamedTuple):
    """Mean variance ratio of a clustering, with a degeneracy marker."""

    value: float
    degenerate: bool


def cluster_compactness(clusters: Sequence[Cluster], dataset: Dataset) -> Compactness:
    """Mean ratio of cluster variance to whole-dataset variance.

    The clusters must partition the dataset's point indices. When the
    dataset variance is zero (all points identical) the ratio is undefined;
    the result is then (0.0, degenerate=True).
    """
    if not clusters:
        raise InputError("at least one cluster is required")
    n = len(dataset)
    seen: set[int] = set()
    for c in clusters:
        if not c.members.isdisjoint(seen):
            raise InputError("clusters overlap")
        seen |= c.members
    if seen != set(range(n)):
        raise InputError("clusters must partition the dataset indices")
    variances = [_rms_spread(dataset.coords[c.ids].tolist()) for c in clusters]
    return _compactness(variances, dataset)


def _compactness(variances: Sequence[float], dataset: Dataset) -> Compactness:
    """cluster_compactness from the clusters' variances, in cluster order."""
    whole = _rms_spread(dataset.coords.tolist())
    if whole == 0.0:
        return Compactness(0.0, True)
    ratios = [variance / whole for variance in variances]
    return Compactness(math.fsum(ratios) / len(ratios), False)
