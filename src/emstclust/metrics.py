"""Every statistic of the package: edge weight mean and deviation, tree
path metrics (eccentricities, center, radius, diameter, on the weighted
path distances of a cluster's subtree) and coordinate spread. Means and
spreads come from one mean (_mean) and one root mean square (_rms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .emst import _SCALE_EXP
from .errors import DegenerateInputError, InputError
from .model import (
    _CHUNK,
    Cluster,
    Dataset,
    Point,
    SpanningForest,
    _lowest_members,
    _read_only,
    _whole_ids,
)


def _mean(values: Sequence[float]) -> float:
    """math.fsum(values) / len(values). Where the sum overflows, the values
    are summed scaled by 2^-b, b the bit length of their count, and the
    quotient scaled back: the same float unless a scaled value is subnormal."""
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        b = n.bit_length()
        return math.ldexp(math.fsum(math.ldexp(x, -b) for x in values) / n, b)


def _rms(values: Sequence[float]) -> float:
    """Root mean square of nonnegative values. Each is scaled by the power
    of two that brings the largest just below 2^250, so that no square
    overflows, and squared as y * y, not by libm's pow; x * 2^e scales to
    the same y, so the result scales exactly by 2^e. values may be a
    float64 array; no list of the scaled values is made."""
    s = _SCALE_EXP - math.frexp(max(values))[1]
    scaled = map(math.ldexp, values, repeat(s))
    return math.ldexp(math.sqrt(math.fsum(y * y for y in scaled) / len(values)), -s)


@dataclass(frozen=True)
class EdgeStats:
    """Mean and population standard deviation of a tree's edge weights."""

    mean: float
    std: float

    @classmethod
    def of(cls, weights: Sequence[float] | np.ndarray) -> EdgeStats:
        """_mean and _rms of |w - mean| of a weight list or float64 array,
        which do not depend on the order of the weights; both are 0 for none."""
        if not len(weights):
            return cls(0.0, 0.0)
        mean = _mean(weights)
        return cls(mean=mean, std=_rms(np.abs(np.asarray(weights, dtype=np.float64) - mean)))


def edge_statistics(forest: SpanningForest) -> EdgeStats:
    """EdgeStats of the forest's edge weights; DegenerateInputError for a
    forest with no edges."""
    if not len(forest.w):
        raise DegenerateInputError("edge statistics need at least one edge")
    return EdgeStats.of(forest.w)


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
        vertices = tuple(_whole_ids(self.vertices, "vertices").tolist())
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


def _exact_tree(
    ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[list[list[tuple[int, int]]], int]:
    """The tree on members ids (ascending) with edges u, v, w, as adjacency
    lists over local indices (member ids[i] is i) of exact integer weights,
    and their common denominator Q.

    Every float is p / q with q a power of two, so with Q the largest q each
    weight is exactly the integer p * (Q // q) over Q. Sums of these
    integers are exact path lengths, and Python's int / Q rounds such a
    length correctly.
    """
    weights = w.tolist()
    # Q first, so that no list of (p, q) pairs is held next to the lists.
    scale = max((x.as_integer_ratio()[1] for x in weights), default=1)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(len(ids))]
    local_u = np.searchsorted(ids, u).tolist()
    local_v = np.searchsorted(ids, v).tolist()
    for a, b, weight in zip(local_u, local_v, weights):
        p, q = weight.as_integer_ratio()
        x = p * (scale // q)
        adjacency[a].append((b, x))
        adjacency[b].append((a, x))
    return adjacency, scale


def _sweep(adjacency: list[list[tuple[int, int]]], source: int) -> list[int]:
    """Exact path length from source to every vertex of the tree."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    stack = [source]
    while stack:
        x = stack.pop()
        dx = dist[x]
        for y, wy in adjacency[x]:
            if dist[y] < 0:
                dist[y] = dx + wy
                stack.append(y)
    return dist


def _rounded(lengths: Iterable[int], scale: int) -> list[float]:
    """The exact lengths over scale, each correctly rounded to a float."""
    try:
        return [d / scale for d in lengths]
    except OverflowError:
        raise InputError("a tree path is longer than the largest float") from None


def _farthest(dist: list[int]) -> int:
    """The lowest index of the largest distance."""
    return dist.index(max(dist))


def _eccentricities(
    ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> list[float]:
    """Each member's largest path distance in the tree on members ids
    (ascending) with edges u, v, w, correctly rounded.

    Three sweeps of exact integer path lengths (_exact_tree): from the
    lowest member to a, the member farthest from it, from a to b, the
    member farthest from a, and from b, ties going to the lower id. (a, b)
    is then a diameter, and with nonnegative weights some farthest member
    of every member is a or b, so ecc(x) = max(d(x, a), d(x, b)), rounded
    once. Rounding is monotone and doubling exact, so radius <= diameter
    <= 2 * radius holds exactly. O(m) time and memory.
    """
    adjacency, scale = _exact_tree(ids, u, v, w)
    from_a = _sweep(adjacency, _farthest(_sweep(adjacency, 0)))
    from_b = _sweep(adjacency, _farthest(from_a))
    del adjacency  # before the floats are made, as it is the largest part
    return _rounded(map(max, from_a, from_b), scale)


def _center(
    ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[int, float, float]:
    """The center of the tree on members ids (ascending) with edges u, v, w:
    the lowest member at the smallest eccentricity, that eccentricity (the
    radius) and the largest (the diameter).

    Zero-weight edges (between duplicate points) are contracted first, each
    group of members they join to its lowest member. A zero adds nothing to
    an exact integer path length, so every member has its group's
    eccentricity, and the lowest member at the smallest is the lowest
    member of a group. The result is bit for bit that of the whole tree,
    and the sweeps visit one vertex per group instead of one per member.
    A tree with no zero weight is swept as it is.
    """
    zero = w == 0
    if zero.any():
        a, b = np.searchsorted(ids, u), np.searchsorted(ids, v)
        lowest = _lowest_members(len(ids), a[zero], b[zero])
        group, kept = ids[lowest], ~zero
        u, v, w = group[a[kept]], group[b[kept]], w[kept]
        ids = ids[lowest == np.arange(len(ids))]
    ecc = _eccentricities(ids, u, v, w)
    radius = min(ecc)
    return int(ids[ecc.index(radius)]), radius, max(ecc)


def path_distance_table(cluster: Cluster) -> DistanceTable:
    """All-pairs path distances over a cluster's subtree.

    Each row is one sweep of exact integer path lengths from its vertex
    (_exact_tree), each length rounded once, the rule tree_eccentricities
    uses. Every entry is then the correctly rounded path length, and the
    table is exactly symmetric with a zero diagonal. O(m^2) time and
    memory: tree_eccentricities gives the same eccentricities without the
    matrix. Like it, this measures every member with no zero-weight edge
    contracted: the uncontracted reference for _center.
    """
    adjacency, scale = _exact_tree(cluster.ids, cluster.u, cluster.v, cluster.w)
    dist = [_rounded(_sweep(adjacency, i), scale) for i in range(len(adjacency))]
    return DistanceTable(vertices=tuple(cluster.ids.tolist()), distances=np.array(dist))


def tree_eccentricities(cluster: Cluster) -> TreeEccentricities:
    """Each member's largest path distance to any other member.

    Each value is the correctly rounded length of the member's longest
    path, found by three sweeps over the tree (_eccentricities), so it
    equals path_distance_table(cluster).eccentricities float for float.
    O(m) time and memory. Every member is swept, with no zero-weight edge
    contracted: this is the uncontracted reference for _center.
    """
    ecc = _read_only(np.array(_eccentricities(cluster.ids, cluster.u, cluster.v, cluster.w)))
    return TreeEccentricities(vertices=tuple(cluster.ids.tolist()), eccentricities=ecc)


def _attaining(table: DistanceTable | TreeEccentricities, ecc: float) -> frozenset[int]:
    return frozenset(table.vertices[i] for i in np.flatnonzero(table.eccentricities == ecc))


def center_and_radius(
    table: DistanceTable | TreeEccentricities,
) -> tuple[frozenset[int], float]:
    """Vertices of the smallest eccentricities and that minimum (the radius)."""
    radius = float(table.eccentricities.min())
    return _attaining(table, radius), radius


def diameter_and_set(
    table: DistanceTable | TreeEccentricities,
) -> tuple[float, frozenset[int]]:
    """Largest of the eccentricities and the vertices attaining it."""
    diameter = float(table.eccentricities.max())
    return diameter, _attaining(table, diameter)


def _rms_spread(coords: np.ndarray) -> float:
    """Root mean squared Euclidean distance from the rows of a float64
    (n, d) array to their mean: the one routine behind cluster_variance,
    emstrd's variances and compactness. The mean is _mean per column, each
    distance math.dist. Past one chunk, the distances are taken _CHUNK rows
    at a time into a float64 array, so the rows exist as Python lists for
    one chunk only; a single chunk stays in lists, which is faster for the
    many small clusters of a large k."""
    n = len(coords)
    if n <= _CHUNK:
        rows = coords.tolist()
        mu = [_mean(column) for column in zip(*rows)]
        return _rms(list(map(math.dist, rows, repeat(mu))))
    mu = [_mean(column) for column in coords.T]
    dist = np.empty(n)
    for start in range(0, n, _CHUNK):
        rows = slice(start, start + _CHUNK)
        dist[rows] = list(map(math.dist, coords[rows].tolist(), repeat(mu)))
    return _rms(dist)


def cluster_variance(points: Sequence[Point]) -> float:
    """Root mean squared Euclidean distance from the points to their mean."""
    return _rms_spread(Dataset(points).coords)


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
    # Member ids are whole and >= 0 (the Cluster constructor checks them).
    counts = np.bincount(np.concatenate([c.ids for c in clusters]), minlength=len(dataset))
    if counts.max() > 1:
        raise InputError("clusters overlap")
    if len(counts) != len(dataset) or not counts.all():
        raise InputError("clusters must partition the dataset indices")
    variances = np.array([_rms_spread(dataset.coords[c.ids]) for c in clusters])
    return _compactness(variances, dataset)


def _compactness(variances: np.ndarray, dataset: Dataset) -> Compactness:
    """cluster_compactness from the clusters' variances, an array in cluster order."""
    whole = _rms_spread(dataset.coords)
    if whole == 0.0:
        return Compactness(0.0, True)
    return Compactness(_mean(variances / whole), False)
