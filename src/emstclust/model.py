"""Core value types for MST based clustering.

Vertices are always identified by their 0-based position in the dataset, so
an edge or a cluster can be interpreted without carrying the coordinates
around. Points, trees, partitions and dendrograms are held as read-only
numpy arrays. Built through their public constructors, they are validated
there; built by the library's own array routines (the _of_array(s)
constructors), they were checked once where the data entered. Their object
forms (Point, Edge, frozensets) are views built on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError, InputError

MODE_STD = "std_threshold_or_longest"
MODE_ZAHN = "zahn"

_VALID_MODES = (MODE_STD, MODE_ZAHN)


@dataclass(frozen=True)
class Point:
    """An immutable point in d-dimensional Euclidean space (d >= 1)."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise InputError("a point needs at least one coordinate")
        for c in coords:
            if not math.isfinite(c):
                raise InputError(f"non-finite coordinate {c!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)


def _whole(value, name: str, error: type[Exception]) -> int:
    """value as an int, or error when int() would change it (2.9, 3.5) or
    cannot convert it (nan, inf).

    Python and numpy integers and integral floats such as 3.0 pass.
    """
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        whole = None  # nan or inf, which equal no int
    if whole != value:
        raise error(f"{name} must be a whole number, got {value!r}")
    return whole


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Dataset:
    """A non-empty collection of points sharing one dimension.

    coords holds the points as one read-only (n, d) float64 array, row i
    being point i. points, the same points as Point objects, is built on
    first access. Duplicate points are allowed; they simply produce
    zero-weight edges downstream.
    """

    def __init__(self, points: Iterable[Point]) -> None:
        points = tuple(points)
        if not points:
            raise InputError("a dataset needs at least one point")
        dim = points[0].dimension
        for i, p in enumerate(points):
            if p.dimension != dim:
                raise InputError(
                    f"point {i} has dimension {p.dimension}, expected {dim}"
                )
        self.coords = _read_only(np.array([p.coords for p in points], dtype=np.float64))
        self.__dict__["points"] = points

    @classmethod
    def _of_array(cls, coords: np.ndarray) -> Dataset:
        """A dataset over the rows of a non-empty (n, d) float64 array of
        finite values, which the caller has checked; no Point is built."""
        dataset = cls.__new__(cls)
        dataset.coords = _read_only(coords)
        return dataset

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(Point(row) for row in self.coords.tolist())

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, order=True)
class Edge:
    """An undirected weighted edge between two vertex indices.

    Endpoints are stored normalized with u < v, so two edges over the same
    pair compare equal regardless of construction order and the pair (u, v)
    is directly usable as a lexicographic tie-break key.
    """

    u: int
    v: int
    weight: float

    def __post_init__(self) -> None:
        u, v = int(self.u), int(self.v)
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise InputError("vertex indices must be non-negative")
        if u > v:
            u, v = v, u
        w = float(self.weight)
        if not math.isfinite(w) or w < 0.0:
            raise InputError(f"edge weight must be finite and >= 0, got {w!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "weight", w)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


def _lowest_members(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each of the vertices 0 .. n - 1 the lowest vertex of its connected
    component in the graph with edges (u[i], v[i]).

    Each round hooks every component root onto the lowest root adjacent to
    it, if that is lower, then points every vertex straight at its root.
    Roots only ever hook onto lower roots, so a component's root is its
    lowest vertex. A root with no lower neighbour either takes a neighbour
    in this round or has one hooked below it and hooks itself in the next,
    so every two rounds at least halve the roots that still have an edge
    out: O(log n) rounds of O(n + len(u)) array work.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _edge_arrays(edges: Iterable[Edge]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parallel arrays u, v and weight of edges, in ascending (u, v) order."""
    ordered = sorted(edges)
    u = np.array([e.u for e in ordered], dtype=np.int64)
    v = np.array([e.v for e in ordered], dtype=np.int64)
    w = np.array([e.weight for e in ordered], dtype=np.float64)
    return u, v, w


def _edge_views(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> frozenset[Edge]:
    return frozenset(map(Edge, u.tolist(), v.tolist(), w.tolist()))


class SpanningForest:
    """An acyclic edge set over vertices 0 .. vertex_count - 1.

    The edges are held as read-only parallel arrays u < v and w, in
    ascending (u, v) order. edges, the same edges as a frozenset of Edge
    objects, is built on first access. With acyclicity enforced, the number
    of connected components is always vertex_count - len(u).
    """

    def __init__(self, vertex_count: int, edges: Iterable[Edge]) -> None:
        n = int(vertex_count)
        if n < 1:
            raise InputError("a forest needs at least one vertex")
        edges = frozenset(edges)
        u, v, w = _edge_arrays(edges)
        for e in edges:
            if e.v >= n:
                raise InputError(f"edge {e.endpoints} leaves vertex range 0..{n - 1}")
        if np.count_nonzero(_lowest_members(n, u, v) == np.arange(n)) != n - len(u):
            raise InputError("the edges close a cycle")
        self._hold(n, u, v, w)
        self.__dict__["edges"] = edges

    @classmethod
    def _of_arrays(
        cls, vertex_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> SpanningForest:
        """A forest over arrays the caller has checked; no Edge is built."""
        forest = cls.__new__(cls)
        forest._hold(vertex_count, u, v, w)
        return forest

    def _hold(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        self.vertex_count = n
        self.u, self.v, self.w = _read_only(u), _read_only(v), _read_only(w)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return _edge_views(self.u, self.v, self.w)

    @property
    def component_count(self) -> int:
        return self.vertex_count - len(self.u)

    @property
    def total_weight(self) -> float:
        """Sum of the edge weights; math.fsum rounds correctly, so the
        order of the weights cannot change it."""
        return math.fsum(self.w.tolist())


class Cluster:
    """One connected subtree of an EMST: its members and its internal edges.

    ids holds the members in ascending order, and u < v and w the edges in
    ascending (u, v) order, all read-only arrays over the dataset's point
    indices. members (a frozenset) and edges (a frozenset of Edge objects)
    are built on first access.
    """

    def __init__(self, members: Iterable[int], edges: Iterable[Edge]) -> None:
        members = frozenset(int(m) for m in members)
        edges = frozenset(edges)
        if not members:
            raise InputError("a cluster needs at least one member")
        if len(edges) != len(members) - 1:
            raise InputError(
                f"{len(members)} members need {len(members) - 1} edges, got {len(edges)}"
            )
        for e in edges:
            if e.u not in members or e.v not in members:
                raise InputError(f"edge {e.endpoints} leaves the member set")
        ids = np.array(sorted(members), dtype=np.int64)
        u, v, w = _edge_arrays(edges)
        # With m - 1 edges the subtree is acyclic exactly when it connects.
        if _lowest_members(len(ids), np.searchsorted(ids, u), np.searchsorted(ids, v)).any():
            raise InputError("the edges close a cycle")
        self._hold(ids, u, v, w)
        self.__dict__["members"] = members
        self.__dict__["edges"] = edges

    @classmethod
    def _of_arrays(
        cls, ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> Cluster:
        """A cluster over arrays the caller has checked; no Edge is built."""
        cluster = cls.__new__(cls)
        cluster._hold(ids, u, v, w)
        return cluster

    def _hold(self, ids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        self.ids = _read_only(ids)
        self.u, self.v, self.w = _read_only(u), _read_only(v), _read_only(w)

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return _edge_views(self.u, self.v, self.w)

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class Partition:
    """The connected components of a forest over points 0 .. n - 1, as one
    label array plus a CSR layout.

    Cluster ids follow the lowest member. labels[p] is point p's cluster.
    Cluster c's members are members[member_start[c] : member_start[c + 1]],
    in ascending order, and its edges are u, v and w over
    edge_start[c] : edge_start[c + 1], in ascending (u, v) order.
    """

    labels: np.ndarray
    members: np.ndarray
    member_start: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    edge_start: np.ndarray

    @classmethod
    def of_forest(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Partition:
        """The components of the forest with edges (u, v, w) in ascending
        (u, v) order, which the caller has checked, in one pass of array
        operations."""
        root = _lowest_members(n, u, v)
        is_root = root == np.arange(n)
        labels = (np.cumsum(is_root) - 1)[root]
        count = int(np.count_nonzero(is_root))
        edge_labels = labels[u]
        by_cluster = np.argsort(edge_labels, kind="stable")
        return cls(
            labels=_read_only(labels),
            members=_read_only(np.argsort(labels, kind="stable")),
            member_start=_read_only(_starts(labels, count)),
            u=_read_only(u[by_cluster]),
            v=_read_only(v[by_cluster]),
            w=_read_only(w[by_cluster]),
            edge_start=_read_only(_starts(edge_labels, count)),
        )

    @property
    def count(self) -> int:
        return len(self.member_start) - 1

    def members_of(self, c: int) -> np.ndarray:
        return self.members[self.member_start[c] : self.member_start[c + 1]]

    def edges_of(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = self.edge_start[c], self.edge_start[c + 1]
        return self.u[lo:hi], self.v[lo:hi], self.w[lo:hi]


def _starts(labels: np.ndarray, count: int) -> np.ndarray:
    """Offsets of each label's run once the labels are sorted."""
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=count), out=starts[1:])
    return starts


@dataclass(frozen=True)
class ClusterReport:
    """Summary of one cluster: tree center and spread measures.

    radius and diameter are weighted tree-path quantities, variance is the
    RMS deviation of member coordinates from their mean. For weighted
    trees radius <= diameter <= 2 * radius always holds, and it is checked
    exactly: metrics computes both from exact path lengths.
    """

    center_index: int
    radius: float
    diameter: float
    variance: float
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("cluster size must be >= 1")
        for name in ("radius", "diameter", "variance"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise InputError(f"{name} must be finite and >= 0, got {value!r}")
        if self.radius > self.diameter:
            raise InputError(
                f"radius {self.radius} exceeds diameter {self.diameter}"
            )
        if self.diameter > 2.0 * self.radius:
            raise InputError(
                f"diameter {self.diameter} exceeds twice the radius {self.radius}"
            )


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """A complete sequence of merges over leaf_count leaves, as three
    read-only arrays of length leaf_count - 1.

    Leaves are nodes 0 .. leaf_count - 1. Merge m (from 1) joins nodes
    left[m - 1] and right[m - 1] at level[m - 1] into node leaf_count - 1 + m,
    so the last node is the root. Each child is an earlier node, every node
    but the root is joined exactly once, and levels never decrease.
    """

    leaf_count: int
    left: np.ndarray
    right: np.ndarray
    level: np.ndarray

    def __post_init__(self) -> None:
        k = _whole(self.leaf_count, "leaf_count", InputError)
        if k < 1:
            raise InputError("a dendrogram needs at least one leaf")
        left, right = np.asarray(self.left), np.asarray(self.right)
        level = np.array(self.level, dtype=np.float64)
        if not left.shape == right.shape == level.shape == (k - 1,):
            raise InputError(f"{k} leaves need left, right and level of length {k - 1}")
        nodes = np.stack((left, right))
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
            ids = nodes.astype(np.int64) if nodes.dtype.kind in "biuf" else None
        if ids is None or not np.array_equal(ids, nodes):
            raise InputError("node ids must be whole numbers")
        if np.any((ids < 0) | (ids >= np.arange(k, 2 * k - 1))):
            raise InputError("each merge must join two nodes formed before it")
        # 2k - 2 child places for 2k - 2 nodes: none joined twice means each once.
        joined = np.bincount(ids.ravel(), minlength=2 * k - 1)
        if joined.max() > 1:
            raise InputError(f"node {joined.argmax()} is joined {joined.max()} times, not once")
        if not (np.isfinite(level).all() and np.all(np.diff(level, prepend=0.0) >= 0.0)):
            raise InputError("merge levels must be finite, >= 0 and non-decreasing")
        object.__setattr__(self, "leaf_count", k)
        object.__setattr__(self, "left", _read_only(ids[0]))
        object.__setattr__(self, "right", _read_only(ids[1]))
        object.__setattr__(self, "level", _read_only(level))

    @property
    def final_level(self) -> float:
        return self.level[-1].item() if len(self.level) else 0.0


@dataclass(frozen=True)
class CriterionConfig:
    """Edge-removal criterion selection and its parameters.

    mode is one of MODE_STD (remove the globally longest edge, tagging
    whether it crossed the mean + std threshold of the original tree) or
    MODE_ZAHN (prefer edges flagged by the neighborhood inconsistency
    measure). The zahn_* parameters apply to the second mode only.
    """

    mode: str = MODE_STD
    zahn_c: float = 2.0
    zahn_f: float = 2.0
    zahn_depth: int = 2

    def __post_init__(self) -> None:
        if self.mode not in _VALID_MODES:
            raise ConfigError(
                f"criterion mode must be one of {_VALID_MODES}, got {self.mode!r}"
            )
        for name in ("zahn_c", "zahn_f"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)
        depth = _whole(self.zahn_depth, "zahn_depth", ConfigError)
        if depth < 1:
            raise ConfigError(f"zahn_depth must be >= 1, got {depth}")
        object.__setattr__(self, "zahn_depth", depth)
