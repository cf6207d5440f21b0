"""Core value types for MST based clustering.

Vertices are always identified by their 0-based position in the dataset, so
an edge or a cluster can be interpreted without carrying the coordinates
around. Points, forests with their components, dendrograms and stage one's
result (divisive.ClusteringResult) are held as read-only numpy arrays, each
behind one constructor that checks what it is handed with a handful of numpy
operations; a Dataset built by the library's own array routines
(Dataset._of_array) was checked once where the data entered. Their object
forms (Point, Edge, frozensets) are views built on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, InputError

MODE_STD = "std"
MODE_ZAHN = "zahn"

_VALID_MODES = (MODE_STD, MODE_ZAHN)

# Rows per step wherever whole arrays become Python objects or text: the
# EMST weights, the RMS spread and every writer. No per-row Python object
# outlives its chunk, so peak memory follows the arrays.
_CHUNK = 1024


def _values(*arrays: np.ndarray) -> Iterator[tuple]:
    """zip of the arrays' values as Python scalars, converted _CHUNK rows
    at a time."""
    for start in range(0, len(arrays[0]), _CHUNK):
        yield from zip(*(a[start : start + _CHUNK].tolist() for a in arrays))


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


def _whole_ids(values, name: str) -> np.ndarray:
    """values as an int64 array, itself if it is one, or InputError when one
    is not a whole number (2.9, nan, "a"): the one rule for every id, which
    each caller range-checks and copies before it keeps it; never truncated."""
    values = _as_array(values, None, f"{name} must be whole numbers")
    with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
        ids = values.astype(np.int64, copy=False) if values.dtype.kind in "biuf" else None
    if ids is None or not (ids == values).all():
        raise InputError(f"{name} must be whole numbers")
    return ids


def _as_array(values, dtype, message: str) -> np.ndarray:
    """np.asarray(values, dtype), or InputError(message) where numpy cannot
    make an array of values: a ragged list, or a string where a float
    belongs."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise InputError(message) from None


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
        u, v = _whole_ids((self.u, self.v), "edge endpoints").tolist()
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


def _neighbors(count: int, a: Iterable, b: Iterable, values: Iterable) -> list[list[tuple]]:
    """The package's one tree adjacency: over vertices 0 .. count - 1, entry
    p lists (q, x) for each edge (p, q) of a, b with value x, in edge order.
    All three may be iterators, so values can stream in."""
    adjacency: list[list[tuple]] = [[] for _ in range(count)]
    for p, q, x in zip(a, b, values):
        adjacency[p].append((q, x))
        adjacency[q].append((p, x))
    return adjacency


def _edge_views(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> frozenset[Edge]:
    return frozenset(map(Edge, u.tolist(), v.tolist(), w.tolist()))


def _tree_edges(u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (u[i], v[i], w[i]) as new read-only arrays u < v (int64)
    and w (float64) in ascending (u, v) order, after the checks that every
    tree shares: u, v and w 1-D and of one length, whole endpoints, no
    self-loop, weights finite and >= 0. The caller checks the range."""
    shape = "u, v and w must be 1-D and of one length"
    u, v = _as_array(u, None, shape), _as_array(v, None, shape)
    weights = "edge weights must be finite and >= 0"
    w = _as_array(w, np.float64, weights)
    if not (u.ndim == 1 and u.shape == v.shape == w.shape):
        raise InputError(shape)
    lo, hi = _whole_ids(u, "edge endpoints"), _whole_ids(v, "edge endpoints")
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if (lo == hi).any():
        raise InputError(f"self-loop at vertex {lo[lo == hi][0]}")
    if not (np.isfinite(w) & (w >= 0.0)).all():
        raise InputError(weights)
    order = np.lexsort((hi, lo))
    return _read_only(lo[order]), _read_only(hi[order]), _read_only(w[order])


class SpanningForest:
    """An acyclic edge set over vertices 0 .. vertex_count - 1.

    The edges (u[i], v[i], w[i]), in any order and orientation, are held as
    read-only arrays u < v and w in ascending (u, v) order, and labels[p] is
    vertex p's component, numbered by lowest vertex. members_of(c) and
    edges_of(c) give component c's vertices and edges in the same orders,
    from CSR layouts (members, member_start) built on first access, as is
    edges, a frozenset of Edge objects. With acyclicity enforced, the number
    of components is vertex_count - len(u).
    """

    def __init__(self, vertex_count: int, u, v, w) -> None:
        n = _whole(vertex_count, "vertex_count", InputError)
        if n < 1:
            raise InputError("a forest needs at least one vertex")
        u, v, w = _tree_edges(u, v, w)
        if len(u) and (u[0] < 0 or v.max() >= n):
            raise InputError(f"edge endpoints must lie in 0..{n - 1}")
        root = _lowest_members(n, u, v)
        is_root = root == np.arange(n)
        if np.count_nonzero(is_root) != n - len(u):
            raise InputError("the edges close a cycle")
        self.vertex_count = n
        self.u, self.v, self.w = u, v, w
        self.labels = _read_only((np.cumsum(is_root) - 1)[root])

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

    @cached_property
    def members(self) -> np.ndarray:
        return _read_only(np.argsort(self.labels, kind="stable"))

    @cached_property
    def member_start(self) -> np.ndarray:
        return _read_only(_starts(self.labels, self.component_count))

    @cached_property
    def _edges_by_component(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """u, v and w grouped by component, each group in ascending (u, v)
        order, and each group's offset."""
        edge_labels = self.labels[self.u]
        order = np.argsort(edge_labels, kind="stable")
        start = _starts(edge_labels, self.component_count)
        return (*map(_read_only, (self.u[order], self.v[order], self.w[order])), start)

    def members_of(self, c: int) -> np.ndarray:
        return self.members[self.member_start[c] : self.member_start[c + 1]]

    def edges_of(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, v, w, start = self._edges_by_component
        lo, hi = start[c], start[c + 1]
        return u[lo:hi], v[lo:hi], w[lo:hi]


def _starts(labels: np.ndarray, count: int) -> np.ndarray:
    """Offsets of each label's run once the labels are sorted."""
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=count), out=starts[1:])
    return starts


class Cluster:
    """One connected subtree of an EMST: its members and its internal edges.

    The members (ids) and the edges (u[i], v[i], w[i]), in any order and
    orientation, are held as read-only arrays of point indices: ids
    ascending, u < v and w in ascending (u, v) order. members (a frozenset)
    and edges (a frozenset of Edge objects) are built on first access.
    """

    def __init__(self, ids, u, v, w) -> None:
        ids = _whole_ids(ids, "member ids")
        if ids.ndim != 1 or not len(ids):
            raise InputError("a cluster needs a 1-D sequence of at least one member")
        ids, m = np.sort(ids), len(ids)
        if ids[0] < 0 or (ids[1:] == ids[:-1]).any():
            raise InputError("cluster members must be distinct and >= 0")
        u, v, w = _tree_edges(u, v, w)
        if len(u) != m - 1:
            raise InputError(f"{m} members need {m - 1} edges, got {len(u)}")
        ends = np.array((u, v))
        local = np.searchsorted(ids, ends)
        if not (ids[np.minimum(local, m - 1)] == ends).all():
            raise InputError("an edge leaves the member set")
        # With m - 1 edges the subtree is acyclic exactly when it connects.
        if _lowest_members(m, local[0], local[1]).any():
            raise InputError("the edges close a cycle, so they do not connect the members")
        self.ids = _read_only(ids)
        self.u, self.v, self.w = u, v, w

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
        shape = f"{k} leaves need left, right and level of length {k - 1}"
        left, right = _as_array(self.left, None, shape), _as_array(self.right, None, shape)
        levels = "merge levels must be finite, >= 0 and non-decreasing"
        level = _as_array(self.level, np.float64, levels).copy()
        if not left.shape == right.shape == level.shape == (k - 1,):
            raise InputError(shape)
        ids = _whole_ids(np.stack((left, right)), "node ids")
        if np.any((ids < 0) | (ids >= np.arange(k, 2 * k - 1))):
            raise InputError("each merge must join two nodes formed before it")
        # 2k - 2 child places for 2k - 2 nodes: none joined twice means each once.
        joined = np.bincount(ids.ravel(), minlength=2 * k - 1)
        if joined.max() > 1:
            raise InputError(f"node {joined.argmax()} is joined {joined.max()} times, not once")
        if not (np.isfinite(level).all() and np.all(np.diff(level, prepend=0.0) >= 0.0)):
            raise InputError(levels)
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
            raw = getattr(self, name)
            try:
                value = float(raw)
            except (TypeError, ValueError):
                value = math.nan  # refused below, naming the field
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and > 0, got {raw!r}")
            object.__setattr__(self, name, value)
        depth = _whole(self.zahn_depth, "zahn_depth", ConfigError)
        if depth < 1:
            raise ConfigError(f"zahn_depth must be >= 1, got {depth}")
        object.__setattr__(self, "zahn_depth", depth)
