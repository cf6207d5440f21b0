"""Core value types for MST based clustering.

Everything in this module is an immutable value object validated at
construction time. Vertices are always identified by their 0-based position
in the dataset, so an edge or a cluster can be interpreted without carrying
the coordinates around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, InputError

MODE_STD = "std_threshold_or_longest"
MODE_ZAHN = "zahn"

_VALID_MODES = (MODE_STD, MODE_ZAHN)

# Allowed relative slack when checking diameter <= 2 * radius, which holds
# exactly in real arithmetic but can drift by a few ulps in floating point.
_REPORT_REL_TOL = 1e-9


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


@dataclass(frozen=True)
class Dataset:
    """A non-empty collection of points sharing one dimension.

    Duplicate points are allowed; they simply produce zero-weight edges
    downstream.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise InputError("a dataset needs at least one point")
        dim = points[0].dimension
        for i, p in enumerate(points):
            if p.dimension != dim:
                raise InputError(
                    f"point {i} has dimension {p.dimension}, expected {dim}"
                )
        object.__setattr__(self, "points", points)

    @property
    def dimension(self) -> int:
        return self.points[0].dimension

    def __len__(self) -> int:
        return len(self.points)


def euclidean_distance(p: Point, q: Point) -> float:
    """Euclidean distance, the square root of summed squared differences."""
    if p.dimension != q.dimension:
        raise InputError(
            f"dimension mismatch: {p.dimension} versus {q.dimension}"
        )
    return math.dist(p.coords, q.coords)


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


class _UnionFind:
    """Minimal union-find for cycle detection and component grouping."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@dataclass(frozen=True)
class SpanningForest:
    """An acyclic edge set over vertices 0 .. vertex_count - 1.

    With acyclicity enforced, the number of connected components is always
    vertex_count - len(edges).
    """

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        n = int(self.vertex_count)
        if n < 1:
            raise InputError("a forest needs at least one vertex")
        edges = frozenset(self.edges)
        uf = _UnionFind(n)
        for e in sorted(edges):
            if e.v >= n:
                raise InputError(f"edge {e.endpoints} leaves vertex range 0..{n - 1}")
            if not uf.union(e.u, e.v):
                raise InputError(f"edge {e.endpoints} closes a cycle")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", edges)

    @property
    def component_count(self) -> int:
        return self.vertex_count - len(self.edges)

    @property
    def total_weight(self) -> float:
        """Sum of the edge weights; math.fsum rounds correctly, so the
        set's iteration order cannot change it."""
        return math.fsum(e.weight for e in self.edges)

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components as vertex sets, ordered by lowest member."""
        uf = _UnionFind(self.vertex_count)
        for e in self.edges:
            uf.union(e.u, e.v)
        groups: dict[int, list[int]] = {}
        for v in range(self.vertex_count):
            groups.setdefault(uf.find(v), []).append(v)
        parts = sorted(groups.values(), key=lambda g: g[0])
        return tuple(frozenset(g) for g in parts)


@dataclass(frozen=True)
class Cluster:
    """One connected subtree of an EMST: its members and its internal edges."""

    members: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        members = frozenset(int(m) for m in self.members)
        edges = frozenset(self.edges)
        if not members:
            raise InputError("a cluster needs at least one member")
        if len(edges) != len(members) - 1:
            raise InputError(
                f"{len(members)} members need {len(members) - 1} edges, got {len(edges)}"
            )
        index = {m: i for i, m in enumerate(sorted(members))}
        uf = _UnionFind(len(members))
        for e in sorted(edges):
            if e.u not in index or e.v not in index:
                raise InputError(f"edge {e.endpoints} leaves the member set")
            if not uf.union(index[e.u], index[e.v]):
                raise InputError(f"edge {e.endpoints} closes a cycle")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "edges", edges)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterReport:
    """Summary of one cluster: tree center and spread measures.

    radius and diameter are weighted tree-path quantities, variance is the
    RMS deviation of member coordinates from their centroid. For weighted
    trees radius <= diameter <= 2 * radius always holds.
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
        tol = _REPORT_REL_TOL * max(1.0, self.diameter)
        if self.radius > self.diameter + tol:
            raise InputError(
                f"radius {self.radius} exceeds diameter {self.diameter}"
            )
        if self.diameter > 2.0 * self.radius + tol:
            raise InputError(
                f"diameter {self.diameter} exceeds twice the radius {self.radius}"
            )


@dataclass(frozen=True)
class MergeRecord:
    """One agglomerative merge: step number, level, and the joined nodes."""

    m: int
    level: float
    left: int
    right: int
    new_node: int


@dataclass(frozen=True)
class Dendrogram:
    """A complete sequence of merges over leaf_count leaves.

    Leaves are nodes 0 .. leaf_count - 1; merge m creates node
    leaf_count - 1 + m. Merge levels never decrease, and a fully conjoint
    clustering has exactly leaf_count - 1 merges.
    """

    leaf_count: int
    merges: tuple[MergeRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        k = int(self.leaf_count)
        merges = tuple(self.merges)
        if k < 1:
            raise InputError("a dendrogram needs at least one leaf")
        if len(merges) != k - 1:
            raise InputError(
                f"{k} leaves need exactly {k - 1} merges, got {len(merges)}"
            )
        previous = None
        for i, rec in enumerate(merges, start=1):
            if rec.m != i:
                raise InputError(f"merge numbers must run 1..{k - 1}, got {rec.m}")
            if not math.isfinite(rec.level) or rec.level < 0.0:
                raise InputError(f"merge level must be finite and >= 0, got {rec.level!r}")
            if previous is not None and rec.level < previous:
                raise InputError(
                    f"merge levels must be non-decreasing, {rec.level} after {previous}"
                )
            expected_new = k - 1 + i
            if rec.new_node != expected_new:
                raise InputError(
                    f"merge {i} must create node {expected_new}, got {rec.new_node}"
                )
            for side in (rec.left, rec.right):
                if side < 0 or side >= expected_new:
                    raise InputError(f"merge {i} joins unknown node {side}")
            if rec.left == rec.right:
                raise InputError(f"merge {i} joins node {rec.left} with itself")
            previous = rec.level
        object.__setattr__(self, "leaf_count", k)
        object.__setattr__(self, "merges", merges)

    @property
    def final_level(self) -> float:
        return self.merges[-1].level if self.merges else 0.0


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
        depth = int(self.zahn_depth)
        if depth < 1:
            raise ConfigError(f"zahn_depth must be >= 1, got {depth}")
        object.__setattr__(self, "zahn_depth", depth)
