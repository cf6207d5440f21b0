"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
package: spanning trees by edge-subset enumeration instead of Prufer
decoding, path distances by summing each tree path with math.fsum instead
of integer sweeps, squared distances by one add per axis instead of a
reduce over coordinate planes, and so on. Nothing here is imported from
emstclust.emst.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
from hypothesis import strategies as st

from emstclust import (
    Cluster,
    Dataset,
    Edge,
    InputError,
    Point,
    SpanningForest,
)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def brute_mst_weight_subsets(points: list[Point]) -> float:
    """Minimum spanning tree weight by trying every (n-1)-edge subset."""
    n = len(points)
    if n == 1:
        return 0.0
    all_edges = [
        (i, j, math.dist(points[i].coords, points[j].coords))
        for i, j in itertools.combinations(range(n), 2)
    ]
    best = math.inf
    for subset in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))
        acyclic = True
        for u, v, _ in subset:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            total = math.fsum(w for _, _, w in subset)
            if total < best:
                best = total
    return best


def scaled_rows(coords: np.ndarray) -> np.ndarray:
    """coords times the power of two 2^s, s >= 0, that brings the largest
    |coordinate| just below 2^250: the rows whose d^2 the EMST compares."""
    top = float(np.abs(coords).max())
    return np.ldexp(coords, max(0, 250 - math.frexp(top)[1]))


def canonical_kruskal(points: list[Point]) -> set[tuple[int, int, float]]:
    """The unique minimum spanning tree under the canonical edge order.

    Kruskal over every pair sorted by (d^2, u, v) with u < v. d^2 is taken
    on the rows of scaled_rows, the rows the EMST compares, in the order
    the package documents: (x0^2 + x2^2 + ..) + (x1^2 + x3^2 + ..), each
    lane added in axis order. Here that is one elementwise add per axis,
    not emstclust.emst._sq_dist's reduce.
    Returns (u, v, weight) triples, weight being math.dist of the
    coordinates.
    """
    n = len(points)
    coords = scaled_rows(np.array([p.coords for p in points], dtype=np.float64))
    pairs = []
    for u in range(n):
        diff = coords[u + 1 :] - coords[u]
        lanes = [np.zeros(len(diff)), np.zeros(len(diff))]
        for k in range(diff.shape[1]):
            lanes[k % 2] = lanes[k % 2] + diff[:, k] * diff[:, k]
        d2 = lanes[0] + lanes[1]
        pairs.extend((float(d2[j]), u, u + 1 + j) for j in range(len(diff)))
    pairs.sort()
    parent = list(range(n))
    tree = set()
    for _, u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v, math.dist(points[u].coords, points[v].coords)))
    return tree


def brute_force_mst_weight(dataset: Dataset) -> float:
    """Exact minimum spanning tree weight by exhaustive search.

    Enumerates all n^(n-2) labeled trees through vectorized Prufer sequence
    decoding and returns the smallest total weight. Intended as an
    independent reference for small inputs, so the size is capped at 8.
    """
    n = len(dataset.points)
    if n > 8:
        raise InputError(f"exhaustive tree search is capped at 8 points, got {n}")
    if n == 1:
        return 0.0
    pts = dataset.points
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = math.dist(pts[i].coords, pts[j].coords)
    if n == 2:
        return float(dist[0, 1])

    grids = np.meshgrid(*([np.arange(n)] * (n - 2)), indexing="ij")
    seqs = np.stack(grids, axis=-1).reshape(-1, n - 2)
    count = seqs.shape[0]
    rows = np.arange(count)
    degree = np.ones((count, n), dtype=np.int64)
    for t in range(n - 2):
        degree[rows, seqs[:, t]] += 1

    totals = np.zeros(count)
    for t in range(n - 2):
        # The smallest remaining leaf joins the next sequence symbol.
        leaf = np.argmax(degree == 1, axis=1)
        other = seqs[:, t]
        totals += dist[leaf, other]
        degree[rows, leaf] -= 1
        degree[rows, other] -= 1
    first = np.argmax(degree == 1, axis=1)
    degree[rows, first] -= 1
    second = np.argmax(degree == 1, axis=1)
    totals += dist[first, second]
    return float(totals.min())


def mean_std(weights: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation by the textbook formula,
    unscaled, each square a correctly rounded multiply; (0, 0) for no
    weights. Valid where no square leaves the normal range."""
    if not weights:
        return 0.0, 0.0
    mean = math.fsum(weights) / len(weights)
    variance = math.fsum((w - mean) * (w - mean) for w in weights) / len(weights)
    return mean, math.sqrt(variance)


def _heaviest_first(e: Edge) -> tuple[float, int, int]:
    return (-e.weight, e.u, e.v)


def _side_weights(edges: list[Edge], start: int, depth: int) -> list[float]:
    """Weights of the edges both of whose endpoints lie within `depth` hops
    of `start` in the forest `edges`."""
    hops = {start: 0}
    for h in range(1, depth + 1):
        for e in edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if hops.get(a) == h - 1 and b not in hops:
                    hops[b] = h
    return [e.weight for e in edges if e.u in hops and e.v in hops]


def zahn_clauses(edges: list[Edge], e: Edge, c: float, f: float, depth: int) -> set[int]:
    """Numbers of the zahn_inconsistent conditions (1, 2, 3) that hold for
    tree edge e, recomputing both neighborhoods from scratch."""
    others = [x for x in edges if x != e]
    sides = [_side_weights(others, e.u, depth), _side_weights(others, e.v, depth)]
    if not sides[0] and not sides[1]:
        return set()
    stats = [mean_std(side) for side in sides]
    w = e.weight
    held = set()
    if any(side and w > m + c * sd for side, (m, sd) in zip(sides, stats)):
        held.add(1)
    if w > max(m + c * sd for m, sd in stats):
        held.add(2)
    top = max(c * sd for _, sd in stats)
    if top > 0.0 and w / top > f:
        held.add(3)
    return held


def removal_replay(
    edges: list[Edge], k: int, mode: str, c: float = 2.0, f: float = 2.0, depth: int = 2
) -> list[tuple[Edge, str, set[int]]]:
    """The k - 1 removals of the divisive stage, replayed from the rules.

    "std": the k - 1 heaviest edges in (-w, u, v) order, tagged "threshold"
    when heavier than the whole tree's mean + std, else "longest". "zahn":
    per removal, the heaviest edge of the current forest for which some
    condition holds, tagged "zahn", else the heaviest edge tagged "longest".
    Each entry also carries the zahn conditions that held for the edge.
    """
    if mode == "std":
        mean, std = mean_std([e.weight for e in edges])
        return [
            (e, "threshold" if e.weight > mean + std else "longest", set())
            for e in sorted(edges, key=_heaviest_first)[: k - 1]
        ]
    remaining = list(edges)
    out = []
    for _ in range(k - 1):
        flagged = [(e, zahn_clauses(remaining, e, c, f, depth)) for e in remaining]
        flagged = [(e, held) for e, held in flagged if held]
        if flagged:
            e, held = min(flagged, key=lambda item: _heaviest_first(item[0]))
            out.append((e, "zahn", held))
        else:
            out.append((min(remaining, key=_heaviest_first), "longest", set()))
        remaining.remove(out[-1][0])
    return out


def path_distance_oracle(n: int, edges: list[Edge]) -> dict[tuple[int, int], float]:
    """All-pairs tree path distances by explicit path walking.

    Returns distances keyed by (u, v) with u < v; each value is the
    math.fsum of the edge weights along the unique path, which is the
    correctly rounded exact path length.
    """
    adjacency: dict[int, list[tuple[int, float]]] = {v: [] for v in range(n)}
    for e in edges:
        adjacency[e.u].append((e.v, e.weight))
        adjacency[e.v].append((e.u, e.weight))

    out: dict[tuple[int, int], float] = {}
    for src in range(n):
        parent: dict[int, tuple[int, float]] = {src: (-1, 0.0)}
        stack = [src]
        while stack:
            v = stack.pop()
            for nb, w in adjacency[v]:
                if nb not in parent:
                    parent[nb] = (v, w)
                    stack.append(nb)
        for dst in parent:
            if dst <= src:
                continue
            weights = []
            node = dst
            while node != src:
                prev, w = parent[node]
                weights.append(w)
                node = prev
            weights.reverse()
            out[(src, dst)] = math.fsum(weights)
    return out


def eccentricities_oracle(n: int, edges: list[Edge]) -> list[float]:
    """Per-vertex eccentricities derived from path_distance_oracle: each the
    correctly rounded length of the vertex's longest path; 0.0 for a vertex
    no edge touches."""
    table = path_distance_oracle(n, edges)
    ecc = [0.0] * n
    for (u, v), d in table.items():
        if d > ecc[u]:
            ecc[u] = d
        if d > ecc[v]:
            ecc[v] = d
    return ecc


def random_tree(rng: random.Random, n: int, lo: float = 0.5, hi: float = 10.0) -> list[Edge]:
    """Uniform random labeled tree (random Prufer sequence), random weights."""
    if n == 1:
        return []
    if n == 2:
        return [Edge(0, 1, rng.uniform(lo, hi))]
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in sequence:
        degree[s] += 1
    edges = []
    for s in sequence:
        leaf = degree.index(1)
        edges.append(Edge(leaf, s, rng.uniform(lo, hi)))
        degree[leaf] -= 1
        degree[s] -= 1
    first = degree.index(1)
    second = degree.index(1, first + 1)
    edges.append(Edge(first, second, rng.uniform(lo, hi)))
    return edges


def tree_as_cluster(n: int, edges: list[Edge]) -> Cluster:
    return Cluster(members=frozenset(range(n)), edges=frozenset(edges))


def tree_as_forest(n: int, edges: list[Edge]) -> SpanningForest:
    return SpanningForest(vertex_count=n, edges=frozenset(edges))


def max_min_separation(points: list[Point]) -> float:
    """Best achievable minimum cross-pair distance over all 2-partitions."""
    n = len(points)
    best = -math.inf
    for bits in range(1, 2 ** (n - 1)):
        side = [bool(bits & (1 << i)) for i in range(n)]
        gap = min(
            math.dist(points[i].coords, points[j].coords)
            for i in range(n)
            for j in range(n)
            if i < j and side[i] != side[j]
        )
        if gap > best:
            best = gap
    return best


def gaussian_blobs(
    rng: random.Random,
    centers: list[tuple[float, ...]],
    per_blob: int,
    spread: float = 1.0,
) -> tuple[list[Point], list[int]]:
    """Isotropic Gaussian blobs with integer labels, deterministic given rng."""
    points: list[Point] = []
    labels: list[int] = []
    for label, center in enumerate(centers):
        for _ in range(per_blob):
            coords = tuple(rng.gauss(c, spread) for c in center)
            points.append(Point(coords))
            labels.append(label)
    return points, labels


def scaled_dataset(coords: list[tuple[float, ...]], e: int) -> Dataset:
    return Dataset(tuple(Point(tuple(math.ldexp(x, e) for x in row)) for row in coords))


@st.composite
def scaled_datasets(draw):
    """n 2-60 points in 1-3 dimensions, small integers (ties and repeats)
    or floats, scaled by 2^e for e in [-700, 300]."""
    n, dim = draw(st.integers(2, 60)), draw(st.integers(1, 3))
    cell = st.one_of(
        st.integers(-8, 8).map(float),
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    )
    coords = draw(st.lists(st.tuples(*[cell] * dim), min_size=n, max_size=n))
    return scaled_dataset(coords, draw(st.integers(-700, 300)))


def parse_newick(text: str):
    """Minimal Newick reader for round-trip checks.

    Returns nested dicts {"name": str, "length": float, "children": [...]}.
    The root's length is 0.
    """
    body = text.strip()
    if not body.endswith(";"):
        raise ValueError("newick text must end with ';'")
    body = body[:-1]
    pos = 0

    def parse_node() -> dict:
        nonlocal pos
        children = []
        if pos < len(body) and body[pos] == "(":
            pos += 1
            while True:
                children.append(parse_child())
                if body[pos] == ",":
                    pos += 1
                    continue
                if body[pos] == ")":
                    pos += 1
                    break
        start = pos
        while pos < len(body) and body[pos] not in ":,()":
            pos += 1
        return {"name": body[start:pos], "children": children}

    def parse_child() -> dict:
        nonlocal pos
        node = parse_node()
        length = 0.0
        if pos < len(body) and body[pos] == ":":
            pos += 1
            start = pos
            while pos < len(body) and body[pos] not in ",()":
                pos += 1
            length = float(body[start:pos])
        node["length"] = length
        return node

    root = parse_node()
    root["length"] = 0.0
    if pos != len(body):
        raise ValueError(f"trailing newick text at {pos}: {body[pos:]!r}")
    return root


def leaf_depths(root: dict) -> dict[str, float]:
    """Root-to-leaf path lengths of a parsed Newick tree."""
    depths: dict[str, float] = {}
    stack = [(root, 0.0)]
    while stack:
        node, depth = stack.pop()
        total = depth + node["length"]
        if not node["children"]:
            depths[node["name"]] = total
        for child in node["children"]:
            stack.append((child, total))
    return depths


def count_internal(root: dict) -> int:
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node["children"]:
            total += 1
            stack.extend(node["children"])
    return total
