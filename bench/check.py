"""Output checks that compare a run's files with results computed here.

`Reference.build` derives everything the program should report from the
input points alone: an exact EMST by canonical Kruskal (edges ordered by
squared distance, then lower endpoint, then higher endpoint, which makes the
tree unique even under ties), the removals by a replay of the `std` or `zahn`
rule written from its definition, the clusters, their tree metrics by two
farthest-vertex sweeps, and their variance and compactness with numpy.
`check_outputs` compares a run's output files with that reference and returns
every mismatch. `corruptions` yields damaged copies of real outputs that the
checks must reject.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay, cKDTree
from scipy.spatial.distance import pdist, squareform

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- the EMST


def _candidate_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Pairs (i < j) that contain the canonical EMST, their squared lengths,
    and an MST weight that scipy computes independently (a cross-check of the
    Kruskal below).

    Duplicates: all pairs no longer than the longest edge of an MST of the
    distinct points, since Kruskal never takes a longer edge. Otherwise the
    pairs of a graph that contains the EMST (the Delaunay edges for many
    points in up to three dimensions, which hold it for points in general
    position, else all pairs), cut down to those whose length is the length
    of some edge of scipy's MST: every MST has the same edge lengths, so
    that keeps every tied alternative.
    """
    n, dim = points.shape
    distinct = np.unique(points, axis=0)
    if len(distinct) < n:
        mst = minimum_spanning_tree(squareform(pdist(distinct)))
        pairs = cKDTree(points).query_pairs(
            float(mst.data.max()) * (1 + 1e-9), output_type="ndarray"
        )
        i, j = pairs.min(axis=1), pairs.max(axis=1)
        return i, j, ((points[i] - points[j]) ** 2).sum(axis=1), float(mst.sum())
    if dim <= 3 and n > 1000:
        simplices = Delaunay(points).simplices
        a, b = np.triu_indices(dim + 1, 1)
        pairs = np.stack([simplices[:, a], simplices[:, b]], axis=-1).reshape(-1, 2)
        pairs = np.unique(np.sort(pairs, axis=1), axis=0)
        i, j = pairs[:, 0], pairs[:, 1]
        d2 = ((points[i] - points[j]) ** 2).sum(axis=1)
    else:
        i, j = np.triu_indices(n, 1)
        d2 = pdist(points, "sqeuclidean")
    # An MST under squared lengths is an MST under lengths.
    mst = minimum_spanning_tree(coo_matrix((d2, (i, j)), shape=(n, n)))
    keep = np.isin(d2, mst.data)
    return i[keep], j[keep], d2[keep], math.fsum(np.sqrt(mst.data))


def canonical_emst(points: np.ndarray) -> tuple[list[tuple[int, int, float]], float]:
    """Kruskal in canonical order; returns (u, v, w) edges with u < v and the
    scipy cross-check weight."""
    n = len(points)
    u, v, d2, scipy_total = _candidate_pairs(points)
    order = np.lexsort((v, u, d2))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[int, int, float]] = []
    for a, b, dd in zip(u[order].tolist(), v[order].tolist(), d2[order].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.append((a, b, math.sqrt(dd)))
            if len(edges) == n - 1:
                break
    return edges, scipy_total


# ------------------------------------------------------------ the removals


def _side_weights(
    adj: dict[int, dict[int, float]], start: int, skip: int, depth: int
) -> list[float]:
    """Weights of the forest edges within `depth` hops of `start`, not
    crossing into `skip` (the other endpoint of the tested edge)."""
    seen = {start, skip}
    frontier = [start]
    weights: list[float] = []
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for y, w in adj[x].items():
                if y not in seen:
                    seen.add(y)
                    weights.append(w)
                    nxt.append(y)
        frontier = nxt
    return weights


def zahn_flags(adj, u: int, v: int, w: float, c: float, f: float, depth: int) -> bool:
    """Zahn's inconsistency test: the edge stands out against the mean plus
    c standard deviations on a non-empty side, against the larger of the two
    side bounds, or exceeds f times the larger side deviation."""
    sides = [_side_weights(adj, u, v, depth), _side_weights(adj, v, u, depth)]
    if not sides[0] and not sides[1]:
        return False
    bounds, devs = [], []
    for side in sides:
        mean = sum(side) / len(side) if side else 0.0
        std = math.sqrt(sum((x - mean) ** 2 for x in side) / len(side)) if side else 0.0
        if side and w > mean + c * std:
            return True
        bounds.append(mean + c * std)
        devs.append(c * std)
    return w > max(bounds) or (max(devs) > 0.0 and w / max(devs) > f)


def _heaviest_first(e: tuple[int, int, float]) -> tuple[float, int, int]:
    return (-e[2], e[0], e[1])


def replay_removals(n, tree, k, criterion, c=2.0, f=2.0, depth=2):
    """The k - 1 (edge, tag) removals the rule prescribes on this tree."""
    if criterion == "std":
        weights = np.array([w for _, _, w in tree])
        bound = weights.mean() + weights.std() if len(tree) else 0.0
        ranked = sorted(tree, key=_heaviest_first)[: k - 1]
        return [(e, "threshold" if e[2] > bound else "longest") for e in ranked]
    adj = _adjacency(n, tree)
    live = set(tree)
    removed = []
    for _ in range(k - 1):
        flagged = [e for e in live if zahn_flags(adj, *e, c, f, depth)]
        pick = min(flagged or live, key=_heaviest_first)
        removed.append((pick, "zahn" if flagged else "longest"))
        live.remove(pick)
        del adj[pick[0]][pick[1]], adj[pick[1]][pick[0]]
    return removed


# -------------------------------------------------------- tree metrics


def _components(n: int, edges) -> list[list[int]]:
    """Vertex sets of the forest, each sorted, ordered by lowest member."""
    u = [e[0] for e in edges]
    v = [e[1] for e in edges]
    _, label = connected_components(coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)))
    first = {}
    groups: dict[int, list[int]] = {}
    for x, c in enumerate(label.tolist()):
        groups.setdefault(first.setdefault(c, x), []).append(x)
    return [groups[x] for x in sorted(groups)]


def _distances_from(adj, source: int) -> dict[int, float]:
    dist = {source: 0.0}
    stack = [source]
    while stack:
        x = stack.pop()
        for y, w in adj[x].items():
            if y not in dist:
                dist[y] = dist[x] + w
                stack.append(y)
    return dist


def eccentricities(adj, members: list[int]) -> dict[int, float]:
    """Two farthest-vertex sweeps: with a, b the ends of a longest path,
    ecc(x) = max(d(x, a), d(x, b)) on a tree with non-negative weights."""
    first = _distances_from(adj, members[0])
    a = max(first, key=first.get)
    da = _distances_from(adj, a)
    b = max(da, key=da.get)
    db = _distances_from(adj, b)
    return {x: max(da[x], db[x]) for x in members}


def _adjacency(n: int, edges) -> dict[int, dict[int, float]]:
    adj: dict[int, dict[int, float]] = {x: {} for x in range(n)}
    for a, b, w in edges:
        adj[a][b] = adj[b][a] = w
    return adj


def _rms_spread(points: np.ndarray) -> float:
    return float(np.sqrt(((points - points.mean(axis=0)) ** 2).sum(axis=1).mean()))


# ----------------------------------------------------------- the reference


@dataclass
class Reference:
    points: np.ndarray
    labels: np.ndarray | None
    k: int
    tree_edges: int
    tree_weight: float
    scipy_weight: float
    removed: list
    clusters: list[list[int]]
    ecc: list[dict[int, float]]
    variance: list[float]
    compactness: float
    degenerate: bool
    svg: bool

    @classmethod
    def build(cls, points, labels, k, criterion, svg) -> "Reference":
        n = len(points)
        tree, scipy_weight = canonical_emst(points)
        removed = replay_removals(n, tree, k, criterion)
        cut = {e for e, _ in removed}
        kept = [e for e in tree if e not in cut]
        clusters = _components(n, kept)
        adj = _adjacency(n, kept)
        whole = _rms_spread(points)
        variance = [_rms_spread(points[m]) for m in clusters]
        return cls(
            points=points,
            labels=labels,
            k=k,
            tree_edges=len(tree),
            tree_weight=math.fsum(w for _, _, w in tree),
            scipy_weight=scipy_weight,
            removed=removed,
            clusters=clusters,
            ecc=[eccentricities(adj, m) for m in clusters],
            variance=variance,
            compactness=float(np.mean([v / whole for v in variance])) if whole else 0.0,
            degenerate=whole == 0.0,
            svg=svg,
        )


def check_outputs(files: dict[str, bytes], ref: Reference) -> list[str]:
    """Every way the output files disagree with the reference."""
    errors: list[str] = []
    expected = [
        "assignments.csv", "clusters.json", "dendrogram.json", "dendrogram.newick", "meta.json"
    ]
    if ref.svg:
        expected.append("dendrogram.svg")
        if ref.points.shape[1] == 2:
            expected.append("scatter.svg")
    if sorted(files) != sorted(expected):
        return [f"output files {sorted(files)} != {sorted(expected)}"]
    try:
        _check(files, ref, errors)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        errors.append(f"malformed output: {exc!r}")
    return errors


def _check(files, ref: Reference, errors: list[str]) -> None:
    n, k = len(ref.points), ref.k
    if ref.tree_edges != n - 1:
        errors.append(f"reference EMST has {ref.tree_edges} edges, expected {n - 1}")
    if not _close(ref.tree_weight, ref.scipy_weight, 1e-12):
        errors.append(f"reference EMST {ref.tree_weight} != scipy {ref.scipy_weight}")

    rows = list(csv.reader(io.StringIO(files["assignments.csv"].decode())))
    if rows[0] != ["point_index", "cluster_id"] or len(rows) != n + 1:
        errors.append("assignments.csv header or row count wrong")
        return
    assign = np.array([[int(a), int(b)] for a, b in rows[1:]])
    if not np.array_equal(assign[:, 0], np.arange(n)):
        errors.append("assignments.csv does not list points 0..n-1 in order")
    doc = json.loads(files["clusters.json"])
    clusters = doc["clusters"]
    if doc["cluster_count"] != k or len(clusters) != k:
        errors.append(f"cluster count {doc['cluster_count']} != k={k}")
        return

    # Partition: members per cluster, ids, generator labels.
    for cid, (cl, members) in enumerate(zip(clusters, ref.clusters)):
        if cl["id"] != cid or cl["members"] != members or cl["size"] != len(members):
            errors.append(f"cluster {cid}: members differ from the reference")
    ids = np.empty(n, dtype=int)
    for cid, members in enumerate(ref.clusters):
        ids[members] = cid
    if not np.array_equal(assign[:, 1], ids):
        errors.append("assignments.csv disagrees with the reference partition")
    if ref.labels is not None:
        pairs = set(zip(assign[:, 1].tolist(), ref.labels.tolist()))
        if len(pairs) != k or len({a for a, _ in pairs}) != k or len({b for _, b in pairs}) != k:
            errors.append("assignments do not reproduce the generator's blobs")

    # Removed edges, their weights, order and tags.
    removed = doc["removed_edges"]
    if len(removed) != len(ref.removed):
        errors.append(f"{len(removed)} removed edges, expected {len(ref.removed)}")
    for got, ((u, v, w), tag) in zip(removed, ref.removed):
        same = (got["u"], got["v"], got["criterion"]) == (u, v, tag)
        if not same or not _close(got["weight"], w, 1e-12):
            errors.append(f"removal {got} != expected ({u}, {v}, {w}, {tag})")
        dist = float(np.linalg.norm(ref.points[got["u"]] - ref.points[got["v"]]))
        if not _close(got["weight"], dist, 1e-12):
            errors.append(f"removed edge weight {got['weight']} != endpoint distance {dist}")

    # Tree metrics, variance and compactness.
    for cid, (cl, ecc, var) in enumerate(zip(clusters, ref.ecc, ref.variance)):
        radius, diameter = min(ecc.values()), max(ecc.values())
        c = cl["center_index"]
        if c not in ecc or not _close(ecc[c], radius):
            errors.append(f"cluster {cid}: center {c} does not have minimum eccentricity")
        if not _close(cl["radius"], radius) or not _close(cl["diameter"], diameter):
            errors.append(
                f"cluster {cid}: radius/diameter {cl['radius']}/{cl['diameter']}"
                f" != {radius}/{diameter}"
            )
        slack = REL_TOL * max(1.0, cl["diameter"])
        if not cl["radius"] <= cl["diameter"] + slack <= 2 * cl["radius"] + 2 * slack:
            errors.append(f"cluster {cid}: radius <= diameter <= 2 radius fails")
        if not _close(cl["variance"], var):
            errors.append(f"cluster {cid}: variance {cl['variance']} != {var}")
    degenerate = doc["compactness_degenerate"]
    if degenerate != ref.degenerate or not _close(doc["compactness"], ref.compactness):
        errors.append(f"compactness {doc['compactness']} != {ref.compactness}")

    # Meta stage: an EMST over the reported centers.
    centers = ref.points[[cl["center_index"] for cl in clusters]]
    meta_tree, _ = canonical_emst(centers) if k > 1 else ([], 0.0)
    dendro = json.loads(files["dendrogram.json"])
    if dendro["leaf_count"] != k or len(dendro["merges"]) != k - 1:
        errors.append("dendrogram leaf or merge count wrong")
    else:
        node = list(range(k))
        group = list(range(k))
        ranked = sorted(meta_tree, key=lambda e: (e[2], e[0], e[1]))
        for m, (rec, (a, b, w)) in enumerate(zip(dendro["merges"], ranked), start=1):
            ga, gb = group[a], group[b]
            joined = (rec["m"], rec["left"], rec["right"]) == (m, node[ga], node[gb])
            if not joined or not _close(rec["level"], w):
                errors.append(f"merge {m} {rec} != ({node[ga]}, {node[gb]}, {w})")
            group = [gb if g == ga else g for g in group]
            node[gb] = k - 1 + m
    meta = json.loads(files["meta.json"])
    meta_ecc = eccentricities(_adjacency(k, meta_tree), list(range(k)))
    meta_radius = min(meta_ecc.values())
    if not _close(meta["meta_radius"], meta_radius) or not _close(
        meta_ecc[meta["central_cluster"]], meta_radius
    ):
        errors.append(f"meta {meta} != radius {meta_radius}")

    newick = files["dendrogram.newick"].decode()
    if not newick.endswith(";\n") or any(f"C{i}" not in newick for i in range(k)):
        errors.append("dendrogram.newick does not name every cluster")
    if "scatter.svg" in files:
        circles = ET.fromstring(files["scatter.svg"]).iter("{http://www.w3.org/2000/svg}circle")
        if sum(1 for _ in circles) != n + k:
            errors.append("scatter.svg does not draw every point and center")
    if "dendrogram.svg" in files:
        ET.fromstring(files["dendrogram.svg"])


# ----------------------------------------------------------- corruptions


def _edit_json(files, name, edit) -> dict[str, bytes]:
    doc = json.loads(files[name])
    edit(doc)
    return {**files, name: json.dumps(doc).encode()}


def _scale(x: float) -> float:
    return x * 1.01 if x else 1.0


def corruptions(files: dict[str, bytes]) -> Iterator[tuple[str, dict[str, bytes]]]:
    """Damaged copies of real outputs, one fault each; every one must fail."""
    lines = files["assignments.csv"].decode().splitlines()
    point, cid = lines[1].split(",")
    moved = "\n".join([lines[0], f"{point},{int(cid) + 1}", *lines[2:]]) + "\n"
    yield "point moved to another cluster", {**files, "assignments.csv": moved.encode()}

    def widest(doc):
        return max(doc["clusters"], key=lambda cl: cl["radius"])

    yield "radius scaled by 1.01", _edit_json(
        files, "clusters.json", lambda d: widest(d).update(radius=_scale(widest(d)["radius"]))
    )
    yield "variance scaled by 1.01", _edit_json(
        files, "clusters.json", lambda d: widest(d).update(variance=_scale(widest(d)["variance"]))
    )
    yield "compactness scaled by 1.01", _edit_json(
        files, "clusters.json", lambda d: d.update(compactness=_scale(d["compactness"]))
    )
    yield "meta radius scaled by 1.01", _edit_json(
        files, "meta.json", lambda d: d.update(meta_radius=_scale(d["meta_radius"]))
    )
    doc = json.loads(files["clusters.json"])
    if len(doc["removed_edges"]) >= 2:

        def swap_removals(d):
            r = d["removed_edges"]
            r[0], r[-1] = r[-1], r[0]

        yield "first and last removals swapped", _edit_json(files, "clusters.json", swap_removals)
    merges = json.loads(files["dendrogram.json"])["merges"]
    if len(merges) >= 2 and merges[0]["level"] != merges[-1]["level"]:

        def swap_levels(d):
            m = d["merges"]
            m[0]["level"], m[-1]["level"] = m[-1]["level"], m[0]["level"]

        yield "two dendrogram levels swapped", _edit_json(files, "dendrogram.json", swap_levels)
    else:
        yield "dendrogram leaf added", _edit_json(
            files, "dendrogram.json", lambda d: d.update(leaf_count=d["leaf_count"] + 1)
        )
