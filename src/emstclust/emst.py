"""Euclidean minimum spanning tree construction and edge weight statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InputError
from .model import Dataset, Edge, SpanningForest, euclidean_distance


@dataclass(frozen=True)
class EdgeStats:
    """Mean and population standard deviation of a tree's edge weights."""

    mean: float
    std: float

    @classmethod
    def of(cls, weights: Sequence[float]) -> EdgeStats:
        """Statistics of a weight list; both are 0 for an empty list.

        math.fsum rounds correctly, so the result does not depend on the
        order of the weights.
        """
        if not weights:
            return cls(0.0, 0.0)
        mean = math.fsum(weights) / len(weights)
        variance = math.fsum((w - mean) ** 2 for w in weights) / len(weights)
        return cls(mean=mean, std=math.sqrt(variance))

    @property
    def variance(self) -> float:
        return self.std * self.std


# Squared Euclidean distance over the last axis of a difference array. Every
# d^2 the EMST compares comes from here: Prim's rows, the k-d tree's point
# blocks and its box bounds. The canonical tree is unique, so both builders
# return the same edges only if they compute the same d^2 for every pair.
# einsum sums the squares of the contiguous last axis in the same order
# whatever the leading shape (tests/test_emst.py checks rows against blocks
# bit for bit). A left-to-right sum of squares, ((x0^2 + x1^2) + x2^2) + ...,
# is a different function: it rounds differently on many pairs once d >= 3.
def _sq_dist(diff: np.ndarray) -> np.ndarray:
    return np.einsum("...k,...k->...", diff, diff)


_OVERFLOW = (
    "squared-distance overflow: some coordinate differences are too large to"
    " square in float64, so the EMST cannot be built"
)

# The k-d tree Boruvka replaces dense Prim from these sizes on, per dimension:
# where it was faster on uniform points in a sweep over n = 500 .. 16000 and
# d = 1 .. 5 (CHANGES.md). Higher d always uses Prim.
_KDTREE_MIN_N = {1: 1000, 2: 1000, 3: 2000, 4: 8000, 5: 16000}
_LEAF_SIZE = 32  # most points in one k-d tree leaf
_NEAREST = 16  # candidate leaves listed per leaf and tree traversal
_BLOCK_ELEMS = 1 << 14  # float64 differences in one batch of point-by-leaf rows
_FRONTIER_QUERIES = 8  # query leaves traversed together


def build_emst(dataset: Dataset) -> SpanningForest:
    """Build the Euclidean minimum spanning tree of a dataset.

    The tree is the unique minimum spanning tree under the canonical edge
    order: squared distance, then min endpoint, then max endpoint. So the
    result is deterministic even with duplicate points and massive ties.
    Two builders return that same tree, chosen by dimension d and size n
    at a crossover measured on uniform points (see _KDTREE_MIN_N):

    - d <= 5 and n >= 1000 (d <= 2), 2000 (d = 3), 8000 (d = 4) or 16000
      (d = 5): Boruvka rounds over a k-d tree of leaf buckets (March, Ram
      & Gray, KDD 2010). O(log n) rounds; on low-dimensional data each
      round computes d^2 only for pairs near a component's boundary, so
      time grows about as n log n, with an O(n^2) worst case. O(n) memory.
    - otherwise: a dense Prim scan over the implicit complete graph, O(n^2)
      time and O(n) memory.

    Both compute d^2 by one expression, _sq_dist, so they agree on every
    tie. Edge weights on the returned tree are computed with
    euclidean_distance so that every downstream comparison sees one
    consistent value.

    Raises InputError when squared distances overflow float64 so that
    some part of the points has no finite edge to the rest.

    A single-point dataset yields a forest with no edges.
    """
    pts = dataset.points
    coords = np.array([p.coords for p in pts], dtype=np.float64)
    if len(pts) >= _KDTREE_MIN_N.get(dataset.dimension, math.inf):
        u, v = _kdtree_emst(coords)
    else:
        u, v = _prim_emst(coords)
    del coords
    edges = frozenset(
        Edge(a, b, euclidean_distance(pts[a], pts[b])) for a, b in zip(u.tolist(), v.tolist())
    )
    return SpanningForest(vertex_count=len(pts), edges=edges)


def _prim_emst(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical EMST edges as arrays (source, target) by dense Prim.

    Per outside vertex j the scan keeps only the squared distance to the
    tree and its source vertex. That suffices for the tie rule: the
    candidate edges (a, j) of one fixed j are in canonical order exactly
    when their sources a are in increasing order (if a < j < b, then
    (a, j) < (j, b)), so a tie replaces the source only by a smaller one.
    Tree vertices hold NaN as their squared distance, which no comparison
    selects and np.fmin skips.
    """
    n = len(coords)
    edges = np.empty((2, n - 1), dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)  # vertex 0 is the first source of all
    best_d2[0] = np.nan
    cur = 0
    for i in range(n - 1):
        d2 = _sq_dist(coords - coords[cur])
        upd = (d2 < best_d2) | ((d2 == best_d2) & (cur < best_from))
        np.copyto(best_d2, d2, where=upd)
        best_from[upd] = cur

        nearest = np.fmin.reduce(best_d2)
        if not math.isfinite(nearest):
            # Every outside point is at d2 = inf, so Prim can no longer
            # order the candidates.
            raise InputError(_OVERFLOW)
        cand = np.flatnonzero(best_d2 == nearest)
        if len(cand) > 1:
            a = best_from[cand]
            cand = cand[np.lexsort((np.maximum(a, cand), np.minimum(a, cand)))]
        cur = int(cand[0])
        edges[:, i] = best_from[cur], cur
        best_d2[cur] = np.nan
    return edges[0], edges[1]


class _KdLeaves:
    """A perfect binary k-d tree over the points, split by rank.

    Every node splits its points at the median of its widest axis (ties in
    index order), down to leaves of at most _LEAF_SIZE points. Nodes are in
    heap order (children of i are 2i+1 and 2i+2) with bounding boxes in
    lo/hi; the leaves are the last `leaves` nodes. `perm` lists the points
    leaf by leaf, each leaf's members in ascending index order, and `pad`
    holds each leaf's positions in `perm`, padded to one width by repeating
    its last member. `near` lists each leaf's _NEAREST nearest leaves.
    """

    def __init__(self, coords: np.ndarray) -> None:
        n, dim = coords.shape
        depth = 0
        while -(-n >> depth) > _LEAF_SIZE:
            depth += 1
        self.depth = depth
        self.leaves = leaves = 1 << depth
        self.lo = lo = np.empty((2 * leaves - 1, dim))
        self.hi = hi = np.empty_like(lo)
        self.perm = perm = np.arange(n)
        for node in range(2 * leaves - 1):
            level = (node + 1).bit_length() - 1
            i = node + 1 - (1 << level)
            a, b = (i * n) >> level, ((i + 1) * n) >> level
            members = perm[a:b]
            x = coords[members]
            lo[node], hi[node] = x.min(axis=0), x.max(axis=0)
            if node < leaves - 1:
                keys = (members, x[:, np.argmax(hi[node] - lo[node])])
            else:
                keys = (members,)
            # lexsort, not a partition: each numpy sort routine pages in its
            # own code, and lexsort is the one the package already uses.
            perm[a:b] = members[np.lexsort(keys)]
        self.pts = coords[perm]
        starts = (np.arange(leaves) * n) >> depth
        sizes = np.diff(starts, append=n)
        self.pad = starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
        anywhere = np.full(2 * leaves - 1, -1)
        self.near = _nearest_leaves(self, anywhere, np.arange(leaves), _NEAREST)

    def bounds(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on d^2 between the points of nodes a and b.

        Per axis the rounded box gap is at most every member pair's rounded
        difference, and the rounded span at least it, since subtraction
        rounds monotonically. _sq_dist sums nonnegative squares in one fixed
        order, which is monotone in every term, so lower <= d^2 <= upper
        holds for the computed d^2 of every pair, not only in exact
        arithmetic.
        """
        lo_a, hi_a, lo_b, hi_b = self.lo[a], self.hi[a], self.lo[b], self.hi[b]
        gap = np.maximum(lo_b - hi_a, lo_a - hi_b)
        np.maximum(gap, 0.0, out=gap)
        span = np.maximum(hi_b - lo_a, hi_a - lo_b)
        return _sq_dist(gap), _sq_dist(span)


def _nearest_leaves(
    tree: _KdLeaves,
    node_comp: np.ndarray,
    queries: np.ndarray,
    k: int,
    bound: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """For each query leaf its k nearest eligible leaves by box bound.

    node_comp holds, per node, the component all its points lie in, or -1;
    a leaf is eligible unless it and the query lie wholly in one component,
    and, given a bound per query, its lower bound is at most that. Rows
    are ordered by (lower bound, leaf) and padded with leaf -1 and bound
    inf. The tree is descended level by level for a few queries at a time;
    a node is dropped once its lower bound exceeds the query's bound or the
    k-th smallest upper bound among the query's nodes, since each of those
    holds an eligible leaf. So each row is exactly the first k eligible
    leaves in that order.
    """
    first_leaf = tree.leaves - 1
    cand = np.full((len(queries), k), -1, dtype=np.int64)
    cand_lb = np.full((len(queries), k), np.inf)
    for start in range(0, len(queries), _FRONTIER_QUERIES):
        chunk = queries[start : start + _FRONTIER_QUERIES] + first_leaf
        own = node_comp[chunk]
        limit = np.full(len(chunk), np.inf) if bound is None else bound[start : start + len(chunk)]
        fq = np.arange(len(chunk))
        fn = np.zeros(len(chunk), dtype=np.int64)
        for level in range(tree.depth + 1):
            if level:
                fq = np.repeat(fq, 2)
                fn = (2 * fn[:, None] + np.array([1, 2])).ravel()
            keep = (own[fq] < 0) | (node_comp[fn] != own[fq])
            fq, fn = fq[keep], fn[keep]
            lb, ub = tree.bounds(chunk[fq], fn)
            last = level == tree.depth
            order = np.lexsort((fn, lb, fq) if last else (ub, fq))
            group = np.flatnonzero(np.diff(fq[order], prepend=-1))
            pos = np.arange(len(order)) - np.repeat(group, np.diff(group, append=len(order)))
            if last:
                take = (pos < k) & (lb[order] <= limit[fq[order]])
                top, at = order[take], pos[take]
                cand[start + fq[top], at] = fn[top] - first_leaf
                cand_lb[start + fq[top], at] = lb[top]
            else:
                tau = limit.copy()
                kth = order[pos == k - 1]
                tau[fq[kth]] = np.minimum(tau[fq[kth]], ub[kth])
                keep = lb <= tau[fq]
                fq, fn = fq[keep], fn[keep]
    return cand, cand_lb


def _kdtree_emst(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical EMST edges as arrays (u, v), u < v, by Boruvka."""
    return _Boruvka(coords).run()


class _Boruvka:
    """Boruvka rounds over a k-d tree, in O(n) memory.

    Each round finds every component's minimum outgoing edge in the
    canonical order and merges along all of them; with a strict total order
    these edges form a forest, and every one is in the unique tree. Per
    position of tree.perm it keeps the component, the best outgoing d^2
    found so far (inf where none is known) and that pair's target position.
    A leaf pair is skipped when both leaves lie wholly in one component.
    The r-th nearest candidate leaf of every live leaf is taken in one
    batch, and a leaf stops once its next candidate's box bound exceeds the
    worst component best among its points, since no pair there can win or
    tie.
    """

    def __init__(self, coords: np.ndarray) -> None:
        n = len(coords)
        self.edges = np.empty((2, n - 1), dtype=np.int64)
        self.tree = tree = _KdLeaves(coords)
        self.comp = np.arange(n)
        self.best_d2 = np.full(n, np.inf)
        self.best_to = np.zeros(n, dtype=np.int64)
        self.comp_best_buf = np.empty(n)
        self.comp_low_buf = np.empty(n, dtype=np.int64)
        self.node_comp = np.empty(2 * tree.leaves - 1, dtype=np.int64)
        self.leaf_comp = self.node_comp[tree.leaves - 1 :]
        self.last_lb = np.empty(tree.leaves)
        self.last_leaf = np.empty(tree.leaves, dtype=np.int64)

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        comp, best_d2 = self.comp, self.best_d2
        n, done = len(comp), 0
        while done < n - 1:
            # A best target from the last round that is still outside its
            # component is a real outgoing pair, so it seeds this round.
            best_d2[comp[self.best_to] == comp] = np.inf
            self.comp_best = self.comp_best_buf[: n - done]
            self.comp_best.fill(np.inf)
            self.comp_low = self.comp_low_buf[: n - done]
            self.comp_low.fill(n)
            self._note(np.flatnonzero(best_d2 < np.inf))
            self._mark_components()
            self._search()
            done = self._merge(done)
        return self.edges[0], self.edges[1]

    def _mark_components(self) -> None:
        """node_comp: the component all of a node's points lie in, or -1."""
        tree, node_comp = self.tree, self.node_comp
        members = self.comp[tree.pad]
        lo = members.min(axis=1)
        self.leaf_comp[:] = np.where(lo == members.max(axis=1), lo, -1)
        del members
        for level in reversed(range(tree.depth)):
            a, b = (1 << level) - 1, (2 << level) - 1
            left, right = node_comp[2 * a + 1 : 2 * b + 1 : 2], node_comp[2 * a + 2 : 2 * b + 2 : 2]
            node_comp[a:b] = np.where(left == right, left, -1)

    def _search(self) -> None:
        """Find every component's minimum outgoing pair among the bests.

        First the static lists of nearest leaves, then, for leaves that
        used a whole list, lists of eligible leaves only, twice as long each
        time. The order of all lists is exact, so the entries up to the last
        one a leaf reached, (last_lb, last_leaf), were processed already.
        """
        tree = self.tree
        live = np.arange(tree.leaves)
        live = self._walk(live, *tree.near, np.zeros(len(live), dtype=np.int64), check=True)
        listed = 2 * _NEAREST
        while live.size:
            cand, cand_lb = _nearest_leaves(tree, self.node_comp, live, listed, self._bound(live))
            last_lb, last_leaf = self.last_lb[live, None], self.last_leaf[live, None]
            seen = (cand_lb < last_lb) | ((cand_lb == last_lb) & (cand <= last_leaf))
            live = self._walk(live, cand, cand_lb, np.count_nonzero(seen, axis=1), check=False)
            listed *= 2

    def _note(self, a: np.ndarray) -> None:
        """Fold the bests of positions `a` into their components' bests.

        comp_best is a component's least best d^2 and comp_low the least
        smaller endpoint among its pairs at that d^2: together the first
        two keys of a real outgoing pair, which no pruned pair can beat.
        """
        comp = self.comp[a]
        d2 = self.best_d2[a]
        before = self.comp_best[comp]
        np.minimum.at(self.comp_best, comp, d2)
        lower = comp[self.comp_best[comp] < before]
        self.comp_low[lower] = len(self.comp)  # above every vertex
        perm = self.tree.perm
        at_best = d2 == self.comp_best[comp]
        low = np.minimum(perm[a], perm[self.best_to[a]])
        np.minimum.at(self.comp_low, comp[at_best], low[at_best])

    def _bound(self, leaves: np.ndarray) -> np.ndarray:
        """Per leaf the worst component best among its points."""
        return self.comp_best[self.comp[self.tree.pad[leaves]]].max(axis=1)

    def _merge(self, done: int) -> int:
        """Merge every component along its minimum outgoing pair.

        Among the points attaining their component's least best d^2, the
        pair with the least (min endpoint, max endpoint) is the canonical
        minimum. Writes the new tree edges to `edges` from column `done` on,
        relabels `comp` in place and returns the new number of edges.
        """
        comp, comp_best, best_to, perm = self.comp, self.comp_best, self.best_to, self.tree.perm
        count, n = len(comp_best), len(comp)
        if comp_best.max() == np.inf:
            # Some component has no finite squared distance to the rest.
            raise InputError(_OVERFLOW)
        pos = np.flatnonzero(self.best_d2 == comp_best[comp])
        a, b = perm[pos], perm[best_to[pos]]
        key = np.minimum(a, b) * n + np.maximum(a, b)
        del a, b
        least = np.full(count, n * n)
        np.minimum.at(least, comp[pos], key)
        pos = pos[key == least[comp[pos]]]  # one per component
        del key
        parent = np.empty(count, dtype=np.int64)
        parent[comp[pos]] = comp[best_to[pos]]
        # With a strict order the chosen edges form a forest, except that
        # two components may choose the same edge: the smaller one roots it.
        root = (parent[parent] == np.arange(count)) & (np.arange(count) < parent)
        parent[root] = np.flatnonzero(root)
        least = least[~root]
        self.edges[0, done : done + len(least)] = least // n
        self.edges[1, done : done + len(least)] = least % n
        while np.count_nonzero(parent[parent] != parent):
            parent = parent[parent]
        roots = np.flatnonzero(parent == np.arange(count))
        label = np.empty(count, dtype=np.int64)
        label[roots] = np.arange(len(roots))
        comp[:] = label[parent[comp]]
        return done + len(least)

    def _walk(self, live, cand, cand_lb, first, check):
        """Process list entries first, first+1, ... of each live leaf, one
        batch per step; return the leaves that used up their list."""
        leaf_comp = self.leaf_comp
        rows = np.arange(len(live))
        used_up = []
        for step in range(cand.shape[1] + 1):
            at = first[rows] + step
            full = at >= cand.shape[1]
            used_up.append(rows[full])
            rows, at = rows[~full], at[~full]
            q, c = live[rows], cand[rows, at]
            keep = (c >= 0) & (cand_lb[rows, at] <= self._bound(q))
            rows, q, c = rows[keep], q[keep], c[keep]
            if not rows.size:
                break
            if check:
                ok = (leaf_comp[q] < 0) | (leaf_comp[c] != leaf_comp[q])
                q, c = q[ok], c[ok]
            self._blocks(q, c)
        used_up = np.concatenate(used_up)
        self.last_lb[live[used_up]] = cand_lb[used_up, -1]
        self.last_leaf[live[used_up]] = cand[used_up, -1]
        return live[used_up]

    def _blocks(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Update the points of leaves `rows` with their best pair in `cols`.

        Leaf i of `rows` meets leaf i of `cols`; every row leaf appears
        once. A point is skipped when its column leaf lies wholly in its
        component, or when the leaf's box bound and smallest member show
        that no pair there can come before its component's best; the
        second test keeps all-duplicate inputs from pairing every point
        with every leaf. Pairs within one component are excluded. Members
        are in ascending index order and padding repeats the last, so
        argmin keeps the smaller target on a tie, which is the canonical
        order for a fixed point.
        """
        tree = self.tree
        width, dim = tree.pad.shape[1], tree.pts.shape[1]
        per = max(width, _BLOCK_ELEMS // (width * dim))  # rows per batch
        step = 4 * per // width  # row leaves screened at a time
        held_p, held_leaf, held = [], [], 0
        for i in range(0, len(rows), step):
            p = tree.pad[rows[i : i + step]].ravel()
            leaf = np.repeat(cols[i : i + step], width)
            x = tree.pts[p]
            box = leaf + tree.leaves - 1
            gap = np.maximum(tree.lo[box] - x, x - tree.hi[box])
            np.maximum(gap, 0.0, out=gap)
            lb, cp = _sq_dist(gap), self.comp[p]
            low = np.minimum(tree.perm[p], tree.perm[tree.pad[leaf, 0]])
            best = self.comp_best[cp]
            keep = (lb < best) | ((lb == best) & (low <= self.comp_low[cp]))
            keep &= self.leaf_comp[leaf] != cp
            keep[1:] &= p[1:] != p[:-1]  # padding repeats a member
            held_p.append(p[keep])
            held_leaf.append(leaf[keep])
            held += len(held_p[-1])
            if held >= per or i + step >= len(rows):
                p, leaf = np.concatenate(held_p), np.concatenate(held_leaf)
                for j in range(0, len(p), per):
                    self._rows(p[j : j + per], leaf[j : j + per])
                held_p, held_leaf, held = [], [], 0

    def _rows(self, a: np.ndarray, leaf: np.ndarray) -> None:
        """Update point a[i] with its best pair in leaf[i]; each point once."""
        tree, comp, best_d2, best_to = self.tree, self.comp, self.best_d2, self.best_to
        b = tree.pad[leaf]
        pa, pb = tree.pts[a], tree.pts[b]
        diff = np.empty(pb.shape)
        # Axis by axis: the same differences as one broadcast, faster.
        for k in range(diff.shape[2]):
            np.subtract(pa[:, None, k], pb[:, :, k], out=diff[..., k])
        del pb
        d2 = _sq_dist(diff)
        del diff
        np.copyto(d2, np.inf, where=comp[a][:, None] == comp[b])
        j = d2.argmin(axis=1)
        near = d2[np.arange(len(a)), j]
        to = b[np.arange(len(a)), j]
        perm = tree.perm
        upd = (near < best_d2[a]) | ((near == best_d2[a]) & (perm[to] < perm[best_to[a]]))
        a = a[upd]
        best_d2[a] = near[upd]
        best_to[a] = to[upd]
        self._note(a)


def edge_statistics(forest: SpanningForest) -> EdgeStats:
    """Mean and population standard deviation of the forest's edge weights.

    Raises DegenerateInputError for a forest with no edges.
    """
    if not forest.edges:
        raise DegenerateInputError("edge statistics need at least one edge")
    return EdgeStats.of([e.weight for e in forest.edges])

