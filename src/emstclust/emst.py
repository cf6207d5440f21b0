"""Euclidean minimum spanning tree construction; its statistics are in metrics.py."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .model import _CHUNK, Dataset, SpanningForest, _lowest_members


def _planes(rows: np.ndarray) -> np.ndarray:
    """Rows (..., d) as C-ordered coordinate planes (d, ...), plane k
    holding axis k; a copy even for d = 1, as the builders write to it."""
    return np.moveaxis(rows, -1, 0).copy()


# Squared Euclidean distances of axis-major differences: diff has shape
# (d, ...), diff[k] holds the differences on axis k, and the result has shape
# (...). Every d^2 the EMST compares comes from here: dense Prim's rows, and
# the k-d tree's point-by-leaf rows, point-to-box screens and box-pair
# bounds. The canonical tree is unique, so the two builders return the same
# edges only if they compute the same d^2 for every pair.
#
# d^2 = (x0^2 + x2^2 + x4^2 + ..) + (x1^2 + x3^2 + ..): two lanes over the
# even and the odd axes, each added from the left in axis order, and the two
# lanes added last. The order is this function's own, so the tree does not
# depend on the numpy build.
#
# np.add.reduce over the outermost axis adds the planes into each lane's
# running sum one at a time. numpy sums pairwise only when the reduced axis
# is its inner loop (np.sum's notes); in the C-ordered (d // 2, 2, ...)
# lanes a later axis is innermost, even for one pair (dense Prim's last
# step), where one lane over (d, 1) would be summed pairwise from d = 8.
# The squares overwrite diff when it is C-contiguous and go to a new array
# otherwise. tests/test_emst.py checks d = 1 .. 24 bit for bit against a
# scalar reference.
def _sq_dist(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    sq = np.square(diff, out=diff) if diff.flags.c_contiguous else np.square(diff, order="C")
    dim = len(sq)
    if dim == 1:
        return np.add(sq[0], 0.0, out=out)
    lanes = sq[: dim - dim % 2].reshape(dim // 2, 2, *sq.shape[1:])
    lanes = np.add.reduce(lanes, axis=0) if len(lanes) > 1 else lanes[0]
    if dim % 2:
        lanes[0] += sq[-1]
    return np.add(lanes[0], lanes[1], out=out)


_OVERFLOW = (
    "squared-distance overflow: some coordinate differences are too large to"
    " square in float64, so the EMST cannot be built"
)

# The k-d tree Boruvka replaces dense Prim from these sizes on, per dimension:
# where it was faster on uniform points in sweeps over n = 500 .. 32000 and
# d = 1 .. 5, and over n = 50 .. 500 for d = 1 (CHANGES.md). Higher d always
# uses Prim.
_KDTREE_MIN_N = {1: 400, 2: 1000, 3: 3000, 4: 12000, 5: 24000}
# The builders see the rows scaled by the power of two that brings the
# largest |coordinate| just below 2^_SCALE_EXP, or unscaled when it is
# already larger (_emst_arrays).
_SCALE_EXP = 250
# Duplicate rows are collapsed only when every nonzero scaled |coordinate|
# is at least this, so that distinct points never compute d^2 = 0.
_COLLAPSE_MIN = 2.0**-450
_LEAF_SIZE = 32  # most points in one k-d tree leaf
_BLOCK_ELEMS = 1 << 15  # float64 differences in one batch of rows or node pairs
_PRIM_BUFSIZE = 1 << 10  # numpy ufunc buffer size, in elements, during dense Prim


def build_emst(dataset: Dataset) -> SpanningForest:
    """Build the Euclidean minimum spanning tree of a dataset.

    The tree is _emst_arrays(dataset.coords), see there, checked once here:
    the SpanningForest constructor refuses a self-loop, an endpoint out of
    range or a cycle, and then a forest of more than one component is
    refused. No Edge is built. A single-point dataset yields no edges.
    """
    tree = SpanningForest(len(dataset), *_emst_arrays(dataset.coords))
    if tree.component_count != 1:
        raise InputError("the EMST edges do not span the points")
    return tree


def _emst_arrays(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The EMST of the rows of coords as parallel arrays u < v and w, in
    the builder's order; build_emst checks and sorts them.

    The tree is the unique minimum spanning tree under the canonical edge
    order: squared distance, then min endpoint, then max endpoint. So the
    result is deterministic even with duplicate points and massive ties.

    d^2 is computed on the rows scaled by 2^s, with s >= 0 chosen so that
    the largest |coordinate| lands just below 2^250 (_SCALE_EXP); rows
    already larger are not scaled, so an input whose d^2 overflows is
    still refused. Scaling by a power of two is exact, and it changes no
    d^2 comparison unless some squared difference underflows unscaled.
    Such differences square to normal floats scaled, so that points 1e-200
    apart no longer tie with points 3e-200 apart at d^2 = 0.

    The builder runs on the distinct rows only, each standing for the
    lowest index of its group of identical rows, and every other member of
    a group joins that lowest index by a zero-weight edge. Under the
    canonical order this is the same tree: zero edges sort first, and a
    group's zero edges build the star on its lowest index; between two
    groups the first pair in order is their two lowest indices, and every
    later pair closes a cycle; numbering the distinct rows in the order of
    their lowest indices keeps the (min, max) order of every pair. That
    argument needs d^2 > 0 between distinct points, which holds when every
    nonzero scaled |coordinate| is at least 2^-450 (see _COLLAPSE_MIN):
    distinct points then differ by at least 2^-502 on some axis, whose
    square is a normal float. When some coordinate is smaller, which takes
    coordinates more than 2^699 apart in magnitude, the builder runs on all
    rows. The groups come from one stable lexsort of the rows, so an input
    without duplicates pays that sort and one comparison.

    Two builders return the tree of the distinct rows, chosen by dimension
    d and the number m of distinct points at a crossover measured on
    uniform points (see _KDTREE_MIN_N):

    - d <= 5 and m >= 400 (d = 1), 1000 (d = 2), 3000 (d = 3), 12000
      (d = 4) or 24000 (d = 5): dual-tree Boruvka over a k-d tree of leaf
      buckets (March, Ram & Gray, KDD 2010). O(log m) rounds, each one
      traversal of (query node, reference node) pairs that drops a pair
      once both nodes lie in one component or its box bound exceeds the
      query node's bound on its components' least outgoing d^2; d^2 is
      computed only for the point-by-leaf rows that remain, near a
      component's boundary. On low-dimensional data time grows about as
      m log m, with an O(m^2) worst case. O(m) memory.
    - otherwise: a dense Prim scan over the implicit complete graph, O(m^2)
      time and O(m) memory.

    Both compute every d^2 with one function, _sq_dist, on coordinate
    planes, so they agree on every tie. The builder's endpoints are
    range-checked before the distinct rows are renumbered, where -1 would
    wrap; the rest of the check is build_emst's. The weights are math.dist
    on the coordinate rows, the correctly rounded distance every output reports
    (np.sqrt of d^2 rounds differently on many pairs), taken one chunk of
    _CHUNK edges at a time into a float64 array: the endpoint rows exist
    as Python lists for one chunk only, not for the whole tree.

    Raises InputError when squared distances overflow float64 so that
    some part of the points has no finite edge to the rest.
    """
    n = len(coords)
    top = max(-coords.min(), coords.max())
    scaled = np.ldexp(coords, max(0, _SCALE_EXP - math.frexp(top)[1]))
    # Stable, so each run of equal rows starts with the group's lowest index.
    order = np.lexsort(scaled.T)
    ranked = scaled[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    del ranked
    collapse = not first.all() and not ((scaled != 0) & (np.abs(scaled) < _COLLAPSE_MIN)).any()
    reps = np.sort(order[first]) if collapse else None
    rows = scaled[reps] if collapse else scaled
    del scaled
    m = len(rows)
    if m >= _KDTREE_MIN_N.get(coords.shape[1], math.inf):
        a, b = _kdtree_emst(rows)
    else:
        a, b = _prim_emst(rows)
    del rows
    u, v = np.minimum(a, b), np.maximum(a, b)
    del a, b
    # Checked before the distinct rows are renumbered, where -1 would wrap.
    if len(u) and (u.min() < 0 or v.max() >= m):
        raise InputError(f"an EMST edge leaves vertex range 0..{m - 1}")
    if collapse:
        lowest = order[np.maximum.accumulate(np.where(first, np.arange(n), 0))]
        u = np.concatenate((reps[u], lowest[~first]))
        v = np.concatenate((reps[v], order[~first]))
    w = np.empty(len(u))
    for start in range(0, len(u), _CHUNK):
        ends = slice(start, start + _CHUNK)
        w[ends] = list(map(math.dist, coords[u[ends]].tolist(), coords[v[ends]].tolist()))
    return u, v, w


# Both builders refuse an infinite d^2 themselves (_OVERFLOW); numpy need not warn.
@np.errstate(over="ignore")
def _prim_emst(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical EMST edges as arrays (source, target) by dense Prim.

    Per outside vertex j the scan keeps only the squared distance to the
    tree and its source vertex. That suffices for the tie rule: the
    candidate edges (a, j) of one fixed j are in canonical order exactly
    when their sources a are in increasing order (if a < j < b, then
    (a, j) < (j, b)), so a tie replaces the source only by a smaller one.

    Each step works on the outside vertices alone. They sit in the first
    `live` slots of out (their ids), pts (their coordinate planes), best_d2
    and best_from, and the vertex that joins the tree is overwritten by the
    last live slot. Slots are in no particular order, so ties between
    candidates are broken on the vertex ids in out.
    """
    n = len(coords)
    edges = np.empty((2, n - 1), dtype=np.int64)
    out = np.arange(1, n)
    pts = _planes(coords)
    here = pts[:, :1].copy()  # the vertex that joined the tree last
    pts = pts[:, 1:]
    diff_buf = np.empty(pts.size)
    best_d2 = np.full(n - 1, np.inf)
    best_from = np.zeros(n - 1, dtype=np.int64)  # vertex 0 is the first source of all
    d2_buf, upd_buf, tie_buf = np.empty(n - 1), np.empty(n - 1, dtype=bool), np.empty(n - 1, dtype=bool)
    cur = 0
    # Subtracting the broadcast newest vertex from 64-D planes took about
    # three times as long with numpy's default ufunc buffers of 8192 elements
    # (64 kB, more than an L1 cache) as with 1024.
    bufsize = np.setbufsize(_PRIM_BUFSIZE)
    try:
        for i in range(n - 1):
            live = n - 1 - i
            bd, bf, d2, upd, tie = best_d2[:live], best_from[:live], d2_buf[:live], upd_buf[:live], tie_buf[:live]
            diff = diff_buf[: len(pts) * live].reshape(-1, live)
            _sq_dist(np.subtract(pts[:, :live], here, out=diff), out=d2)
            np.less(d2, bd, out=upd)
            np.equal(d2, bd, out=tie)
            if np.count_nonzero(tie):
                tie &= cur < bf
                upd |= tie
            np.minimum(bd, d2, out=bd)
            np.copyto(bf, cur, where=upd)

            s = int(bd.argmin())
            if not math.isfinite(bd[s]):
                # Every outside point is at d2 = inf, so Prim can no longer
                # order the candidates.
                raise InputError(_OVERFLOW)
            np.equal(bd, bd[s], out=tie)
            if np.count_nonzero(tie) > 1:
                cand = np.flatnonzero(tie)
                a, j = bf[cand], out[cand]
                s = int(cand[np.lexsort((np.maximum(a, j), np.minimum(a, j)))[0]])
            cur = int(out[s])
            edges[:, i] = bf[s], cur
            last = live - 1
            here[:, 0] = pts[:, s]
            out[s], pts[:, s], bd[s], bf[s] = out[last], pts[:, last], bd[last], bf[last]
    finally:
        np.setbufsize(bufsize)
    return edges[0], edges[1]


class _KdLeaves:
    """A perfect binary k-d tree over the points, split by rank.

    Every node splits its points at the median of its widest axis (ties in
    index order), down to leaves of at most _LEAF_SIZE points. Nodes are in
    heap order (children of i are 2i+1 and 2i+2); the leaves are the last
    `leaves` nodes. `perm` lists the points leaf by leaf, each leaf's
    members in ascending index order, and `pad` holds each leaf's positions
    in `perm`, padded to one width by repeating its last member. Leaf
    sizes differ by at most one, so only the last slot of a leaf can be
    padding, and `full` marks the leaves where it is not. Coordinates are
    planes (_planes): `pts` (d, leaves, width) holds those of `pad`, and
    `box` (d, 2, nodes) each node's bounding box, lower corner then upper.
    The tree is built level by level, one sort per level.
    """

    def __init__(self, coords: np.ndarray) -> None:
        n, dim = coords.shape
        planes = _planes(coords)
        depth = 0
        while -(-n >> depth) > _LEAF_SIZE:
            depth += 1
        self.depth = depth
        self.leaves = leaves = 1 << depth
        self.box = box = np.empty((dim, 2, 2 * leaves - 1))
        # Each point's rank along each axis, ties in index order, so that
        # one integer key sorts a node's members by (value, index). lexsort,
        # not a partition: each numpy sort routine pages in its own code,
        # and lexsort is the one the package already uses.
        rank = np.empty((dim, n), dtype=np.int64)
        for k in range(dim):
            rank[k, np.lexsort((planes[k],))] = np.arange(n)
        perm = np.arange(n)
        for level in range(depth + 1):
            nodes = slice((1 << level) - 1, (2 << level) - 1)
            starts = (np.arange(1 << level) * n) >> level
            x = np.take(planes, perm, axis=1)
            box[:, 0, nodes] = np.minimum.reduceat(x, starts, axis=1)
            box[:, 1, nodes] = np.maximum.reduceat(x, starts, axis=1)
            del x
            node = np.repeat(np.arange(1 << level), np.diff(starts, append=n))
            if level < depth:
                key = rank[np.argmax(box[:, 1, nodes] - box[:, 0, nodes], axis=0)[node], perm]
            else:
                key = perm
            perm = perm[np.lexsort((node * n + key,))]
        del rank
        self.perm = perm
        starts = (np.arange(leaves) * n) >> depth
        sizes = np.diff(starts, append=n)
        self.pad = starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
        self.full = sizes == sizes.max()
        self.pts = np.take(planes, perm[self.pad], axis=1)

    def bounds(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on d^2 between the points of nodes a and b.

        Per axis the rounded box gap is at most every member pair's rounded
        difference, and the rounded span at least it, since subtraction
        rounds monotonically. _sq_dist sums nonnegative squares in one fixed
        order, which is monotone in every term, so lower <= d^2 <= upper
        holds for the computed d^2 of every pair, not only in exact
        arithmetic.
        """
        box_a, box_b = np.take(self.box, a, axis=2), np.take(self.box, b, axis=2)
        # Per axis: (lo_b - hi_a, hi_b - lo_a), then the larger of each and
        # its mirror (lo_a - hi_b, hi_a - lo_b): the gap and the span.
        ext = box_b - box_a[:, ::-1]
        np.maximum(ext, box_a - box_b[:, ::-1], out=ext)
        np.maximum(ext[:, 0], 0.0, out=ext[:, 0])
        lower, upper = _sq_dist(ext)
        return lower, upper


@np.errstate(over="ignore")
def _kdtree_emst(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical EMST edges as arrays (u, v), u < v, by Boruvka."""
    return _Boruvka(coords).run()


class _Boruvka:
    """Boruvka rounds over a k-d tree, in O(n) memory.

    Each round finds every component's minimum outgoing edge in the
    canonical order and merges along all of them; with a strict total order
    these edges form a forest, and every one is in the unique tree. Per
    position of tree.perm it keeps the component, the best outgoing d^2
    found so far (inf where none is known) and that pair's target position;
    per component, for one round, comp_best and comp_low (_note). Each
    round searches by one dual-tree traversal (_search) and merges with the
    package's one component routine (_merge).
    """

    def __init__(self, coords: np.ndarray) -> None:
        n = len(coords)
        self.tree = tree = _KdLeaves(coords)
        self.comp = np.arange(n)
        self.best_d2 = np.full(n, np.inf)
        self.best_to = np.zeros(n, dtype=np.int64)
        self.node_comp = np.empty(2 * tree.leaves - 1, dtype=np.int64)
        self.leaf_comp = self.node_comp[tree.leaves - 1 :]
        self.tau = np.empty(2 * tree.leaves - 1)

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """The tree's edges (u, v), u < v, round by round: each round's
        edges are keys u * n + v in ascending order, decoded once here."""
        comp, best_d2 = self.comp, self.best_d2
        n = count = len(comp)
        rounds = []
        while count > 1:
            # A best target from the last round that is still outside its
            # component is a real outgoing pair, so it seeds this round.
            best_d2[comp[self.best_to] == comp] = np.inf
            self.comp_best = np.full(count, np.inf)
            self.comp_low = np.full(count, n)
            self._note(np.flatnonzero(best_d2 < np.inf))
            self._mark_nodes()
            self._search()
            rounds.append(self._merge())
            count -= len(rounds[-1])
        key = np.concatenate(rounds) if rounds else np.empty(0, dtype=np.int64)
        return key // n, key % n

    def _mark_nodes(self) -> None:
        """Per node, bottom-up: node_comp, the component all its points lie
        in or -1, and tau, the largest component best among its points."""
        tree, node_comp, tau = self.tree, self.node_comp, self.tau
        self.pad_comp = members = self.comp[tree.pad]
        lo = members.min(axis=1)
        self.leaf_comp[:] = np.where(lo == members.max(axis=1), lo, -1)
        tau[tree.leaves - 1 :] = self.comp_best[members].max(axis=1)
        for level in reversed(range(tree.depth)):
            a, b = (1 << level) - 1, (2 << level) - 1
            left, right = node_comp[2 * a + 1 : 2 * b + 1 : 2], node_comp[2 * a + 2 : 2 * b + 2 : 2]
            node_comp[a:b] = np.where(left == right, left, -1)
            np.maximum(tau[2 * a + 1 : 2 * b + 1 : 2], tau[2 * a + 2 : 2 * b + 2 : 2], out=tau[a:b])

    def _search(self) -> None:
        """Find every component's minimum outgoing pair among the bests.

        One traversal descends query and reference nodes together, level
        by level from the pair (root, root), each pair into the four pairs
        of their children. A pair is dropped when both nodes lie wholly in
        one component, or when its lower bound exceeds tau of the query
        node: a bound on the least outgoing d^2 of every component among
        its points (_descend). The surviving leaf pairs go to _blocks in
        ascending order of their lower bound, a leaf's pair with itself
        first among equals, so that near pairs tighten the component bests
        before far pairs are screened against them.
        """
        tree, tau = self.tree, self.tau
        per = max(1, _BLOCK_ELEMS // (16 * len(tree.box)))  # pairs split at a time
        q = r = np.zeros(1, dtype=np.int64)
        for level in range(tree.depth + 1):
            if level:
                a = (1 << level) - 1
                np.minimum(tau[a : 2 * a + 1], np.repeat(tau[(a - 1) // 2 : a], 2), out=tau[a : 2 * a + 1])
            parts = [self._descend(q[i : i + per], r[i : i + per], level > 0) for i in range(0, len(q), per)]
            q, r, lb = (np.concatenate(part) for part in zip(*parts))
            del parts
        keep = lb <= tau[q]
        q, r, lb = q[keep] - (tree.leaves - 1), r[keep] - (tree.leaves - 1), lb[keep]
        order = np.lexsort((q != r, lb))
        q, r, lb = q[order], r[order], lb[order]
        del order, keep
        self._blocks(q, r, lb)

    def _descend(self, q: np.ndarray, r: np.ndarray, split: bool) -> tuple[np.ndarray, ...]:
        """The pairs of nodes q[i], r[i] (of their children if split) that
        can hold a minimum outgoing pair, with their lower bounds.

        tau of a node starts as the largest component best among its points
        (_mark_nodes) and is at most its parent's. It is also at most the
        upper bound toward any reference node that does not lie, with the
        query node, wholly in one component. Take a point p of the query
        node: either the reference node holds a point outside p's
        component, or it lies wholly in that component and the query node
        holds a point outside it. Either way a pair across the two nodes
        leaves p's component, so its least outgoing d^2 is within the bound.
        """
        tree, node_comp, tau = self.tree, self.node_comp, self.tau
        if split:
            q = (2 * q[:, None] + np.array([1, 1, 2, 2])).ravel()
            r = (2 * r[:, None] + np.array([1, 2, 1, 2])).ravel()
        own = node_comp[q]
        keep = (own < 0) | (own != node_comp[r])
        lb, ub = tree.bounds(q, r)
        np.minimum.at(tau, q[keep], ub[keep])
        keep &= lb <= tau[q]
        return q[keep], r[keep], lb[keep]

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

    def _merge(self) -> np.ndarray:
        """Merge every component along its minimum outgoing pair and return
        those pairs' keys min endpoint * n + max endpoint, ascending.

        Among the points attaining their component's least best d^2, the
        pair with the least key is the canonical minimum. Two components
        may choose the same pair; its key is returned once. comp is
        relabelled in place: _lowest_members over the chosen pairs, and the
        new labels numbered in the order of those lowest old labels.
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
        root = _lowest_members(count, comp[pos], comp[best_to[pos]])
        comp[:] = (np.cumsum(root == np.arange(count)) - 1)[root][comp]
        # lexsort, not np.unique, which pages in code of its own: it raised
        # the CLI's peak RSS on the benchmark's tinyblobs_k200_std points
        # from 31.8 to 33.2 MB, and on blobs2d_k10_svg's from 31.8 to 33.0.
        least = least[np.lexsort((least,))]
        return least[np.append(True, least[1:] != least[:-1])]

    def _blocks(self, rows: np.ndarray, cols: np.ndarray, pair_lb: np.ndarray) -> None:
        """Update the points of leaves `rows` with their best pair in `cols`.

        Leaf i of `rows` meets leaf i of `cols`, in that order; pair_lb is
        the pair's box lower bound. The pairs are screened a batch at a
        time (_screen), and each batch's point-by-leaf rows that pass go
        to _rows in slices of `per` rows, at most _BLOCK_ELEMS differences
        each, so the component bests they find screen the pairs that
        follow. A batch's last slice may be short.
        """
        dim, _, width = self.tree.pts.shape
        per = max(width, _BLOCK_ELEMS // (width * dim))  # rows per batch
        step = 16 * per // width  # row leaves screened at a time
        for i in range(0, len(rows), step):
            slot, leaf = self._screen(rows[i : i + step], cols[i : i + step], pair_lb[i : i + step])
            for j in range(0, len(slot), per):
                self._rows(slot[j : j + per], leaf[j : j + per])

    def _screen(self, q: np.ndarray, r: np.ndarray, pair_lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows (slot, leaf) of the points of leaves q that can have a
        best pair in leaves r. A point's slot is its place in the padded
        leaf layout, leaf * width + member, as in tree.pad.

        A pair is skipped when its lower bound exceeds every component best
        among the points of q. A point is skipped when its column leaf lies
        wholly in its component, or when the leaf's box bound and smallest
        member show that no pair there can come before its component's
        best; the second test keeps all-duplicate inputs from pairing every
        point with every leaf.
        """
        tree = self.tree
        ok = pair_lb <= self.comp_best[self.pad_comp[q]].max(axis=1)
        q, r = q[ok], r[ok]
        cp = self.pad_comp[q]
        box = np.take(tree.box, r + tree.leaves - 1, axis=2)[..., None]
        x = np.take(tree.pts, q, axis=1)
        gap = box[:, 0] - x
        np.maximum(gap, x - box[:, 1], out=gap)
        np.maximum(gap, 0.0, out=gap)
        del x
        lb = _sq_dist(gap)
        del gap
        best = self.comp_best[cp]
        keep = lb <= best
        tie = lb == best
        if np.count_nonzero(tie):
            # At the best itself only a pair with a smaller min endpoint
            # comes first.
            perm, pad = tree.perm, tree.pad
            low = np.minimum(perm[pad[q]], perm[pad[r, :1]])
            keep &= ~tie | (low <= self.comp_low[cp])
        keep &= self.leaf_comp[r, None] != cp
        keep[:, -1] &= tree.full[q]  # padding repeats a member
        row, member = np.divmod(np.flatnonzero(keep), keep.shape[1])
        return q[row] * keep.shape[1] + member, r[row]

    def _rows(self, slot: np.ndarray, leaf: np.ndarray) -> None:
        """Update the point at slot[i] with its best pair in leaf[i].

        Pairs within one component are excluded. Members are in ascending
        index order and padding repeats the last, so argmin keeps the
        smaller target on a tie, which is the canonical order for a fixed
        point.
        """
        tree, best_d2, best_to, perm = self.tree, self.best_d2, self.best_to, self.tree.perm
        dim = len(tree.pts)
        diff = np.take(tree.pts, leaf, axis=1)
        diff -= np.take(tree.pts.reshape(dim, -1), slot, axis=1)[..., None]
        d2 = _sq_dist(diff)
        del diff
        own = self.pad_comp.ravel()[slot]
        np.copyto(d2, np.inf, where=own[:, None] == np.take(self.pad_comp, leaf, axis=0))
        j = d2.argmin(axis=1)
        near = d2[np.arange(len(slot)), j]
        to = tree.pad[leaf, j]
        a = tree.pad.ravel()[slot]
        upd = (near < best_d2[a]) | ((near == best_d2[a]) & (perm[to] < perm[best_to[a]]))
        a, near, to = a[upd], near[upd], to[upd]
        # A point may improve on several leaves here: keep its least pair.
        order = np.lexsort((perm[to], near, a))
        a, near, to = a[order], near[order], to[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = a[1:] != a[:-1]
        a = a[first]
        best_d2[a] = near[first]
        best_to[a] = to[first]
        self._note(a)
