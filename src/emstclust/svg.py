"""Hand-built SVG figures for clustering runs.

Rendering avoids plotting libraries on purpose: the byte content of every
output must be identical across reruns, so figures are assembled from plain
strings with fixed-precision coordinates. Each figure is made in chunks of
_CHUNK lines, which write_outputs streams into its file; scatter_svg and
dendrogram_svg join them into one string.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .divisive import ClusteringResult
from .model import _CHUNK, Dataset, Dendrogram, _values

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 48.0

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#ad494a",
)


def _fmt(x: float) -> str:
    return format(x, ".3f")


def _scale(lo: float, hi: float, span: float):
    extent = hi - lo
    if extent <= 0.0:
        extent = 1.0
        lo -= 0.5
    return lambda x: _MARGIN + (x - lo) / extent * span


def _joined(pieces: Iterable[str], sep: str = "") -> Iterator[str]:
    """The pieces joined by sep, _CHUNK to a chunk, with sep between chunks."""
    pieces, lead = iter(pieces), ""
    for first in pieces:
        # join drops each batch before the next is taken, so one is held.
        yield lead + sep.join(chain((first,), islice(pieces, _CHUNK - 1)))
        lead = sep


_HEADER = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}"'
    f' height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
    f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
)


def _scatter_chunks(dataset: Dataset, result: ClusteringResult) -> Iterator[str]:
    """scatter_svg's text, _CHUNK lines to a chunk."""
    if dataset.dimension != 2:
        raise ValueError("scatter rendering needs 2-D data")
    coords = dataset.coords
    xs, ys = coords[:, 0], coords[:, 1]
    sx = _scale(float(xs.min()), float(xs.max()), _WIDTH - 2 * _MARGIN)
    sy = _scale(float(ys.min()), float(ys.max()), _HEIGHT - 2 * _MARGIN)
    # The lambdas take arrays too, with the same operations in the same
    # order. SVG y grows downward, data y grows upward.
    cx, cy = sx(xs), _HEIGHT - sy(ys)
    # The points cluster by cluster, each cluster's in ascending order.
    order = result.forest.members
    points = (
        f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="{_PALETTE[c % len(_PALETTE)]}"/>'
        for x, y, c in _values(cx[order], cy[order], result.forest.labels[order])
    )
    rings = (
        f'<circle cx="{x:.3f}" cy="{y:.3f}" r="6.5" fill="none" stroke="black" stroke-width="1.5"/>'
        for x, y in _values(cx[result.center], cy[result.center])
    )
    return _joined(chain(_HEADER, points, rings, ("</svg>", "")), "\n")


def scatter_svg(dataset: Dataset, result: ClusteringResult) -> str:
    """2-D scatter with one color per cluster and ringed center points."""
    return "".join(_scatter_chunks(dataset, result))


def _dendrogram_chunks(dendrogram: Dendrogram) -> Iterator[str]:
    """dendrogram_svg's text, _CHUNK lines to a chunk."""
    k = dendrogram.leaf_count
    left, right = dendrogram.left, dendrogram.right
    first, step = (_MARGIN, (_WIDTH - 2 * _MARGIN) / (k - 1)) if k > 1 else (_WIDTH / 2, 0.0)
    # The leaves in drawing order, walking down from the root right child
    # first; the stack holds disjoint subtrees, so at most k nodes.
    leaf_order, stack = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    stack[0], pending, placed = 2 * k - 2, 1, 0  # the root, leaf 0 when k = 1
    while pending:
        pending -= 1
        node = stack.item(pending)
        if node < k:
            leaf_order[placed] = node
            placed += 1
        else:
            stack[pending], stack[pending + 1] = left.item(node - k), right.item(node - k)
            pending += 2

    # Each node's place in the figure, indexed by node: the k leaves, then
    # node k - 1 + m for merge m. The heights of the merges come from the
    # level array, by the operations in the order used on the leaves' level
    # 0.0; their xs are filled in as the merges are drawn.
    xs = np.empty(2 * k - 1)
    xs[leaf_order] = first + np.arange(k) * step
    usable_h = _HEIGHT - 2 * _MARGIN
    top = dendrogram.final_level if dendrogram.final_level > 0.0 else 1.0
    ys = np.append(np.full(k, _HEIGHT - _MARGIN - 0.0 / top * usable_h),
                   _HEIGHT - _MARGIN - dendrogram.level / top * usable_h)

    def merges() -> Iterator[str]:
        # A merge's children are earlier nodes, so their xs are already there.
        rows = _values(left, right, ys[k:], dendrogram.level)
        for node, (a, b, y, level) in enumerate(rows, start=k):
            xa, xb = xs.item(a), xs.item(b)
            x = (xa + xb) / 2.0
            xs[node] = x
            fa, fb, fy = _fmt(xa), _fmt(xb), _fmt(y)
            for fx, child in ((fa, a), (fb, b)):
                yield (
                    f'<line x1="{fx}" y1="{_fmt(ys.item(child))}" x2="{fx}" y2="{fy}"'
                    ' stroke="black" stroke-width="1.5"/>'
                )
            yield (
                f'<line x1="{fa}" y1="{fy}" x2="{fb}" y2="{fy}"'
                ' stroke="black" stroke-width="1.5"/>'
            )
            yield (
                f'<text x="{_fmt(x + 4)}" y="{_fmt(y - 4)}"'
                f' font-size="10" font-family="sans-serif">{format(level, ".6g")}</text>'
            )

    leaves = (
        f'<text x="{_fmt(xs.item(leaf))}" y="{_fmt(_HEIGHT - _MARGIN + 16)}"'
        f' font-size="12" font-family="sans-serif" text-anchor="middle">C{leaf}</text>'
        for (leaf,) in _values(leaf_order)
    )
    return _joined(chain(_HEADER, merges(), leaves, ("</svg>", "")), "\n")


def dendrogram_svg(dendrogram: Dendrogram) -> str:
    """Classic bottom-up dendrogram, leaves at the base, merges above."""
    return "".join(_dendrogram_chunks(dendrogram))
