"""Hand-built SVG figures for clustering runs.

Rendering avoids plotting libraries on purpose: the byte content of every
output must be identical across reruns, so figures are assembled from plain
strings with fixed-precision coordinates.
"""

from __future__ import annotations

from .divisive import ClusteringResult
from .model import Dataset, Dendrogram

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


def scatter_svg(dataset: Dataset, result: ClusteringResult) -> str:
    """2-D scatter with one color per cluster and ringed center points."""
    if dataset.dimension != 2:
        raise ValueError("scatter rendering needs 2-D data")
    coords = dataset.coords
    xs, ys = coords[:, 0], coords[:, 1]
    sx = _scale(float(xs.min()), float(xs.max()), _WIDTH - 2 * _MARGIN)
    sy = _scale(float(ys.min()), float(ys.max()), _HEIGHT - 2 * _MARGIN)
    # The lambdas take arrays too, with the same operations in the same
    # order. SVG y grows downward, data y grows upward.
    cx, cy = sx(xs).tolist(), (_HEIGHT - sy(ys)).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}"'
        f' height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
    ]
    for cid in range(result.cluster_count):
        color = _PALETTE[cid % len(_PALETTE)]
        parts.extend(
            f'<circle cx="{cx[i]:.3f}" cy="{cy[i]:.3f}" r="3" fill="{color}"/>'
            for i in result.partition.members_of(cid).tolist()
        )
    parts.extend(
        f'<circle cx="{cx[i]:.3f}" cy="{cy[i]:.3f}" r="6.5" fill="none" stroke="black" stroke-width="1.5"/>'
        for i in (r.center_index for r in result.reports)
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def dendrogram_svg(dendrogram: Dendrogram) -> str:
    """Classic bottom-up dendrogram, leaves at the base, merges above."""
    k = dendrogram.leaf_count
    left, right = dendrogram.left.tolist(), dendrogram.right.tolist()
    # Indexed by node: the k leaves, then node k - 1 + m for merge m.
    levels = [0.0] * k + dendrogram.level.tolist()

    first, step = (_MARGIN, (_WIDTH - 2 * _MARGIN) / (k - 1)) if k > 1 else (_WIDTH / 2, 0.0)
    xs = [0.0] * k
    leaf_order: list[int] = []
    stack = [len(levels) - 1]  # the root, leaf 0 when k = 1
    while stack:
        node = stack.pop()
        if node < k:
            xs[node] = first + len(leaf_order) * step
            leaf_order.append(node)
        else:
            stack += (left[node - k], right[node - k])

    usable_h = _HEIGHT - 2 * _MARGIN
    top = dendrogram.final_level if dendrogram.final_level > 0.0 else 1.0

    def y_of(node: int) -> float:
        return _HEIGHT - _MARGIN - levels[node] / top * usable_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}"'
        f' height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
    ]
    # A merge's children are earlier nodes, so their xs are already there.
    for node, a, b in zip(range(k, len(levels)), left, right):
        xs.append((xs[a] + xs[b]) / 2.0)
        y_bar = y_of(node)
        for child in (a, b):
            parts.append(
                f'<line x1="{_fmt(xs[child])}" y1="{_fmt(y_of(child))}"'
                f' x2="{_fmt(xs[child])}" y2="{_fmt(y_bar)}"'
                ' stroke="black" stroke-width="1.5"/>'
            )
        parts.append(
            f'<line x1="{_fmt(xs[a])}" y1="{_fmt(y_bar)}"'
            f' x2="{_fmt(xs[b])}" y2="{_fmt(y_bar)}"'
            ' stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt((xs[a] + xs[b]) / 2 + 4)}" y="{_fmt(y_bar - 4)}"'
            f' font-size="10" font-family="sans-serif">{format(levels[node], ".6g")}</text>'
        )
    for leaf in leaf_order:
        parts.append(
            f'<text x="{_fmt(xs[leaf])}" y="{_fmt(_HEIGHT - _MARGIN + 16)}"'
            f' font-size="12" font-family="sans-serif" text-anchor="middle">C{leaf}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
