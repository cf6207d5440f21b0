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


def build_emst(dataset: Dataset) -> SpanningForest:
    """Build the Euclidean minimum spanning tree of a dataset.

    Runs a dense Prim scan over the implicit complete graph, O(n^2) time and
    O(n) extra memory. Candidate edges are compared by squared distance and
    ties are broken lexicographically on (min endpoint, max endpoint), so the
    result is deterministic even with duplicate points. Edge weights on the
    returned tree are computed with euclidean_distance so that every
    downstream comparison sees one consistent value.

    A single-point dataset yields a forest with no edges.
    """
    n = len(dataset.points)
    edges: list[Edge] = []
    if n >= 2:
        coords = np.array([p.coords for p in dataset.points], dtype=np.float64)
        ids = np.arange(n)
        in_tree = np.zeros(n, dtype=bool)
        best_d2 = np.full(n, np.inf)
        best_from = np.full(n, -1, dtype=np.int64)
        best_lo = np.full(n, n, dtype=np.int64)
        best_hi = np.full(n, n, dtype=np.int64)
        in_tree[0] = True
        cur = 0
        for _ in range(n - 1):
            diff = coords - coords[cur]
            d2 = np.einsum("ij,ij->i", diff, diff)
            lo = np.minimum(ids, cur)
            hi = np.maximum(ids, cur)
            closer = d2 < best_d2
            tie = (d2 == best_d2) & (
                (lo < best_lo) | ((lo == best_lo) & (hi < best_hi))
            )
            upd = ~in_tree & (closer | tie)
            best_d2[upd] = d2[upd]
            best_from[upd] = cur
            best_lo[upd] = lo[upd]
            best_hi[upd] = hi[upd]

            masked = np.where(in_tree, np.inf, best_d2)
            nearest = masked.min()
            if not math.isfinite(nearest):
                # Every outside point is at d2 = inf, so Prim can no longer
                # order the candidates and would re-pick a tree vertex.
                raise InputError(
                    "squared-distance overflow: some coordinate differences"
                    " are too large to square in float64, so the EMST"
                    " cannot be built"
                )
            cand = np.flatnonzero(masked == nearest)
            order = np.lexsort((best_hi[cand], best_lo[cand]))
            nxt = int(cand[order[0]])
            src = int(best_from[nxt])
            weight = euclidean_distance(dataset.points[src], dataset.points[nxt])
            edges.append(Edge(src, nxt, weight))
            in_tree[nxt] = True
            cur = nxt
    return SpanningForest(vertex_count=n, edges=frozenset(edges))


def edge_statistics(forest: SpanningForest) -> EdgeStats:
    """Mean and population standard deviation of the forest's edge weights.

    Raises DegenerateInputError for a forest with no edges.
    """
    if not forest.edges:
        raise DegenerateInputError("edge statistics need at least one edge")
    return EdgeStats.of([e.weight for e in forest.edges])

