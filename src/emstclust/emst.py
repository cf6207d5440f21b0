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

    Per outside vertex j the scan keeps only the squared distance to the
    tree and its source vertex. That suffices for the tie rule: the
    candidate edges (a, j) of one fixed j are in canonical order exactly
    when their sources a are in increasing order (if a < j < b, then
    (a, j) < (j, b)), so a tie replaces the source only by a smaller one.
    Tree vertices hold NaN as their squared distance, which no comparison
    selects and np.fmin skips.

    A single-point dataset yields a forest with no edges.
    """
    n = len(dataset.points)
    edges: list[Edge] = []
    if n >= 2:
        coords = np.array([p.coords for p in dataset.points], dtype=np.float64)
        best_d2 = np.full(n, np.inf)
        best_from = np.zeros(n, dtype=np.int64)  # vertex 0 is the first source of all
        best_d2[0] = np.nan
        cur = 0
        for _ in range(n - 1):
            diff = coords - coords[cur]
            d2 = np.einsum("ij,ij->i", diff, diff)
            upd = (d2 < best_d2) | ((d2 == best_d2) & (cur < best_from))
            np.copyto(best_d2, d2, where=upd)
            best_from[upd] = cur

            nearest = np.fmin.reduce(best_d2)
            if not math.isfinite(nearest):
                # Every outside point is at d2 = inf, so Prim can no longer
                # order the candidates.
                raise InputError(
                    "squared-distance overflow: some coordinate differences"
                    " are too large to square in float64, so the EMST"
                    " cannot be built"
                )
            cand = np.flatnonzero(best_d2 == nearest)
            if len(cand) > 1:
                a = best_from[cand]
                cand = cand[np.lexsort((np.maximum(a, cand), np.minimum(a, cand)))]
            nxt = int(cand[0])
            src = int(best_from[nxt])
            weight = euclidean_distance(dataset.points[src], dataset.points[nxt])
            edges.append(Edge(src, nxt, weight))
            best_d2[nxt] = np.nan
            cur = nxt
    return SpanningForest(vertex_count=n, edges=frozenset(edges))


def edge_statistics(forest: SpanningForest) -> EdgeStats:
    """Mean and population standard deviation of the forest's edge weights.

    Raises DegenerateInputError for a forest with no edges.
    """
    if not forest.edges:
        raise DegenerateInputError("edge statistics need at least one edge")
    return EdgeStats.of([e.weight for e in forest.edges])

