"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator and returns the points plus, for
blob data, the true label of each point. Blobs are drawn uniformly from balls
of radius `spread` whose centres lie at least `4 * spread` apart (with a
margin). Every within-blob distance is then at most 2 * spread and every
between-blob distance more than 2 * spread, so the minimum spanning tree
joins each blob before any bridge and its k - 1 longest edges are exactly the
bridges: the labels are the true partition for the `std` criterion.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Centre separation in units of the blob radius; 4 is the bare minimum.
_SEPARATION = 5.0


def _ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    scale = radius * rng.random(count) ** (1.0 / dim)
    return direction * scale[:, None]


def _separated_centres(
    rng: np.random.Generator, count: int, dim: int, box: float, min_gap: float
) -> np.ndarray:
    centres: list[np.ndarray] = []
    while len(centres) < count:
        c = rng.random(dim) * box
        if all(np.linalg.norm(c - o) >= min_gap for o in centres):
            centres.append(c)
    return np.array(centres)


def blobs(
    rng: np.random.Generator,
    n_blobs: int,
    per_blob: int,
    dim: int,
    box: float,
    spread: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-ball blobs with well separated centres, shuffled."""
    centres = _separated_centres(rng, n_blobs, dim, box, _SEPARATION * spread)
    labels = np.repeat(np.arange(n_blobs), per_blob)
    points = centres[labels] + _ball(rng, labels.size, dim, spread)
    order = rng.permutation(labels.size)
    return points[order], labels[order]


def lattice_blobs(
    rng: np.random.Generator, n_blobs: int, per_blob: int, side: int, spread: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tiny 3-D blobs centred on a random subset of a jittered unit lattice.

    The jitter is at most 0.15 per axis, so centres stay at least
    1 - 2 * 0.15 * sqrt(3) > 0.48 apart; `spread` must stay below 0.12.
    """
    cells = np.array(np.unravel_index(np.arange(side**3), (side,) * 3)).T
    chosen = cells[rng.choice(len(cells), n_blobs, replace=False)].astype(float)
    centres = chosen + rng.uniform(-0.15, 0.15, chosen.shape)
    labels = np.repeat(np.arange(n_blobs), per_blob)
    points = centres[labels] + _ball(rng, labels.size, 3, spread)
    order = rng.permutation(labels.size)
    return points[order], labels[order]


def integer_grid(rng: np.random.Generator, count: int, side: int, dim: int) -> np.ndarray:
    """Points on the integer grid {0..side-1}^dim, many of them duplicates."""
    return rng.integers(0, side, (count, dim)).astype(float)


def uniform_cube(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Points drawn uniformly from the unit cube [0, 1)^dim."""
    return rng.random((count, dim))


def write_csv(path: Path, points: np.ndarray) -> None:
    """One row per point, 17 significant digits so values parse back exactly."""
    rows = (",".join(format(x, ".17g") for x in row) for row in points.tolist())
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
