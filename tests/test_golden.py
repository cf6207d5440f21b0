"""Byte-for-byte regression gate on saved pipeline outputs.

Each directory under tests/golden holds one seeded input and the files
run_pipeline wrote for it under `std/` and `zahn/`. The first ten cases
(n <= 200, so the EMST always comes from dense Prim) were saved before the
divisive removal loop was rewritten (commit f96ad15). They cover lattice
ties, duplicate points, 1-D data, k=1, k=n, identical points and one 2-D run
with SVG output; the zahn runs use non-default c, f and depth. Two more
cases were saved by the code of commit f6f75dd, before the pipeline became
array-native: 2-D blobs (n = 1500, with SVG) and a duplicate-heavy 3-D
integer grid (n = 2500, k=1). The EMST runs over distinct rows, so only the
blobs reach the k-d tree; the grid has 512 distinct rows and its tree comes
from dense Prim. `blobs3d_k8_kdtree` (8 Gaussian blobs, 3400 distinct rows
plus 600 repeats, seed 20261018) is the case above the 3-D crossover of 3000
distinct rows. `blobs12d_k6` (6 Gaussian blobs in 12-D, 600 rows to 4
decimals, seed 20261019) pins dense Prim at d >= 8; its files were written
by the code of commit 9f69fed, before d^2 added its squares in natural axis
order. `blobs1d_k9_kdtree` (5 Gaussian blobs in 1-D, 700 distinct rows to 4
decimals, seed 20261020) and `dupblobs2d_k10_kdtree` (6 Gaussian blobs in
2-D, 1320 distinct rows plus 1700 repeats, seed 20261021) reach the k-d
tree in 1-D and with repeats; their files were written by the code of
commit 3b805ce, before the edge statistics and the spread shared one mean
and one RMS routine. Radius, diameter and meta_radius were regenerated
once, where they moved to the correctly rounded path lengths (CHANGES.md).
Refactors must reproduce these files exactly. Never regenerate them to make
this test pass: a byte that moves is a behaviour change that needs its own
justification.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from emstclust import (
    MODE_STD,
    MODE_ZAHN,
    CriterionConfig,
    RunConfig,
    read_points_csv,
    run_pipeline,
)
from emstclust import emst

GOLDEN = Path(__file__).parent / "golden"

# (case, k, zahn_c, zahn_f, zahn_depth, svg)
CASES = [
    ("blobs2d_svg", 4, 1.5, 1.5, 3, True),
    ("grid2d_ties", 7, 1.0, 2.5, 2, False),
    ("duplicates2d", 5, 1.2, 1.5, 1, False),
    ("line1d", 6, 1.5, 3.0, 2, False),
    ("blobs3d_k1", 1, 1.5, 1.5, 3, False),
    ("small_kn", 12, 1.0, 1.0, 2, False),
    ("uniform5d", 10, 1.0, 1.5, 2, False),
    ("chain1d", 4, 1.0, 2.0, 3, False),
    ("blobs3d_k20", 20, 2.5, 1.2, 2, False),
    ("identical", 3, 1.5, 1.5, 2, False),
    ("blobs2d_k6_kdtree", 6, 1.5, 2.0, 2, True),
    ("grid3d_dup_k1_kdtree", 1, 2.0, 1.5, 2, False),
    ("blobs3d_k8_kdtree", 8, 2.0, 2.0, 2, False),
    ("blobs12d_k6", 6, 1.5, 1.5, 3, False),
    ("blobs1d_k9_kdtree", 9, 1.5, 2.5, 3, False),
    ("dupblobs2d_k10_kdtree", 10, 2.5, 1.5, 2, False),
]


@pytest.mark.parametrize("run", ["std", "zahn"])
@pytest.mark.parametrize("case, k, zahn_c, zahn_f, zahn_depth, svg", CASES)
def test_outputs_match_golden(tmp_path, case, k, zahn_c, zahn_f, zahn_depth, svg, run):
    if run == "std":
        criterion = CriterionConfig(mode=MODE_STD)
    else:
        criterion = CriterionConfig(
            mode=MODE_ZAHN, zahn_c=zahn_c, zahn_f=zahn_f, zahn_depth=zahn_depth
        )
    written = run_pipeline(
        RunConfig(
            input_path=GOLDEN / case / "input.csv",
            k=k,
            criterion=criterion,
            output_dir=tmp_path,
            emit_svg=svg,
        )
    )
    expected = GOLDEN / case / run
    assert sorted(p.name for p in written) == sorted(
        p.name for p in expected.iterdir()
    )
    for path in written:
        assert path.read_bytes() == (expected / path.name).read_bytes(), path.name


@pytest.mark.parametrize(
    "case",
    ["blobs2d_k6_kdtree", "blobs3d_k8_kdtree", "blobs1d_k9_kdtree", "dupblobs2d_k10_kdtree"],
)
def test_case_reaches_the_kdtree(case):
    coords = read_points_csv(GOLDEN / case / "input.csv").coords
    distinct = len(np.unique(coords, axis=0))
    assert distinct >= emst._KDTREE_MIN_N[coords.shape[1]]
