"""Acceptance criteria for the two-stage MST clustering toolkit.

Each test exercises one numbered criterion end to end and prints a single
pass or fail line (visible with pytest -s). Tolerances are part of the
criteria and are asserted as stated.
"""

from __future__ import annotations

import json
import math
import random
import time

from emstclust import (
    CriterionConfig,
    Dataset,
    MODE_ZAHN,
    Point,
    RunConfig,
    build_emst,
    center_and_radius,
    central_cluster,
    cluster_compactness,
    diameter_and_set,
    emstrd,
    emstucc,
    path_distance_table,
    run_pipeline,
    zahn_inconsistent,
)
from oracles import (
    brute_force_mst_weight,
    eccentricities_oracle,
    gaussian_blobs,
    random_tree,
    tree_as_cluster,
)

SUITE_SEED = 20260819


def _report(number: int, description: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number} [{status}] {description}")
    assert not problems, "\n".join(problems[:10])


def _suite() -> list[Dataset]:
    """The shared random small-dataset suite: 100 sets, n in [2, 8]."""
    rng = random.Random(SUITE_SEED)
    suite = []
    for _ in range(100):
        n = rng.randint(2, 8)
        dim = rng.choice([1, 2, 3])
        suite.append(
            Dataset(
                tuple(
                    Point(tuple(rng.uniform(0, 10) for _ in range(dim)))
                    for _ in range(n)
                )
            )
        )
    return suite


def test_criterion_1_mst_optimality():
    problems = []
    start = time.perf_counter()
    for index, ds in enumerate(_suite()):
        total = build_emst(ds).total_weight
        expected = brute_force_mst_weight(ds)
        if abs(total - expected) > 1e-9:
            problems.append(
                f"dataset {index}: emst weight {total!r} vs brute force {expected!r}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"comparison took {elapsed:.2f}s, limit is 10s")
    _report(
        1,
        f"EMST weight matches exhaustive search on 100 datasets within 1e-9"
        f" ({elapsed:.2f}s)",
        problems,
    )


def test_criterion_2_tree_metric_oracle():
    problems = []
    rng = random.Random(SUITE_SEED + 1)
    for trial in range(50):
        n = rng.randint(1, 50)
        edges = random_tree(rng, n)
        table = path_distance_table(tree_as_cluster(n, edges))
        ecc_expected = eccentricities_oracle(n, edges)

        for v, ecc in zip(table.vertices, table.eccentricities):
            if abs(ecc - ecc_expected[v]) > 1e-9:
                problems.append(f"trial {trial}: eccentricity of {v} off")
        radius_expected = min(ecc_expected)
        centers_expected = frozenset(
            v for v in range(n) if ecc_expected[v] == radius_expected
        )
        centers, radius = center_and_radius(table)
        if abs(radius - radius_expected) > 1e-9:
            problems.append(f"trial {trial}: radius {radius} vs {radius_expected}")
        if centers != centers_expected:
            problems.append(f"trial {trial}: center set {set(centers)} vs {set(centers_expected)}")
        diameter_expected = max(ecc_expected)
        attain_expected = frozenset(
            v for v in range(n) if ecc_expected[v] == diameter_expected
        )
        diameter, attaining = diameter_and_set(table)
        if abs(diameter - diameter_expected) > 1e-9:
            problems.append(f"trial {trial}: diameter {diameter} vs {diameter_expected}")
        if attaining != attain_expected:
            problems.append(f"trial {trial}: diameter set {set(attaining)} vs {set(attain_expected)}")
    _report(
        2,
        "eccentricity, radius, center set, diameter, diameter set match the"
        " all-pairs path oracle on 50 random trees (n <= 50)",
        problems,
    )


def test_criterion_3_divisive_contract():
    problems = []
    for index, ds in enumerate(_suite()):
        n = len(ds)
        previous = None
        for k in range(1, n + 1):
            result = emstrd(ds, k)
            if result.cluster_count != k:
                problems.append(f"dataset {index} k={k}: {result.cluster_count} clusters")
            members = sorted(m for c in result.clusters for m in c.members)
            if members != list(range(n)):
                problems.append(f"dataset {index} k={k}: not a partition")
            if len(result.removed_edges) != k - 1:
                problems.append(
                    f"dataset {index} k={k}: {len(result.removed_edges)} removals"
                )
            if previous is not None:
                for small in result.clusters:
                    if not any(small.members <= big for big in previous):
                        problems.append(
                            f"dataset {index} k={k}: does not refine k={k - 1}"
                        )
            previous = [c.members for c in result.clusters]
    _report(
        3,
        "every suite dataset, every k in [1, n]: k clusters partition the"
        " points, k-1 edges removed, k+1 refines k",
        problems,
    )


def test_criterion_4_tightness_trend():
    problems = []
    rng = random.Random(SUITE_SEED + 2)
    ds = Dataset(
        tuple(
            Point((rng.uniform(0, 100), rng.uniform(0, 100)))
            for _ in range(200)
        )
    )
    previous = math.inf
    for k in range(1, 21):
        widest = emstrd(ds, k).diameter.max()
        if widest > previous + 1e-12:
            problems.append(f"k={k}: max diameter {widest} grew from {previous}")
        previous = widest
    _report(
        4,
        "max cluster diameter is non-increasing for k = 1..20 on a fixed"
        " 200-point 2-D dataset",
        problems,
    )


def test_criterion_5_compactness_anchors():
    problems = []

    anchor = Dataset(tuple(Point((float(v),)) for v in (0, 1, 5, 9)))
    whole = emstrd(anchor, 1)
    value, degenerate = cluster_compactness(whole.clusters, anchor)
    if value != 1.0 or degenerate:
        problems.append(f"k=1 compactness {value!r} (degenerate={degenerate})")

    pairs = Dataset(tuple(Point((float(v),)) for v in (0, 2, 10, 12)))
    split = emstrd(pairs, 2)
    value, _ = cluster_compactness(split.clusters, pairs)
    derived = 0.5 * (1.0 / math.sqrt(26.0) + 1.0 / math.sqrt(26.0))
    if abs(value - derived) > 1e-6:
        problems.append(f"pair anchor compactness {value!r} vs {derived!r}")
    if round(value, 5) != 0.19612:
        problems.append(f"pair anchor rounds to {round(value, 5)}, not 0.19612")

    rng = random.Random(SUITE_SEED + 3)
    points, _ = gaussian_blobs(rng, [(0.0, 0.0), (30.0, 0.0)], per_blob=40)
    blobs = Dataset(tuple(points))
    one, _ = cluster_compactness(emstrd(blobs, 1).clusters, blobs)
    two, _ = cluster_compactness(emstrd(blobs, 2).clusters, blobs)
    if not two < one:
        problems.append(f"blob compactness did not drop: k1={one} k2={two}")
    _report(
        5,
        "compactness is 1.0 at k=1, 0.19612 within 1e-6 on the two-pair"
        " anchor, and drops from k=1 to k=2 on separated blobs",
        problems,
    )


def test_criterion_6_blob_recovery():
    problems = []
    for seed in range(10):
        rng = random.Random(seed)
        points, labels = gaussian_blobs(
            rng, [(0.0, 0.0), (20.0, 0.0)], per_blob=100, spread=1.0
        )
        result = emstrd(Dataset(tuple(points)), 2)
        assignment = result.forest.labels.tolist()
        blob_a = {assignment[i] for i, lab in enumerate(labels) if lab == 0}
        blob_b = {assignment[i] for i, lab in enumerate(labels) if lab == 1}
        if not (len(blob_a) == 1 and len(blob_b) == 1 and blob_a != blob_b):
            problems.append(f"seed {seed}: blobs not exactly recovered")
    _report(
        6,
        "two Gaussian blobs (100 points each, centers 20 apart, unit spread)"
        " are recovered exactly with k=2 on 10/10 seeds",
        problems,
    )


def test_criterion_7_meta_contract():
    problems = []

    worked = emstucc([Point((0.0,)), Point((1.0,)), Point((5.0,))])
    levels = worked.dendrogram.level.tolist()
    if levels != [1.0, 4.0]:
        problems.append(f"worked example levels {levels}")
    if worked.central_cluster != 1:
        problems.append(f"worked example central cluster {worked.central_cluster}")

    rng = random.Random(SUITE_SEED + 4)
    for trial in range(30):
        k = rng.randint(1, 30)
        centers = [
            Point((rng.uniform(0, 100), rng.uniform(0, 100))) for _ in range(k)
        ]
        result = emstucc(centers)
        if len(result.dendrogram.level) != k - 1:
            problems.append(f"trial {trial}: merge count")
        merge_levels = result.dendrogram.level.tolist()
        if merge_levels != sorted(merge_levels):
            problems.append(f"trial {trial}: levels decrease")
        if abs(math.fsum(merge_levels) - result.meta_tree.total_weight) > 1e-9:
            problems.append(f"trial {trial}: level sum off")

        edges = sorted(result.meta_tree.edges)
        ecc = eccentricities_oracle(k, edges)
        best = min(ecc)
        expected_index = min(v for v in range(k) if ecc[v] == best)
        index, radius = central_cluster(result.meta_tree)
        if abs(radius - best) > 1e-9:
            problems.append(f"trial {trial}: meta radius {radius} vs {best}")
        if index != expected_index:
            problems.append(f"trial {trial}: central {index} vs {expected_index}")
    _report(
        7,
        "meta stage: k-1 non-decreasing merges summing to the meta tree"
        " weight, central cluster matches a brute-force scan, worked"
        " example exact",
        problems,
    )


def test_criterion_8_zahn_chain_behavior():
    problems = []
    config = CriterionConfig(mode=MODE_ZAHN)

    gapped = Dataset(tuple(Point((float(v),)) for v in (0, 1, 2, 12, 13, 14)))
    tree = build_emst(gapped)
    flagged = {
        e.endpoints for e in tree.edges if zahn_inconsistent(tree, e, config)
    }
    if flagged != {(2, 3)}:
        problems.append(f"gapped chain flagged {flagged}, expected only (2, 3)")

    for values in [(0, 1, 2, 3, 4, 5), (0, 2, 4, 6, 8)]:
        uniform = Dataset(tuple(Point((float(v),)) for v in values))
        tree = build_emst(uniform)
        extra = [
            e.endpoints for e in tree.edges if zahn_inconsistent(tree, e, config)
        ]
        if extra:
            problems.append(f"uniform chain {values} flagged {extra}")
    _report(
        8,
        "the {1,1,10,1,1} weight chain flags exactly its long edge at c=2,"
        " depth 2, and uniform chains flag nothing",
        problems,
    )


def test_criterion_9_determinism_and_performance(tmp_path):
    problems = []
    rng = random.Random(SUITE_SEED + 5)
    blob_centers = [
        (200.0 * math.cos(2 * math.pi * i / 10), 200.0 * math.sin(2 * math.pi * i / 10))
        for i in range(10)
    ]
    points, _ = gaussian_blobs(rng, blob_centers, per_blob=500, spread=1.0)
    lines = [f"{p.coords[0]!r},{p.coords[1]!r}" for p in points]
    input_path = tmp_path / "big.csv"
    input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config_a = RunConfig(
        input_path=input_path,
        k=10,
        criterion=CriterionConfig(),
        output_dir=tmp_path / "a",
        emit_svg=True,
    )
    start = time.perf_counter()
    paths_a = run_pipeline(config_a)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"5000-point run took {elapsed:.2f}s, limit is 10s")

    clusters = json.loads((tmp_path / "a" / "clusters.json").read_text())
    if clusters["cluster_count"] != 10:
        problems.append(f"cluster count {clusters['cluster_count']}")

    config_b = RunConfig(
        input_path=input_path,
        k=10,
        criterion=CriterionConfig(),
        output_dir=tmp_path / "b",
        emit_svg=True,
    )
    paths_b = run_pipeline(config_b)
    for pa, pb in zip(paths_a, paths_b):
        if pa.read_bytes() != pb.read_bytes():
            problems.append(f"{pa.name} differs between reruns")
    _report(
        9,
        f"5000-point k=10 run in {elapsed:.2f}s (< 10s) with byte-identical"
        " rerun outputs",
        problems,
    )
