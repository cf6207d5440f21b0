"""Smoke test of the benchmark's layer trace (bench/layers.py).

`bench/run.py --trace 1`, part of the benchmark's default command, runs the
pipeline with every wrapped package function replaced by a timing shim. A
shim whose function is still called reads counts off its arguments and
result, so a change to what such a function returns can crash the traced
run without failing any other test.
"""

from __future__ import annotations

import numpy as np
import pytest

from emstclust import cli
from test_bench_hooks import load_layers


# 200 points stay on dense Prim; 1500 2-D points go to the k-d tree builder.
@pytest.mark.parametrize("n", [200, 1500])
@pytest.mark.parametrize("criterion", ["std", "zahn"])
def test_traced_cli_run(tmp_path, monkeypatch, capsys, n, criterion):
    layers = load_layers(monkeypatch)
    rng = np.random.default_rng(n)
    points = rng.uniform(0, 50, (5, 2))[rng.integers(0, 5, n)]
    points += rng.normal(0, 1, points.shape)
    path = tmp_path / "points.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
    argv = ["--input", str(path), "--k", "5", "--criterion", criterion, "--svg"]

    tracer = layers.Tracer()
    with layers.traced(tracer, True):
        code = cli.main([*argv, "--out", str(tmp_path / "traced")])
    assert code == 0, capsys.readouterr().err
    root = tracer.spans[0]
    assert root.name == "cli.run_pipeline" and root.parent == -1
    summary = layers.summarise(tracer.spans)
    attributed = sum(summary[name] for name in layers.SELF_TIMES)
    assert attributed == pytest.approx(root.end - root.start, abs=1e-6)
    assert summary["io.rows"] == n
    # Three trees, each built once: the EMST, the kept forest and the meta tree.
    assert summary["model.forest_builds"] == 3
    assert summary["emst.points"] == n

    # The shims change no output byte.
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    for traced in sorted((tmp_path / "traced").iterdir()):
        assert traced.read_bytes() == (tmp_path / "plain" / traced.name).read_bytes()
