"""End-to-end benchmark of the emstclust command line.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is taken from `src/`.
For one workload it makes the input CSV from the seed, times the CLI's
`--help` launches (`setup_s`), then runs the CLI in a closed loop, one fresh
process at a time, for the given seconds. Afterwards the first run's outputs
are checked against results computed here (`check.py`), every later run must
match them byte for byte, and every damaged copy of them must be rejected.
With `--trace 1` each round adds an in-process run and a traced in-process
run (`layers.py`) and the per-layer metrics are reported instead.

Without `--workload` it runs every workload both ways. Each result is printed
metric by metric, the last line is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check
import inputs
import layers

SETUP_PER_ROUND = 2


@dataclass(frozen=True)
class Workload:
    make: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray | None]]
    k: int
    criterion: str = "std"
    svg: bool = False

    def argv(self, csv: Path, out: Path) -> list[str]:
        args = ["--input", str(csv), "--k", str(self.k), "--criterion", self.criterion]
        return args + ["--out", str(out)] + ["--svg"] * self.svg


# Why each workload is here: see bench/README.md.
WORKLOADS = {
    "blobs2d_k10_svg": Workload(
        lambda rng: inputs.blobs(rng, 10, 800, 2, 30.0, 1.0), 10, svg=True
    ),
    "grid3d_dup_k1": Workload(lambda rng: (inputs.integer_grid(rng, 4000, 8, 3), None), 1),
    "tinyblobs_k200_std": Workload(lambda rng: inputs.lattice_blobs(rng, 200, 20, 7, 0.08), 200),
    "uniform8d_k40_zahn": Workload(
        lambda rng: (inputs.uniform_cube(rng, 2000, 8), None), 40, "zahn"
    ),
}

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "metrics.table_mb": "MB",
    "model.validation_yield": "ratio",
    "io.bytes_written": "bytes",
    "svg.bytes": "bytes",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


class Checkout:
    """The source tree under test, the benchmark's scratch space in it, and
    the launcher process that starts each CLI run."""

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        if not (self.src / "emstclust" / "__init__.py").is_file():
            raise SystemExit(f"no emstclust sources under {self.src}; run from a checkout root")
        sys.path.insert(0, str(self.src))
        import emstclust

        if Path(emstclust.__file__).resolve().parent != (self.src / "emstclust").resolve():
            raise SystemExit(f"imported emstclust from {emstclust.__file__}, not from {self.src}")
        self.cli = [sys.executable, "-m", "emstclust"]
        self.work = root / ".bench_work"
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            env={**os.environ, "PYTHONPATH": str(self.src)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Checkout":
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def launch(self, argv: list[str], stderr: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one CLI process."""
        request = {"argv": self.cli + argv, "stderr": str(stderr)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"]


def read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def in_process(argv: list[str], tracer: layers.Tracer, trace_layers: bool) -> int:
    from emstclust import cli

    with contextlib.redirect_stdout(io.StringIO()), layers.traced(tracer, trace_layers):
        return cli.main(argv)


def run_workload(checkout: Checkout, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = checkout.work / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name]
    points, labels = wl.make(np.random.default_rng(seed))
    csv = work / "input.csv"
    inputs.write_csv(csv, points)
    err = work / "stderr.txt"

    checkout.launch(["--help"], err)  # unmeasured: fills the bytecode and file caches
    setup = []

    def setup_run() -> None:
        wall, _, code = checkout.launch(["--help"], err)
        if code != 0:
            raise SystemExit(f"emstclust --help exited {code}: {err.read_text()}")
        setup.append(wall)

    walls, rss, runs = [], [], []  # runs: outputs per attempt, None on failure
    in_proc, traced_s, metrics, spans = [], [], [], []

    def attempt(produce: Callable[[Path], int], label: str) -> None:
        out = work / label
        shutil.rmtree(out, ignore_errors=True)
        code = produce(out)
        runs.append(read_outputs(out) if code == 0 else None)
        if code != 0:
            print(f"{name}: {label} run exited {code}", file=sys.stderr)

    def cli_run(out: Path) -> int:
        wall, peak, code = checkout.launch(wl.argv(csv, out), err)
        walls.append(wall)
        rss.append(peak)
        sys.stderr.write(err.read_text())
        return code

    def pipeline_run(out: Path, trace_layers: bool) -> int:
        tracer = layers.Tracer()
        code = in_process(wl.argv(csv, out), tracer, trace_layers)
        root = tracer.spans[0]
        (traced_s if trace_layers else in_proc).append(root.end - root.start)
        if trace_layers:
            metrics.append(layers.summarise(tracer.spans))
            spans.extend(layers.span_records(tracer.spans, len(metrics)))
        return code

    # Whole rounds only, and none that would end past the deadline. The
    # set-up launches are spread over the run so they see the same machine.
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while not walls or time.perf_counter() + last_round < deadline:
        started = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            setup_run()
        attempt(cli_run, "cli")
        if trace:
            attempt(lambda out: pipeline_run(out, False), "in_process")
            attempt(lambda out: pipeline_run(out, True), "traced")
        last_round = time.perf_counter() - started

    good = [files for files in runs if files is not None]
    errors = ["no run succeeded"]
    if good:
        ref = check.Reference.build(points, labels, wl.k, wl.criterion, wl.svg)
        errors = check.check_outputs(good[0], ref)
        for what, bad in check.corruptions(good[0]):
            if not check.check_outputs(bad, ref):
                errors.append(f"checks accept a corrupted output: {what}")
    for e in errors:
        print(f"{name}: {e}", file=sys.stderr)
    failed = len(runs) if errors else sum(files != good[0] for files in runs)
    correct = not errors and failed == 0

    if not trace:
        values = {
            "run_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    else:
        (work / "trace.json").write_text(json.dumps(spans))
        values = {key: statistics.median(m[key] for m in metrics) for key in metrics[0]}
        for m, total in zip(metrics, traced_s):
            attributed = sum(m[key] for key in layers.SELF_TIMES)
            if abs(attributed - total) > 1e-6:
                print(f"{name}: self times {attributed} != traced run {total}", file=sys.stderr)
                correct = False
        # Differences within a round, where the machine was the same.
        values["cli.overhead_s"] = statistics.median(w - p for w, p in zip(walls, in_proc))
        values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_s, in_proc))
        units = {key: per_layer_unit(key) for key in values}
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in sorted(values)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    args = parser.parse_args()

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    with Checkout(Path.cwd()) as checkout:
        for name in names:
            for trace in modes:
                result = run_workload(checkout, name, args.seed, args.seconds, trace)
                print(f"# {name} trace={int(trace)} correct={result['correct']}"
                      f" attempted={result['attempted']} failed={result['failed']}")
                for key, metric in result["metrics"].items():
                    print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
                results[f"{name}/trace={int(trace)}"] = result
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
