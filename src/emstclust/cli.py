"""Command line front end for batch clustering runs.

Exit codes: 0 success, 2 input error (unreadable or malformed data, k larger
than the dataset), 3 configuration error (bad flags or parameter values),
4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, InputError
from .io import RunConfig, run_pipeline
from .model import _VALID_MODES, CriterionConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emstclust",
        description=(
            "Two-stage MST clustering: split a point set into k clusters by"
            " removing long minimum spanning tree edges, then agglomerate the"
            " cluster centers into a dendrogram and report the central cluster."
        ),
    )
    parser.add_argument("--input", required=True, type=Path,
                        help="CSV file of coordinates, one point per row")
    parser.add_argument("--k", required=True, type=int,
                        help="number of clusters to produce")
    parser.add_argument("--criterion", choices=_VALID_MODES, default="std",
                        help="edge removal criterion (default: std)")
    parser.add_argument("--zahn-c", type=float, default=CriterionConfig.zahn_c,
                        help="deviation multiplier for the zahn criterion")
    parser.add_argument("--zahn-f", type=float, default=CriterionConfig.zahn_f,
                        help="ratio threshold for the zahn criterion")
    parser.add_argument("--zahn-depth", type=int, default=CriterionConfig.zahn_depth,
                        help="neighborhood depth in hops for the zahn criterion")
    parser.add_argument("--out", required=True, type=Path,
                        help="output directory (created if missing)")
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG figures")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; flag problems are configuration
        # errors here, so remap while preserving --help's success.
        return 0 if exc.code in (0, None) else 3

    try:
        criterion = CriterionConfig(
            mode=args.criterion,
            zahn_c=args.zahn_c,
            zahn_f=args.zahn_f,
            zahn_depth=args.zahn_depth,
        )
        config = RunConfig(
            input_path=args.input,
            k=args.k,
            criterion=criterion,
            output_dir=args.out,
            emit_svg=args.svg,
        )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    try:
        written = run_pipeline(config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
