"""Batch input and output: CSV ingestion, result serialization, pipeline.

All output files are written atomically (write to a uniquely named temporary
sibling, then rename) and every real number is serialized with 17 significant
digits so a reader parsing the file recovers bit-identical values. Identical
input and configuration therefore produce byte-identical files across runs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .divisive import ClusteringResult, emstrd
from .errors import ConfigError, InputError
from .meta import MetaResult, emstucc
# cluster_compactness is not used here: the benchmark's layer trace looks it up.
from .metrics import _compactness, cluster_compactness  # noqa: F401
from .model import CriterionConfig, Dataset, Dendrogram, _whole
from .svg import dendrogram_svg, scatter_svg


@dataclass(frozen=True)
class RunConfig:
    """One batch run: where to read, how to cluster, where to write."""

    input_path: Path
    k: int
    criterion: CriterionConfig
    output_dir: Path
    emit_svg: bool = False

    def __post_init__(self) -> None:
        k = _whole(self.k, "k", ConfigError)
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "input_path", Path(self.input_path))
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _parse_row(row: list[str], lineno: int, path: Path) -> tuple[float, ...]:
    values = []
    for cell in row:
        text = cell.strip()
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"{path}: line {lineno}: non-numeric value {cell!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{path}: line {lineno}: non-finite value {cell!r}")
        values.append(value)
    return tuple(values)


def _looks_numeric(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell.strip())
        except ValueError:
            return False
    return True


def _csv_rows(handle: Iterable[str], path: Path) -> Iterator[list[str]]:
    """csv.reader's rows, with its errors (a field over the size limit) as
    InputError naming the file and line."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def read_points_csv(path: Path | str) -> Dataset:
    """Read a UTF-8 CSV of coordinates, one point per row.

    Blank rows are ignored, and a non-numeric first non-blank row is
    treated as a header and skipped. Ragged rows, non-finite or
    non-numeric cells, bytes that are not UTF-8 and fields over the csv
    module's size limit raise an input error naming the file and the
    1-based line number. The rows go straight into the dataset's
    coordinate array; no Point is built.
    """
    path = Path(path)
    try:
        # Undecodable bytes become lone surrogates, so the row holding one
        # is found and named below instead of failing a whole read buffer.
        handle = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    rows: list[tuple[float, ...]] = []
    width: int | None = None
    header_seen = False
    with handle:
        for lineno, row in enumerate(_csv_rows(handle, path), start=1):
            # A row whose cells all parse to finite floats is data: float()
            # accepts a cell only if it accepts the stripped cell, with the
            # same value, and never a surrogate. Other rows are blank, the
            # header, data padded with \x1c-\x1f (str.strip() removes them,
            # float() does not), or refused naming the first bad cell.
            try:
                values = tuple(map(float, row))
                clean = all(map(math.isfinite, values))
            except ValueError:
                clean = False
            if not clean:
                try:
                    "".join(row).encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}: line {lineno}: not UTF-8 text") from None
                if not row or all(not cell.strip() for cell in row):
                    continue
                if not rows and not header_seen and not _looks_numeric(row):
                    header_seen = True
                    continue
                values = _parse_row(row, lineno, path)
            elif not values:
                continue
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise InputError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise InputError(f"no data rows in {path}")
    return Dataset._of_array(np.array(rows, dtype=np.float64))


def _format_float(value: float) -> str:
    return format(value, ".17g")


def _to_json(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_to_json(item, indent + 2)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iu":
        # A member list: one join in place of a call per integer.
        if not len(value):
            return "[]"
        return "[\n" + inner + (",\n" + inner).join(map(str, value.tolist())) + "\n" + pad + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_to_json(item, indent + 2)}" for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_text(value) -> str:
    return _to_json(value, 0) + "\n"


def newick_string(dendrogram: Dendrogram) -> str:
    """Serialize a dendrogram to Newick with explicit branch lengths.

    Leaves are named C0 .. C(k-1) and sit at height 0; each child's branch
    length is the parent's merge level minus the child's own level, so the
    tree is ultrametric with every leaf at depth equal to the final level.
    """
    text: list[str | None] = [f"C{leaf}" for leaf in range(dendrogram.leaf_count)]
    level = [0.0] * dendrogram.leaf_count
    # Merge m creates node leaf_count - 1 + m from two earlier nodes, so the
    # lists grow in node order and both children are already rendered. Each
    # node has one parent, so a child's text is dropped once used, and the
    # texts alive never add up to more than the output.
    for rec in dendrogram.merges:
        left_len = _format_float(rec.level - level[rec.left])
        right_len = _format_float(rec.level - level[rec.right])
        text.append(f"({text[rec.left]}:{left_len},{text[rec.right]}:{right_len})")
        text[rec.left] = text[rec.right] = None
        level.append(rec.level)
    return text[-1] + ";"


def _atomic_write(path: Path, text: str) -> None:
    # A random sibling name keeps concurrent runs into one directory off each
    # other's temporary file. Mode "x" never opens an existing file, and unlike
    # tempfile.mkstemp (always 0600) it gives the permissions open() gives.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _assignments_csv(result: ClusteringResult) -> str:
    labels = result.partition.labels.tolist()
    lines = ["point_index,cluster_id", *map("{},{}".format, range(len(labels)), labels)]
    return "\n".join(lines) + "\n"


def _clusters_document(result: ClusteringResult, dataset: Dataset) -> dict:
    compactness = _compactness([report.variance for report in result.reports], dataset)
    clusters = []
    for cid, report in enumerate(result.reports):
        clusters.append(
            {
                "id": cid,
                "size": report.size,
                "members": result.partition.members_of(cid),
                "center_index": report.center_index,
                "radius": report.radius,
                "diameter": report.diameter,
                "variance": report.variance,
            }
        )
    removed = [
        {"u": u, "v": v, "weight": weight, "criterion": fired}
        for u, v, weight, fired in result.removed
    ]
    return {
        "cluster_count": result.cluster_count,
        "compactness": compactness.value,
        "compactness_degenerate": compactness.degenerate,
        "clusters": clusters,
        "removed_edges": removed,
    }


def _dendrogram_document(dendrogram: Dendrogram) -> dict:
    return {
        "leaf_count": dendrogram.leaf_count,
        "merges": [
            {"m": rec.m, "level": rec.level, "left": rec.left, "right": rec.right}
            for rec in dendrogram.merges
        ],
    }


def write_outputs(
    result: ClusteringResult,
    meta: MetaResult,
    config: RunConfig,
    dataset: Dataset,
) -> list[Path]:
    """Write every output file for a finished run, returning their paths.

    Always writes assignments.csv, clusters.json, dendrogram.json,
    dendrogram.newick, and meta.json. With emit_svg set, dendrogram.svg is
    added, plus scatter.svg when the data is 2-D. dataset is the clustered
    input; compactness and the scatter are computed from it.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out / name
        _atomic_write(path, text)
        written.append(path)

    emit("assignments.csv", _assignments_csv(result))
    emit("clusters.json", _json_text(_clusters_document(result, dataset)))
    emit("dendrogram.json", _json_text(_dendrogram_document(meta.dendrogram)))
    emit("dendrogram.newick", newick_string(meta.dendrogram) + "\n")
    emit(
        "meta.json",
        _json_text(
            {
                "central_cluster": meta.central_cluster,
                "meta_radius": meta.meta_radius,
            }
        ),
    )
    if config.emit_svg:
        emit("dendrogram.svg", dendrogram_svg(meta.dendrogram))
        if dataset.dimension == 2:
            emit("scatter.svg", scatter_svg(dataset, result))
    return written


def run_pipeline(config: RunConfig) -> list[Path]:
    """Read, cluster both stages, and write all outputs for one run."""
    dataset = read_points_csv(config.input_path)
    result = emstrd(dataset, config.k, config.criterion)
    meta = emstucc(result.center_set)
    return write_outputs(result, meta, config, dataset=dataset)
