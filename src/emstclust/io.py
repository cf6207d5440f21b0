"""Batch input and output: CSV ingestion, result serialization, pipeline.

All output files are written atomically (write to a uniquely named temporary
sibling, then rename) and every real number is serialized with 17 significant
digits so a reader parsing the file recovers bit-identical values. Identical
input and configuration therefore produce byte-identical files across runs.
Each output file has its own formatter for its one fixed layout, and every
one is streamed into the atomic write in chunks, with no document in
between. One joiner, svg._joined, makes the chunks from _CHUNK pieces: the
rows of assignments.csv, the lines of both SVGs, the tokens of a walk over
the dendrogram's arrays, and the pieces of both JSON files, with one piece
per member id, so that even the member list of one cluster streams.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .divisive import _CRITERIA, ClusteringResult, emstrd
from .errors import ConfigError, InputError
from .meta import MetaResult, emstucc
# cluster_compactness is not used here: the benchmark's layer trace looks it up.
from .metrics import _compactness, cluster_compactness  # noqa: F401
from .model import CriterionConfig, Dataset, Dendrogram, _values, _whole
# The str renderers are not used here: the benchmark's layer trace looks them up.
from .svg import _dendrogram_chunks, _joined, _scatter_chunks, dendrogram_svg, scatter_svg  # noqa: F401


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


def _cells(row: list[str]) -> list[float | None]:
    """Each stripped cell as a float, or None where float() refuses it."""
    cells = []
    for cell in row:
        try:
            cells.append(float(cell.strip()))
        except ValueError:
            cells.append(None)
    return cells


def _csv_rows(handle: Iterable[str], path: Path) -> Iterator[tuple[int, list[str]]]:
    """csv.reader's rows in strict mode, each with the line its record ends
    on, and its errors (bad quoting, a field over the size limit) as
    InputError naming the file and line."""
    reader = csv.reader(handle, strict=True)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def read_points_csv(path: Path | str) -> Dataset:
    """Read a UTF-8 CSV of coordinates, one point per row.

    Blank rows are ignored, and a non-numeric first non-blank row is a
    header and skipped. Ragged rows, non-finite or non-numeric cells (cut
    short past 28 characters), bytes that are not UTF-8, quoting that strict
    csv refuses and fields over the csv module's size limit raise an input
    error naming the file and the 1-based line where the record ends. Each
    data row's floats go into one growing float64 buffer, which becomes the
    dataset's coordinate array without a copy; no Point is built.
    """
    path = Path(path)
    try:
        # Undecodable bytes become lone surrogates, so the row holding one
        # is found and named below instead of failing a whole read buffer.
        handle = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    buf = array("d")
    width: int | None = None  # set by the first data row
    header_seen = False
    with handle:
        for lineno, row in _csv_rows(handle, path):
            # A row whose cells all parse to finite floats is data: float()
            # accepts a cell only if it accepts the stripped cell, with the
            # same value, and never a surrogate. Other rows are blank, the
            # header, data padded with \x1c-\x1f (str.strip() removes them,
            # float() does not), or refused naming the first bad cell.
            try:
                values = tuple(map(float, row))
                clean = values and all(map(math.isfinite, values))
            except ValueError:
                clean = False
            if not clean:
                try:
                    "".join(row).encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}: line {lineno}: not UTF-8 text") from None
                if all(not cell.strip() for cell in row):
                    continue
                values = _cells(row)
                if None in values and width is None and not header_seen:
                    header_seen = True
                    continue
                for cell, value in zip(row, values):
                    if value is None or not math.isfinite(value):
                        kind = "non-numeric" if value is None else "non-finite"
                        shown = cell if len(cell) <= 28 else f"{cell[:12]}...{cell[-13:]}"
                        raise InputError(f"{path}: line {lineno}: {kind} value {shown!r}")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise InputError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            buf.extend(values)
    if width is None:
        raise InputError(f"no data rows in {path}")
    return Dataset._of_array(np.frombuffer(buf).reshape(-1, width))


def _newick_chunks(dendrogram: Dendrogram) -> Iterator[str]:
    """newick_string's text in pieces, from a walk that goes down each left
    spine to a leaf, then up to the first node it leaves by a left child,
    and on to that node's right child. It holds no stack and no subtree text.
    """
    k = dendrogram.leaf_count
    left, right = dendrogram.left, dendrogram.right
    node = root = 2 * k - 2
    parent = np.empty(root + 1, dtype=np.int64)
    parent[left] = parent[right] = np.arange(k, root + 1)
    height = np.concatenate((np.zeros(k), dendrogram.level))
    while True:
        while node >= k:
            yield "("
            node = left[node - k]
        yield f"C{node}"
        while node != root:
            up = parent[node]
            yield f":{height[up] - height[node]:.17g}"
            if left[up - k] == node:
                yield ","
                node = right[up - k]
                break
            yield ")"
            node = up
        else:
            yield ";"
            return


def newick_string(dendrogram: Dendrogram) -> str:
    """Serialize a dendrogram to Newick with explicit branch lengths.

    Leaves are named C0 .. C(k-1) and sit at height 0; each child's branch
    length is the parent's merge level minus the child's own level, so the
    tree is ultrametric with every leaf at depth equal to the final level.
    """
    return "".join(_joined(_newick_chunks(dendrogram)))


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    # A random sibling name keeps concurrent runs into one directory off each
    # other's temporary file. Mode "x" never opens an existing file, and unlike
    # tempfile.mkstemp (always 0600) it gives the permissions open() gives.
    # The chunks are made while they are written, so a formatter that raises
    # partway through leaves no file either.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _assignments_csv(result: ClusteringResult) -> Iterator[str]:
    """assignments.csv in pieces: the header, then one piece per row."""
    yield "point_index,cluster_id\n"
    yield from map("{},{}\n".format, count(), chain.from_iterable(_values(result.forest.labels)))


def _array(items: Iterable[str]) -> Iterator[str]:
    """A JSON array of rendered items in pieces, closed at an indent of two
    spaces; [] when empty."""
    opening = "[\n"
    for item in items:
        yield opening + item
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"


def _clusters_json(result: ClusteringResult, dataset: Dataset) -> Iterator[str]:
    """clusters.json in pieces: the header, each cluster's fields with one
    piece per member id among them, then the removed edges."""
    compactness = _compactness(result.variance, dataset)
    yield (
        f'{{\n  "cluster_count": {result.cluster_count},\n'
        f'  "compactness": {compactness.value:.17g},\n'
        f'  "compactness_degenerate": {"true" if compactness.degenerate else "false"},\n'
        '  "clusters": ['
    )
    sizes = np.diff(result.forest.member_start)
    rows = _values(sizes, result.center, result.radius, result.diameter, result.variance)
    ids = map(str, chain.from_iterable(_values(result.forest.members)))
    for cid, (size, center, radius, diameter, variance) in enumerate(rows):
        yield (
            f"{',' if cid else ''}\n    {{\n"
            f'      "id": {cid},\n'
            f'      "size": {size},\n'
            f'      "members": [\n        {next(ids)}'
        )
        for _ in range(1, size):
            yield ",\n        " + next(ids)
        yield (
            f'\n      ],\n      "center_index": {center},\n'
            f'      "radius": {radius:.17g},\n'
            f'      "diameter": {diameter:.17g},\n'
            f'      "variance": {variance:.17g}\n'
            "    }"
        )
    yield '\n  ],\n  "removed_edges": '
    yield from _array(
        f'    {{\n      "u": {u},\n      "v": {v},\n      "weight": {weight:.17g},\n'
        f'      "criterion": "{_CRITERIA[fired]}"\n    }}'
        for u, v, weight, fired in _values(*result.removed)
    )
    yield "\n}\n"


def _dendrogram_json(dendrogram: Dendrogram) -> Iterator[str]:
    """dendrogram.json in pieces: the leaf count, then one piece per merge."""
    yield f'{{\n  "leaf_count": {dendrogram.leaf_count},\n  "merges": '
    rows = _values(dendrogram.level, dendrogram.left, dendrogram.right)
    yield from _array(
        f'    {{\n      "m": {m},\n      "level": {level:.17g},\n'
        f'      "left": {left},\n      "right": {right}\n    }}'
        for m, (level, left, right) in enumerate(rows, start=1)
    )
    yield "\n}\n"


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

    def emit(name: str, chunks: Iterable[str]) -> None:
        path = out / name
        _atomic_write(path, chunks)
        written.append(path)

    emit("assignments.csv", _joined(_assignments_csv(result)))
    emit("clusters.json", _joined(_clusters_json(result, dataset)))
    emit("dendrogram.json", _joined(_dendrogram_json(meta.dendrogram)))
    emit("dendrogram.newick", _joined(chain(_newick_chunks(meta.dendrogram), "\n")))
    emit(
        "meta.json",
        [
            f'{{\n  "central_cluster": {meta.central_cluster},\n'
            f'  "meta_radius": {meta.meta_radius:.17g}\n}}\n'
        ],
    )
    if config.emit_svg:
        emit("dendrogram.svg", _dendrogram_chunks(meta.dendrogram))
        if dataset.dimension == 2:
            emit("scatter.svg", _scatter_chunks(dataset, result))
    return written


def run_pipeline(config: RunConfig) -> list[Path]:
    """Read, cluster both stages, and write all outputs for one run."""
    dataset = read_points_csv(config.input_path)
    result = emstrd(dataset, config.k, config.criterion)
    meta = emstucc(result.center_set)
    return write_outputs(result, meta, config, dataset=dataset)
