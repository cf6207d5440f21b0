"""CSV ingestion, serialization, the CLI, and determinism of outputs."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstclust import (
    MODE_STD,
    MODE_ZAHN,
    Cluster,
    ConfigError,
    CriterionConfig,
    Dataset,
    Dendrogram,
    Edge,
    InputError,
    Point,
    RunConfig,
    SpanningForest,
    build_emst,
    cluster_compactness,
    emstrd,
    emstucc,
    newick_string,
    read_points_csv,
    run_pipeline,
    write_outputs,
)
import emstclust
from emstclust import io as emst_io
from emstclust import model
from emstclust.cli import main
from emstclust.svg import dendrogram_svg, scatter_svg
from oracles import count_internal, leaf_depths, parse_newick, scaled_datasets


def write_csv(tmp_path: Path, text: str, name: str = "points.csv") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


CHAIN_CSV = "0\n1\n3\n6\n10\n"


class TestReadPointsCsv:
    def test_plain_numeric(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "0,0\n3,4\n"))
        assert len(ds) == 2
        assert ds.points[1].coords == (3.0, 4.0)

    def test_header_skipped(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "x,y\n1,2\n3,4\n"))
        assert len(ds) == 2
        assert ds.points[0].coords == (1.0, 2.0)

    def test_cells_are_stripped_before_parsing(self, tmp_path):
        # "\x1c" is whitespace to str.strip() but not to float().
        path = write_csv(tmp_path, " 1.5 ,\x1c2\x1c\n3,\t4\n")
        assert read_points_csv(path).coords.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_row_parsed_after_stripping_takes_the_width_check(self, tmp_path):
        # The only rows the cell-by-cell parse returns are padded with
        # \x1c-\x1f, and they are data like any other row.
        path = write_csv(tmp_path, "1,2\n\x1f3\x1f\n")
        with pytest.raises(InputError, match="line 2: expected 2 columns, got 1"):
            read_points_csv(path)

    def test_numeric_first_row_is_data(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "1,2\n3,4\n"))
        assert len(ds) == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n5,6,7\n")
        with pytest.raises(InputError, match="line 3"):
            read_points_csv(path)

    def test_nan_names_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2\nNaN,4\n")
        with pytest.raises(InputError, match="line 2"):
            read_points_csv(path)

    def test_infinity_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1\ninf\n")
        with pytest.raises(InputError, match="line 2"):
            read_points_csv(path)

    def test_non_numeric_data_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2\nfoo,4\n")
        with pytest.raises(InputError, match="line 2"):
            read_points_csv(path)

    def test_header_after_leading_blank_lines(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "\nx,y\n1,2\n3,4\n"))
        assert ds.coords.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("\nx,y\n1,2\nfoo,4\n", "line 4"),
            ("\n1,2\nx,y\n", "line 3"),
            ("\n\nx,y\nz,w\n1,2\n", "line 4"),
        ],
    )
    def test_only_the_first_non_blank_row_may_be_a_header(self, tmp_path, text, line):
        with pytest.raises(InputError, match=f"{line}: non-numeric value"):
            read_points_csv(write_csv(tmp_path, text))

    def test_header_with_a_numeric_cell_skipped(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "id,2024\n1,2\n"))
        assert ds.coords.tolist() == [[1.0, 2.0]]

    def test_line_is_where_the_record_ends(self, tmp_path):
        # A quoted newline makes the first record span lines 1 and 2.
        path = write_csv(tmp_path, '"1\n",2\n3,4\nx,y\n')
        with pytest.raises(InputError, match="line 4: non-numeric value 'x'"):
            read_points_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_points_csv(write_csv(tmp_path, ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_points_csv(write_csv(tmp_path, "x,y\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_points_csv(tmp_path / "absent.csv")

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x,y\r\n1,2\r\n\r\n3,4\r\n")
        ds = read_points_csv(path)
        assert len(ds) == 2

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        ds = read_points_csv(path)
        assert ds.points[0].coords == (1.0, 2.0)

    def test_scientific_notation(self, tmp_path):
        ds = read_points_csv(write_csv(tmp_path, "1e2, -2.5E-1\n0, 4\n"))
        assert ds.points[0].coords == (100.0, -0.25)

    @pytest.mark.parametrize(
        "data, line", [(b"1,2\n3,\xff4\n", 2), (b"x\xff,y\n1,2\n", 1), (b"1,2\n\xfe\n3,4\n", 2)]
    )
    def test_bytes_not_utf8_name_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "latin.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=f"latin.csv: line {line}: not UTF-8 text"):
            read_points_csv(path)

    def test_field_over_csv_limit_names_file_and_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n", "long.csv")
        with pytest.raises(InputError, match=r"long.csv: line 2: field larger than field limit"):
            read_points_csv(path)

    @pytest.mark.parametrize("text", ['"1"2,3\n4,5\n', '"1" ,2\n4,5\n'])
    def test_text_after_a_closing_quote_refused(self, tmp_path, text):
        # Outside strict mode csv.reader reads "1"2 as 12 and "1" ,2 as (1, 2).
        path = write_csv(tmp_path, text)
        with pytest.raises(InputError, match=re.escape(f"{path}: line 1: ',' expected after '\"'")):
            read_points_csv(path)

    def test_unterminated_quote_refused_in_one_short_line(self, tmp_path):
        # Outside strict mode the open quote takes the rest of the file as
        # one cell, and a message quoting that cell runs to 100 kB.
        path = write_csv(tmp_path, 'x,y\n"3,4\n' + "5,6\n" * 20000)
        with pytest.raises(InputError) as refused:
            read_points_csv(path)
        assert str(refused.value) == f"{path}: line 20002: unexpected end of data"

    @pytest.mark.parametrize(
        "cell, shown",
        [
            ("a" * 28, repr("a" * 28)),
            ("a" * 5000, "'aaaaaaaaaaaa...aaaaaaaaaaaaa'"),
            # The cell is cut, not its repr, so no escape is split.
            ("\x01" * 20, repr("\x01" * 20)),
            ("\x01" * 40, repr("\x01" * 12 + "..." + "\x01" * 13)),
        ],
        ids=["28_characters", "5000_characters", "20_escapes", "40_escapes"],
    )
    def test_refused_cell_shortened(self, tmp_path, cell, shown):
        path = write_csv(tmp_path, f'x,y\n1,2\n"{cell}",3\n')
        with pytest.raises(InputError) as refused:
            read_points_csv(path)
        assert str(refused.value) == f"{path}: line 3: non-numeric value {shown}"


CHUNK = model._CHUNK


def grid_rows(count: int) -> list[str]:
    """count distinct 2-D data rows."""
    return [f"{i * 0.5!r},{(i % 7) - 3.25!r}" for i in range(count)]


class TestReadAcrossChunks:
    """Files of over two CHUNKs of rows, the step of the writers: the
    reader's one growing buffer holds them all, and line numbers, messages
    and the header rule hold past each CHUNK."""

    def test_rows_across_two_flushes_equal_loadtxt(self, tmp_path):
        path = write_csv(tmp_path, "\n".join(grid_rows(2 * CHUNK + 1)) + "\n")
        coords = read_points_csv(path).coords
        assert coords.shape == (2 * CHUNK + 1, 2)
        assert np.array_equal(coords, np.loadtxt(path, delimiter=",", ndmin=2))

    def test_header_and_blank_rows_around_the_boundary(self, tmp_path):
        rows = grid_rows(2 * CHUNK + 1)
        lines = ["x,y", "", *rows[: CHUNK - 1], "", " , ", rows[CHUNK - 1], "", *rows[CHUNK:], ""]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        plain = write_csv(tmp_path, "\n".join(rows) + "\n", "plain.csv")
        assert np.array_equal(read_points_csv(path).coords, np.loadtxt(plain, delimiter=","))

    @pytest.mark.parametrize("line", [CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize(
        "bad, message",
        [("1,2,3", "expected 2 columns, got 3"), ("x,y", "non-numeric value 'x'")],
        ids=["ragged", "non-numeric"],
    )
    def test_bad_row_at_a_boundary_names_its_line(self, tmp_path, line, bad, message):
        # At line CHUNK + 1, too, a non-numeric row is data, not a header.
        rows = grid_rows(2 * CHUNK + 2)
        rows[line - 1] = bad
        path = write_csv(tmp_path, "\n".join(rows) + "\n", "bad.csv")
        with pytest.raises(InputError, match=re.escape(f"bad.csv: line {line}: {message}")):
            read_points_csv(path)


class TestNewick:
    def test_single_leaf(self):
        assert newick_string(Dendrogram(1, [], [], [])) == "C0;"

    def test_three_leaf_worked_example(self):
        d = Dendrogram(3, [0, 3], [1, 2], [1.0, 4.0])
        assert newick_string(d) == "((C0:1,C1:1):3,C2:4);"

    def test_reparse_round_trip(self):
        centers = [Point((float(v),)) for v in (0, 1, 5, 30, 31, 60)]
        result = emstucc(centers)
        text = newick_string(result.dendrogram)
        root = parse_newick(text)
        depths = leaf_depths(root)
        assert set(depths) == {f"C{i}" for i in range(6)}
        final = result.dendrogram.final_level
        for depth in depths.values():
            assert depth == pytest.approx(final, abs=1e-9)
        assert count_internal(root) == 5


    def test_memory_stays_near_the_output(self):
        # A caterpillar, as from 1-D centers with growing gaps: each merge
        # takes the last group and one more leaf. Keeping every subtree's
        # text alive would hold about k / 2 copies of the output, here
        # 27 MB; dropping them leaves O(k) bytes.
        k = 2000
        dendrogram = Dendrogram(
            k,
            [0 if m == 1 else k - 2 + m for m in range(1, k)],
            list(range(1, k)),
            [float(m) for m in range(1, k)],
        )
        tracemalloc.start()
        try:
            text = newick_string(dendrogram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.startswith("(" * (k - 1) + "C0:1,C1:1):1,C2:2)")
        assert peak < 200 * k


def chain_config(tmp_path, k=2, criterion=None, out="out", svg=False):
    return RunConfig(
        input_path=write_csv(tmp_path, CHAIN_CSV),
        k=k,
        criterion=criterion or CriterionConfig(),
        output_dir=tmp_path / out,
        emit_svg=svg,
    )


class TestRunConfig:
    def test_non_integral_k_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="k must be a whole number, got 3.5"):
            chain_config(tmp_path, k=3.5)
        for k in (3, np.int64(3), 3.0):
            assert chain_config(tmp_path, k=k).k == 3

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_refused(self, tmp_path, k):
        with pytest.raises(ConfigError, match=f"k must be a whole number, got {k!r}"):
            chain_config(tmp_path, k=k)


class TestWriteOutputs:
    def test_chain_file_set_and_content(self, tmp_path):
        config = chain_config(tmp_path)
        paths = run_pipeline(config)
        names = {p.name for p in paths}
        assert names == {
            "assignments.csv",
            "clusters.json",
            "dendrogram.json",
            "dendrogram.newick",
            "meta.json",
        }
        out = config.output_dir

        assignments = (out / "assignments.csv").read_text().splitlines()
        assert assignments[0] == "point_index,cluster_id"
        assert assignments[1:] == ["0,0", "1,0", "2,0", "3,0", "4,1"]

        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["cluster_count"] == 2
        first = clusters["clusters"][0]
        assert first["members"] == [0, 1, 2, 3]
        assert first["center_index"] == 2
        assert first["radius"] == 3.0
        assert first["diameter"] == 6.0
        assert first["variance"] == math.sqrt(5.25)
        assert clusters["removed_edges"] == [
            {"u": 3, "v": 4, "weight": 4.0, "criterion": "threshold"}
        ]

        dendro = json.loads((out / "dendrogram.json").read_text())
        assert dendro["leaf_count"] == 2
        assert dendro["merges"] == [{"m": 1, "level": 7.0, "left": 0, "right": 1}]

        assert (out / "dendrogram.newick").read_text() == "(C0:7,C1:7);\n"

        meta = json.loads((out / "meta.json").read_text())
        assert meta["central_cluster"] == 0
        assert meta["meta_radius"] == 7.0

    def test_float_round_trip_is_exact(self, tmp_path):
        path = write_csv(
            tmp_path, "0.1,0.2\n0.7,1.3\n2.9,0.05\n7.77,8.88\n"
        )
        config = RunConfig(
            input_path=path,
            k=2,
            criterion=CriterionConfig(),
            output_dir=tmp_path / "out",
        )
        run_pipeline(config)
        dataset = read_points_csv(path)
        result = emstrd(dataset, 2)
        clusters = json.loads((config.output_dir / "clusters.json").read_text())
        for name in ("radius", "diameter", "variance"):
            assert [entry[name] for entry in clusters["clusters"]] == getattr(result, name).tolist()

    def test_reruns_are_byte_identical(self, tmp_path):
        config_a = chain_config(tmp_path, out="a", svg=True)
        config_b = chain_config(tmp_path, out="b", svg=True)
        paths_a = run_pipeline(config_a)
        paths_b = run_pipeline(config_b)
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_str_directory_accepted(self, tmp_path):
        config = chain_config(tmp_path, svg=True)
        result = emstrd(read_points_csv(config.input_path), config.k)
        written = write_outputs(result, str(tmp_path / "from_str"), emit_svg=True)
        expected = run_pipeline(config)
        assert [p.parent for p in written] == [tmp_path / "from_str"] * len(expected)
        assert [p.name for p in written] == [p.name for p in expected]
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]

    def test_no_temporary_files_left(self, tmp_path):
        config = chain_config(tmp_path)
        run_pipeline(config)
        assert not list(config.output_dir.glob("*.tmp"))

    def test_svg_for_2d_data(self, tmp_path):
        path = write_csv(tmp_path, "0,0\n1,0\n0,1\n20,20\n21,20\n")
        config = RunConfig(
            input_path=path,
            k=2,
            criterion=CriterionConfig(),
            output_dir=tmp_path / "out",
            emit_svg=True,
        )
        paths = run_pipeline(config)
        names = {p.name for p in paths}
        assert "scatter.svg" in names
        assert "dendrogram.svg" in names
        scatter = (config.output_dir / "scatter.svg").read_text()
        assert scatter.startswith("<svg")
        assert "circle" in scatter

    @pytest.mark.parametrize(
        "rows, position", [("3,0\n3,1\n3,5\n", 'cx="320.000"'), ("0,-2\n1,-2\n5,-2\n", 'cy="240.000"')]
    )
    def test_svg_of_points_on_one_axis_parallel_line(self, tmp_path, rows, position):
        # A zero extent on one axis is widened to one unit about the line,
        # which puts every point in the middle of the plot on that axis.
        path = write_csv(tmp_path, rows)
        assert main(["--input", str(path), "--k", "2", "--out", str(tmp_path / "out"), "--svg"]) == 0
        scatter = (tmp_path / "out" / "scatter.svg").read_text().splitlines()
        points = [line for line in scatter if 'r="3"' in line]
        assert len(points) == 3
        assert all(position in line for line in points)

    def test_no_scatter_for_1d_data(self, tmp_path):
        config = chain_config(tmp_path, svg=True)
        names = {p.name for p in run_pipeline(config)}
        assert "dendrogram.svg" in names
        assert "scatter.svg" not in names

    def test_scatter_refuses_3d_data(self):
        dataset = Dataset._of_array(np.eye(3))
        with pytest.raises(ValueError, match="scatter rendering needs 2-D data") as caught:
            scatter_svg(emstrd(dataset, 1))
        assert type(caught.value) is InputError

    def test_k1_outputs(self, tmp_path):
        config = chain_config(tmp_path, k=1)
        run_pipeline(config)
        out = config.output_dir
        assert (out / "dendrogram.newick").read_text() == "C0;\n"
        meta = json.loads((out / "meta.json").read_text())
        assert meta == {"central_cluster": 0, "meta_radius": 0.0}


@settings(max_examples=25, deadline=None)
@given(scaled_datasets(), st.data())
def test_json_files_read_back_exactly(ds, data):
    """clusters.json, dendrogram.json and meta.json parse back, key order
    included, to the values of the result they were written from."""
    k = data.draw(st.integers(1, len(ds)), label="k")
    for mode in (MODE_STD, MODE_ZAHN):
        result = emstrd(ds, k, CriterionConfig(mode=mode))
        meta = emstucc(result.center_set)
        compactness = cluster_compactness(result.clusters, ds)
        with tempfile.TemporaryDirectory() as out:
            write_outputs(result, out)
            read = {
                name: json.loads((Path(out) / name).read_text(), object_pairs_hook=list)
                for name in ("clusters.json", "dendrogram.json", "meta.json")
            }
        values = zip(
            result.center.tolist(), result.radius.tolist(), result.diameter.tolist(),
            result.variance.tolist(),
        )
        clusters = [
            [
                ("id", cid),
                ("size", cluster.size),
                ("members", sorted(cluster.members)),
                ("center_index", center),
                ("radius", radius),
                ("diameter", diameter),
                ("variance", variance),
            ]
            for cid, (cluster, (center, radius, diameter, variance)) in enumerate(
                zip(result.clusters, values)
            )
        ]
        removed = [
            [("u", e.u), ("v", e.v), ("weight", e.weight), ("criterion", fired)]
            for e, fired in result.removed_edges
        ]
        assert read["clusters.json"] == [
            ("cluster_count", k),
            ("compactness", compactness.value),
            ("compactness_degenerate", compactness.degenerate),
            ("clusters", clusters),
            ("removed_edges", removed),
        ]
        merges = [
            [("m", m), ("level", level), ("left", left), ("right", right)]
            for m, (level, left, right) in enumerate(
                zip(
                    meta.dendrogram.level.tolist(),
                    meta.dendrogram.left.tolist(),
                    meta.dendrogram.right.tolist(),
                ),
                start=1,
            )
        ]
        assert read["dendrogram.json"] == [("leaf_count", k), ("merges", merges)]
        assert read["meta.json"] == [
            ("central_cluster", meta.central_cluster),
            ("meta_radius", meta.meta_radius),
        ]


class TestArrayPipeline:
    """run_pipeline works on arrays from the CSV to the files: it builds no
    Point, Edge or Cluster, the library's object views, and each of its
    three trees once, through SpanningForest's one constructor."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                counts[f"{cls.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count(Point, "__post_init__")
        count(Edge, "__post_init__")
        count(SpanningForest, "__init__")
        count(Cluster, "__init__")
        return counts

    @pytest.mark.parametrize("mode", ["std", "zahn"])
    def test_no_objects_built(self, tmp_path, built, mode):
        # 2000 2-D points in 10 blobs: the k-d tree builder runs.
        rng = np.random.default_rng(41)
        points = rng.uniform(0, 100, (10, 2))[rng.integers(0, 10, 2000)]
        points += rng.normal(0, 1, points.shape)
        path = write_csv(tmp_path, "".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
        criterion = CriterionConfig(mode=MODE_ZAHN) if mode == "zahn" else CriterionConfig()
        config = RunConfig(path, 10, criterion, tmp_path / "out", emit_svg=True)
        assert len(run_pipeline(config)) == 7
        # The EMST, the forest left after the removals and the meta tree.
        assert built == {"SpanningForest.__init__": 3}
        # The counters see the object views when something does build them.
        built.clear()
        dataset = read_points_csv(path)
        assert emstrd(dataset, 3).clusters and dataset.points
        assert built["Cluster.__init__"] == 3 and built["Point.__post_init__"] == 2000
        assert build_emst(dataset).edges and built["Edge.__post_init__"] == 1999
        assert built["SpanningForest.__init__"] == 3


def traced_peak(fn, *args) -> tuple[object, int]:
    """fn(*args) and the traced peak of the call."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def every_point_a_cluster():
    """k = n = 20000: every writer's largest output per point."""
    result = emstrd(Dataset._of_array(np.random.default_rng(3).random((20_000, 2))), 20_000)
    return result, emstucc(result.center_set)


@pytest.fixture(scope="module")
def one_cluster():
    """k = 1 on 50000 points: the longest member list per point. The member
    ids are the bulk of clusters.json only past 20000 points or so; below,
    compactness's arrays outweigh the file."""
    return emstrd(Dataset._of_array(np.random.default_rng(3).random((50_000, 2))), 1)


class TestBoundedMemory:
    def test_reader_peak_is_a_small_multiple_of_the_array(self, tmp_path):
        rows = np.random.default_rng(6).random((100_000, 2))
        path = tmp_path / "big.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows.tolist()))
        dataset, peak = traced_peak(read_points_csv, path)
        assert np.array_equal(dataset.coords, rows)
        # One growing buffer that becomes the 1.6 MB array, with the slack
        # of its last growth: 1.17 times the array. A tuple per row took
        # 16 MB, and float64 blocks of 1024 rows and their concatenation,
        # two copies, over twice the array.
        assert peak < 1.25 * rows.nbytes

    @pytest.mark.parametrize(
        "name", ["scatter.svg", "dendrogram.svg", "assignments.csv", "clusters.json"]
    )
    def test_writer_peak_is_a_fraction_of_its_file(self, every_point_a_cluster, one_cluster, name):
        result, meta = every_point_a_cluster
        # The chunks write_outputs streams into each file.
        chunks = {
            "scatter.svg": lambda: emst_io._scatter_chunks(result),
            "dendrogram.svg": lambda: emst_io._dendrogram_chunks(meta.dendrogram),
            "assignments.csv": lambda: emst_io._joined(emst_io._assignments_csv(result)),
            "clusters.json": lambda: emst_io._joined(emst_io._clusters_json(one_cluster)),
        }[name]
        size, peak = traced_peak(lambda: sum(map(len, chunks())))
        # Whole-file lists of lines and the joined text took 4 to 12 times
        # the file. Left: arrays of n values (scatter), arrays of two floats
        # and an int per dendrogram node, and one chunk; a chunk of 1024
        # labels as ints and lines is 0.13 MB, over half of the 0.22 MB
        # assignments.csv. The dendrogram peaks at 1.29 MB of its 9.5 MB
        # (3.5 MB with its node values in Python lists); its bound is that
        # peak plus a quarter. clusters.json at k = 1 took 7 times the file
        # with its one member list joined in one piece; with a piece per
        # member id the peak is compactness's float64 distance array and
        # one chunk of rows as lists, 0.77 of the 0.74 MB file.
        fraction = {"assignments.csv": 3 / 4, "dendrogram.svg": 0.171, "clusters.json": 0.9}
        assert peak < fraction.get(name, 1 / 2) * size

    def test_newick_string_peak_is_its_chunks_and_their_join(self, every_point_a_cluster):
        _, meta = every_point_a_cluster
        text, peak = traced_peak(emst_io.newick_string, meta.dendrogram)
        # The chunks of the text and their join: 2.01 times the 1.06 MB
        # text (2.07 with a bytearray grown a token at a time, over ten
        # times with every token held); the bound is that plus a quarter.
        assert peak < 2.5 * len(text)

    def test_string_renderers_equal_the_streamed_files(self, every_point_a_cluster, tmp_path):
        result, meta = every_point_a_cluster
        write_outputs(result, tmp_path, emit_svg=True)
        assert scatter_svg(result) == (tmp_path / "scatter.svg").read_text()
        assert dendrogram_svg(meta.dendrogram) == (tmp_path / "dendrogram.svg").read_text()
        assert newick_string(meta.dendrogram) + "\n" == (tmp_path / "dendrogram.newick").read_text()


class TestAtomicWrite:
    def test_leftover_at_a_fixed_temporary_name_does_not_block(self, tmp_path):
        # Temporary files used to be <name>.tmp, shared by every run into the
        # directory, so anything left at that name made the write fail.
        clean = run_pipeline(chain_config(tmp_path, out="clean"))
        config = chain_config(tmp_path)
        (config.output_dir / "clusters.json.tmp").mkdir(parents=True)
        written = run_pipeline(config)
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in clean]

    def test_bytes_and_permissions_of_a_plain_open(self, tmp_path):
        text = "point_index,cluster_id\n0,0\nnon-ascii \u00e9\n"
        target = tmp_path / "out.csv"
        emst_io._atomic_write(target, [text])
        plain = tmp_path / "plain.csv"
        with open(plain, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        assert target.read_bytes() == plain.read_bytes()
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "plain.csv"]

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        target = tmp_path / "meta.json"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(emst_io.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            emst_io._atomic_write(target, ["new\n"])
        assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
        assert target.read_text() == "old\n"

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            emst_io._atomic_write(tmp_path / "meta.json", ["lone surrogate \ud800"])
        assert list(tmp_path.iterdir()) == []

    def test_formatter_raising_partway_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "clusters.json"
        target.write_text("old\n")

        def chunks():
            yield "{\n"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            emst_io._atomic_write(target, chunks())
        assert not list(tmp_path.glob("*.tmp"))
        assert target.read_bytes() == b"old\n"

    @pytest.mark.parametrize(
        "name, figure",
        [("_scatter_chunks", "scatter.svg"), ("_dendrogram_chunks", "dendrogram.svg")],
    )
    def test_svg_raising_partway_leaves_no_file(self, tmp_path, monkeypatch, name, figure):
        # 3000 points and 3000 clusters: both figures span several chunks.
        rows = np.random.default_rng(12).random((3000, 2))
        path = write_csv(tmp_path, "".join(f"{x!r},{y!r}\n" for x, y in rows.tolist()))
        render = getattr(emst_io, name)
        written = []

        def failing(*args):
            for chunk in render(*args):
                written.append(chunk)
                yield chunk
                if len(written) == 2:
                    raise RuntimeError("renderer failed")

        monkeypatch.setattr(emst_io, name, failing)
        config = RunConfig(path, 3000, CriterionConfig(), tmp_path / "out", emit_svg=True)
        with pytest.raises(RuntimeError, match="renderer failed"):
            run_pipeline(config)
        assert len(written) == 2
        left = [p.name for p in config.output_dir.iterdir()]
        assert figure not in left and not [n for n in left if n.endswith(".tmp")]


def run_module(args: list[str]) -> subprocess.CompletedProcess:
    """`python -m emstclust args` in a child process that imports the
    package this test imported, installed or not."""
    package_root = str(Path(emstclust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "emstclust", *args], capture_output=True, text=True, env=env
    )


OVERFLOW_3D_CSV = "0,0,0\n1e200,0,0\n2e200,1,0\n"
OVERFLOW_ERR = (
    "input error: squared-distance overflow: some coordinate differences are"
    " too large to square in float64, so the EMST cannot be built\n"
)
META_OVERFLOW_ERR = (
    "input error: squared-distance overflow: the cluster centers are too far"
    " apart to square their differences in float64, so the meta EMST over"
    " them cannot be built\n"
)
HUGE_COLLINEAR_CSV = "".join(f"{i * 1e154!r},0\n" for i in range(11))


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        path = write_csv(tmp_path, CHAIN_CSV)
        code = main(
            ["--input", str(path), "--k", "2", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "clusters.json").exists()
        assert "clusters.json" in capsys.readouterr().out

    def test_missing_input_exit_two(self, tmp_path):
        code = main(
            [
                "--input",
                str(tmp_path / "nope.csv"),
                "--k",
                "2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_malformed_input_exit_two(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3\n")
        code = main(
            ["--input", str(path), "--k", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 2

    @pytest.mark.parametrize("data", [b"1,2\n3,\xff4\n", b"1,2\n3," + b"4" * 131073 + b"\n"])
    def test_undecodable_or_oversized_input_exit_two(self, tmp_path, capsys, data):
        path = tmp_path / "points.csv"
        path.write_bytes(data)
        code = main(["--input", str(path), "--k", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {path}: line 2: ")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1,2\nfoo,4\n", "non-numeric value 'foo'"),
            (b"1,2\nnan,4\n", "non-finite value 'nan'"),
            (b"1,2\n3,4,5\n", "expected 2 columns, got 3"),
        ],
    )
    def test_bad_row_names_file_and_line_exit_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "points.csv"
        path.write_bytes(data)
        code = main(["--input", str(path), "--k", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {path}: line 2: {message}")

    def test_k_exceeding_dataset_exit_two(self, tmp_path, capsys):
        path = write_csv(tmp_path, CHAIN_CSV)
        code = main(
            ["--input", str(path), "--k", "6", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "k must be in [1, 5], got 6" in err
        assert not (tmp_path / "out").exists()

    def test_header_after_blank_lines_exit_zero(self, tmp_path):
        path = write_csv(tmp_path, "\nx,y\n1,2\n3,4\n")
        code = main(
            ["--input", str(path), "--k", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "assignments.csv").read_text() == (
            "point_index,cluster_id\n0,0\n1,0\n"
        )

    def test_squared_distance_overflow_exit_two(self, tmp_path, capsys):
        # stderr is the one error line: numpy's overflow warnings stay quiet.
        for text, k in (("0\n1e200\n2e200\n3e200\n", "4"), (OVERFLOW_3D_CSV, "2")):
            path = write_csv(tmp_path, text)
            code = main(
                ["--input", str(path), "--k", k, "--out", str(tmp_path / "out")]
            )
            assert code == 2
            assert capsys.readouterr().err == OVERFLOW_ERR

    def test_overflow_stderr_is_one_line_in_a_subprocess(self, tmp_path):
        # Outside pytest, whose warning capture would hide a RuntimeWarning.
        path = write_csv(tmp_path, OVERFLOW_3D_CSV)
        proc = run_module(["--input", str(path), "--k", "2", "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr == OVERFLOW_ERR

    def test_huge_collinear_points_exit_zero(self, tmp_path):
        # Every EMST edge has d^2 = 1e308, so the tree builds; the squared
        # distances to the mean reach 2.5e309 unscaled.
        path = write_csv(tmp_path, HUGE_COLLINEAR_CSV)
        out = tmp_path / "out"
        assert main(["--input", str(path), "--k", "1", "--out", str(out)]) == 0
        (cluster,) = json.loads((out / "clusters.json").read_text())["clusters"]
        assert cluster["variance"] == pytest.approx(math.sqrt(10) * 1e154, rel=1e-15)

    def test_meta_overflow_names_the_cluster_centers(self, tmp_path, capsys):
        # The data EMST of the line builds (see above); at k = 2 the two
        # centers are at least 5e154 apart, so only the meta tree overflows.
        path = write_csv(tmp_path, HUGE_COLLINEAR_CSV)
        code = main(["--input", str(path), "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == META_OVERFLOW_ERR
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("criterion", ["std", "zahn"])
    @pytest.mark.parametrize("k", ["1", "2"])
    def test_largest_edge_weights_exit_zero(self, tmp_path, k, criterion):
        # Edges of 1.3e154, whose deviations from the mean edge weight
        # square to more than the largest float unscaled.
        path = write_csv(tmp_path, "0\n0\n0\n1.3e154\n2.6e154\n2.6e154\n2.6e154\n")
        out = tmp_path / "out"
        args = ["--input", str(path), "--k", k, "--criterion", criterion, "--out", str(out)]
        assert main(args) == 0
        doc = json.loads((out / "clusters.json").read_text())
        assert len(doc["clusters"]) == int(k) and math.isfinite(doc["compactness"])
        for cluster in doc["clusters"]:
            assert all(math.isfinite(cluster[key]) for key in ("radius", "diameter", "variance"))
        assert math.isfinite(json.loads((out / "meta.json").read_text())["meta_radius"])

    def test_coordinates_near_the_largest_float_exit_zero(self, tmp_path):
        # The first column sums to 3e308 before its mean is taken.
        path = write_csv(tmp_path, "1e308,0\n1e308,0\n1e308,1\n")
        out = tmp_path / "out"
        assert main(["--input", str(path), "--k", "1", "--out", str(out)]) == 0
        (cluster,) = json.loads((out / "clusters.json").read_text())["clusters"]
        assert (cluster["radius"], cluster["diameter"]) == (1.0, 1.0)
        assert cluster["variance"] == pytest.approx(math.sqrt(2) / 3, rel=1e-15)

    def test_two_groups_overflow_exit_two(self, tmp_path, capsys):
        # 2000 points in 2-D go to the k-d tree kernel, not to Prim.
        near = [f"{i % 7 / 7!r},{i % 11 / 11!r}" for i in range(1000)]
        far = [f"1e200,{i % 13 / 13!r}" for i in range(1000)]
        path = write_csv(tmp_path, "\n".join(near + far) + "\n")
        code = main(
            ["--input", str(path), "--k", "2", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == OVERFLOW_ERR

    def test_k_zero_exit_three(self, tmp_path):
        path = write_csv(tmp_path, CHAIN_CSV)
        code = main(
            ["--input", str(path), "--k", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_unknown_criterion_exit_three(self, tmp_path, capsys):
        path = write_csv(tmp_path, CHAIN_CSV)
        code = main(
            [
                "--input",
                str(path),
                "--k",
                "2",
                "--criterion",
                "median",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        capsys.readouterr()

    def test_bad_zahn_parameter_exit_three(self, tmp_path):
        path = write_csv(tmp_path, CHAIN_CSV)
        code = main(
            [
                "--input",
                str(path),
                "--k",
                "2",
                "--criterion",
                "zahn",
                "--zahn-c",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_unwritable_output_exit_four(self, tmp_path):
        input_path = write_csv(tmp_path, CHAIN_CSV)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(
            [
                "--input",
                str(input_path),
                "--k",
                "2",
                "--out",
                str(blocker / "out"),
            ]
        )
        assert code == 4

    def test_zahn_criterion_end_to_end(self, tmp_path):
        path = write_csv(tmp_path, "0\n1\n2\n12\n13\n14\n")
        out = tmp_path / "out"
        code = main(
            [
                "--input",
                str(path),
                "--k",
                "2",
                "--criterion",
                "zahn",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["removed_edges"][0]["criterion"] == "zahn"
        assert clusters["removed_edges"][0]["weight"] == 10.0

    def test_module_invocation_subprocess(self, tmp_path):
        path = write_csv(tmp_path, CHAIN_CSV)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            proc = run_module(["--input", str(path), "--k", "2", "--svg", "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
        files_a = sorted(q.name for q in out_a.iterdir())
        files_b = sorted(q.name for q in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
