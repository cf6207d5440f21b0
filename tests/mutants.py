"""Mutants of the package that the tests must kill, and their runner.

    python tests/mutants.py [NAME ...]

Each mutant replaces one exact text of a source file, which must occur
there exactly once, so a refactor that moves the text fails the runner
until the list follows it. KILLED lists the mutants the runner applies:
it copies the checkout once (pyproject.toml puts the checkout's own src
first on pytest's path, so a mutant must be applied in a copy, not
pointed at through PYTHONPATH), runs every selection unmutated, which
must pass, then applies one mutant at a time, runs its selection with -x
and expects it to fail. With names it runs only those.

LISTED holds the mutants that are not run, each with the reason no test
can kill it: equivalent mutants, which change no result, and steps that
cost time or memory but change no result and no count that a test sees.
Their texts are checked all the same.

pytest does not collect this file; tests/test_mutants.py runs it on one
entry, and CI runs the whole list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    select: tuple[str, ...]  # pytest arguments; empty for a listed mutant
    reason: str


EMST, METRICS, DIVISIVE, MODEL, IO, SVG = (
    f"src/emstclust/{m}.py" for m in ("emst", "metrics", "divisive", "model", "io", "svg")
)
KERNEL_WORK = ("tests/test_emst.py::TestKdTreeKernelWork",)

KILLED = [
    Mutant(
        "rms_array_low_side", METRICS,
        "top = max(float(values.max()) - center, center - float(values.min()))",
        "top = float(values.max()) - center",
        ("tests/test_metrics.py::TestOneStatisticsRule::test_largest_deviation_at_the_smallest_value",),
        "the array branch of _rms scales from the largest deviation; where the mean rounds to the"
        " maximum, a scale from the maximum alone squares a one-ulp deviation of 1e300 to inf",
    ),
    Mutant(
        "rms_list_low_side", METRICS,
        "top = max(max(values) - center, center - min(values))",
        "top = max(values) - center",
        ("tests/test_metrics.py::TestOneStatisticsRule::test_largest_deviation_at_the_smallest_value",),
        "the list branch of _rms, likewise",
    ),
    Mutant(
        "zahn_ratio_at_f", DIVISIVE,
        "return top_dev > 0.0 and w / top_dev > config.zahn_f",
        "return top_dev > 0.0 and w / top_dev >= config.zahn_f",
        ("tests/test_divisive.py::TestZahnInconsistent::test_ratio_exactly_f_is_consistent",),
        "zahn clause 3 asks for a ratio above f, not at it",
    ),
    Mutant(
        "collapse_min_lowered", EMST,
        "_COLLAPSE_MIN = 2.0**-450",
        "_COLLAPSE_MIN = 2.0**-500",
        ("tests/test_emst.py::TestDistinctRows::test_no_collapse_below_the_collapse_minimum",),
        "below 2^-450 scaled, distinct rows can compute d^2 = 0, and collapsing their duplicates"
        " changes the tree",
    ),
    Mutant(
        "no_upper_bound_tightening", EMST,
        "        np.minimum.at(tau, q[keep], ub[keep])\n",
        "",
        KERNEL_WORK,
        "_descend lowers tau to the pair upper bounds; without it leaf pairs rose x3.3 (tinyblobs"
        " points) to x30.6 (lattice)",
    ),
    Mutant(
        "no_lower_bound_order", EMST,
        "order = np.lexsort((q != r, lb))",
        "order = np.arange(len(q))",
        KERNEL_WORK,
        "leaf pairs in ascending lower bound let near pairs tighten the bests first; in traversal"
        " order rows rose x3.1 on the blobs points and x6.4 on the lattice",
    ),
    Mutant(
        "no_self_pair_first", EMST,
        "order = np.lexsort((q != r, lb))",
        "order = np.lexsort((lb,))",
        KERNEL_WORK,
        "a leaf's pair with itself goes first among equal bounds; without it rows rose x1.91 on"
        " the lattice",
    ),
    Mutant(
        "no_seed_from_last_round", EMST,
        "best_d2[comp[self.best_to] == comp] = np.inf",
        "best_d2[:] = np.inf",
        KERNEL_WORK,
        "each round starts from the last round's bests that still leave their component; without"
        " it leaf pairs rose x1.74 on the blobs points and x2.61 on the 3-D points",
    ),
    Mutant(
        "no_parent_tau", EMST,
        "            np.minimum(tau[a : 2 * a + 1], np.repeat(tau[(a - 1) // 2 : a], 2), out=tau[a : 2 * a + 1])\n",
        "",
        KERNEL_WORK,
        "a node's tau is at most its parent's; without the copy _descend pairs rose x1.08 on the"
        " tinyblobs points and x1.57 on the 3-D points",
    ),
    Mutant(
        "no_leaf_component_skip", EMST,
        "        keep &= self.leaf_comp[r, None] != cp\n",
        "",
        KERNEL_WORK,
        "_screen skips a point whose column leaf lies in its component; without it rows rose"
        " x1.11 on the blobs points",
    ),
    Mutant(
        "no_final_tau_filter", EMST,
        "keep = lb <= tau[q]",
        "keep = lb == lb",
        KERNEL_WORK,
        "leaf pairs are filtered once more against the final tau; without it leaf pairs rose"
        " x1.10 on the tinyblobs points",
    ),
    Mutant(
        "no_tie_prune", EMST,
        "            keep &= ~tie | (low <= self.comp_low[cp])\n",
        "",
        KERNEL_WORK,
        "at a component's best only a smaller min endpoint comes first (comp_low); without it"
        " rows rose x1.17 on the lattice and x10.9 on the duplicates",
    ),
    Mutant(
        "padding_rows_tested", EMST,
        "        keep[:, -1] &= tree.full[q]  # padding repeats a member\n",
        "",
        KERNEL_WORK,
        "padding repeats a leaf's last member; without the skip those rows are taken twice, and"
        " rows rose x1.023 to x1.029 on the five inputs",
    ),
    Mutant(
        "half_size_row_batches", EMST,
        "per = max(width, _BLOCK_ELEMS // (width * dim))",
        "per = max(width, _BLOCK_ELEMS // (2 * width * dim))",
        KERNEL_WORK,
        "half-size batches of rows nearly double the _rows calls (x1.9 on the blobs points)",
    ),
    Mutant(
        "contracted_ends_not_repointed", METRICS,
        "u, v, w = group[a[kept]], group[b[kept]], w[kept]",
        "u, v, w = u[kept], v[kept], w[kept]",
        ("tests/test_metrics.py::TestZeroWeightContraction",),
        "_center re-points the positive edges at each zero-weight group's lowest member",
    ),
    Mutant(
        "groups_by_highest_member", METRICS,
        "lowest = _lowest_members(len(ids), a[zero], b[zero])",
        "lowest = (len(ids) - 1 - _lowest_members(len(ids), len(ids) - 1 - a[zero], len(ids) - 1 - b[zero]))[::-1]",
        ("tests/test_metrics.py::TestZeroWeightContraction",),
        "the center is the lowest member at the smallest eccentricity, so a group is named by its"
        " lowest member",
    ),
    Mutant(
        "zahn_lists_sized_by_edge_count", DIVISIVE,
        "adj = _neighbors(forest.vertex_count, us, vs, ws)",
        "adj = _neighbors(len(ws), us, vs, ws)",
        ("tests/test_divisive.py::TestSelectEdgeZahn::test_vertex_ids_beyond_the_edge_count",),
        "a forest may have more vertices than edges plus one",
    ),
    Mutant(
        "side_walk_runs_to_depth", DIVISIVE,
        "while frontier and depth:",
        "while depth:",
        ("tests/test_divisive.py::TestZahnWork::test_depth_past_the_tree_is_the_whole_side",),
        "the side walk ends where the side does; turning once per unit of depth took 8.1 s per"
        " side at depth 10**8 (one 2-vCPU host)",
    ),
    Mutant(
        "zahn_scan_tests_each_edge_twice", DIVISIVE,
        "for i, e in enumerate(live):",
        "for i, e in enumerate(live * 2):",
        ("tests/test_divisive.py::TestZahnWork::test_scan_tests_each_live_edge_at_most_once_per_removal",),
        "each removal tests every live edge at most once; a rescan changes no cut, only the count",
    ),
    Mutant(
        "zahn_no_range_check", DIVISIVE,
        "if e.u >= tree.vertex_count or (e.v, e.weight) not in adj[e.u]:",
        "if (e.v, e.weight) not in adj[e.u]:",
        ("tests/test_divisive.py::TestZahnInconsistent::test_endpoint_past_the_vertex_count_rejected",),
        "an endpoint past the vertex count is refused with the InputError, not an IndexError",
    ),
    Mutant(
        "edge_stats_numpy_copy", METRICS,
        "return cls(mean=mean, std=_rms(weights, mean))",
        "return cls(mean=mean, std=_rms(np.array(weights), mean))",
        ("tests/test_metrics.py::TestOneStatisticsRule::test_edge_stats_of_an_array_makes_no_copy",),
        "EdgeStats.of streams an array's deviations and makes no copy of it",
    ),
    Mutant(
        "tree_edges_write_caller_array", MODEL,
        "lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)",
        "lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)",
        ("tests/test_model.py::TestCallerArrays",),
        "an int64 array passes the id check as it is, so the constructors must not write into it",
    ),
    Mutant(
        "center_not_copied", DIVISIVE,
        'center = _whole_ids(self.center, "center ids").copy()',
        'center = _whole_ids(self.center, "center ids")',
        ("tests/test_model.py::TestCallerArrays",),
        "ClusteringResult freezes its own copy of the caller's center array",
    ),
    Mutant(
        "empty_record_is_data", IO,
        "clean = values and all(map(math.isfinite, values))",
        "clean = all(map(math.isfinite, values))",
        ("tests/test_io.py::TestReadPointsCsv::test_header_after_leading_blank_lines",),
        "an empty record is a blank row, not a data row of width 0",
    ),
    Mutant(
        "header_only_when_all_cells_refused", IO,
        "if None in values and width is None and not header_seen:",
        "if all(x is None for x in values) and width is None and not header_seen:",
        ("tests/test_io.py::TestReadPointsCsv::test_header_with_a_numeric_cell_skipped",),
        "the first non-blank row is the header when any one of its cells is not a number",
    ),
    Mutant(
        "refusal_kinds_swapped", IO,
        'kind = "non-numeric" if value is None else "non-finite"',
        'kind = "non-finite" if value is None else "non-numeric"',
        ("tests/test_io.py::TestCli::test_bad_row_names_file_and_line_exit_two",),
        "a cell float() refuses is non-numeric, and nan or inf is non-finite",
    ),
    Mutant(
        "csv_not_strict", IO,
        "csv.reader(handle, strict=True)",
        "csv.reader(handle, strict=False)",
        (
            "tests/test_io.py::TestReadPointsCsv::test_text_after_a_closing_quote_refused",
            "tests/test_io.py::TestReadPointsCsv::test_unterminated_quote_refused_in_one_short_line",
        ),
        "outside strict mode csv reads \"1\"2 as 12, and an open quote takes the rest of the file"
        " as one cell",
    ),
    Mutant(
        "refused_cell_in_full", IO,
        "{shown!r}",
        "{cell!r}",
        ("tests/test_io.py::TestReadPointsCsv::test_refused_cell_shortened",),
        "a refused cell is shown shortened, so a long one gives a short message",
    ),
    Mutant(
        "refused_cell_repr_cut", IO,
        "{shown!r}",
        "{__import__('reprlib').repr(cell)}",
        ("tests/test_io.py::TestReadPointsCsv::test_refused_cell_shortened",),
        "the cell is cut before its repr is taken; cutting the repr splits escapes and cuts a"
        " cell of twenty \\x01",
    ),
    Mutant(
        "member_list_in_one_piece", IO,
        "        for _ in range(1, size):\n            yield \",\\n        \" + next(ids)\n",
        "        yield \"\".join(\",\\n        \" + next(ids) for _ in range(1, size))\n",
        ("tests/test_io.py::TestBoundedMemory::test_writer_peak_is_a_fraction_of_its_file",),
        "clusters.json takes a piece per member id; one cluster's member list joined in one"
        " piece held 7 times the file at k = 1",
    ),
    Mutant(
        "joiner_holds_a_batch_across_yield", SVG,
        "        yield lead + sep.join(chain((first,), islice(pieces, _CHUNK - 1)))\n",
        "        batch = [first, *islice(pieces, _CHUNK - 1)]\n        yield lead + sep.join(batch)\n",
        ("tests/test_io.py::TestBoundedMemory::test_writer_peak_is_a_fraction_of_its_file",),
        "_joined lets join drop each batch; a batch held across the yield is still there while"
        " the next is taken, and assignments.csv peaked at 0.85 of its file",
    ),
    Mutant(
        "coordinates_copied_from_the_buffer", IO,
        ".reshape(-1, width)",
        ".reshape(-1, width).copy()",
        ("tests/test_io.py::TestBoundedMemory::test_reader_peak_is_a_small_multiple_of_the_array",),
        "the reader's buffer becomes the coordinate array without a copy, so the read peaks near"
        " one array",
    ),
]

LISTED = [
    Mutant(
        "prim_tie_le", EMST,
        "tie &= cur < bf",
        "tie &= cur <= bf",
        (),
        "equivalent: before this step's update no source equals cur, the vertex that just joined",
    ),
    Mutant(
        "rows_tie_le", EMST,
        "(perm[to] < perm[best_to[a]])",
        "(perm[to] <= perm[best_to[a]])",
        (),
        "equivalent: at an equal target the same pair and d^2 are written again",
    ),
    Mutant(
        "spread_one_path", METRICS,
        "if n <= _CHUNK:",
        "if n <= 0:",
        (),
        "equivalent: both paths of _rms_spread give the same float by design",
    ),
    Mutant(
        "center_ids_ge", METRICS,
        "ids = ids[lowest == np.arange(len(ids))]",
        "ids = ids[lowest >= np.arange(len(ids))]",
        (),
        "equivalent: a vertex's lowest member is never above it",
    ),
    Mutant(
        "control", EMST,
        "_LEAF_SIZE = 32  # most points in one k-d tree leaf",
        "_LEAF_SIZE = 32  # the most points in one k-d tree leaf",
        (),
        "equivalent: changes a comment only",
    ),
    Mutant(
        "no_pair_rescreen", EMST,
        "        ok = pair_lb <= self.comp_best[self.pad_comp[q]].max(axis=1)\n        q, r = q[ok], r[ok]\n",
        "",
        (),
        "time only: _screen re-screens each pair against the bests found since _search; without"
        " it the kernel CPU on 100k 2-D blobs went from 1.11-1.18 to 1.31-1.33 s (one 2-vCPU host)",
    ),
    Mutant(
        "no_prim_bufsize", EMST,
        "bufsize = np.setbufsize(_PRIM_BUFSIZE)",
        "bufsize = np.getbufsize()",
        (),
        "time only: with numpy's default ufunc buffers dense Prim took 54 instead of 45 ms at"
        " d = 8 and 274 instead of 154 ms at d = 64 (one 2-vCPU host)",
    ),
    Mutant(
        "no_prim_buffers", EMST,
        "            diff = diff_buf[: len(pts) * live].reshape(-1, live)\n"
        "            _sq_dist(np.subtract(pts[:, :live], here, out=diff), out=d2)\n"
        "            np.less(d2, bd, out=upd)\n"
        "            np.equal(d2, bd, out=tie)\n",
        "            d2 = _sq_dist(pts[:, :live] - here)\n"
        "            upd = d2 < bd\n"
        "            tie = d2 == bd\n",
        (),
        "memory only: without Prim's preallocated arrays the CLI's peak RSS rose 0.3-0.6 MB on"
        " grid3d_dup_k1 and uniform8d_k40_zahn over 10 paired runs (one 2-vCPU host)",
    ),
    Mutant(
        "no_rank_array", EMST,
        "        rank = np.empty((dim, n), dtype=np.int64)\n"
        "        for k in range(dim):\n"
        "            rank[k, np.lexsort((planes[k],))] = np.arange(n)\n"
        "        perm = np.arange(n)\n"
        "        for level in range(depth + 1):\n"
        "            nodes = slice((1 << level) - 1, (2 << level) - 1)\n"
        "            starts = (np.arange(1 << level) * n) >> level\n"
        "            x = np.take(planes, perm, axis=1)\n"
        "            box[:, 0, nodes] = np.minimum.reduceat(x, starts, axis=1)\n"
        "            box[:, 1, nodes] = np.maximum.reduceat(x, starts, axis=1)\n"
        "            del x\n"
        "            node = np.repeat(np.arange(1 << level), np.diff(starts, append=n))\n"
        "            if level < depth:\n"
        "                key = rank[np.argmax(box[:, 1, nodes] - box[:, 0, nodes], axis=0)[node], perm]\n"
        "            else:\n"
        "                key = perm\n"
        "            perm = perm[np.lexsort((node * n + key,))]\n"
        "        del rank\n",
        "        perm = np.arange(n)\n"
        "        for level in range(depth + 1):\n"
        "            nodes = slice((1 << level) - 1, (2 << level) - 1)\n"
        "            starts = (np.arange(1 << level) * n) >> level\n"
        "            x = np.take(planes, perm, axis=1)\n"
        "            box[:, 0, nodes] = np.minimum.reduceat(x, starts, axis=1)\n"
        "            box[:, 1, nodes] = np.maximum.reduceat(x, starts, axis=1)\n"
        "            del x\n"
        "            node = np.repeat(np.arange(1 << level), np.diff(starts, append=n))\n"
        "            axis = np.argmax(box[:, 1, nodes] - box[:, 0, nodes], axis=0)[node]\n"
        "            value = planes[axis, perm] if level < depth else perm\n"
        "            perm = perm[np.lexsort((perm, value, node))]\n",
        (),
        "time only: sorting each node's members by (value, index) in place of one rank per axis"
        " made the tree build at 100k points take 296 instead of 99 ms (one 2-vCPU host)",
    ),
]

MUTANTS = KILLED + LISTED


def unmatched(mutants: list[Mutant]) -> list[str]:
    """The names of the mutants whose old text is not exactly once in its file."""
    return [m.name for m in mutants if (ROOT / m.path).read_text().count(m.old) != 1]


def _pytest(checkout: Path, select: tuple[str, ...]) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a cached module could hide a mutant
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *select]
    run = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    return run.returncode


def run(mutants: list[Mutant]) -> dict[str, str]:
    """Each mutant's outcome in one copy of the checkout: killed (its
    selection fails), survived (it passes) or error (pytest could not run
    the selection). Raises RuntimeError when a selection fails unmutated."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work")
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=ignore)
        selections = tuple(dict.fromkeys(s for m in mutants for s in m.select))
        if _pytest(checkout, selections) != 0:
            raise RuntimeError("the selections fail without a mutant")
        for m in mutants:
            target = checkout / m.path
            source = target.read_text()
            target.write_text(source.replace(m.old, m.new))
            try:
                code = _pytest(checkout, m.select)
            finally:
                target.write_text(source)
            outcomes[m.name] = {0: "survived", 1: "killed"}.get(code, "error")
    return outcomes


def main(names: list[str]) -> int:
    bad = unmatched(MUTANTS)
    if bad:
        print(f"old text not found exactly once: {', '.join(bad)}")
        return 1
    by_name = {m.name: m for m in KILLED}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"not a mutant to run: {', '.join(unknown)}")
        return 1
    chosen = [by_name[name] for name in names] or KILLED
    start = time.perf_counter()
    outcomes = run(chosen)
    for name, outcome in outcomes.items():
        print(f"{outcome:8s} {name}")
    if not names:
        for m in LISTED:
            print(f"{'listed':8s} {m.name}: {m.reason}")
    failed = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(failed)} of {len(outcomes)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
