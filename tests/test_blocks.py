"""Strips, blocks, staircases, zero sets, and the anti-transpose symmetry."""
import importlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from ziptensor.blocks import (Block, _index, _nests, anti_transpose, blocks,
                              blocks_laminar, decomposition_report,
                              disjoint_staircases, grid_decomposition,
                              partitions_nest, predicted_zeros, sigma,
                              staircase, strip_groups, strips,
                              upper_unitriangular)
from ziptensor.capacity import ORACLE_MAX_K
from ziptensor.compositions import p_set, q_set
from ziptensor.errors import DomainError
from ziptensor.verify import run_check

# the module; the package attribute `ziptensor.blocks` is the function
blocks_module = importlib.import_module("ziptensor.blocks")
from ziptensor.zippering import build_tensor


@pytest.mark.parametrize("p,q,expected", [
    (1, 1, 1), (5, 1, 5), (5, 2, 15), (3, 3, 10), (1, 4, 1),
])
def test_sigma(p, q, expected):
    assert sigma(p, q) == expected


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 8) for q in range(1, 8)])
def test_sigma_hockey_stick(p, q):
    assert sum(sigma(t, q) for t in range(1, p + 1)) == sigma(p, q + 1)


@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
def test_strip_size_profile_84(axis):
    # widths 1;1,2;1,2,3;1,2,3,4;1,2,3,4,5 then 1,3,6,10,15 then 35
    assert [s.size for s in strips(8, 4, 1, axis)] == [
        1, 1, 2, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4, 5]
    assert [s.size for s in strips(8, 4, 2, axis)] == [1, 3, 6, 10, 15]
    assert [s.size for s in strips(8, 4, 3, axis)] == [35]


def test_strip_prefixes_84():
    assert [s.prefix for s in strips(8, 4, 2, "horizontal")] == [
        (6,), (5,), (4,), (3,), (2,)]
    assert [s.prefix for s in strips(8, 4, 2, "vertical")] == [
        (5,), (4,), (3,), (2,), (1,)]
    assert strips(8, 4, 3, "vertical")[0].prefix == ()


def test_strips_cover_in_order():
    for q in (1, 2, 3):
        layer = strips(8, 4, q, "horizontal")
        assert layer[0].start == 0 and layer[-1].stop == 35
        assert all(a.stop == b.start for a, b in zip(layer, layer[1:]))


@pytest.mark.parametrize("q", [0, 4, -1])
def test_strips_rejects_bad_level(q):
    with pytest.raises(DomainError):
        strips(8, 4, q, "horizontal")


def test_strips_rejects_bad_axis():
    with pytest.raises(DomainError):
        strips(8, 4, 1, "diagonal")


def test_block_counts():
    assert len(blocks(5, 3, 1)) == 9
    assert len(blocks(8, 4, 2)) == 25
    whole = blocks(8, 4, 3)
    assert len(whole) == 1
    assert (whole[0].height, whole[0].width) == (35, 35)


def test_staircase_sides_on_84():
    rows, cols = p_set(8, 4), q_set(8, 4)
    by_corner = {}
    for q in (1, 2, 3):
        for b in blocks(8, 4, q):
            key = (rows[b.row_stop - 1], cols[b.col_start])
            by_corner.setdefault(key, []).append(staircase(b))
    two = [s for s in by_corner[((5, 1, 1, 2), (3, 3, 1, 1))] if s.side == 2]
    assert len(two[0].cells) == 3
    five = [s for s in by_corner[((4, 1, 1, 3), (2, 4, 1, 1))] if s.side == 5]
    assert len(five[0].cells) == 15
    whole = staircase(blocks(8, 4, 3)[0])
    assert whole.side == 34 and len(whole.cells) == 34 * 35 // 2


def test_staircase_empty_for_flat_block():
    st = staircase(Block(1, 3, 4, 0, 6))
    assert st.side == 0 and st.cells == frozenset()


def test_predicted_zeros_32():
    assert predicted_zeros(3, 2) == {(1, 0)}


def test_predicted_zeros_53():
    lower = {(r, c) for r in range(6) for c in range(6) if r > c}
    assert predicted_zeros(5, 3) == lower | {(2, 3)}


@pytest.mark.parametrize("k,i", [(5, 3), (6, 3), (6, 4), (8, 4)])
def test_predicted_zeros_match_golden(k, i, golden):
    grid = golden(k, i).split()
    actual = {(r, c) for r, row in enumerate(grid)
              for c, ch in enumerate(row) if ch == "0"}
    assert predicted_zeros(k, i) == actual


@pytest.mark.parametrize("k", range(3, 9))
def test_predicted_zeros_match_tensor(k):
    for i in range(2, k):
        entries = build_tensor(k, i).entries
        actual = {(int(r), int(c)) for r, c in zip(*np.nonzero(entries == 0))}
        assert predicted_zeros(k, i) == actual


def test_disjoint_staircases_53():
    sides = sorted(s.side for s in disjoint_staircases(5, 3))
    assert sides == [1, 5]
    small = [s for s in disjoint_staircases(5, 3) if s.side == 1][0]
    assert small.cells == {(2, 3)}
    assert (small.block.row_start, small.block.row_stop) == (1, 3)
    assert (small.block.col_start, small.block.col_stop) == (3, 6)


def test_disjoint_staircases_32():
    only, = disjoint_staircases(3, 2)
    assert only.side == 1 and only.cells == {(1, 0)}


# Retained staircase sides of the 35x35 grid, keyed by the headers of each
# block's lower-left corner (bottom row, leftmost column).
STAIRS_84 = {
    ("5112", "3311"): 2, ("5112", "3131"): 1, ("5112", "2411"): 2,
    ("5112", "2231"): 1, ("5112", "2141"): 1, ("5112", "1511"): 2,
    ("5112", "1331"): 1, ("5112", "1241"): 1, ("5112", "1151"): 1,
    ("4212", "3131"): 1, ("4212", "2231"): 1, ("4212", "2141"): 1,
    ("4212", "1331"): 1, ("4212", "1241"): 1, ("4212", "1151"): 1,
    ("4113", "2411"): 5, ("4113", "2141"): 2, ("4113", "1511"): 5,
    ("4113", "1241"): 2, ("4113", "1151"): 2,
    ("3312", "2231"): 1, ("3312", "2141"): 1, ("3312", "1331"): 1,
    ("3312", "1241"): 1, ("3312", "1151"): 1,
    ("3213", "2141"): 2, ("3213", "1241"): 2, ("3213", "1151"): 2,
    ("3114", "1511"): 9, ("3114", "1151"): 3,
    ("2412", "1331"): 1, ("2412", "1241"): 1, ("2412", "1151"): 1,
    ("2313", "1241"): 2, ("2313", "1151"): 2,
    ("2214", "1151"): 3,
    ("2115", "5111"): 34,
}


def test_disjoint_staircases_84_full_census():
    rows, cols = p_set(8, 4), q_set(8, 4)

    def hdr(c):
        return "".join(map(str, c))

    found = {(hdr(rows[s.block.row_stop - 1]), hdr(cols[s.block.col_start])):
             s.side for s in disjoint_staircases(8, 4)}
    assert found == STAIRS_84


@pytest.mark.parametrize("k", range(3, 9))
def test_disjoint_cover_properties(k):
    for i in range(2, k):
        retained = disjoint_staircases(k, i)
        union: set = set()
        for s in retained:
            assert not (union & s.cells)
            assert s.block.height <= s.block.width
            union |= s.cells
        assert union == predicted_zeros(k, i)


@pytest.mark.parametrize("k,i,partner", [(6, 3, 4), (5, 2, 4), (7, 3, 5)])
def test_anti_transpose_pairs(k, i, partner):
    assert anti_transpose(build_tensor(k, i)) == build_tensor(k, partner)


def test_anti_transpose_entry_rule():
    t = build_tensor(6, 3)
    image = anti_transpose(t)
    n = t.n
    for p in range(n):
        for q in range(n):
            assert image.entries[p, q] == t.entries[n - 1 - q, n - 1 - p]


def test_anti_transpose_zero_pairing_63():
    t3, t4 = build_tensor(6, 3), build_tensor(6, 4)
    # 1-based (3,4) pairs with (11-4, 11-3) = (7,8)
    assert t3.entries[2, 3] == 0 and t4.entries[6, 7] == 0


@pytest.mark.parametrize("k,i", [(3, 2), (5, 3), (7, 4)])
def test_self_anti_transpose_at_center(k, i):
    t = build_tensor(k, i)
    assert anti_transpose(t) == t


@pytest.mark.parametrize("k", range(2, 9))
def test_anti_transpose_involution(k):
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        assert anti_transpose(anti_transpose(t)) == t


def test_upper_unitriangular():
    assert np.array_equal(upper_unitriangular(2), [[1, 1], [0, 1]])
    assert np.array_equal(upper_unitriangular(4), build_tensor(5, 2).entries)
    assert np.array_equal(upper_unitriangular(1), [[1]])


@pytest.mark.parametrize("k,i", [(5, 3), (8, 4), (7, 5)])
def test_block_family_is_laminar(k, i):
    family = [b for q in range(1, i) for b in blocks(k, i, q)]
    assert blocks_laminar(family)


def test_laminar_negative_control():
    crossing = [Block(1, 0, 2, 0, 2), Block(1, 1, 3, 1, 3)]
    assert not blocks_laminar(crossing)
    nested = [Block(2, 0, 4, 0, 4), Block(1, 1, 3, 1, 3), Block(1, 3, 4, 0, 1)]
    assert blocks_laminar(nested)


def test_grid_decomposition_fields():
    d = grid_decomposition(5, 3)
    assert (d.k, d.i, d.n) == (5, 3, 6)
    assert d.rows == p_set(5, 3) and d.cols == q_set(5, 3)
    assert set(d.strips) == {(1, "horizontal"), (1, "vertical"),
                             (2, "horizontal"), (2, "vertical")}
    assert np.array_equal(d.zero_mask, build_tensor(5, 3).entries == 0)
    assert len(d.staircases) == 2


def _eager_cells(b):
    """The frozenset a Staircase held before its cells became on-demand."""
    local = np.argwhere(np.tri(b.height, b.width, -1, dtype=bool))
    return frozenset(map(tuple, (local + (b.row_start, b.col_start)).tolist()))


@pytest.mark.parametrize("k", range(2, 9))
def test_on_demand_cells_match_eager_construction(k):
    for i in range(1, k + 1):
        d = grid_decomposition(k, i)
        for st in d.staircases:
            assert st.cells == _eager_cells(st.block)
            assert st.side == st.block.height - 1
        assert np.array_equal(d.zero_mask, build_tensor(k, i).entries == 0)
        assert d == grid_decomposition(k, i)


def test_grid_decomposition_degenerate():
    d = grid_decomposition(5, 1)
    assert d.n == 1 and not d.zero_mask.any() and d.staircases == []
    d = grid_decomposition(4, 4)
    assert not d.zero_mask.any()


@pytest.mark.parametrize("k,i", [(5, 3), (8, 4)])
def test_decomposition_report_conformance(k, i):
    report = decomposition_report(k, i)
    assert report["k"] == k and report["i"] == i
    assert all(report["conformance"].values())
    n = comb(k - 1, i - 1)
    assert report["n"] == n
    for s in report["strips"]:
        assert 1 <= s["first"] <= s["last"] <= n


def test_decomposition_report_cells_are_one_based():
    report = decomposition_report(3, 2)
    assert report["staircases"] == [
        {"q": 1, "rows": [1, 2], "cols": [1, 2], "side": 1, "cells": [[2, 1]]},
    ]


@pytest.mark.parametrize("k", range(3, 9))
def test_nesting_check_agrees_with_pairwise_oracle(k):
    for i in range(2, k + 1):
        family = [b for q in range(1, i) for b in blocks(k, i, q)]
        assert _nests(_index(k, i)) is blocks_laminar(family) is True


def _blocks_from_starts(rows, cols):
    """Every level's run products, for hand-built per-axis start arrays."""
    def runs(level):
        bounds = [r for r, s in enumerate(level) if s == r] + [len(level)]
        return list(zip(bounds, bounds[1:]))
    return [Block(q, r0, r1, c0, c1)
            for q, (rl, cl) in enumerate(zip(rows, cols), start=1)
            for r0, r1 in runs(rl) for c0, c1 in runs(cl)]


def test_nesting_check_negative_control():
    nested = [[0, 1, 1, 3], [0, 0, 0, 3]]   # runs {0} {1,2} {3} in {0,1,2} {3}
    crossing = [[0, 1, 1, 3], [0, 0, 2, 2]]  # level-2 run {2,3} splits {1,2}
    assert partitions_nest(np.asarray(nested))
    assert not partitions_nest(np.asarray(crossing))
    assert blocks_laminar(_blocks_from_starts(nested, nested))
    assert not blocks_laminar(_blocks_from_starts(crossing, crossing))
    # a level that does not tile: position 2 points at a non-start
    assert not partitions_nest(np.asarray([[0, 0, 1, 3]]))
    assert not partitions_nest(np.asarray([[1, 1, 2, 3]]))


def test_strip_groups_follow_enclosing_strips():
    groups = strip_groups(8, 4, 1, "horizontal")
    assert [[s.size for s in g] for g in groups] == [
        [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5]]
    outer = strips(8, 4, 2, "horizontal")
    assert [(g[0].start, g[-1].stop) for g in groups] == [
        (s.start, s.stop) for s in outer]
    assert strip_groups(8, 4, 3, "vertical") == [strips(8, 4, 3, "vertical")]


# The set-based structure code the array index replaced, kept as an oracle:
# strips by scanning header prefixes, staircases as cell sets, and the cover
# by testing each cell against every enclosing block's diagonal.
def _scan_strips(headers, i, q):
    keep = i - q - 1
    out, start = [], 0
    while start < len(headers):
        stop = start
        while stop < len(headers) and \
                headers[stop][:keep] == headers[start][:keep]:
            stop += 1
        out.append((start, stop))
        start = stop
    return out


def _scan_blocks(k, i, q):
    return [Block(q, r0, r1, c0, c1)
            for r0, r1 in _scan_strips(p_set(k, i), i, q)
            for c0, c1 in _scan_strips(q_set(k, i), i, q)]


def _cells(b):
    return {(r, c) for r in range(b.row_start, b.row_stop)
            for c in range(b.col_start, b.col_stop)
            if r - b.row_start > c - b.col_start}


def _contains(a, b):
    """True iff b's cell rectangle lies strictly inside a's."""
    return (a.row_start <= b.row_start and b.row_stop <= a.row_stop
            and a.col_start <= b.col_start and b.col_stop <= a.col_stop
            and a.rectangle != b.rectangle)


def _set_predicted_zeros(k, i):
    return {cell for q in range(1, i) for b in _scan_blocks(k, i, q)
            for cell in _cells(b)}


def _set_disjoint_staircases(k, i):
    levels = {q: _scan_blocks(k, i, q) for q in range(1, i)}
    retained = []
    for q in range(1, i):
        for b in levels[q]:
            cells = _cells(b)
            enclosing = [a for higher in range(q + 1, i) for a in levels[higher]
                         if _contains(a, b)]
            if cells and not all(
                    any(r - a.row_start > c - a.col_start for a in enclosing)
                    for r, c in cells):
                retained.append((b, cells))
    return retained


@pytest.mark.parametrize("k", range(3, 9))
def test_mask_structure_matches_set_oracle(k):
    for i in range(1, k + 1):
        zeros = _set_predicted_zeros(k, i)
        n = comb(k - 1, i - 1)
        expected = np.zeros((n, n), dtype=bool)
        for r, c in zeros:
            expected[r, c] = True
        assert predicted_zeros(k, i) == zeros
        assert np.array_equal(grid_decomposition(k, i).zero_mask, expected)
        assert [(s.block, s.cells, s.side) for s in disjoint_staircases(k, i)] \
            == [(b, cells, b.height - 1)
                for b, cells in _set_disjoint_staircases(k, i)]


def test_decomposition_report_11_6_memory_is_bounded():
    tracemalloc.start()
    try:
        report = decomposition_report(11, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v is True for v in report["conformance"].values())
    assert peak < 64 * 2 ** 20


def _laminar_verdicts(k, i):
    """The laminar check's counterexample at max_k = k and the report's
    blocks_laminar flag of the (k,i) grid."""
    return (run_check("laminar", k)["counterexample"],
            decomposition_report(k, i)["conformance"]["blocks_laminar"])


def test_a_failed_nesting_is_the_laminar_verdict(monkeypatch):
    monkeypatch.setattr(blocks_module, "partitions_nest", lambda starts: False)
    assert _laminar_verdicts(5, 3) == (
        {"k": 3, "i": 2, "method": "nesting"}, False)


def test_a_failed_pairwise_oracle_is_the_laminar_verdict(monkeypatch):
    monkeypatch.setattr(blocks_module, "blocks_laminar", lambda family: False)
    assert _laminar_verdicts(ORACLE_MAX_K, 4) == (
        {"k": 3, "i": 2, "method": "pairwise"}, False)


def test_report_runs_no_pairwise_oracle_past_its_bound(monkeypatch):
    monkeypatch.setattr(blocks_module, "blocks_laminar", lambda family:
                        pytest.fail("pairwise oracle called"))
    report = decomposition_report(ORACLE_MAX_K + 1, 5)
    assert report["conformance"]["blocks_laminar"] is True


def test_the_empty_block_family_is_laminar():
    assert blocks_laminar([]) is True
    # T[k,1] is 1 x 1 and has no blocks
    for k in range(2, ORACLE_MAX_K + 1):
        report = decomposition_report(k, 1)
        assert report["conformance"]["blocks_laminar"] is True
