"""Strip, block, and staircase structure of the tensor grids.

For a grid with headers of length i, the q-strips (q = 1..i-1) are the
maximal runs of consecutive rows or columns whose headers agree on their
first i-q-1 parts.  Longer prefixes refine shorter ones, so strips nest as
q grows; a q-block is the intersection of a horizontal and a vertical
q-strip, and blocks across all levels form a laminar family.

Every block B of height h carries a descending staircase: the cells of B
strictly below the diagonal through its top-left corner, a triangular set of
side h-1 anchored at B's lower-left corner.  The union of all staircases is
exactly the zero set of the tensor, and keeping only the staircases not
swallowed by enclosing blocks' staircases turns the union into a disjoint
cover.  A staircase is stored as its block and side; its cells, like a
decomposition's zero set, are built from the arrays only when read.

Everything is derived from one prefix-group index per axis: for each level q,
the position of the first header of the q-strip holding each header.  Strips,
blocks, strip nesting, and the zero set as an n x n mask all read off it.
"""
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .capacity import ORACLE_MAX_K, admit, grid_cost
from .compositions import Composition, p_set, q_set
from .errors import DomainError, StructureViolationError
from .zippering import Tensor, build_tensor

AXES = ("horizontal", "vertical")


def sigma(p: int, q: int) -> int:
    """C(p+q-1, q): the size of the p-th q-strip profile entry."""
    return comb(p + q - 1, q)


@dataclass(frozen=True)
class Strip:
    """A maximal run of rows or columns sharing their first i-q-1 parts."""
    axis: str
    q: int
    start: int
    stop: int  # exclusive
    prefix: Composition

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Block:
    """Intersection of a horizontal and a vertical q-strip."""
    q: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def height(self) -> int:
        return self.row_stop - self.row_start

    @property
    def width(self) -> int:
        return self.col_stop - self.col_start

    @property
    def rectangle(self) -> tuple[int, int, int, int]:
        return (self.row_start, self.row_stop, self.col_start, self.col_stop)


@dataclass(frozen=True)
class Staircase:
    """The cells of a block strictly below its top-left diagonal.

    Stored as the block and the side (height - 1); the cells follow from
    the block and are built on access.
    """
    block: Block
    side: int

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        return _cell_set(_staircase_cells(self.block))


@dataclass(frozen=True)
class _Index:
    """Headers and prefix-group index of one grid.

    starts[axis][q-1, r] is the position of the first header of the q-strip
    that holds header r, so a q-strip starts at r iff the entry equals r.
    """
    headers: dict[str, list[Composition]]
    starts: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.headers["horizontal"])


def _strip_starts(headers: list[Composition], i: int) -> np.ndarray:
    """Per level q (row q-1), each header's q-strip start position.

    A q-strip starts at header r when r = 0 or r first differs from header
    r-1 within the first i-q-1 parts.
    """
    h = np.asarray(headers, dtype=np.int64)
    first_diff = np.zeros(len(headers), dtype=np.int64)
    first_diff[1:] = (h[1:] != h[:-1]).argmax(axis=1)
    keep = np.arange(i - 2, -1, -1)[:, None]
    pos = np.arange(len(headers))
    new = (first_diff < keep) | (pos == 0)
    return np.maximum.accumulate(np.where(new, pos, 0), axis=1)


def _index(k: int, i: int) -> _Index:
    admit(f"grid ({k},{i})", grid_cost(k, i))
    headers = {"horizontal": p_set(k, i), "vertical": q_set(k, i)}
    return _Index(headers, {axis: _strip_starts(h, i)
                            for axis, h in headers.items()})


def _run_bounds(starts: np.ndarray) -> list[int]:
    """Start positions of the runs of one level, then the end position."""
    return (np.flatnonzero(starts == np.arange(len(starts))).tolist()
            + [len(starts)])


def _strips(index: _Index, q: int, axis: str) -> list[Strip]:
    headers = index.headers[axis]
    bounds = _run_bounds(index.starts[axis][q - 1])
    keep = len(headers[0]) - q - 1
    return [Strip(axis, q, a, b, headers[a][:keep])
            for a, b in zip(bounds, bounds[1:])]


def _strip_groups(index: _Index, q: int, axis: str) -> list[list[Strip]]:
    layer = _strips(index, q, axis)
    starts = index.starts[axis]
    if q == len(starts):  # the top level q = i-1
        return [layer]
    groups: dict[int, list[Strip]] = {}
    for s in layer:
        groups.setdefault(int(starts[q, s.start]), []).append(s)
    return list(groups.values())


def _blocks(index: _Index, q: int) -> list[Block]:
    rows = _run_bounds(index.starts["horizontal"][q - 1])
    cols = _run_bounds(index.starts["vertical"][q - 1])
    return [Block(q, r0, r1, c0, c1)
            for r0, r1 in zip(rows, rows[1:])
            for c0, c1 in zip(cols, cols[1:])]


def _check_level(i: int, q: int, axis: str) -> None:
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    if not 1 <= q <= i - 1:
        raise DomainError(f"strip level q = {q} out of range 1..{i - 1}")


def strips(k: int, i: int, q: int, axis: str) -> list[Strip]:
    """Maximal header runs sharing their first i-q-1 parts, in grid order."""
    _check_level(i, q, axis)
    return _strips(_index(k, i), q, axis)


def strip_groups(k: int, i: int, q: int, axis: str) -> list[list[Strip]]:
    """The q-strips of one axis grouped by their enclosing (q+1)-strip.

    At the top level q = i-1 there is no enclosing strip and all q-strips
    form one group.
    """
    _check_level(i, q, axis)
    return _strip_groups(_index(k, i), q, axis)


def blocks(k: int, i: int, q: int) -> list[Block]:
    """All q-strip intersections; they tile the grid."""
    _check_level(i, q, "horizontal")
    return _blocks(_index(k, i), q)


def _staircase_cells(b: Block) -> np.ndarray:
    """The staircase cells of b as (row, col) pairs in row-major order."""
    local = np.argwhere(np.tri(b.height, b.width, -1, dtype=bool))
    return local + (b.row_start, b.col_start)


def staircase(b: Block) -> Staircase:
    """The descending staircase of b; empty when the block has height 1."""
    return Staircase(b, b.height - 1)


def _level_mask(index: _Index, q: int) -> np.ndarray:
    """Union of the q-block staircases: cells further below their block's
    top edge than right of its left edge."""
    pos = np.arange(index.n)
    down = pos - index.starts["horizontal"][q - 1]
    right = pos - index.starts["vertical"][q - 1]
    return down[:, None] > right[None, :]


def _cell_set(cells: np.ndarray) -> frozenset[tuple[int, int]]:
    return frozenset(map(tuple, cells.tolist()))


def predicted_zeros(k: int, i: int) -> frozenset[tuple[int, int]]:
    """Union of every q-block staircase, q = 1..i-1; empty for i in {1, k}."""
    return _cell_set(np.argwhere(_cover(k, i, _index(k, i))[1]))


def _cover(k: int, i: int,
           index: _Index) -> tuple[list[Staircase], np.ndarray]:
    """The disjoint cover of the zero set, and the zero mask it covers.

    Levels run from the top down while `higher` accumulates the staircase
    masks already seen; a q-block's staircase is kept iff it has a cell
    outside `higher`.  The per-block test is an OR-reduction of the fresh
    cells over the strip runs of both axes.  A count of covering staircases
    per cell then checks that the kept ones are disjoint and cover the mask.
    """
    n = index.n
    higher = np.zeros((n, n), dtype=bool)
    kept: list[list[Block]] = []
    for q in range(i - 1, 0, -1):
        level = _level_mask(index, q)
        rows = _run_bounds(index.starts["horizontal"][q - 1])
        cols = _run_bounds(index.starts["vertical"][q - 1])
        fresh = np.logical_or.reduceat(level & ~higher, rows[:-1], axis=0)
        fresh = np.logical_or.reduceat(fresh, cols[:-1], axis=1)
        kept.append([Block(q, rows[h], rows[h + 1], cols[v], cols[v + 1])
                     for h, v in np.argwhere(fresh).tolist()])
        higher |= level

    retained = [staircase(b) for level_kept in reversed(kept)
                for b in level_kept]
    count = np.zeros((n, n), dtype=np.int32)
    for st in retained:
        b = st.block
        count[b.row_start:b.row_stop, b.col_start:b.col_stop] += np.tri(
            b.height, b.width, -1, dtype=np.int32)
    if (count > 1).any():
        raise StructureViolationError(
            f"overlapping retained staircases in grid ({k},{i})")
    if not np.array_equal(count > 0, higher):
        raise StructureViolationError(
            f"retained staircases do not cover the zero set of grid ({k},{i})")
    return retained, higher


def disjoint_staircases(k: int, i: int) -> list[Staircase]:
    """The staircases retained for the disjoint cover of the zero set.

    A staircase is discarded when it is wholly contained in the union of the
    staircases of blocks strictly containing its block.  Strips nest level
    by level, so on a q-block that union is the union of all higher levels'
    staircase masks.  The survivors are verified to be pairwise disjoint and
    to cover predicted_zeros before being returned.
    """
    return _cover(k, i, _index(k, i))[0]


def anti_transpose(t: Tensor) -> Tensor:
    """Reflect across the anti-diagonal; pairs T[k,i] with T[k,k+1-i].

    The reflected matrix is labeled with the headers of the complementary
    tensor T[k,k+1-i], which has the same side length, so applying the map
    twice restores the original tensor exactly.
    """
    flipped = t.entries[::-1, ::-1].T.copy()
    j = t.k + 1 - t.i
    return Tensor(t.k, j, p_set(t.k, j), q_set(t.k, j), flipped)


def upper_unitriangular(n: int) -> np.ndarray:
    """The matrix with ones on and above the main diagonal."""
    admit(f"{n} x {n} unitriangular matrix", n * n)
    return np.triu(np.ones((n, n), dtype=np.uint8))


def partitions_nest(starts: np.ndarray) -> bool:
    """True iff the levels of one axis tile it and nest, in O(levels * n).

    Row q-1 of `starts` gives, per position, the first position of its
    level-q run.  A level tiles the axis into runs when position 0 starts a
    run and every other entry is its own position or its predecessor's
    entry.  The levels nest when every level-(q+1) run start is also a
    level-q run start.  When both axes of a grid pass, the blocks of all
    levels form a laminar family: two blocks either lie in disjoint strips
    on some axis, or the lower one's strips sit inside the higher one's on
    both axes.
    """
    starts = np.asarray(starts)
    if starts.size == 0:
        return True
    pos = np.arange(starts.shape[1])
    run_start = starts == pos
    tiles = ((starts[:, 0] == 0).all()
             and (run_start[:, 1:] | (starts[:, 1:] == starts[:, :-1])).all())
    return bool(tiles and not (run_start[1:] & ~run_start[:-1]).any())


def _nests(index: _Index) -> bool:
    return all(partitions_nest(index.starts[axis]) for axis in AXES)


def blocks_laminar(block_list: list[Block]) -> bool:
    """True iff every pair of blocks is disjoint or nested.

    A pairwise O(B^2) oracle for partitions_nest; its B x B matrices make
    it a small-grid tool.
    """
    admit(f"laminarity of {len(block_list)} blocks", len(block_list) ** 2)
    rect = np.asarray([b.rectangle for b in block_list],
                      dtype=np.int64).reshape(-1, 4)
    rs, re, cs, ce = rect[:, 0], rect[:, 1], rect[:, 2], rect[:, 3]
    row_disjoint = (rs[:, None] >= re[None, :]) | (rs[None, :] >= re[:, None])
    col_disjoint = (cs[:, None] >= ce[None, :]) | (cs[None, :] >= ce[:, None])
    nested = ((rs[:, None] <= rs[None, :]) & (re[None, :] <= re[:, None])
              & (cs[:, None] <= cs[None, :]) & (ce[None, :] <= ce[:, None]))
    ok = row_disjoint | col_disjoint | nested | nested.T
    return bool(ok.all())


def _laminar_failure(k: int, i: int, index: _Index) -> str | None:
    """The laminarity method the (k,i) grid fails, or None: "nesting" at
    every k, then "pairwise" (`blocks_laminar`) up to ORACLE_MAX_K."""
    if not _nests(index):
        return "nesting"
    if k <= ORACLE_MAX_K and not blocks_laminar(
            [b for q in range(1, i) for b in _blocks(index, q)]):
        return "pairwise"
    return None


@dataclass
class GridDecomposition:
    """Everything the renderer and the reports need about one grid.

    The zero set is kept as its n x n mask, which follows from (k, i), so
    equality ignores it.
    """
    k: int
    i: int
    n: int
    rows: list[Composition]
    cols: list[Composition]
    strips: dict[tuple[int, str], list[Strip]]
    staircases: list[Staircase]
    zero_mask: np.ndarray = field(compare=False, repr=False)


def _decompose(k: int, i: int) -> tuple[GridDecomposition, _Index]:
    index = _index(k, i)
    retained, mask = _cover(k, i, index)
    d = GridDecomposition(
        k, i, index.n, index.headers["horizontal"], index.headers["vertical"],
        {(q, axis): _strips(index, q, axis)
         for q in range(1, i) for axis in AXES},
        retained, mask)
    return d, index


def grid_decomposition(k: int, i: int) -> GridDecomposition:
    """Full strip/block/staircase analysis of the (k,i) grid.

    Degenerate lengths decompose trivially: i = 1 has no strip levels and
    i = k only 1x1 blocks, so both yield an empty zero set.
    """
    return _decompose(k, i)[0]


def decomposition_report(k: int, i: int) -> dict:
    """JSON-ready decomposition with a conformance boolean per invariant.

    Index ranges and cells are 1-based inclusive, matching the printed
    tables; internal structures stay 0-based.  Building the decomposition
    raises StructureViolationError unless the retained staircases are
    pairwise disjoint and cover the zero mask, so those two flags are true
    whenever a report exists.  Laminarity is the `laminar` check's verdict,
    `_laminar_failure`.
    """
    d, index = _decompose(k, i)
    zeros_match = np.array_equal(d.zero_mask, build_tensor(k, i).entries == 0)
    conformance = {
        "zero_set_matches_tensor": bool(zeros_match),
        "staircases_pairwise_disjoint": True,
        "staircase_union_covers_zeros": True,
        "height_at_most_width": all(
            st.block.height <= st.block.width for st in d.staircases),
        "blocks_laminar": _laminar_failure(k, i, index) is None,
    }
    return {
        "k": k,
        "i": i,
        "n": d.n,
        "strips": [
            {"q": s.q, "axis": s.axis, "first": s.start + 1, "last": s.stop,
             "prefix": list(s.prefix)}
            for key in sorted(d.strips) for s in d.strips[key]],
        "blocks": [
            {"q": b.q, "rows": [b.row_start + 1, b.row_stop],
             "cols": [b.col_start + 1, b.col_stop]}
            for q in range(1, i) for b in _blocks(index, q)],
        "staircases": [
            {"q": st.block.q, "rows": [st.block.row_start + 1, st.block.row_stop],
             "cols": [st.block.col_start + 1, st.block.col_stop],
             "side": st.side,
             "cells": (_staircase_cells(st.block) + 1).tolist()}
            for st in d.staircases],
        "conformance": conformance,
    }
