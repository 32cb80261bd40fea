"""Ordered rooted plane trees and their word codes.

A tree word (0 followed by a balanced Dyck word) codes a k-edge plane tree:
after the leading 0 seats the root, each 0 descends to a newly created
rightmost child and each 1 ascends to the parent.  Trees are stored as
preorder child-count sequences; their canonical serialization is the
balanced-parentheses word of length 2k.

One parser, `_parse`, reads a walk spelled in any two step symbols: `decode`
gives it the tail of a tree word as 0/1, `OrderedTree.from_parens` a
parenthesis word.  One walk, `_walk`, checks child counts and turns them into
each vertex's parent and the ascents that follow it: `OrderedTree` checks its
counts with it, `to_parens` and `encode` spell it, `to_dot` draws its edges.
Parsed counts are trees, so `decode` and `from_parens` skip the constructor's
walk (`OrderedTree._trusted`).

`decode`, `encode` and `OrderedTree` handle one tree.  Many trees at once go
through the module-private array kernel: `_child_count_rows` maps 0/1
tree-word rows to rows of preorder child counts (Lukasiewicz words, Flajolet
and Sedgewick, *Analytic Combinatorics*, 2009, I.5) from the height profile,
and `_tree_word_rows` is its exact inverse, which checks the Lukasiewicz
condition of every row on one prefix scan, then closes every subtree in one
scan of the columns.  Both prefix scans, the heights and the Lukasiewicz
walk, run column by column in place (`_prefix_sums`), one vector add per
column.  `_tree_word_batches` yields all k-edge tree words as 0/1 rows in
batches of at most `_CELLS_PER_BATCH`; `tree_words`, the `trees` command and
the `roundtrip` check read them.  Every batch passes `_tree_rows`, the
package's one array tree-word test (the prefix-height Dyck condition), which
the `dihedral` check also runs on unpacked codes (`dihedral._tree_codes`).
"""
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .capacity import admit, middle_cost
from .compositions import _check_edges, _check_range
from .errors import DomainError, ParseError, StructureViolationError
from .zippering import (_entries, _words, _zipper_array,
                        _zipper_unit_cells, build_tensor, check_middle_word)
# tests/test_acceptance.py imports is_tree_word from this module
from .zippering import is_tree_word  # noqa: F401


@dataclass(frozen=True)
class OrderedTree:
    """Plane tree as preorder child counts; children keep left-to-right order."""
    child_counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "child_counts", tuple(self.child_counts))
        _walk(self.child_counts)  # raises unless they are a tree's

    @classmethod
    def _trusted(cls, child_counts: tuple[int, ...]) -> "OrderedTree":
        """Counts a parser or the array kernel has just built, unchecked."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "child_counts", child_counts)
        return tree

    def to_parens(self) -> str:
        """Balanced-parentheses serialization, one (...) per subtree."""
        return _spell(self.child_counts, "(", ")")

    @classmethod
    def from_parens(cls, s: str) -> "OrderedTree":
        """Parse a balanced-parentheses word back into a tree."""
        return cls._trusted(_parse(s, "(", ")"))


def _parse(steps: str, down: str, up: str) -> tuple[int, ...]:
    """Preorder child counts of the tree that steps walks from its root:
    each `down` descends to a new rightmost child and each `up` ascends to
    the parent.  Raises ParseError for any other symbol, for an `up` at the
    root and for a walk that does not end at the root."""
    counts = [0]
    path = [0]
    for pos, ch in enumerate(steps):
        if ch == down:
            counts[path[-1]] += 1
            path.append(len(counts))
            counts.append(0)
        elif ch == up:
            path.pop()
            if not path:
                raise ParseError(f"unmatched {up!r} at position {pos}")
        else:
            raise ParseError(f"unexpected {ch!r} at position {pos}")
    if len(path) != 1:
        raise ParseError(f"unclosed {down!r} at end of input")
    return tuple(counts)


def decode(w: str) -> OrderedTree:
    """Read w as a root-seating 0 then preorder descend(0)/ascend(1) moves.

    Raises MalformedWordError when w is not binary, of odd length 2k+1 and
    weight k, and DomainError when it has that shape but is no tree word.
    """
    check_middle_word(w, levels=(0,))
    if w[0] == "0":
        try:
            return OrderedTree._trusted(_parse(w[1:], "0", "1"))
        except ParseError:
            pass
    raise DomainError(f"not a tree word: {w}")


def encode(t: OrderedTree) -> str:
    """Inverse of decode: a 0 prepended to the descend/ascend preorder word."""
    return "0" + _spell(t.child_counts, "0", "1")


def catalan(k: int) -> int:
    """C(2k, k) / (k + 1)."""
    _check_edges(k, 0)
    return comb(2 * k, k) // (k + 1)


def narayana(k: int, i: int) -> int:
    """(1/k) C(k,i) C(k,i-1): k-edge trees whose code has i descent runs."""
    if not 1 <= i <= k:
        return 0
    return comb(k, i) * comb(k, i - 1) // k


def count_trees_by_length(k: int, i: int) -> int:
    """Unit entries of T[k,i], by direct census of the partial-sum rule."""
    return int(np.count_nonzero(_entries(k, i)[2]))


def count_trees(k: int) -> int:
    """Total unit entries across T[k,1] .. T[k,k], for k >= 2."""
    _check_range(k, 1)
    admit(f"tree census of k = {k}", middle_cost(k))
    return sum(count_trees_by_length(k, i) for i in range(1, k + 1))


def tree_words(k: int) -> list[str]:
    """All k-edge tree words, in (i, row, col) tensor order."""
    return [w for bits in _tree_word_batches(k) for w in _words(bits)]


def _tree_word_batches(k: int) -> Iterator[np.ndarray]:
    """All k-edge tree words as 0/1 rows, in batches, in tree_words order.

    The unit cells of each tensor go through the zipper's array kernel in
    batches of at most `_CELLS_PER_BATCH`, and every zippered row must pass
    the prefix-height test of a tree word.
    """
    _check_edges(k, 0)
    if k < 2:  # no tensor: the one tree word 0^(k+1) 1^k zippers (k+1), (k)
        yield _zipper_array(np.array([[k + 1]]), np.array([[k]]))
        return
    # the middle tensor, the largest, before the first is built
    admit(f"tree listing of k = {k}", middle_cost(k))
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        for hit_rows, hit_cols, bits in _zipper_unit_cells(t):
            _check_tree_rows(t, hit_rows, hit_cols, bits)
            yield bits


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """a with each row replaced by its running sums, in place: one vector
    add per column, contiguous in Fortran order, where numpy's accumulate
    runs one short inner loop per row, several times slower on short rows."""
    for j in range(1, a.shape[1]):
        a[:, j] += a[:, j - 1]
    return a


def _heights(bits: np.ndarray) -> np.ndarray:
    """Prefix heights of 0/1 rows, reading 0 as a step down (+1) and 1 as a
    step up (-1), as int16 running sums (`_prefix_sums`) in Fortran order,
    which also makes reductions along the rows vector ops."""
    heights = bits.astype(np.int16, order="F")
    heights *= -2
    heights += 1
    return _prefix_sums(heights)


def _tree_rows(bits: np.ndarray) -> np.ndarray:
    """Which 0/1 rows are tree words, by the Dyck test on their heights."""
    heights = _heights(bits)
    return (heights[:, 1:] >= 1).all(axis=1) & (heights[:, -1] == 1)


def _check_tree_rows(t, hit_rows, hit_cols, bits) -> None:
    """Every zippered unit cell must be a tree word."""
    trees = _tree_rows(bits)
    if not trees.all():
        bad = int(np.argmin(trees))
        raise StructureViolationError(
            f"unit entry ({hit_rows[bad]}, {hit_cols[bad]}) of "
            f"T[{t.k},{t.i}] zippers to {_words(bits[bad:bad + 1])[0]}, "
            f"not a tree word")


def _child_count_rows(bits: np.ndarray) -> np.ndarray:
    """Preorder child counts of the trees that 0/1 tree-word rows code.

    Row j of the (m, k+1) result is `decode(w).child_counts` for the tree
    word w in row j of bits; every row must be a tree word.  Vertex v is the
    v-th 0 of its row, entered at that step's height.  Each child's subtree
    ends with a 1 that returns to v's height, and every such 1 comes after
    v's 0 and before the next vertex entered at that height.  So a stable
    sort of the steps by the height they reach puts each vertex's 0 just
    before the 1s that count its children, and each row's sorted steps
    start with its root.
    """
    m, n = bits.shape
    # one stable sort of all rows: by row, then height, then position
    levels = np.add(_heights(bits), (np.arange(m) * (n + 2))[:, None],
                    order="C")  # as the flat sort reads it
    order = np.argsort(levels, axis=None, kind="stable")
    steps = bits.ravel()
    vertex_at = np.nonzero(steps[order] == 0)[0]
    by_position = np.empty(m * n, dtype=np.int64)
    by_position[order[vertex_at]] = np.diff(vertex_at, append=m * n) - 1
    # the 0s in position order are the vertices in preorder
    return by_position[steps == 0].reshape(m, -1)


def _lukasiewicz_walk(counts: np.ndarray) -> np.ndarray:
    """Each row's walk sum_{t<=j} (c_t - 1), as int64 running sums
    (`_prefix_sums`) in Fortran order, once its rows pass the Lukasiewicz
    condition of `OrderedTree`: no count below 0, and the walk stays at 0 or
    above until the last vertex, where it ends at -1."""
    counts = np.asarray(counts, dtype=np.int64)
    walk = _prefix_sums(np.subtract(counts, 1, order="F"))
    for bad, reason in (((counts < 0).any(axis=1), "a negative child count"),
                        ((walk[:, :-1] < 0).any(axis=1),
                         "child counts that close the tree early"),
                        (walk[:, -1] != -1,
                         "child counts that do not close the tree")):
        if bad.any():
            j = int(np.argmax(bad))
            raise DomainError(f"row {j} has {reason}: {counts[j].tolist()}")
    return walk


def _tree_word_rows(counts: np.ndarray) -> np.ndarray:
    """Inverse of `_child_count_rows`: the 0/1 tree-word row of each row of
    preorder child counts, which must pass the Lukasiewicz condition.

    The word is each vertex's 0 followed by one 1 for every subtree of a
    non-root vertex that ends at it.  On the walk L of `_lukasiewicz_walk`,
    the subtree of vertex u >= 1 ends at the first e >= u with
    L_e = L_{u-1} - 1, which the walk reaches since it steps down by at most
    one.  So one scan of the columns settles every row at once: vertex u
    waits at level L_{u-1} - 1 from column u on, and all vertices waiting at
    a level close at the next column where the walk is at that level.
    """
    walk = _lukasiewicz_walk(counts)
    m, size = walk.shape
    # the walk lies in [-1, size - 1]: slot (row, L + 1) of a flat array
    slot = walk + 1 + (np.arange(m) * (size + 1))[:, None]
    pending = np.zeros(m * (size + 1), dtype=np.int64)
    closing = np.zeros((m, size), dtype=np.int64)
    for e in range(1, size):
        pending[slot[:, e - 1] - 1] += 1
        closing[:, e] = pending[slot[:, e]]
        pending[slot[:, e]] = 0
    return _zipper_array(np.ones_like(closing), closing)


def _walk(counts: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The depth-first walk of a tree given by preorder child counts.

    For each vertex v >= 1, parents[v - 1] is its parent, and ascents[v - 1]
    counts the steps up that the walk takes after it enters v and before it
    enters v + 1 or ends at the root.  Raises DomainError unless the walk
    ends at the root with no child left to enter (the Lukasiewicz condition);
    a negative count, or a return to the root before the last vertex, leaves
    a vertex a negative number of children to enter, and the walk never
    climbs past it.
    """
    parents, ascents = [], []
    open_above = []  # (vertex, children still to enter) of the open ancestors
    top, left = 0, counts[0] if counts else -1  # () has no root to close
    for v in range(1, len(counts)):
        parents.append(top)
        left -= 1
        if counts[v]:
            open_above.append((top, left))
            top, left = v, counts[v]
            ascents.append(0)
        else:
            up = 1
            while not left and open_above:
                top, left = open_above.pop()
                up += 1
            ascents.append(up)
    if left:
        raise DomainError(f"child counts that are no tree's: {counts}")
    return parents, ascents


def _spell(counts: tuple[int, ...], down: str, up: str) -> str:
    """The walk as one `down` per descent and one `up` per ascent."""
    return "".join([down + up * n for n in _walk(counts)[1]])


def to_dot(t: OrderedTree, name: str = "tree") -> str:
    """DOT digraph with parent->child edges in preorder."""
    parents = _walk(t.child_counts)[0]
    lines = [f"digraph {name} {{"]
    if not parents:
        lines.append("  0;")
    lines.extend(f"  {a} -> {b};" for b, a in enumerate(parents, 1))
    lines.append("}")
    return "\n".join(lines)
