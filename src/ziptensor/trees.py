"""Ordered rooted plane trees and their word codes.

A tree word (0 followed by a balanced Dyck word) codes a k-edge plane tree:
after the leading 0 seats the root, each 0 descends to a newly created
rightmost child and each 1 ascends to the parent.  Trees are stored as
preorder child-count sequences; their canonical serialization is the
balanced-parentheses word of length 2k.

One parser, `_parse`, reads a walk spelled in any two step symbols: `decode`
gives it the tail of a tree word as 0/1, `OrderedTree.from_parens` a
parenthesis word.  One flat walk, `_walk`, turns child counts back into each
vertex's parent and the ascents that follow it; `to_parens` and `encode`
spell it, and `to_dot` draws its edges.

`decode`, `encode` and `OrderedTree` handle one tree.  Many trees at once go
through the module-private array kernel: `_child_count_rows` maps 0/1
tree-word rows to rows of preorder child counts (Lukasiewicz words, Flajolet
and Sedgewick, *Analytic Combinatorics*, 2009, I.5) from the height profile,
and `_tree_word_rows` is its exact inverse, which first checks the
Lukasiewicz condition of every row with one cumsum.  `_tree_word_batches`
yields all k-edge tree words as 0/1 rows in batches of at most
`_CELLS_PER_BATCH`; `tree_words`, the `trees` command and the `roundtrip`
check read them.
"""
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .capacity import admit, middle_cost
from .errors import DomainError, ParseError, StructureViolationError
from .zippering import (_check_tree_shape, _words, _zipper_array,
                        _zipper_unit_cells, build_tensor)
from .zippering import is_tree_word  # noqa: F401  (importable from here too)


@dataclass(frozen=True)
class OrderedTree:
    """Plane tree as preorder child counts; children keep left-to-right order."""
    child_counts: tuple[int, ...]

    def __post_init__(self):
        # Lukasiewicz condition: the walk 1 + sum(c_j - 1) stays positive
        # until the last vertex and ends at zero.
        walk = 1
        last = len(self.child_counts) - 1
        for pos, count in enumerate(self.child_counts):
            if count < 0:
                raise DomainError(f"negative child count at vertex {pos}")
            walk += count - 1
            if walk <= 0 and pos < last:
                raise DomainError("child counts close the tree early")
        if walk != 0:
            raise DomainError("child counts do not close the tree")

    def to_parens(self) -> str:
        """Balanced-parentheses serialization, one (...) per subtree."""
        return _spell(self.child_counts, "(", ")")

    @classmethod
    def from_parens(cls, s: str) -> "OrderedTree":
        """Parse a balanced-parentheses word back into a tree."""
        return cls(_parse(s, "(", ")"))


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
    _check_tree_shape(w)
    if w[0] == "0":
        try:
            return OrderedTree(_parse(w[1:], "0", "1"))
        except ParseError:
            pass
    raise DomainError(f"not a tree word: {w}")


def encode(t: OrderedTree) -> str:
    """Inverse of decode: a 0 prepended to the descend/ascend preorder word."""
    return "0" + _spell(t.child_counts, "0", "1")


def catalan(k: int) -> int:
    """C(2k, k) / (k + 1)."""
    return comb(2 * k, k) // (k + 1)


def narayana(k: int, i: int) -> int:
    """(1/k) C(k,i) C(k,i-1): k-edge trees whose code has i descent runs."""
    if not 1 <= i <= k:
        return 0
    return comb(k, i) * comb(k, i - 1) // k


def count_trees_by_length(k: int, i: int) -> int:
    """Unit entries of T[k,i], by direct census of the partial-sum rule."""
    return int(build_tensor(k, i).entries.sum())


def count_trees(k: int) -> int:
    """Total unit entries across T[k,1] .. T[k,k]."""
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
    if k < 0:
        raise DomainError(f"edge count k must be at least 0, got {k}")
    # the middle tensor, the largest, before the first is built
    admit(f"tree listing of k = {k}", middle_cost(k))
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        for hit_rows, hit_cols, bits in _zipper_unit_cells(t):
            _check_tree_rows(t, hit_rows, hit_cols, bits)
            yield bits


def _heights(bits: np.ndarray) -> np.ndarray:
    """Prefix heights of 0/1 rows, reading 0 as a step down (+1) and 1 as a
    step up (-1)."""
    heights = bits.astype(np.int16)
    heights *= -2
    heights += 1
    np.cumsum(heights, axis=1, out=heights)
    return heights


def _check_tree_rows(t, hit_rows, hit_cols, bits) -> None:
    """Every zippered unit cell must be a tree word."""
    # a tree word stays at height >= 1 from its second symbol on and ends at 1
    heights = _heights(bits)
    trees = (heights[:, 1:] >= 1).all(axis=1) & (heights[:, -1] == 1)
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
    levels = _heights(bits) + (np.arange(m) * (n + 2))[:, None]
    order = np.argsort(levels, axis=None, kind="stable")
    steps = bits.ravel()
    vertex_at = np.nonzero(steps[order] == 0)[0]
    by_position = np.empty(m * n, dtype=np.int64)
    by_position[order[vertex_at]] = np.diff(vertex_at, append=m * n) - 1
    # the 0s in position order are the vertices in preorder
    return by_position[steps == 0].reshape(m, -1)


def _lukasiewicz_walk(counts: np.ndarray) -> np.ndarray:
    """Each row's walk sum_{t<=j} (c_t - 1), once its rows pass the
    Lukasiewicz condition of `OrderedTree`: no count below 0, and the walk
    stays at 0 or above until the last vertex, where it ends at -1."""
    counts = np.asarray(counts, dtype=np.int64)
    walk = np.cumsum(counts - 1, axis=1)
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
    which steps down by at most one, the subtree of vertex u >= 1 ends at the
    first e >= u with L_e = L_{u-1} - 1: one search of the steps sorted by
    (row, walk height, position) finds every end.
    """
    walk = _lukasiewicz_walk(counts)
    m, size = walk.shape
    row = np.arange(m)[:, None]
    position = np.arange(size)
    # the walk lies in [-1, size - 1], so each key is unique and in order
    keys = np.sort(((row * (size + 1) + walk + 1) * size + position),
                   axis=None)
    queries = (row * (size + 1) + walk[:, :-1]) * size + position[1:]
    ends = keys[np.searchsorted(keys, queries.ravel())] % size
    closing = np.bincount((row * size + ends.reshape(m, -1)).ravel(),
                          minlength=m * size).reshape(m, size)
    return _zipper_array(np.ones_like(closing), closing)


def _walk(counts: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The depth-first walk of a tree given by preorder child counts.

    For each vertex v >= 1, parents[v - 1] is its parent, and ascents[v - 1]
    counts the steps up that the walk takes after it enters v and before it
    enters v + 1 or ends at the root.
    """
    parents, ascents = [], []
    open_above = []  # (vertex, children still to enter) of the open ancestors
    top, left = 0, counts[0]
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
