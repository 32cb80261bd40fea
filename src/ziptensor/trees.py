"""Ordered rooted plane trees and their word codes.

A tree word (0 followed by a balanced Dyck word) codes a k-edge plane tree:
after the leading 0 seats the root, each 0 descends to a newly created
rightmost child and each 1 ascends to the parent.  Trees are stored as
preorder child-count sequences; their canonical serialization is the
balanced-parentheses word of length 2k.
"""
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .capacity import COUNT_LIMIT, effective_limit, ensure_within
from .errors import DomainError, ParseError, StructureViolationError
from .zippering import build_tensor, is_tree_word

_PARENS_TO_BITS = str.maketrans("()", "01")
_BITS_TO_PARENS = str.maketrans("01", "()")


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

    @property
    def edge_count(self) -> int:
        return len(self.child_counts) - 1

    def to_parens(self) -> str:
        """Balanced-parentheses serialization, one (...) per subtree."""
        return "".join("(" if step else ")"
                       for step in _preorder(self.child_counts))

    @classmethod
    def from_parens(cls, s: str) -> "OrderedTree":
        """Parse a balanced-parentheses word back into a tree."""
        counts = [0]
        path = [0]
        for pos, ch in enumerate(s):
            if ch == "(":
                counts[path[-1]] += 1
                path.append(len(counts))
                counts.append(0)
            elif ch == ")":
                path.pop()
                if not path:
                    raise ParseError(f"unmatched ')' at position {pos}")
            else:
                raise ParseError(f"unexpected {ch!r} at position {pos}")
        if len(path) != 1:
            raise ParseError("unclosed '(' at end of input")
        return cls(tuple(counts))


def decode(w: str) -> OrderedTree:
    """Read w as a root-seating 0 then preorder descend(0)/ascend(1) moves."""
    if not is_tree_word(w):
        raise DomainError(f"not a tree word: {w}")
    return OrderedTree.from_parens(w[1:].translate(_BITS_TO_PARENS))


def encode(t: OrderedTree) -> str:
    """Inverse of decode: a 0 prepended to the descend/ascend preorder word."""
    return "0" + t.to_parens().translate(_PARENS_TO_BITS)


def catalan(k: int) -> int:
    """C(2k, k) / (k + 1)."""
    return comb(2 * k, k) // (k + 1)


def narayana(k: int, i: int) -> int:
    """(1/k) C(k,i) C(k,i-1): k-edge trees whose code has i descent runs."""
    if not 1 <= i <= k:
        return 0
    return comb(k, i) * comb(k, i - 1) // k


def count_trees_by_length(k: int, i: int, limit: int | None = None) -> int:
    """Unit entries of T[k,i], by direct census of the partial-sum rule."""
    ensure_within(k, effective_limit(limit, COUNT_LIMIT), "tree censuses")
    return int(build_tensor(k, i, limit=limit).entries.sum())


def count_trees(k: int, limit: int | None = None) -> int:
    """Total unit entries across T[k,1] .. T[k,k]."""
    ensure_within(k, effective_limit(limit, COUNT_LIMIT), "tree censuses")
    return sum(count_trees_by_length(k, i, limit=limit) for i in range(1, k + 1))


# unit cells zippered per batch, which bounds the batch's transient arrays
_CELLS_PER_BATCH = 4096


def tree_words(k: int, limit: int | None = None) -> list[str]:
    """All k-edge tree words, in (i, row, col) tensor order.

    The unit cells of each tensor are zippered in batches: their row and
    column headers are interleaved as run lengths and expanded into one 0/1
    row per cell, and every row must pass the prefix-height test of a tree
    word.
    """
    ensure_within(k, effective_limit(limit, COUNT_LIMIT), "tree listings")
    out: list[str] = []
    for i in range(1, k + 1):
        t = build_tensor(k, i, limit=limit)
        rows = np.asarray(t.rows, dtype=np.int64)
        cols = np.asarray(t.cols, dtype=np.int64)
        _check_headers(rows, cols, k)
        hit_rows, hit_cols = np.nonzero(t.entries)
        for lo in range(0, len(hit_rows), _CELLS_PER_BATCH):
            cells = slice(lo, lo + _CELLS_PER_BATCH)
            out.extend(_zipper_batch(t, rows, cols, hit_rows[cells],
                                     hit_cols[cells]))
    return out


def _zipper_batch(t, rows, cols, hit_rows, hit_cols) -> list[str]:
    """The zipper words of the given unit cells, each checked to be a tree word."""
    runs = np.empty((len(hit_rows), 2 * t.i), dtype=np.int64)
    runs[:, 0::2] = rows[hit_rows]
    runs[:, 1::2] = cols[hit_cols]
    symbols = np.tile(np.array([0, 1], dtype=np.uint8), runs.size // 2)
    n = 2 * t.k + 1
    bits = np.repeat(symbols, runs.ravel()).reshape(-1, n)
    # 0 steps down (+1), 1 steps up (-1); a tree word stays at height >= 1
    # from its second symbol on and ends at 1
    heights = bits.astype(np.int16)
    heights *= -2
    heights += 1
    np.cumsum(heights, axis=1, out=heights)
    trees = (heights[:, 1:] >= 1).all(axis=1) & (heights[:, -1] == 1)
    if not trees.all():
        bad = int(np.argmin(trees))
        raise StructureViolationError(
            f"unit entry ({hit_rows[bad]}, {hit_cols[bad]}) of "
            f"T[{t.k},{t.i}] zippers to "
            f"{''.join(map(str, bits[bad].tolist()))}, not a tree word")
    bits += ord("0")
    text = bits.tobytes().decode("ascii")
    return [text[j:j + n] for j in range(0, len(text), n)]


def _check_headers(rows: np.ndarray, cols: np.ndarray, k: int) -> None:
    """The zipper's pair checks, once for every row against every column."""
    if rows.shape[1] != cols.shape[1]:
        raise DomainError(
            f"length mismatch: {rows.shape[1]} vs {cols.shape[1]} parts")
    if (rows < 1).any() or (cols < 1).any():
        raise DomainError("composition parts must be positive")
    if (rows.sum(axis=1) != k + 1).any() or (cols.sum(axis=1) != k).any():
        raise DomainError(
            f"sums must differ by one: rows sum to {k + 1}, columns to {k}")


def _preorder(counts: tuple[int, ...]) -> Iterator[tuple[int, int] | None]:
    """Depth-first walk of a tree given by preorder child counts.

    Yields (parent, child) on each descent to a child and None on each
    ascent back to its parent.
    """
    pending = [[0, counts[0]]]  # vertex, children still to visit
    pos = 1
    while pending:
        top = pending[-1]
        if top[1]:
            top[1] -= 1
            yield top[0], pos
            pending.append([pos, counts[pos]])
            pos += 1
        else:
            pending.pop()
            if pending:
                yield None


def to_dot(t: OrderedTree, name: str = "tree") -> str:
    """DOT digraph with parent->child edges in preorder."""
    edges = [step for step in _preorder(t.child_counts) if step]
    lines = [f"digraph {name} {{"]
    if not edges:
        lines.append("  0;")
    lines.extend(f"  {a} -> {b};" for a, b in edges)
    lines.append("}")
    return "\n".join(lines)
