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
from .zippering import (_words, _zipper_unit_cells, build_tensor,
                        is_tree_word)

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


def tree_words(k: int, limit: int | None = None) -> list[str]:
    """All k-edge tree words, in (i, row, col) tensor order.

    The unit cells of each tensor go through the zipper's array kernel in
    batches, and every zippered row must pass the prefix-height test of a
    tree word.
    """
    ensure_within(k, effective_limit(limit, COUNT_LIMIT), "tree listings")
    out: list[str] = []
    for i in range(1, k + 1):
        t = build_tensor(k, i, limit=limit)
        for hit_rows, hit_cols, bits in _zipper_unit_cells(t):
            _check_tree_rows(t, hit_rows, hit_cols, bits)
            out.extend(_words(bits))
    return out


def _check_tree_rows(t, hit_rows, hit_cols, bits) -> None:
    """Every zippered unit cell must be a tree word."""
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
            f"T[{t.k},{t.i}] zippers to {_words(bits[bad:bad + 1])[0]}, "
            f"not a tree word")


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
