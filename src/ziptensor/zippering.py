"""Zipper composition pairs into binary words and build the tensors T[k,i].

The zipper of a row header A and a column header B is the word
0^a1 1^b1 0^a2 1^b2 ... 0^ai 1^bi of length 2k+1.  The tensor entry for
(A, B) is 1 exactly when every prefix partial sum of (a_j - b_j) stays
positive, which happens exactly when the zipper word codes an ordered tree.
Words are plain strings, leftmost symbol first, so printed tables compare
directly.

`zipper` and `unzip` handle one pair or word.  `_check_headers` is the one
pair check: `zipper` runs it on its pair as one-row arrays, and many pairs
at once go through the module-private array kernel, which runs it once on
whole header arrays; `_zipper_array` expands row j of A and row j of B
into row j of an (m, 2k+1) 0/1 matrix (the headers interleaved as run
lengths, then one `np.repeat`), and `_unzip_array` inverts it, finding every
run boundary of the batch with one `!=` on neighbouring columns and
checking their count per row in one comparison.  `_zipper_cells` feeds
chosen cells of a header grid to the kernel in batches of at most
`_CELLS_PER_BATCH`, which bounds the transient arrays; it is the package's
one chunk size, which also bounds the rects of one SVG template and the
codes `dihedral._code_bits` unpacks at a time.  `_text` is the one speller
of a 0/1 matrix: one text of a line per row in a two-symbol ASCII alphabet,
with no string made per row, so that a batch of tree words becomes '0'/'1'
words or, without its first column, parentheses in one step; the `trees`
listings write it, and `_words` splits it into one string per row.
Tree listings, annotated tables and the `roundtrip` check all zipper
through the kernel; the tree kernel's inverse (`trees._tree_word_rows`)
builds its words with `_zipper_array`.  `_zip` is `zipper` unchecked.

`_entries` reads the headers of T[k,i] as partial-sum arrays
(`compositions._partial_sums`) and applies the entry rule one part at a
time, one n x n comparison per part.  `build_tensor` labels its mask with
the headers as compositions; the tree census (`trees.count_trees_by_length`)
counts the mask alone.
"""
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .capacity import admit, grid_cost
from .compositions import Composition, _compositions, _p_sums, _q_sums
from .errors import DomainError, MalformedWordError


# str.translate drops the symbols 0 and 1, and keeps any other
_BINARY = dict.fromkeys(map(ord, "01"))


def _check_binary(w: str) -> None:
    if not w or w.translate(_BINARY):
        raise MalformedWordError(f"not a nonempty binary word: {w!r}")


def zipper(a: Composition, b: Composition) -> str:
    """Interleave a and b as runs: a_j zeros then b_j ones, left to right."""
    # object arrays hold the parts as Python ints, so no sum wraps
    _check_headers(np.array([a], object), np.array([b], object), sum(b))
    admit("zipper word", sum(a) + sum(b))
    return _zip(a, b)


def _zip(a: Composition, b: Composition) -> str:
    """`zipper` without its checks, for pairs that have passed them."""
    return "".join("0" * x + "1" * y for x, y in zip(a, b))


def unzip(w: str) -> tuple[Composition, Composition]:
    """Run-length decode w back into its zero-run and one-run lengths."""
    _check_binary(w)
    if w[0] != "0" or w[-1] != "1":
        raise MalformedWordError(
            f"expected a word starting with 0 and ending with 1: {w!r}")
    return (tuple(map(len, filter(None, w.split("1")))),
            tuple(map(len, filter(None, w.split("0")))))


# pairs zippered per batch, which bounds the batch's transient arrays
_CELLS_PER_BATCH = 4096


def _check_headers(rows: np.ndarray, cols: np.ndarray, k: int) -> None:
    """The pair rule: equal part counts, positive parts, sums k+1 and k."""
    if rows.shape[1] != cols.shape[1]:
        raise DomainError(
            f"length mismatch: {rows.shape[1]} vs {cols.shape[1]} parts")
    if (rows < 1).any() or (cols < 1).any():
        raise DomainError("composition parts must be positive")
    if (rows.sum(axis=1) != k + 1).any() or (cols.sum(axis=1) != k).any():
        raise DomainError(f"sums must differ by one: rows must sum to "
                          f"{k + 1} and columns to {k}")


def _zipper_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zipper row j of a with row j of b: an (m, 2k+1) uint8 0/1 matrix.

    The rows must have passed `_check_headers`, so that every word has the
    same length.
    """
    m, parts = a.shape
    runs = np.empty((m, 2 * parts), dtype=np.int64)
    runs[:, 0::2] = a
    runs[:, 1::2] = b
    symbols = np.tile(np.array([0, 1], dtype=np.uint8), m * parts)
    return np.repeat(symbols, runs.ravel()).reshape(m, -1)


def _unzip_array(bits: np.ndarray,
                 parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `_zipper_array`: the zero-run and one-run lengths of each
    row, as two (m, parts) integer arrays.

    Every row must start with 0, end with 1 and have exactly 2*parts runs.
    One pass lists every run end of the batch; the batch is well formed
    exactly when those ends fall 2*parts - 1 to a row, its first column is
    all 0, its last all 1 and no entry exceeds 1.  Only a batch that fails
    is checked row by row, to name its first bad row.
    """
    m, n = bits.shape
    boundaries = 2 * parts - 1
    change = bits[:, 1:] != bits[:, :-1]
    at = np.flatnonzero(change)
    row = at // (n - 1)
    well_formed = (np.array_equal(row, np.repeat(np.arange(m), boundaries))
                   and not bits[:, 0].any() and bits[:, -1].all()
                   and bits.max(initial=0) <= 1)
    if not well_formed:
        bad = ((bits[:, 0] != 0) | (bits[:, -1] != 1)
               | (change.sum(axis=1) != boundaries) | (bits > 1).any(axis=1))
        j = int(np.argmax(bad))
        raise MalformedWordError(
            f"row {j}: expected a word starting with 0, ending with 1 and "
            f"made of {2 * parts} runs: {_words(bits[j:j + 1])[0]!r}")
    # run ends: after each change, and at the end of the row
    ends = np.empty((m, boundaries + 1), dtype=np.int64)
    ends[:, :-1] = (at - row * (n - 1) + 1).reshape(m, boundaries)
    ends[:, -1] = n
    lengths = np.diff(ends, axis=1, prepend=0)
    return lengths[:, 0::2], lengths[:, 1::2]


def _zipper_cells(rows: np.ndarray, cols: np.ndarray, k: int,
                  cell_rows: np.ndarray, cell_cols: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Zipper the given cells of the rows x cols header grid, in batches.

    The pair checks run once, on the whole header arrays.  Each batch yields
    its cell rows, its cell columns and their zipper words as an
    `_zipper_array` matrix, in the order the cells are given.
    """
    _check_headers(rows, cols, k)
    for lo in range(0, len(cell_rows), _CELLS_PER_BATCH):
        r = cell_rows[lo:lo + _CELLS_PER_BATCH]
        c = cell_cols[lo:lo + _CELLS_PER_BATCH]
        yield r, c, _zipper_array(rows[r], cols[c])


def _words(bits: np.ndarray, alphabet: str = "01") -> list[str]:
    """The lines of `_text`: the rows of a 0/1 matrix as strings."""
    return _text(bits, alphabet).split("\n")[:-1]


def _text(bits: np.ndarray, alphabet: str = "01") -> str:
    """The rows of a 0/1 matrix as one text of a line per row, spelling 0
    and 1 as the two ASCII symbols of alphabet; no string is made per row."""
    zero, one = alphabet.encode("ascii")
    codes = np.full((len(bits), bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    # codes are kept mod 256, so a one below zero is spelled right too
    codes[:, :-1] = bits * ((one - zero) % 256) + zero
    return codes.tobytes().decode("ascii")


def check_middle_word(w: str, levels: tuple[int, ...] = (0, 1)) -> int:
    """Validate a binary word of odd length 2k+1 and weight k + l, l in
    levels: (0, 1) for a middle word, (0,) for a tree word; return k."""
    _check_binary(w)
    if len(w) % 2 == 0:
        raise MalformedWordError(f"expected a word of odd length, got {len(w)}")
    k = len(w) // 2
    weight = w.count("1")
    if weight - k not in levels:
        allowed = ", ".join(str(k + level) for level in levels)
        raise MalformedWordError(
            f"weight {weight} not in {{{allowed}}} for length {len(w)}")
    return k


def is_tree_word(w: str) -> bool:
    """True iff w is a 0 followed by a balanced Dyck word (0 down, 1 up).

    Reading 0 as +1 and 1 as -1, the running sum must stay >= 1 from the
    second position on and finish at 1.  Words of even length or with the
    wrong weight are rejected outright rather than classified.
    """
    check_middle_word(w, levels=(0,))
    return _is_tree_word(w)


def _is_tree_word(w: str) -> bool:
    """`is_tree_word` without its shape check; any symbol but 0 reads as 1.
    A sum that stays >= 1 from the first position on starts with a 0."""
    height = 0
    for ch in w:
        height += 1 if ch == "0" else -1
        if height < 1:
            return False
    return height == 1


@dataclass(eq=False)
class Tensor:
    """Square 0/1 matrix T[k,i] together with its row and column headers."""
    k: int
    i: int
    rows: list[Composition]
    cols: list[Composition]
    entries: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.k == other.k and self.i == other.i
                and self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self.entries, other.entries))


def _zipper_unit_cells(t: Tensor):
    """`_zipper_cells` over the unit cells of t, in row-major order."""
    return _zipper_cells(np.asarray(t.rows, dtype=np.int64),
                         np.asarray(t.cols, dtype=np.int64), t.k,
                         *np.nonzero(t.entries))


def _entries(k: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The headers of T[k,i] as partial-sum arrays, and its entries as a
    bool mask, admitted as its grid.

    The rule runs one part at a time, so every transient is one n x n mask.
    The last part compares the sums k+1 and k, which always holds, so it is
    skipped.
    """
    admit(f"tensor T[{k},{i}]", grid_cost(k, i))
    row_sums, col_sums = _p_sums(k, i), _q_sums(k, i)
    entries = np.ones((len(row_sums), len(col_sums)), dtype=bool)
    for j in range(i - 1):
        entries &= row_sums[:, j, None] > col_sums[None, :, j]
    return row_sums, col_sums, entries


def build_tensor(k: int, i: int) -> Tensor:
    """Evaluate the partial-sum rule on all of p_set(k,i) x q_set(k,i)."""
    row_sums, col_sums, entries = _entries(k, i)
    return Tensor(k, i, _compositions(row_sums), _compositions(col_sums),
                  entries.view(np.uint8))
