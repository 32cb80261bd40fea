"""Dihedral action on middle-level words.

The middle words of order k are the binary words of length 2k+1 with weight
k or k+1.  The group generated by cyclic translation and complemented
reversal (reverse, then flip every bit) acts on them; every orbit has the
full 2(2k+1) members and contains exactly one tree word, which makes orbits
and k-edge trees equinumerous.

Both facts follow from the cycle lemma (Dvoretzky and Motzkin, 1947): a word
with k+1 zeros and k ones, read as steps +1 and -1, has exactly one rotation
whose every prefix height is at least 1, the one starting just after the last
minimum of its prefix heights.  So `canonical_tree_word` is one O(n) scan.

`enumerate_orbits` generates each class from its tree word as one row of
(2k+1)-bit integer codes (the middle-levels codes of Mütze, *Proof of the
middle levels conjecture*, 2016).  The code ops are written here only:
rotation (`_rotate_codes`) and complemented reversal (`_comp_reverse_codes`);
a code's weight is numpy's popcount, `np.bitwise_count`.  Sorted, the codes
of all classes must be distinct, 2 C(2k+1, k) in number and each of weight k
or k+1; by pigeonhole they are then exactly the middle words, so the classes
partition them.  A class holds its members as one sorted code row.  One
popcount scan of all codes lists the middle words (`_middle_codes`).  One
unpacker, `_code_bits`, turns codes into batches of 0/1 rows, which
`middle_words` spells (`zippering._words`) and `_tree_codes` tests with the
tree listing's row test (`trees._tree_rows`).  Up to `ORACLE_MAX_K` the middle
words are compared with the class codes, and the `dihedral` check compares
the classes with an array orbit closure of the same listing
(`verify._closure_error`: component labels under the same code ops, with no
tree listing or cycle lemma); both are oracles.  `orbit` closes one word by
search.
"""
from itertools import repeat
from typing import Iterator

import numpy as np

from .capacity import ORACLE_MAX_K, admit, orbit_codes
from .compositions import _check_edges
from .errors import CapacityError, MalformedWordError, StructureViolationError
from .trees import _tree_rows, tree_words
from .zippering import (_CELLS_PER_BATCH, _check_binary, _is_tree_word,
                        _words, check_middle_word)

_COMPLEMENT = str.maketrans("01", "10")


def rotate(w: str, t: int) -> str:
    """Cyclic translation: output[j] = w[(j + t) mod len(w)]."""
    t %= len(w) or 1  # the empty word is its own rotation
    return w[t:] + w[:t]


def comp_reverse(w: str) -> str:
    """Reverse then complement; an involution swapping weights k and k+1."""
    return w[::-1].translate(_COMPLEMENT)


def orbit(w: str) -> frozenset[str]:
    """Closure of {w} under rotation and complemented reversal."""
    check_middle_word(w)
    seen = {w}
    frontier = [w]
    while frontier:
        v = frontier.pop()
        for u in (rotate(v, 1), comp_reverse(v)):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def canonical_tree_word(w: str) -> str:
    """The unique member of w's orbit that is a tree word.

    By the cycle lemma: take w, or its complemented reversal when w has
    weight k+1, and rotate it to start just after the last minimum of its
    prefix heights (the empty prefix included).
    """
    k = check_middle_word(w)
    if w.count("1") != k:
        w = comp_reverse(w)
    height = low = cut = 0
    for pos, ch in enumerate(w[:-1], 1):
        height += 1 if ch == "0" else -1
        if height <= low:
            low, cut = height, pos
    tree = rotate(w, cut)
    if not _is_tree_word(tree):  # the rotation keeps w's checked shape
        raise StructureViolationError(
            f"cycle-lemma rotation {tree} of {w} is not a tree word")
    return tree


class OrbitClass:
    """One dihedral orbit, named by its unique tree word.

    The members are held as one sorted row of (2k+1)-bit codes, so k is at
    most `_CODE_MAX_K`, as in `enumerate_orbits`, and every member is a
    binary word as long as the canonical word; `members` builds the
    frozenset of their strings when read, and `size` counts the codes.
    Classes are read-only values, compared and hashed by their canonical
    word and code row.
    """
    __slots__ = ("_canonical", "_codes")

    def __init__(self, canonical: str, members: frozenset[str]):
        _check_code_width(len(canonical) // 2)
        codes = []
        for m in members:
            _check_binary(m)
            if len(m) != len(canonical):
                raise MalformedWordError(
                    f"member {m} is not as long as the canonical {canonical}")
            codes.append(int(m, 2))
        self._canonical = canonical
        self._codes = np.array(sorted(codes), dtype=_CODE_DTYPE)

    @classmethod
    def _from_codes(cls, canonical: str, codes: np.ndarray) -> "OrbitClass":
        orbit_class = cls.__new__(cls)
        orbit_class._canonical = canonical
        orbit_class._codes = codes
        return orbit_class

    @property
    def canonical(self) -> str:
        return self._canonical

    @property
    def members(self) -> frozenset[str]:
        width = f"0{len(self.canonical)}b"
        return frozenset(format(code, width) for code in self._codes.tolist())

    @property
    def size(self) -> int:
        return len(self._codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitClass):
            return NotImplemented
        return (self._canonical == other._canonical
                and np.array_equal(self._codes, other._codes))

    def __hash__(self) -> int:
        return hash((self._canonical, self._codes.tobytes()))

    def __repr__(self) -> str:
        return (f"OrbitClass(canonical={self.canonical!r}, "
                f"members={self.members!r})")


def middle_words(k: int) -> Iterator[str]:
    """All binary words of length 2k+1 with weight k or k+1, spelled from
    `_middle_codes`: weight k first, each weight in descending order."""
    for level in _middle_codes(k):
        for bits in _code_bits(level[::-1], k):
            yield from _words(bits)


def _code_bits(codes: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """The (2k+1)-bit codes as 0/1 rows, top bit first, in zipper batches."""
    for lo in range(0, len(codes), _CELLS_PER_BATCH):
        # each code's 8 bytes, most significant first, as 64 bits
        octets = codes[lo:lo + _CELLS_PER_BATCH].astype(">u8").view(np.uint8)
        yield np.unpackbits(octets.reshape(-1, 8), axis=1)[:, 63 - 2 * k:]


def _tree_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Which (2k+1)-bit codes are tree words, by `trees._tree_rows`."""
    return np.concatenate([_tree_rows(bits) for bits in _code_bits(codes, k)])


# class codes are rotated in this dtype: `x << t` may carry bits past the
# top, which the mask drops, but `x >> (n - t)` needs n - t < 64, so codes
# are exact while 2k+1 < 64
_CODE_DTYPE = np.uint64
_CODE_MAX_K = (np.iinfo(_CODE_DTYPE).bits - 1) // 2


def _check_code_width(k: int) -> None:
    """Refuse an order whose (2k+1)-bit codes do not fit `_CODE_DTYPE`."""
    if k > _CODE_MAX_K:
        raise CapacityError(
            f"middle-word codes of 2k+1 = {2 * k + 1} bits do not fit the "
            f"{np.iinfo(_CODE_DTYPE).bits}-bit code type; capped at "
            f"k <= {_CODE_MAX_K} (got k = {k})")


def _rotate_codes(x: np.ndarray, t, k: int) -> np.ndarray:
    """The codes of rotate(w, t) for (2k+1)-bit codes x; t may be an array."""
    n = 2 * k + 1
    return ((x << t) | (x >> (n - t))) & ((1 << n) - 1)


def _comp_reverse_codes(x: np.ndarray, k: int) -> np.ndarray:
    """The codes of comp_reverse(w) for the (2k+1)-bit codes x, reversed one
    bit at a time so that no temporary is larger than x."""
    n = 2 * k + 1
    reversed_x = np.zeros_like(x)
    for b in range(n):
        reversed_x |= ((x >> b) & 1) << (n - 1 - b)
    return ~reversed_x & ((1 << n) - 1)


def _middle_codes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every middle word of order k as a (2k+1)-bit code: the sorted codes
    below 2^(2k+1) of weight k, then those of weight k+1, scanned in chunks
    of as many codes as it lists, so that it costs what the orbit
    enumeration does."""
    _check_edges(k, 0)
    _check_code_width(k)
    chunk = orbit_codes(k)
    admit(f"middle words of k = {k}", chunk)
    end = 1 << (2 * k + 1)
    found = ([], [])
    for lo in range(0, end, chunk):
        x = np.arange(lo, min(lo + chunk, end), dtype=_CODE_DTYPE)
        weights = np.bitwise_count(x)
        for level, parts in enumerate(found):
            parts.append(x[weights == k + level])
    return tuple(np.concatenate(parts) for parts in found)


def _class_codes(words: list[str], k: int) -> np.ndarray:
    """The class of each word as a row of (2k+1)-bit integer codes.

    A word's first symbol is its code's top bit.  Row j holds the codes of
    rotate(words[j], t) for t = 0..2k, then those of the rotations of
    comp_reverse(words[j]): a (len(words), 2(2k+1)) uint64 array.
    """
    n = 2 * k + 1
    x = np.array([int(w, 2) for w in words], dtype=_CODE_DTYPE)
    pair = np.stack([x, _comp_reverse_codes(x, k)], axis=1)[:, :, None]
    rotations = _rotate_codes(pair, np.arange(n, dtype=_CODE_DTYPE), k)
    return rotations.reshape(len(words), 2 * n)


def _partition_error(words: list[str], codes: np.ndarray,
                     k: int) -> str | None:
    """Why the classes of `_class_codes(words, k)` do not partition the
    middle words, or None when they do.

    The codes must be distinct, 2 C(2k+1, k) in number, and each of weight
    k or k+1.  There are exactly that many middle words, so by pigeonhole
    distinct middle codes of that number are all of them.
    """
    n = 2 * k + 1
    # the off-level codes, found before the sorted copy is made
    weights = np.bitwise_count(codes)
    off_level = codes[(weights != k) & (weights != k + 1)]
    del weights
    flat = np.sort(codes, axis=None)
    repeated = flat[1:][flat[1:] == flat[:-1]]
    if len(repeated):
        code = repeated[0]
        holders = np.nonzero((codes == code).any(axis=1))[0]
        member = format(int(code), f"0{n}b")
        if len(holders) == 1:
            return (f"class of {words[holders[0]]} has fewer than {2 * n} "
                    f"members: {member} is repeated")
        return (f"orbit classes overlap at k = {k}: {words[holders[0]]} and "
                f"{words[holders[1]]} share {member}")
    if len(off_level):
        code = int(off_level.min())
        return (f"class member {format(code, f'0{n}b')} has weight "
                f"{code.bit_count()}, not {k} or {k + 1}")
    if len(flat) != orbit_codes(k):
        return (f"{len(words)} classes cover {len(flat)} words, "
                f"not the {orbit_codes(k)} middle words")
    return None


def enumerate_orbits(k: int) -> list[OrbitClass]:
    """Partition all middle words into orbits, sorted by canonical word.

    Each class is generated from one tree word as a row of integer codes
    (`_class_codes`), and `_partition_error` proves on those codes that the
    classes partition the middle words.  Up to `ORACLE_MAX_K` the listed
    middle words are also compared with the codes, as an oracle.
    """
    _check_code_width(k)
    admit(f"orbit enumeration of k = {k}", orbit_codes(k))
    canonicals = sorted(tree_words(k))
    codes = _class_codes(canonicals, k)
    error = _partition_error(canonicals, codes, k)
    if error is None and k <= ORACLE_MAX_K:
        scanned = np.fromiter(map(int, middle_words(k), repeat(2)),
                              dtype=_CODE_DTYPE)
        if not np.array_equal(np.sort(scanned), np.sort(codes, axis=None)):
            error = f"the classes are not the middle words of k = {k}"
    if error:
        raise StructureViolationError(error)
    codes.sort(axis=1)
    return [OrbitClass._from_codes(w, row) for w, row in zip(canonicals, codes)]


def orbit_summary(k: int) -> dict:
    """JSON-ready digest of enumerate_orbits(k)."""
    classes = enumerate_orbits(k)
    return {
        "k": k,
        "orbit_count": len(classes),
        "orbits": [{"canonical": c.canonical, "size": c.size} for c in classes],
    }
