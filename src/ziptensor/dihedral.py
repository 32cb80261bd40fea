"""Dihedral action on middle-level words.

The middle words of order k are the binary words of length 2k+1 with weight
k or k+1.  The group generated by cyclic translation and complemented
reversal (reverse, then flip every bit) acts on them; every orbit has the
full 2(2k+1) members and contains exactly one tree word, which makes orbits
and k-edge trees equinumerous.

Both facts follow from the cycle lemma (Dvoretzky and Motzkin, 1947): a word
with k+1 zeros and k ones, read as steps +1 and -1, has exactly one rotation
whose every prefix height is at least 1, the one starting just after the last
minimum of its prefix heights.  So `canonical_tree_word` is one O(n) scan,
and `enumerate_orbits` generates each class from its tree word as the 2k+1
rotations of that word and of its complemented reversal, then checks by
counting that the classes partition the middle words.  The closure `orbit`
stays as the brute-force oracle: the `dihedral` check compares the generated
classes with it up to k = 8 (`verify.ORACLE_MAX_K`).
"""
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .capacity import ORBIT_LIMIT, effective_limit, ensure_within
from .errors import DomainError, MalformedWordError, StructureViolationError
from .trees import tree_words
from .zippering import is_tree_word

_COMPLEMENT = str.maketrans("01", "10")


def rotate(w: str, t: int) -> str:
    """Cyclic translation: output[j] = w[(j + t) mod len(w)]."""
    t %= len(w)
    return w[t:] + w[:t]


def comp_reverse(w: str) -> str:
    """Reverse then complement; an involution swapping weights k and k+1."""
    return w[::-1].translate(_COMPLEMENT)


def check_middle_word(w: str) -> int:
    """Validate odd length and weight in {k, k+1}; return k."""
    if not w or set(w) - {"0", "1"}:
        raise MalformedWordError(f"not a nonempty binary word: {w!r}")
    if len(w) % 2 == 0:
        raise MalformedWordError(f"middle words have odd length, got {len(w)}")
    k = len(w) // 2
    weight = w.count("1")
    if weight not in (k, k + 1):
        raise MalformedWordError(
            f"weight {weight} not in {{{k}, {k + 1}}} for length {len(w)}")
    return k


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


def _unique_tree_word(members: frozenset[str], k: int) -> str:
    hits = [v for v in members if v.count("1") == k and is_tree_word(v)]
    if len(hits) != 1:
        raise StructureViolationError(
            f"orbit contains {len(hits)} tree words, expected exactly 1: "
            f"{sorted(members)[0]} ...")
    return hits[0]


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
    if not is_tree_word(tree):
        raise StructureViolationError(
            f"cycle-lemma rotation {tree} of {w} is not a tree word")
    return tree


@dataclass(frozen=True)
class OrbitClass:
    """One dihedral orbit, named by its unique tree word."""
    canonical: str
    members: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.members)


def middle_words(k: int) -> Iterator[str]:
    """All binary words of length 2k+1 with weight k or k+1."""
    n = 2 * k + 1
    for weight in (k, k + 1):
        for ones in combinations(range(n), weight):
            chars = ["0"] * n
            for j in ones:
                chars[j] = "1"
            yield "".join(chars)


def _rotations(w: str) -> list[str]:
    return [w[t:] + w[:t] for t in range(len(w))]


def enumerate_orbits(k: int, limit: int | None = None) -> list[OrbitClass]:
    """Partition all middle words into orbits, sorted by canonical word.

    Each class is generated from one tree word; the partition is then checked
    by counting: 2(2k+1) distinct members per class, no member shared between
    classes, and 2 C(2k+1, k) members in all, which are the middle words.
    """
    ensure_within(k, effective_limit(limit, ORBIT_LIMIT), "orbit enumeration")
    if k < 0:
        raise DomainError(f"edge count k must be at least 0, got {k}")
    n = 2 * k + 1
    # tree_words starts at k = 2; below it the one tree word is 0^(k+1) 1^k
    canonicals = (tree_words(k, limit=limit) if k >= 2
                  else ["0" * (k + 1) + "1" * k])
    classes = []
    covered: set[str] = set()
    for tree in canonicals:
        members = frozenset(_rotations(tree) + _rotations(comp_reverse(tree)))
        if len(members) != 2 * n:
            raise StructureViolationError(
                f"class of {tree} has {len(members)} members, "
                f"expected {2 * n}")
        covered |= members
        classes.append(OrbitClass(tree, members))
    if len(covered) != len(classes) * 2 * n:
        raise StructureViolationError(f"orbit classes overlap at k = {k}")
    if len(covered) != 2 * comb(n, k) \
            or not all(map(covered.__contains__, middle_words(k))):
        raise StructureViolationError(
            f"{len(classes)} classes cover {len(covered)} words, "
            f"not the {2 * comb(n, k)} middle words")
    classes.sort(key=lambda c: c.canonical)
    return classes


def orbit_summary(k: int, classes: list[OrbitClass] | None = None) -> dict:
    """JSON-ready digest of enumerate_orbits."""
    if classes is None:
        classes = enumerate_orbits(k)
    return {
        "k": k,
        "orbit_count": len(classes),
        "orbits": [{"canonical": c.canonical, "size": c.size} for c in classes],
    }
