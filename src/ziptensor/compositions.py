"""Integer compositions in descending lexicographic order.

A composition is an ordered tuple of positive integers.  Two families index
the tensors: Q(k,i), all compositions of k into i parts, and P(k,i), the
compositions of k+1 into i parts whose first part is at least 2.  Both are
listed descending-lexicographically (componentwise-larger tuples first) and
both have C(k-1, i-1) members.

Both come from one generator.  A composition of n into i parts is fixed by
its cut set, the partial sums s_1 < ... < s_{i-1} below n, and descending
lex order of compositions is the reverse of the lex order of cut sets.  So
`_partial_sums` lists the cut sets with `itertools.combinations`, reverses
them and appends n as a last column; a first part of at least 2 is a cut set
drawn from 2..n-1 instead of 1..n-1.  The compositions are the rows of that
array's `np.diff`, and `build_tensor` reads the partial sums directly.
"""
from itertools import combinations
from math import comb

import numpy as np

from .capacity import admit, binomial
from .errors import CapacityError, DomainError

Composition = tuple[int, ...]
_SUM_MAX = np.iinfo(np.int64).max


def _partial_sums(n: int, parts: int, low: int = 1) -> np.ndarray:
    """Row j holds the partial sums of the j-th composition of n into
    `parts` parts, descending lex, whose first part is at least `low`."""
    if n > _SUM_MAX:
        raise CapacityError(f"header sums above {_SUM_MAX} do not fit int64")
    admit(f"{parts}-part headers of {n}", binomial(n - low, parts - 1) * parts)
    # combinations() copies its pool, n long, while one part has one row
    pool = range(low, n) if parts > 1 else ()
    cuts = list(combinations(pool, parts - 1))[::-1]
    sums = np.full((len(cuts), parts), n, dtype=np.int64)
    sums[:, :-1] = cuts
    return sums


def _compositions(sums: np.ndarray) -> list[Composition]:
    """The compositions whose partial sums are the rows of sums."""
    return list(map(tuple, np.diff(sums, axis=1, prepend=0).tolist()))


def _check_range(k: int, i: int) -> None:
    if k < 2:
        raise DomainError(f"edge count k must be at least 2, got {k}")
    if not 1 <= i <= k:
        raise DomainError(f"length i = {i} out of range 1..{k}")


def _q_sums(k: int, i: int) -> np.ndarray:
    """Partial sums of the column headers q_set(k, i), one row each."""
    _check_range(k, i)
    return _partial_sums(k, i)


def _p_sums(k: int, i: int) -> np.ndarray:
    """Partial sums of the row headers p_set(k, i), one row each."""
    _check_range(k, i)
    return _partial_sums(k + 1, i, low=2)


def q_set(k: int, i: int) -> list[Composition]:
    """Column headers: compositions of k into i parts, descending lex."""
    return _compositions(_q_sums(k, i))


def p_set(k: int, i: int) -> list[Composition]:
    """Row headers: compositions of k+1 into i parts with first part >= 2."""
    return _compositions(_p_sums(k, i))


def rank_desc_lex(c: Composition, n: int) -> int:
    """Zero-based position of c within q_set(n, len(c)).

    Counts the compositions strictly greater than c: with prefix c[:j] fixed
    and a larger part at slot j there are C(rem-v-1, slots-2) completions for
    each larger value v, which telescopes to a single binomial per slot.

    Rows of P(k,i) rank consistently too: compositions led by 1 sort after
    every first-part>=2 row, so the P index of such a row coincides with its
    rank among all compositions of k+1.
    """
    if not c or any(part < 1 for part in c) or sum(c) != n:
        raise DomainError(f"{c!r} is not a composition of {n}")
    rank = 0
    remaining, slots = n, len(c)
    for part in c[:-1]:
        rank += comb(remaining - part - 1, slots - 1)
        remaining -= part
        slots -= 1
    return rank


def format_composition(c: Composition) -> str:
    """Digit string when every part is a single digit, else comma-separated."""
    if all(part <= 9 for part in c):
        return "".join(str(part) for part in c)
    return ",".join(str(part) for part in c)

