"""Composition enumeration, ordering, ranking, and serialization."""
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ziptensor.compositions import format_composition, p_set, q_set
from ziptensor.errors import DomainError


def rank_desc_lex(c, n):
    """Zero-based position of c within q_set(n, len(c)): a closed-form
    reference for the listing order.

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


@pytest.mark.parametrize("n,parts,expected", [
    (3, 2, [(2, 1), (1, 2)]),
    (5, 2, [(4, 1), (3, 2), (2, 3), (1, 4)]),
    (4, 4, [(1, 1, 1, 1)]),
])
def test_desc_lex_examples(n, parts, expected):
    assert q_set(n, parts) == expected


def brute_compositions(n, parts):
    return sorted((c for c in product(range(1, n + 1), repeat=parts)
                   if sum(c) == n), reverse=True)


@pytest.mark.parametrize("n", range(2, 9))
def test_desc_lex_against_brute_force(n):
    for parts in range(1, n + 1):
        assert q_set(n, parts) == brute_compositions(n, parts)


def recursive_desc_lex(n, parts):
    """The recursive generator that listed compositions before cut sets."""
    out = []

    def extend(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining - slots + 1, 0, -1):
            extend(prefix + (first,), remaining - first, slots - 1)

    extend((), n, parts)
    return out


def recursive_p_set(k, i):
    if i == 1:
        return [(k + 1,)]
    return [(first,) + rest
            for first in range(k + 2 - i, 1, -1)
            for rest in recursive_desc_lex(k + 1 - first, i - 1)]


@pytest.mark.parametrize("k", range(2, 15))
def test_cut_set_headers_match_the_recursive_generator(k):
    for i in range(1, k + 1):
        assert q_set(k, i) == recursive_desc_lex(k, i)
        assert p_set(k, i) == recursive_p_set(k, i)


def test_headers_hold_python_ints():
    # the parts reach JSON, SVG and format_composition as they are
    for family in (p_set(6, 3), q_set(6, 3), q_set(6, 1)):
        assert {type(part) for c in family for part in c} == {int}
        assert {type(c) for c in family} == {tuple}


@pytest.mark.parametrize("n,parts", [(5, 0), (5, 6), (3, -1)])
def test_desc_lex_rejects_bad_parts(n, parts):
    with pytest.raises(DomainError):
        q_set(n, parts)


@pytest.mark.parametrize("k,i,expected", [
    (3, 2, [(2, 1), (1, 2)]),
    (3, 1, [(3,)]),
])
def test_q_set_examples(k, i, expected):
    assert q_set(k, i) == expected


def test_q_set_84_first_element():
    assert q_set(8, 4)[0] == (5, 1, 1, 1)


@pytest.mark.parametrize("k,i,expected", [
    (3, 2, [(3, 1), (2, 2)]),
    (5, 1, [(6,)]),
])
def test_p_set_examples(k, i, expected):
    assert p_set(k, i) == expected


def test_p_set_84_last_element():
    assert p_set(8, 4)[-1] == (2, 1, 1, 5)


@pytest.mark.parametrize("k", range(2, 11))
def test_family_sizes_and_order(k):
    total = 0
    for i in range(1, k + 1):
        rows, cols = p_set(k, i), q_set(k, i)
        assert len(rows) == len(cols) == comb(k - 1, i - 1)
        assert rows == sorted(set(rows), reverse=True)
        assert cols == sorted(set(cols), reverse=True)
        assert all(a[0] >= 2 for a in rows)
        assert all(sum(a) == k + 1 for a in rows)
        assert all(sum(b) == k for b in cols)
        total += len(rows)
    assert total == 2 ** (k - 1)


@pytest.mark.parametrize("k,i", [(2, 0), (2, 3), (1, 1)])
def test_set_range_checks(k, i):
    with pytest.raises(DomainError):
        p_set(k, i)
    with pytest.raises(DomainError):
        q_set(k, i)


@pytest.mark.parametrize("c,n,expected", [
    ((2, 1), 3, 0),
    ((1, 2), 3, 1),
])
def test_rank_examples(c, n, expected):
    assert rank_desc_lex(c, n) == expected


def test_rank_3114_matches_linear_scan():
    assert rank_desc_lex((3, 1, 1, 4), 9) == p_set(8, 4).index((3, 1, 1, 4))


@pytest.mark.parametrize("n,parts", [(7, 3), (8, 4), (9, 2), (6, 6)])
def test_rank_is_inverse_of_indexing(n, parts):
    family = q_set(n, parts)
    for idx, c in enumerate(family):
        assert rank_desc_lex(c, n) == idx


@pytest.mark.parametrize("k,i", [(6, 3), (8, 4), (7, 1)])
def test_rank_agrees_with_header_positions(k, i):
    # first-part-1 compositions sort last, so P rows keep their plain ranks
    for idx, a in enumerate(p_set(k, i)):
        assert rank_desc_lex(a, k + 1) == idx
    for idx, b in enumerate(q_set(k, i)):
        assert rank_desc_lex(b, k) == idx


@pytest.mark.parametrize("c,n", [((2, 2), 3), ((0, 3), 3), ((), 3), ((-1, 4), 3)])
def test_rank_rejects_non_compositions(c, n):
    with pytest.raises(DomainError):
        rank_desc_lex(c, n)


@pytest.mark.parametrize("c,expected", [
    ((2, 1, 1, 1), "2111"),
    ((5, 1, 1, 2), "5112"),
    ((12, 1), "12,1"),
    ((10, 10, 3), "10,10,3"),
])
def test_format_composition(c, expected):
    assert format_composition(c) == expected


def _parse(s: str, parts: int | None = None):
    """format_composition's inverse; a lone digit string is one part only
    when parts says so."""
    return tuple(map(int, s.split(",") if "," in s or parts == 1 else s))


@given(st.lists(st.integers(1, 30), min_size=1, max_size=6).map(tuple))
def test_format_parse_roundtrip(c):
    assert _parse(format_composition(c), parts=len(c)) == c


@given(st.lists(st.integers(1, 9), min_size=2, max_size=6).map(tuple))
def test_digit_strings_parse_without_length_context(c):
    assert _parse(format_composition(c)) == c
