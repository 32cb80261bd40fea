"""Zipper words, the tensor rule, and tensor construction."""
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ziptensor.capacity import budget
from ziptensor.compositions import p_set, q_set
from ziptensor.dihedral import middle_words
from ziptensor.errors import CapacityError, DomainError, MalformedWordError
from ziptensor.zippering import (Tensor, _check_headers, _text,
                                 _unzip_array, _words, _zip, _zipper_array,
                                 _zipper_cells, build_tensor, is_tree_word,
                                 unzip, zipper)


def tensor_entry(a, b):
    """1 iff every prefix partial sum of (a_j - b_j) is positive, else 0:
    the entry rule one pair at a time, a reference for build_tensor."""
    _check_headers(np.array([a]), np.array([b]), sum(b))
    total = 0
    for x, y in zip(a, b):
        total += x - y
        if total <= 0:
            return 0
    return 1


@pytest.mark.parametrize("a,b,expected", [
    ((4,), (3,), "0000111"),
    ((3, 1), (2, 1), "0001101"),
    ((3, 1), (1, 2), "0001011"),
    ((2, 2), (1, 2), "0010011"),
    ((2, 1, 1), (1, 1, 1), "0010101"),
])
def test_zipper_examples(a, b, expected):
    assert zipper(a, b) == expected


@pytest.mark.parametrize("a,b", [
    ((3, 1), (2,)),          # length mismatch
    ((2, 2), (2, 2)),        # sums not offset by one
    ((3, 0, 1), (1, 1, 1)),  # zero part
])
def test_zipper_rejects_bad_pairs(a, b):
    with pytest.raises(DomainError):
        zipper(a, b)


@pytest.mark.parametrize("k", range(2, 7))
def test_zip_core_agrees_with_zipper_on_valid_pairs(k):
    for i in range(1, k + 1):
        for a in p_set(k, i):
            for b in q_set(k, i):
                assert _zip(a, b) == zipper(a, b)


def test_zipper_checks_and_admits_the_pairs_its_core_trusts():
    assert _zip((2, 2), (2, 2)) == "00110011"
    with pytest.raises(DomainError):
        zipper((2, 2), (2, 2))
    with budget(6):
        assert _zip((4,), (3,)) == "0000111"
        with pytest.raises(CapacityError):
            zipper((4,), (3,))


@pytest.mark.parametrize("a,b,message", [
    ((3, 1), (2,), "length mismatch: 2 vs 1 parts"),
    ((2, 2), (2, 2),
     "sums must differ by one: rows must sum to 5 and columns to 4"),
    ((3, 0, 1), (1, 1, 1), "composition parts must be positive"),
    ((), (), "sums must differ by one: rows must sum to 1 and columns to 0"),
])
def test_zipper_refusals_state_the_rule_they_check(a, b, message):
    with pytest.raises(DomainError) as refused:
        zipper(a, b)
    assert str(refused.value) == message


def test_header_refusal_names_the_sums_the_grid_needs():
    rows, cols = np.array([(3, 1), (3, 2)]), np.array([(2, 1), (1, 2)])
    with pytest.raises(DomainError) as refused:
        _check_headers(rows, cols, 3)
    assert str(refused.value) == (
        "sums must differ by one: rows must sum to 4 and columns to 3")


def test_zipper_sums_its_parts_exactly_at_any_size():
    # parts of 2^63 fit no int64, and a uint64 sum of two of them wraps
    big = 1 << 63
    with pytest.raises(CapacityError):
        zipper((big, big + 1), (big, big))  # a pair, past the budget
    with pytest.raises(DomainError, match="rows must sum to 5 "):
        zipper((big, big, 5), (1, 1, 2))  # sums 2^64 + 5 and 4


@pytest.mark.parametrize("w,expected", [
    ("0001011", ((3, 1), (1, 2))),
    ("0010011", ((2, 2), (1, 2))),
    ("0" * 8 + "1" * 7, ((8,), (7,))),
])
def test_unzip_examples(w, expected):
    assert unzip(w) == expected


MALFORMED = ["1001", "0110", "", "0a1"]


@pytest.mark.parametrize("w", MALFORMED)
def test_unzip_rejects_malformed(w):
    with pytest.raises(MalformedWordError):
        unzip(w)


def _groupby_unzip(w):
    """The run decoding unzip used before str.split, kept as an oracle."""
    if not w or set(w) - {"0", "1"}:
        raise MalformedWordError(f"not a nonempty binary word: {w!r}")
    if w[0] != "0" or w[-1] != "1":
        raise MalformedWordError(
            f"expected a word starting with 0 and ending with 1: {w!r}")
    runs = [(ch, sum(1 for _ in grp)) for ch, grp in groupby(w)]
    return (tuple(n for ch, n in runs if ch == "0"),
            tuple(n for ch, n in runs if ch == "1"))


def _outcome(f, w):
    try:
        return f(w)
    except MalformedWordError as exc:
        return str(exc)


@pytest.mark.parametrize("k", range(7))
def test_split_unzip_equals_groupby_unzip(k):
    for w in middle_words(k):
        assert _outcome(unzip, w) == _outcome(_groupby_unzip, w)


@pytest.mark.parametrize("w", MALFORMED)
def test_split_unzip_rejects_as_groupby_unzip_did(w):
    expected = _outcome(_groupby_unzip, w)
    assert isinstance(expected, str)
    assert _outcome(unzip, w) == expected


def _every_pair(k, i):
    rows = np.asarray(p_set(k, i), dtype=np.int64)
    cols = np.asarray(q_set(k, i), dtype=np.int64)
    every_pair = np.divmod(np.arange(len(rows) ** 2), len(rows))
    return rows, cols, every_pair


@pytest.mark.parametrize("k", range(2, 9))
def test_array_kernel_equals_scalar_zipper_and_unzip(k):
    for i in range(1, k + 1):
        rows, cols, every_pair = _every_pair(k, i)
        seen = 0
        for r, c, bits in _zipper_cells(rows, cols, k, *every_pair):
            pairs = [(tuple(rows[x].tolist()), tuple(cols[y].tolist()))
                     for x, y in zip(r, c)]
            assert bits.shape == (len(pairs), 2 * k + 1)
            assert _words(bits) == [zipper(a, b) for a, b in pairs]
            zeros, ones = _unzip_array(bits, i)
            assert np.array_equal(zeros, rows[r])
            assert np.array_equal(ones, cols[c])
            assert [(tuple(x), tuple(y)) for x, y in
                    zip(zeros.tolist(), ones.tolist())] \
                == [unzip(w) for w in _words(bits)]
            seen += len(pairs)
        assert seen == len(rows) ** 2


def test_zipper_cells_batches_keep_the_cell_order():
    rows, cols, (cell_rows, cell_cols) = _every_pair(10, 5)  # 126^2 pairs
    batches = list(_zipper_cells(rows, cols, 10, cell_rows, cell_cols))
    assert len(batches) == 4
    assert max(len(bits) for _, _, bits in batches) == 4096
    assert np.array_equal(np.concatenate([r for r, _, _ in batches]),
                          cell_rows)
    assert np.array_equal(np.concatenate([c for _, c, _ in batches]),
                          cell_cols)


@st.composite
def composition_pairs(draw):
    """Equal-length compositions a of k+1 and b of k, several of each."""
    k = draw(st.integers(1, 20))
    i = draw(st.integers(1, k))

    def composition(total):
        cuts = draw(st.permutations(range(1, total)))[:i - 1]
        edges = [0, *sorted(cuts), total]
        return tuple(y - x for x, y in zip(edges, edges[1:]))

    m = draw(st.integers(1, 5))
    return k, i, [(composition(k + 1), composition(k)) for _ in range(m)]


@given(composition_pairs())
def test_array_kernel_matches_scalar_on_random_compositions(drawn):
    k, i, pairs = drawn
    a = np.array([a for a, _ in pairs], dtype=np.int64).reshape(-1, i)
    b = np.array([b for _, b in pairs], dtype=np.int64).reshape(-1, i)
    bits = _zipper_array(a, b)
    assert _words(bits) == [zipper(x, y) for x, y in pairs]
    zeros, ones = _unzip_array(bits, i)
    assert np.array_equal(zeros, a) and np.array_equal(ones, b)


def _bit_rows(*words):
    return np.array([[int(ch) for ch in w] for w in words], dtype=np.uint8)


@pytest.mark.parametrize("good,word,parts", [
    ("0001011", "1000111", 2),   # leading 1
    ("0001011", "0001110", 2),   # trailing 0
    ("0000111", "0001011", 1),   # four runs, not two
    ("0001011", "0000111", 2),   # two runs, not four
    ("0001011", "0020111", 2),   # not a 0/1 row
])
def test_unzip_array_rejects_malformed_rows(good, word, parts):
    bits = _bit_rows(good, word)
    assert _unzip_array(bits[:1], parts)[0].shape == (1, parts)
    with pytest.raises(MalformedWordError, match=f"row 1: .*{word}"):
        _unzip_array(bits, parts)


@pytest.mark.parametrize("too_many,too_few", [
    ("0101011", "0000111"),   # six runs, then two, not four each
    ("0000111", "0101011"),
])
def test_unzip_array_rejects_miscounts_that_cancel(too_many, too_few):
    # the batch holds as many run ends as three good rows would
    bits = _bit_rows("0001011", too_many, too_few)
    with pytest.raises(MalformedWordError, match=f"row 1: .*{too_many}"):
        _unzip_array(bits, 2)


@pytest.mark.parametrize("k", range(2, 9))
def test_unzip_inverts_zipper(k):
    for i in range(1, k + 1):
        for a in p_set(k, i):
            for b in q_set(k, i):
                w = zipper(a, b)
                assert len(w) == 2 * k + 1
                assert w[:2] == "00"
                assert unzip(w) == (a, b)


@pytest.mark.parametrize("a,b,expected", [
    ((2, 2), (2, 1), 0),
    ((3, 1), (1, 2), 1),
    ((8,), (7,), 1),
])
def test_tensor_entry_examples(a, b, expected):
    assert tensor_entry(a, b) == expected


@pytest.mark.parametrize("w,expected", [
    ("0010011", 1),
    ("0000111", 1),
    ("0011001", 0),  # prefix sum drops to 0 after position 4
    ("0101010", 0),
])
def test_is_tree_word_examples(w, expected):
    assert is_tree_word(w) == expected


@pytest.mark.parametrize("w", ["0011", "000111", "0001", "00a11"])
def test_is_tree_word_rejects_malformed(w):
    with pytest.raises(MalformedWordError):
        is_tree_word(w)


@pytest.mark.parametrize("k", range(2, 9))
def test_entry_rule_equals_tree_word_test(k):
    for i in range(1, k + 1):
        for a in p_set(k, i):
            for b in q_set(k, i):
                assert tensor_entry(a, b) == is_tree_word(zipper(a, b))


def test_build_tensor_32():
    t = build_tensor(3, 2)
    assert np.array_equal(t.entries, [[1, 1], [0, 1]])
    assert t.rows == [(3, 1), (2, 2)]
    assert t.cols == [(2, 1), (1, 2)]


def broadcast_entries(k, i):
    """The 3-D broadcast build_tensor used before the part-by-part rule."""
    row_sums = np.asarray(p_set(k, i), dtype=np.int64).cumsum(axis=1)
    col_sums = np.asarray(q_set(k, i), dtype=np.int64).cumsum(axis=1)
    entries = (row_sums[:, None, :] > col_sums[None, :, :]).all(axis=2)
    return entries.astype(np.uint8)


@pytest.mark.parametrize("k", range(2, 13))
def test_build_tensor_matches_the_broadcast_rule(k):
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        assert t.rows == p_set(k, i) and t.cols == q_set(k, i)
        assert t.entries.dtype == np.uint8
        assert np.array_equal(t.entries, broadcast_entries(k, i))
        if k <= 7:
            assert t.entries.tolist() == [[tensor_entry(a, b) for b in t.cols]
                                          for a in t.rows]


def test_build_tensor_51_is_unit():
    assert np.array_equal(build_tensor(5, 1).entries, [[1]])


def test_build_tensor_63_upper_zeros():
    entries = build_tensor(6, 3).entries
    upper_zeros = {(r, c) for r in range(10) for c in range(10)
                   if c >= r and not entries[r, c]}
    assert upper_zeros == {(2, 3), (2, 6), (4, 6), (5, 6), (5, 7)}


@pytest.mark.parametrize("k", range(3, 10))
def test_strict_lower_triangle_is_null(k):
    for i in range(2, k):
        entries = build_tensor(k, i).entries
        assert not np.tril(entries, -1).any()


@pytest.mark.parametrize("k", range(2, 9))
def test_unit_entry_words_are_distinct(k):
    words = []
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        for p, a in enumerate(t.rows):
            for q, b in enumerate(t.cols):
                if t.entries[p, q]:
                    words.append(zipper(a, b))
    assert len(words) == len(set(words))


def test_tensor_equality_covers_headers_and_entries():
    assert build_tensor(4, 2) == build_tensor(4, 2)
    assert build_tensor(4, 2) != build_tensor(4, 3)
    assert build_tensor(4, 2) != object()


def test_build_tensor_range_checks():
    with pytest.raises(DomainError):
        build_tensor(5, 0)
    with pytest.raises(DomainError):
        build_tensor(5, 6)
    with pytest.raises(DomainError):
        build_tensor(1, 1)


def test_capacity_guard_and_env_override(monkeypatch):
    # T[32,3] has C(31,2)^2 = 465^2 cells; the word of (33,) (32,) 65 symbols
    cost = 216_225
    monkeypatch.delenv("ZIPTENSOR_CAPACITY", raising=False)
    with budget(cost - 1), pytest.raises(CapacityError):
        build_tensor(32, 3)
    with budget(cost):
        assert build_tensor(32, 3).n == 465
    with budget(64), pytest.raises(CapacityError):
        zipper((33,), (32,))
    with budget(65):
        assert zipper((33,), (32,)).count("1") == 32
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", str(cost - 1))
    with pytest.raises(CapacityError):
        build_tensor(32, 3)
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", str(cost))
    assert build_tensor(32, 3).n == 465
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", "not-a-number")
    with pytest.raises(CapacityError):
        zipper((4,), (3,))


def test_explicit_limit_beats_env(monkeypatch):
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", "99")
    with budget(10), pytest.raises(CapacityError):
        zipper((20,), (19,))


def test_words_spell_rows_in_a_two_symbol_alphabet():
    bits = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.uint8)
    assert _words(bits) == ["0110", "1001"]
    assert _words(bits[:, 1:], "()") == ["))(", "(()"]
    assert _words(bits, "ax") == ["axxa", "xaax"]


def test_words_spells_any_alphabet_and_leaves_its_input_alone():
    bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int32)
    # _words reads _text, which spells ASCII symbols only
    with pytest.raises(ValueError):
        _words(bits, "∘•")
    assert _words(bits, "()") == ["())", ")(("]
    assert bits.tolist() == [[0, 1, 1], [1, 0, 0]]
    assert _words(np.zeros((2, 0), dtype=np.uint8)) == ["", ""]


@given(arrays(np.uint8, st.tuples(st.integers(0, 6), st.integers(0, 30)),
              elements=st.integers(0, 1)),
       st.sampled_from(["01", "()", "10", ")("]), st.booleans())
@example(np.zeros((0, 25), dtype=np.uint8), "01", False)
@example(np.zeros((0, 25), dtype=np.uint8), "()", True)
@example(np.zeros((3, 0), dtype=np.uint8), "01", False)
@example(np.zeros((3, 1), dtype=np.uint8), "()", True)
def test_text_is_the_words_a_line_each(bits, alphabet, tail):
    # the parens listing spells each row without its first column
    bits = bits[:, 1:] if tail else bits
    assert _text(bits, alphabet) == "".join(
        "".join(alphabet[x] for x in row) + "\n" for row in bits.tolist())


def test_text_refuses_symbols_outside_ascii():
    with pytest.raises(ValueError):
        _text(np.zeros((1, 2), dtype=np.uint8), "∘•")
