"""Tree decoding/encoding and the Catalan/Narayana counts."""
from itertools import groupby, product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ziptensor.trees as trees
from ziptensor.compositions import p_set, q_set
from ziptensor.dihedral import canonical_tree_word
from ziptensor.errors import (CapacityError, DomainError, MalformedWordError,
                              ParseError, StructureViolationError)
from ziptensor.trees import (OrderedTree, _child_count_rows, _prefix_sums,
                             _tree_word_rows, catalan, count_trees,
                             count_trees_by_length, decode, encode, narayana,
                             to_dot, tree_words)
from ziptensor.zippering import (Tensor, _words, build_tensor, is_tree_word,
                                 zipper)


@pytest.mark.parametrize("w,parens", [
    ("0000111", "((()))"),
    ("0001101", "(())()"),
    ("0001011", "(()())"),
    ("0010011", "()(())"),
    ("0010101", "()()()"),
    ("001", "()"),
])
def test_decode_examples(w, parens):
    assert decode(w).to_parens() == parens


@pytest.mark.parametrize("k", range(2, 9))
def test_parens_is_the_word_tail(k):
    # preorder descent/ascent makes the code a shifted parenthesis string
    table = str.maketrans("01", "()")
    for w in tree_words(k):
        assert decode(w).to_parens() == w[1:].translate(table)


@pytest.mark.parametrize("k", range(2, 9))
def test_encode_inverts_decode(k):
    for w in tree_words(k):
        assert encode(decode(w)) == w


@pytest.mark.parametrize("w", ["0011001", "0101010"])
def test_decode_rejects_non_tree_words(w):
    with pytest.raises(DomainError):
        decode(w)


@pytest.mark.parametrize("w", ["0011", "00001"])
def test_decode_rejects_malformed_words(w):
    with pytest.raises(MalformedWordError):
        decode(w)


@pytest.mark.parametrize("w,message", [
    ("0011", "expected a word of odd length, got 4"),
    ("00111", "weight 3 not in {2} for length 5"),
    ("00001", "weight 1 not in {2} for length 5")])
def test_decode_names_the_shape_a_malformed_word_lacks(w, message):
    for reader in (decode, is_tree_word):
        with pytest.raises(MalformedWordError) as info:
            reader(w)
        assert str(info.value) == message


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_decode_rejects_exactly_what_is_tree_word_rejects(n):
    for symbols in product("01", repeat=n):
        w = "".join(symbols)
        try:
            tree = is_tree_word(w)
        except MalformedWordError:
            with pytest.raises(MalformedWordError):
                decode(w)
            continue
        if tree:
            assert encode(decode(w)) == w
        else:
            with pytest.raises(DomainError) as info:
                decode(w)
            assert type(info.value) is DomainError


@pytest.mark.parametrize("w", ["", "0a1", "0(1", "0011", "00111",
                               "0 1", "0\n1"])
def test_decode_rejects_what_is_tree_word_rejects_off_the_alphabet(w):
    with pytest.raises(MalformedWordError):
        is_tree_word(w)
    with pytest.raises(MalformedWordError):
        decode(w)


def test_catalan_against_recurrence():
    series = [1]
    for n in range(14):
        series.append(sum(series[j] * series[n - j] for j in range(n + 1)))
    for k, expected in enumerate(series):
        assert catalan(k) == expected


def test_catalan_refuses_a_negative_edge_count():
    with pytest.raises(DomainError,
                       match="edge count k must be at least 0, got -1"):
        catalan(-1)


@pytest.mark.parametrize("k", range(1, 13))
def test_narayana_symmetry_and_total(k):
    assert sum(narayana(k, i) for i in range(1, k + 1)) == catalan(k)
    for i in range(1, k + 1):
        assert narayana(k, i) == narayana(k, k + 1 - i)
    assert narayana(k, 0) == 0
    assert narayana(k, k + 1) == 0


def test_narayana_examples():
    assert narayana(5, 3) == 20
    assert narayana(8, 4) == 490


@pytest.mark.parametrize("k,expected", [(3, 5), (4, 14), (5, 42)])
def test_count_trees_matches_golden_bit_census(k, expected, golden):
    census = sum(golden(k, i).count("1") for i in range(1, k + 1))
    assert census == expected
    assert count_trees(k) == census


@pytest.mark.parametrize("k,i", [(5, 3), (6, 3), (8, 4)])
def test_count_by_length_matches_golden(k, i, golden):
    assert count_trees_by_length(k, i) == golden(k, i).count("1")


def test_tree_words_k3_order():
    assert tree_words(3) == ["0000111", "0001101", "0001011",
                             "0010011", "0010101"]


@pytest.mark.parametrize("k", range(2, 12))
def test_tree_words_follow_tensor_order(k):
    expected = []
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        expected.extend(zipper(a, b)
                        for p, a in enumerate(t.rows)
                        for q, b in enumerate(t.cols) if t.entries[p, q])
    assert tree_words(k) == expected


@pytest.mark.parametrize("k", range(2, 8))
def test_run_count_matches_tensor_index(k):
    for i in range(1, k + 1):
        t = build_tensor(k, i)
        for p, a in enumerate(t.rows):
            for q, b in enumerate(t.cols):
                if t.entries[p, q]:
                    w = zipper(a, b)
                    ones_runs = sum(1 for ch, _ in groupby(w) if ch == "1")
                    assert ones_runs == i


def test_tree_census_capacity():
    with pytest.raises(CapacityError):
        count_trees(15)
    with pytest.raises(CapacityError):
        tree_words(15)


def test_tree_validation():
    assert OrderedTree((0,)).child_counts == (0,)
    assert OrderedTree((2, 0, 0)).child_counts == (2, 0, 0)
    for bad in ((), (2, 0), (0, 0), (1, 2, 0), (-1,)):
        with pytest.raises(DomainError):
            OrderedTree(bad)


@pytest.mark.parametrize("counts", [
    (), (-1,), (4, -1, 0, 0), (2, 0, -1, 0, 0),  # no root, a negative count
    (0, 0), (1, 0, 0), (2, 0, 0, 0),  # closed early
    (2, 0), (1, 2, 0), (2 ** 70, 0), (1, 1),  # never closed
])
def test_the_walk_refuses_the_counts_of_no_tree(counts):
    with pytest.raises(DomainError, match="no tree's"):
        OrderedTree(counts)
    # a tree built unchecked is checked when it is walked
    tree = OrderedTree._trusted(counts)
    for walk in (OrderedTree.to_parens, encode, to_dot):
        with pytest.raises(DomainError, match="no tree's"):
            walk(tree)


@pytest.mark.parametrize("counts", [[1, 0], np.array([2, 0, 0])])
def test_tree_stores_its_counts_as_a_tuple(counts):
    tree, expected = OrderedTree(counts), OrderedTree(tuple(counts))
    assert type(tree.child_counts) is tuple
    assert tree == expected and hash(tree) == hash(expected)
    with pytest.raises(DomainError):
        OrderedTree([2, 0])


@pytest.mark.parametrize("parens", ["", "()", "(())()", "((()))((()))"])
def test_from_parens_roundtrip(parens):
    assert OrderedTree.from_parens(parens).to_parens() == parens


@pytest.mark.parametrize("parens", ["(", "())(", "(]", "(()", ")("])
def test_from_parens_rejects_malformed(parens):
    with pytest.raises(ParseError):
        OrderedTree.from_parens(parens)


@pytest.mark.parametrize("n", range(0, 11))
def test_from_parens_refuses_exactly_the_unbalanced_words(n):
    for symbols in product("()", repeat=n):
        parens = "".join(symbols)
        depths = [parens[:j].count("(") - parens[:j].count(")")
                  for j in range(n + 1)]
        if min(depths) >= 0 and depths[-1] == 0:
            tree = OrderedTree.from_parens(parens)
            assert tree == OrderedTree(tree.child_counts)
            assert tree.to_parens() == parens
        else:
            with pytest.raises(ParseError):
                OrderedTree.from_parens(parens)


@pytest.mark.parametrize("k", range(0, 7))
def test_trusted_trees_equal_and_hash_like_checked_ones(k):
    for w in tree_words(k):
        tree = decode(w)
        checked = OrderedTree(tree.child_counts)
        assert type(tree) is OrderedTree
        assert tree == checked and hash(tree) == hash(checked)
        trusted = OrderedTree._trusted(tree.child_counts)
        assert trusted == checked and hash(trusted) == hash(checked)


def generator_preorder(counts):
    """The per-step generator walk that to_parens and to_dot used before."""
    pending = [[0, counts[0]]]
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


def generator_to_parens(t):
    return "".join("(" if step else ")"
                   for step in generator_preorder(t.child_counts))


def generator_to_dot(t, name="tree"):
    edges = [step for step in generator_preorder(t.child_counts) if step]
    lines = [f"digraph {name} {{"]
    if not edges:
        lines.append("  0;")
    lines.extend(f"  {a} -> {b};" for a, b in edges)
    lines.append("}")
    return "\n".join(lines)


def _trees_up_to(k):
    yield OrderedTree((0,))
    yield OrderedTree((1, 0))
    for edges in range(2, k + 1):
        yield from map(decode, tree_words(edges))


def test_flat_walk_matches_the_generator_walk():
    for t in _trees_up_to(9):
        assert t.to_parens() == generator_to_parens(t)
        if len(t.child_counts) <= 8:  # at most 7 edges
            assert to_dot(t, name="t") == generator_to_dot(t, name="t")


def test_to_dot_shapes():
    dot = to_dot(decode("0010101"))
    assert dot.startswith("digraph tree {")
    assert "0 -> 1;" in dot and "0 -> 3;" in dot
    solo = to_dot(OrderedTree((0,)), name="leaf")
    assert "digraph leaf {" in solo and "0;" in solo


def test_preorder_child_counts():
    #   root
    #   /  \      left child itself has one child
    #  .    .
    t = decode("0001011")  # (()())
    assert t.child_counts == (1, 2, 0, 0)


@pytest.mark.parametrize("k", range(2, 8))
def test_census_sizes(k):
    words = tree_words(k)
    assert len(words) == catalan(k)
    assert len(set(words)) == len(words)
    assert all(len(w) == 2 * k + 1 for w in words)
    assert words[0] == "0" * (k + 1) + "1" * k


def test_tree_words_below_two_edges():
    # no tensor holds them, but each order has one tree word, 0^(k+1) 1^k
    assert tree_words(0) == ["0"]
    assert tree_words(1) == ["001"]
    assert [decode(w).to_parens() for w in tree_words(1)] == ["()"]
    with pytest.raises(DomainError, match="at least 0, got -1"):
        tree_words(-1)
    # the census counts tensor cells, and there are none below k = 2
    for k in (0, 1, -1):
        with pytest.raises(DomainError, match=f"at least 2, got {k}"):
            count_trees(k)


def _patched_tensor(monkeypatch, change):
    def fake(k, i):
        t = build_tensor(k, i)
        return change(t) if (k, i) == (5, 3) else t
    monkeypatch.setattr(trees, "build_tensor", fake)


def test_spurious_unit_entry_is_a_structure_violation(monkeypatch):
    def plant(t):
        entries = t.entries.copy()
        entries[t.n - 1, 0] = 1  # a zero cell of T[5,3]
        return Tensor(t.k, t.i, t.rows, t.cols, entries)
    assert build_tensor(5, 3).entries[-1, 0] == 0
    _patched_tensor(monkeypatch, plant)
    with pytest.raises(StructureViolationError, match=r"T\[5,3\]"):
        tree_words(5)


@pytest.mark.parametrize("rows", [
    lambda rows: [r[:-1] + (r[-1] + 1,) for r in rows],  # sums off by two
    lambda rows: [r[:-1] for r in rows],                 # fewer parts
    lambda rows: [(r[0] + 1,) + r[1:-1] + (0,) for r in rows],  # a zero part
])
def test_header_pair_checks_run_on_the_batch(monkeypatch, rows):
    _patched_tensor(monkeypatch, lambda t: Tensor(
        t.k, t.i, rows(t.rows), t.cols, t.entries))
    with pytest.raises(DomainError):
        tree_words(5)



@st.composite
def tree_word_batches(draw):
    """Tree words of one k <= 40, as canonical_tree_word of middle words."""
    k = draw(st.integers(1, 40))
    words = []
    for _ in range(draw(st.integers(1, 6))):
        weight = draw(st.sampled_from([k, k + 1]))
        ones = draw(st.sets(st.integers(0, 2 * k),
                            min_size=weight, max_size=weight))
        words.append(canonical_tree_word(
            "".join("1" if j in ones else "0" for j in range(2 * k + 1))))
    return words


def _rows(words):
    return np.array([[int(ch) for ch in w] for w in words], dtype=np.uint8)


@given(tree_word_batches())
def test_kernel_matches_decode_and_inverts_exactly(words):
    bits = _rows(words)
    counts = _child_count_rows(bits)
    assert [tuple(row) for row in counts.tolist()] \
        == [decode(w).child_counts for w in words]
    assert np.array_equal(_tree_word_rows(counts), bits)
    # negative controls: one vertex too many closes every tree early, and
    # one more child of the root never closes it
    with pytest.raises(DomainError, match="row 0 has .*close the tree early"):
        _tree_word_rows(np.pad(counts, ((0, 0), (0, 1))))
    counts[:, 0] += 1
    with pytest.raises(DomainError, match="row 0 has .*do not close"):
        _tree_word_rows(counts)


@pytest.mark.parametrize("k", range(2, 9))
def test_kernel_round_trips_every_tree_word(k):
    words = tree_words(k)
    counts = _child_count_rows(_rows(words))
    assert [tuple(row) for row in counts.tolist()] \
        == [decode(w).child_counts for w in words]
    assert _words(_tree_word_rows(counts)) == words


@given(st.lists(st.integers(-1, 3), min_size=1, max_size=8))
def test_kernel_inverse_accepts_exactly_the_lukasiewicz_rows(row):
    try:
        tree = OrderedTree(tuple(row))
    except DomainError:
        with pytest.raises(DomainError):
            _tree_word_rows(np.array([row]))
    else:
        assert _words(_tree_word_rows(np.array([row]))) == [encode(tree)]


@given(tree_word_batches())
def test_flat_walk_matches_the_generator_walk_on_large_trees(words):
    for w in words:
        t = decode(w)
        assert t.to_parens() == generator_to_parens(t) == w[1:].translate(
            str.maketrans("01", "()"))
        assert to_dot(t) == generator_to_dot(t)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@given(arrays(st.just(np.int64),
              st.tuples(st.integers(0, 6), st.sampled_from([0, 1, 2, 25])),
              elements=st.integers(-1000, 1000)), st.booleans())
def test_prefix_sums_are_numpy_cumsum(dtype, x, fortran):
    a = np.array(x, dtype=dtype, order="F" if fortran else "C")
    assert _prefix_sums(a) is a  # in place
    assert a.tolist() == np.cumsum(x, axis=1).tolist()
