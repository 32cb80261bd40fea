"""Dihedral action on middle-level words and the one-tree-per-orbit law."""
import pickle
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ziptensor.dihedral as dihedral
import ziptensor.verify as verify
from ziptensor.capacity import ORACLE_MAX_K, budget
from ziptensor.dihedral import (_CODE_MAX_K, OrbitClass, _class_codes,
                                _comp_reverse_codes, _partition_error,
                                _rotate_codes, canonical_tree_word,
                                check_middle_word, comp_reverse,
                                enumerate_orbits, middle_words, orbit,
                                orbit_summary, rotate)
from ziptensor.errors import (CapacityError, DomainError, MalformedWordError,
                              StructureViolationError)
from ziptensor.trees import catalan, tree_words
from ziptensor.zippering import is_tree_word


@st.composite
def odd_words(draw):
    k = draw(st.integers(1, 6))
    bits = draw(st.lists(st.sampled_from("01"),
                         min_size=2 * k + 1, max_size=2 * k + 1))
    return "".join(bits)


@pytest.mark.parametrize("w,t,expected", [
    ("00011", 0, "00011"),
    ("00011", 1, "00110"),
    ("00011", 5, "00011"),
    ("00011", -1, "10001"),
    ("0010101", 2, "1010100"),
    ("", 3, ""),
])
def test_rotate_examples(w, t, expected):
    assert rotate(w, t) == expected


def test_comp_reverse_examples():
    assert comp_reverse("0001011") == "0010111"
    assert comp_reverse("00011") == "00111"
    assert comp_reverse("0") == "1"


@given(odd_words())
def test_comp_reverse_is_an_involution(w):
    assert comp_reverse(comp_reverse(w)) == w


@given(odd_words(), st.integers(-20, 20), st.integers(-20, 20))
def test_rotation_composition(w, s, t):
    assert rotate(rotate(w, s), t) == rotate(w, s + t)


@given(odd_words(), st.integers(-20, 20))
def test_reversal_conjugates_rotation(w, t):
    assert comp_reverse(rotate(w, t)) == rotate(comp_reverse(w), -t)


def test_weight_behaviour():
    w = "0010011"  # weight 3 = k
    assert rotate(w, 3).count("1") == 3
    assert comp_reverse(w).count("1") == 4  # swaps to k+1


@pytest.mark.parametrize("w,k", [("00011", 2), ("00111", 2), ("0010101", 3)])
def test_check_middle_word_accepts(w, k):
    assert check_middle_word(w) == k


@pytest.mark.parametrize("w", ["0011", "11111", "00001", "0x011", ""])
def test_check_middle_word_rejects(w):
    with pytest.raises(MalformedWordError):
        check_middle_word(w)


@pytest.mark.parametrize("w,message", [
    ("0011", "expected a word of odd length, got 4"),
    ("11111", "weight 5 not in {2, 3} for length 5")])
def test_check_middle_word_names_the_shape_a_word_lacks(w, message):
    with pytest.raises(MalformedWordError) as info:
        check_middle_word(w)
    assert str(info.value) == message


def test_orbit_k2_against_explicit_rotations():
    expected = {rotate("00011", t) for t in range(5)}
    expected |= {rotate("00111", t) for t in range(5)}
    assert orbit("00011") == expected
    assert len(expected) == 10


@st.composite
def some_middle_words(draw):
    k = draw(st.integers(1, 5))
    weight = draw(st.sampled_from([k, k + 1]))
    ones = draw(st.sets(st.integers(0, 2 * k),
                        min_size=weight, max_size=weight))
    return "".join("1" if j in ones else "0" for j in range(2 * k + 1))


@given(some_middle_words())
def test_orbit_is_closed_and_shared(w):
    members = orbit(w)
    assert w in members
    for m in list(members)[:4]:
        assert orbit(m) == members
        assert rotate(m, 1) in members
        assert comp_reverse(m) in members


@pytest.mark.parametrize("w,expected", [
    ("11000", "00011"),
    ("0010101", "0010101"),
    ("00111", "00011"),
])
def test_canonical_tree_word_examples(w, expected):
    assert canonical_tree_word(w) == expected


def _unique_tree_word(members: frozenset[str], k: int) -> str:
    """The one tree word among an orbit's members, found by testing each."""
    hits = [v for v in members if v.count("1") == k and is_tree_word(v)]
    if len(hits) != 1:
        raise StructureViolationError(
            f"orbit contains {len(hits)} tree words, expected exactly 1: "
            f"{sorted(members)[0]} ...")
    return hits[0]


def test_unique_tree_word_guard():
    with pytest.raises(StructureViolationError):
        _unique_tree_word(frozenset({"00011", "00101"}), 2)
    with pytest.raises(StructureViolationError):
        _unique_tree_word(frozenset({"01010"}), 2)


def test_middle_words_census():
    words = list(middle_words(2))
    assert len(words) == len(set(words)) == 20
    assert all(len(w) == 5 and w.count("1") in (2, 3) for w in words)


@pytest.mark.parametrize("k", range(10))
def test_middle_words_spell_the_listed_codes_in_order(k):
    # spelled 4,096 codes at a time: several chunks per level from k = 7 on
    width = f"0{2 * k + 1}b"
    expected = [format(code, width) for level in dihedral._middle_codes(k)
                for code in level[::-1].tolist()]
    assert list(middle_words(k)) == expected


def test_middle_words_refuse_a_negative_edge_count():
    with pytest.raises(DomainError,
                       match="edge count k must be at least 0, got -1"):
        list(middle_words(-1))


@pytest.mark.parametrize("k,count", [(2, 2), (3, 5), (4, 14), (5, 42)])
def test_enumerate_orbit_counts(k, count):
    classes = enumerate_orbits(k)
    assert len(classes) == count == catalan(k)
    assert all(cls.size == 2 * (2 * k + 1) for cls in classes)


def test_enumerate_k3_canonicals_in_order():
    assert [cls.canonical for cls in enumerate_orbits(3)] == [
        "0000111", "0001011", "0001101", "0010011", "0010101"]


@pytest.mark.parametrize("k", range(2, 6))
def test_orbits_partition_the_middle_levels(k):
    classes = enumerate_orbits(k)
    seen: set[str] = set()
    for cls in classes:
        assert not (seen & cls.members)
        assert cls.canonical in cls.members
        seen |= cls.members
    assert seen == set(middle_words(k))


@pytest.mark.parametrize("k", range(2, 7))
def test_canonicals_are_exactly_the_tree_words(k):
    assert {c.canonical for c in enumerate_orbits(k)} == set(tree_words(k))


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_orbits(12)
    with budget(3), pytest.raises(CapacityError):
        enumerate_orbits(4)


def test_middle_words_are_admitted_at_the_listing_cost():
    # the scan runs in chunks no longer than the 2 C(2k+1, k) codes it lists
    with budget(2 * comb(9, 4)):
        assert len(list(middle_words(4))) == 2 * comb(9, 4)
    with budget(2 * comb(9, 4) - 1), pytest.raises(CapacityError):
        next(middle_words(4))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="middle words of k = 12"):
            next(middle_words(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class _Reached(Exception):
    pass


def _refuse_tree_words(k):
    raise _Reached(k)


def test_code_width_guard_refuses_before_listing(monkeypatch):
    # 2k+1 = 65 bits do not fit a uint64 code; k = 31 (63 bits) does
    assert _CODE_MAX_K == 31
    monkeypatch.setattr(dihedral, "tree_words", _refuse_tree_words)
    k = _CODE_MAX_K + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="65 bits"):
            enumerate_orbits(k)
        with budget(1 << 70), pytest.raises(CapacityError, match="65 bits"):
            next(middle_words(k))
        # a class of 65-symbol words, whose codes a member may push past
        # 2^64 - 1
        w = "0" * (k + 1) + "1" * k
        for members in ({w}, {w, "1" * 65}):
            with pytest.raises(CapacityError, match="65 bits"):
                OrbitClass(w, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    w = "0" * (_CODE_MAX_K + 1) + "1" * _CODE_MAX_K
    assert OrbitClass(w, {w}).members == {w}
    with budget(2 * comb(63, 31)), pytest.raises(_Reached):
        enumerate_orbits(_CODE_MAX_K)


@st.composite
def coded_middle_words(draw, max_k=_CODE_MAX_K):
    k = draw(st.integers(0, max_k))
    weight = draw(st.sampled_from([k, k + 1]))
    ones = draw(st.sets(st.integers(0, 2 * k),
                        min_size=weight, max_size=weight))
    return k, "".join("1" if j in ones else "0" for j in range(2 * k + 1))


@given(coded_middle_words())
def test_class_codes_are_the_rotations_and_reversals(case):
    k, w = case
    n = 2 * k + 1
    expected = [int(rotate(v, t), 2) for v in (w, comp_reverse(w))
                for t in range(n)]
    assert _class_codes([w], k).tolist() == [expected]


def test_enumerate_orbits_scans_middle_words_only_for_the_oracle(monkeypatch):
    scanned = []
    real = dihedral.middle_words

    def counted(k):
        scanned.append(k)
        return real(k)
    monkeypatch.setattr(dihedral, "middle_words", counted)
    enumerate_orbits(ORACLE_MAX_K)
    assert scanned == [ORACLE_MAX_K]
    # k = 9: the codes alone prove the partition
    assert len(enumerate_orbits(ORACLE_MAX_K + 1)) == catalan(9)
    assert scanned == [ORACLE_MAX_K]


def test_orbit_summary_9_memory_is_bounded():
    tracemalloc.start()
    try:
        summary = orbit_summary(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["orbit_count"] == catalan(9)
    assert peak < 16 * 1024 * 1024


def test_orbit_summary_shape():
    summary = orbit_summary(2)
    assert summary == {
        "k": 2,
        "orbit_count": 2,
        "orbits": [{"canonical": "00011", "size": 10},
                   {"canonical": "00101", "size": 10}],
    }
    assert orbit_summary(3)["orbit_count"] == 5


def test_orbit_summary_takes_no_classes_but_those_of_k():
    # a summary of k = 3 holding the 42 classes of k = 5 cannot be asked for
    with pytest.raises(TypeError):
        orbit_summary(3, enumerate_orbits(5))


@pytest.mark.parametrize("coded", [
    c for k in range(7) for c in enumerate_orbits(k)],
    ids=lambda c: c.canonical)
def test_orbit_class_is_hashable_value(coded):
    a, b = OrbitClass("00011", frozenset({"00011"})), OrbitClass(
        "00011", frozenset({"00011"}))
    assert a == b and hash(a) == hash(b)
    explicit = OrbitClass(coded.canonical, coded.members)
    assert coded == explicit and hash(coded) == hash(explicit)
    assert pickle.dumps(coded) == pickle.dumps(explicit)
    assert coded != a and coded != coded.canonical
    with pytest.raises(AttributeError):
        coded.canonical = "00101"
    for orbit_class in (a, coded):
        assert pickle.loads(pickle.dumps(orbit_class)) == orbit_class


@pytest.mark.parametrize("k", range(7))
def test_orbit_classes_compare_and_hash_by_their_code_rows(monkeypatch, k):
    classes = enumerate_orbits(k)
    copies = [OrbitClass(c.canonical, c.members) for c in classes]
    # two classes trade one member each; k = 0 and 1 hold one class only
    traded = []
    for a, b in zip(classes, classes[1:] + classes[:1]) if k > 1 else ():
        x, y = min(a.members - {a.canonical}), min(b.members - {b.canonical})
        traded.append(OrbitClass(a.canonical, a.members - {x} | {y}))
    monkeypatch.setattr(OrbitClass, "members", property(
        lambda self: pytest.fail("members built")))
    by_copy = {copy: j for j, copy in enumerate(copies)}
    for j, (c, copy) in enumerate(zip(classes, copies)):
        assert c == copy and copy == c and hash(c) == hash(copy)
        assert by_copy[c] == j
    for c, other in zip(classes, traded):
        assert c != other and other != c and other not in by_copy


def test_orbit_class_repr_evaluates_to_an_equal_class():
    for k in range(4):
        for c in enumerate_orbits(k):
            assert eval(repr(c), {"OrbitClass": OrbitClass}) == c


@pytest.mark.parametrize("members", [
    {"011", "00011"},    # shorter than the canonical word
    {"00011", "000111"},  # longer
    {"2"},
    {""},
])
def test_orbit_class_refuses_a_member_of_another_width(members):
    with pytest.raises(MalformedWordError):
        OrbitClass("00011", frozenset(members))


def test_orbit_class_takes_any_binary_member_of_its_width():
    # off-level members and a canonical word of no middle level build, as
    # the planted classes of the verify tests need
    assert OrbitClass("00011", frozenset({"00000"})).members == {"00000"}
    assert OrbitClass("11111", frozenset({"00101"})).members == {"00101"}
    # the members are read once, so an iterator of them builds the class too
    assert OrbitClass("00011", iter(["00000", "00011"])).size == 2


def test_a_repeated_code_differs_from_its_deduplicated_twin():
    a = enumerate_orbits(2)[0]
    row = a._codes.copy()
    row[-1] = row[1]
    planted = OrbitClass._from_codes(a.canonical, row)
    twin = OrbitClass(a.canonical, planted.members)
    assert planted != twin and planted.size != twin.size


def test_size_and_summary_never_build_members(monkeypatch):
    classes = enumerate_orbits(5)
    monkeypatch.setattr(OrbitClass, "members", property(
        lambda self: pytest.fail("members built")))
    assert {c.size for c in classes} == {22}
    assert orbit_summary(5)["orbit_count"] == 42
    assert orbit_summary(5)["orbits"][0]["size"] == 22


def _closure_partition(k):
    """Brute-force classes: the orbit closure of every middle word."""
    seen: set[str] = set()
    classes = []
    for w in middle_words(k):
        if w not in seen:
            members = orbit(w)
            seen |= members
            classes.append(OrbitClass(_unique_tree_word(members, k), members))
    return sorted(classes, key=lambda c: c.canonical)


@pytest.mark.parametrize("k", range(0, 9))
def test_cycle_lemma_matches_the_orbit_closure(k):
    for cls in _closure_partition(k):
        for w in cls.members:
            assert canonical_tree_word(w) == cls.canonical, w


@st.composite
def long_middle_words(draw):
    k = draw(st.integers(0, 40))
    weight = draw(st.sampled_from([k, k + 1]))
    ones = draw(st.sets(st.integers(0, 2 * k),
                        min_size=weight, max_size=weight))
    return "".join("1" if j in ones else "0" for j in range(2 * k + 1))


@given(long_middle_words(), st.integers(-100, 100))
def test_cycle_lemma_is_a_class_invariant_past_the_orbit_limit(w, t):
    tree = canonical_tree_word(w)
    assert len(tree) == len(w) and is_tree_word(tree)
    assert canonical_tree_word(rotate(w, t)) == tree
    assert canonical_tree_word(comp_reverse(w)) == tree


def test_canonical_tree_word_rejects_a_broken_rotation(monkeypatch):
    monkeypatch.setattr(dihedral, "rotate", lambda w, t: w)
    with pytest.raises(StructureViolationError):
        canonical_tree_word("11000")


@pytest.mark.parametrize("k", range(0, 9))
def test_generated_classes_equal_the_orbit_closure(k):
    assert enumerate_orbits(k) == _closure_partition(k)


@given(coded_middle_words())
def test_closure_oracle_steps_are_one_rotation_and_the_reversal(case):
    k, w = case
    code = np.array([int(w, 2)], dtype=np.uint64)
    assert _rotate_codes(code, 1, k).tolist() == [int(rotate(w, 1), 2)]
    assert _comp_reverse_codes(code, k).tolist() == [
        int(comp_reverse(w), 2)]


def _oracle_codes(k):
    """The closure oracle's middle-word codes, as it sorts them."""
    return np.sort(np.concatenate(dihedral._middle_codes(k)))


def _oracle_words(k):
    return [format(code, f"0{2 * k + 1}b")
            for code in _oracle_codes(k).tolist()]


@pytest.mark.parametrize("k", range(0, 7))
def test_closure_oracle_components_are_the_orbit_closures(k):
    codes = _oracle_codes(k)
    steps = [np.searchsorted(codes, image)
             for image in (_rotate_codes(codes, 1, k),
                           _comp_reverse_codes(codes, k))]
    components = {}
    for label, w in zip(verify._components(*steps, k).tolist(),
                        _oracle_words(k)):
        components.setdefault(label, set()).add(w)
    assert _oracle_words(k) == sorted(middle_words(k))
    assert sorted(map(sorted, components.values())) == sorted(
        sorted(cls.members) for cls in _closure_partition(k))


@pytest.mark.parametrize("k", range(0, 7))
def test_closure_oracle_tree_word_mask_is_is_tree_word(k):
    mask = dihedral._tree_codes(_oracle_codes(k), k)
    assert mask.tolist() == [w.count("1") == k and is_tree_word(w)
                             for w in _oracle_words(k)]


@pytest.mark.parametrize("k", range(0, 7))
def test_code_batches_cross_their_seams(k, monkeypatch):
    # the k <= 6 codes fit one default batch; batches of 7 split them
    words = list(middle_words(k))
    monkeypatch.setattr(dihedral, "_CELLS_PER_BATCH", 7)
    assert list(middle_words(k)) == words
    assert dihedral._tree_codes(_oracle_codes(k), k).tolist() == [
        w.count("1") == k and is_tree_word(w) for w in _oracle_words(k)]


def test_middle_words_keep_combination_order():
    # weight k first, each weight in descending order
    assert list(middle_words(1)) == ["100", "010", "001",
                                     "110", "101", "011"]
    for k in range(0, 7):
        n = 2 * k + 1
        assert list(middle_words(k)) == [
            "".join("1" if j in ones else "0" for j in range(n))
            for weight in (k, k + 1)
            for ones in combinations(range(n), weight)]
    with pytest.raises(DomainError):
        enumerate_orbits(-1)


@pytest.mark.parametrize("broken", [
    # a tree word twice: the classes cover the middle words but overlap
    lambda words: words + words[:1],
    # one class too few: disjoint, but not every middle word is covered
    lambda words: words[:-1],
    # a periodic word, not a tree word: its class has too few members
    lambda words: ["0" * len(words[0])] + words[1:],
])
def test_enumerate_orbits_rejects_a_broken_partition(monkeypatch, broken):
    monkeypatch.setattr(dihedral, "tree_words",
                        lambda k: broken(tree_words(k)))
    with pytest.raises(StructureViolationError):
        enumerate_orbits(5)


@pytest.mark.parametrize("broken", [
    lambda words: words + words[:1],
    lambda words: words[:-1],
    lambda words: ["0" * len(words[0])] + words[1:],
])
def test_codes_alone_reject_a_broken_partition_past_the_oracle(monkeypatch,
                                                               broken):
    monkeypatch.setattr(dihedral, "middle_words",
                        lambda k: pytest.fail("middle words scanned"))
    monkeypatch.setattr(dihedral, "tree_words",
                        lambda k: broken(tree_words(k)))
    with pytest.raises(StructureViolationError):
        enumerate_orbits(ORACLE_MAX_K + 1)


@pytest.mark.parametrize("words,error", [
    # 00001 is off the middle levels, and the class of 00011 is listed twice:
    # the repeat is reported first
    (["00001", "00011", "00011"],
     "orbit classes overlap at k = 2: 00011 and 00011 share 00011"),
    # off the middle levels alone, the least such code is reported
    (["00001", "00011"], "class member 00001 has weight 1, not 2 or 3"),
])
def test_partition_error_reports_a_repeat_before_a_weight(words, error):
    assert _partition_error(words, _class_codes(words, 2), 2) == error


def test_enumerate_orbits_rejects_codes_off_the_middle_levels(monkeypatch):
    # 00001 has weight 1: its class and that of 00011 hold 20 distinct
    # words, as many as the middle words of k = 2, but not those words
    monkeypatch.setattr(dihedral, "tree_words",
                        lambda k: ["00001", "00011"])
    with pytest.raises(StructureViolationError, match="weight 1, not 2 or 3"):
        enumerate_orbits(2)
