"""Check runner wiring: records, defaults, failure paths, worker pool."""
import importlib
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest

import ziptensor
import ziptensor.dihedral as dihedral
import ziptensor.trees as trees
import ziptensor.verify as verify
import ziptensor.zippering as zippering
from ziptensor.compositions import p_set, q_set
from ziptensor.dihedral import OrbitClass, comp_reverse, enumerate_orbits
from ziptensor.trees import catalan, narayana, tree_words
from ziptensor.zippering import Tensor
from ziptensor.blocks import Block, Staircase
from ziptensor.errors import DomainError, StructureViolationError
from ziptensor.verify import CHECK_ORDER, DEFAULT_MAX_K, run_check, run_checks

RECORD_KEYS = {"check", "max_k", "passed", "counterexample", "elapsed_seconds"}
# the package's `blocks` attribute is the function of that name
blocks_module = importlib.import_module("ziptensor.blocks")


@pytest.mark.parametrize("name", CHECK_ORDER)
def test_every_check_passes_at_small_bound(name):
    bound = 4 if name == "dihedral" else 6
    record = run_check(name, bound)
    assert set(record) == RECORD_KEYS
    assert record["check"] == name
    assert record["max_k"] == bound
    assert record["passed"] is True
    assert record["counterexample"] is None


def test_default_bounds_applied():
    record = run_check("boundary")
    assert record["max_k"] == DEFAULT_MAX_K["boundary"] == 10
    assert record["passed"]


def test_unknown_check_rejected():
    with pytest.raises(DomainError, match="unknown check"):
        run_check("entropy")
    with pytest.raises(DomainError, match="unknown check"):
        run_checks(["catalan", "entropy"])


def _no_pool(*args, **kwargs):
    pytest.fail("worker pool started")


@pytest.mark.parametrize("names,message", [
    ([], "no check selected"),
    (["counts", "counts"], "check 'counts' selected more than once"),
    (["boundary", "counts", "boundary"],
     "check 'boundary' selected more than once"),
])
def test_empty_or_repeated_selection_rejected(monkeypatch, names, message):
    for name in CHECK_ORDER:
        monkeypatch.setitem(verify._CHECKS, name, verify._CHECKS[name]._replace(
            run=lambda bound: pytest.fail("check ran")))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    for jobs in (1, 2):
        with pytest.raises(DomainError, match=message):
            run_checks(names, max_k=4, jobs=jobs)


@pytest.mark.parametrize("max_k", [1, 0, -5])
def test_bound_below_two_rejected(max_k):
    with pytest.raises(DomainError, match="max_k must be at least 2"):
        run_check("counts", max_k)
    with pytest.raises(DomainError, match="max_k must be at least 2"):
        run_checks(["counts"], max_k=max_k)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(DomainError, match="jobs must be at least 1"):
        run_checks(["counts", "boundary"], max_k=4, jobs=jobs)


def test_report_shape_and_order():
    report = run_checks(["boundary", "counts"], max_k=5)
    assert report["tool"] == "ziptensor"
    assert report["version"]
    assert [r["check"] for r in report["checks"]] == ["boundary", "counts"]
    assert report["passed"] is True
    assert report["elapsed_seconds"] >= 0


def test_default_selection_covers_all_checks():
    report = run_checks(max_k=4)
    assert [r["check"] for r in report["checks"]] == list(CHECK_ORDER)


def test_failed_check_carries_counterexample(monkeypatch):
    planted = verify._CHECKS["counts"]._replace(
        run=lambda bound: {"k": 99, "detail": "planted"})
    monkeypatch.setitem(verify._CHECKS, "counts", planted)
    report = run_checks(["counts", "boundary"], max_k=4)
    assert report["passed"] is False
    failed = report["checks"][0]
    assert failed["passed"] is False
    assert failed["counterexample"] == {"k": 99, "detail": "planted"}
    assert report["checks"][1]["passed"] is True


def _raising_cover(real, k, i, index):
    raise StructureViolationError(f"planted at ({k},{i})")


def _tall_cover(real, k, i, index):
    retained, mask = real(k, i, index)
    return [Staircase(Block(1, 0, 3, 0, 2), 2)] + retained, mask


@pytest.mark.parametrize("planted,detail", [
    (_raising_cover, "planted at (6,3)"),
    (_tall_cover, "staircase block [0, 3, 0, 2] is taller than wide"),
])
def test_zeros_check_proves_the_disjoint_cover(monkeypatch, planted, detail):
    real = blocks_module._cover
    monkeypatch.setattr(blocks_module, "_cover", lambda k, i, index: (
        planted(real, k, i, index) if (k, i) == (6, 3)
        else real(k, i, index)))
    assert run_check("zeros")["counterexample"] == {
        "k": 6, "i": 3, "detail": detail}


def test_report_flags_and_zeros_record_read_one_verdict(monkeypatch):
    # a wrong zero cell of T[5,3]: the report's zero flag falls alone, and
    # the zeros check names the cell
    monkeypatch.setattr(blocks_module, "build_tensor", _at(
        (5, 3), _flip(-1, 0))(blocks_module.build_tensor))
    flags = blocks_module.decomposition_report(5, 3)["conformance"]
    assert flags["zero_set_matches_tensor"] is False
    assert flags["height_at_most_width"] is True
    assert run_check("zeros", 5)["counterexample"] == {
        "k": 5, "i": 3, "cell": [5, 0], "predicted": True}
    monkeypatch.undo()
    # a retained block taller than wide: the height flag falls alone
    real = blocks_module._cover
    monkeypatch.setattr(blocks_module, "_cover",
                        lambda k, i, index: _tall_cover(real, k, i, index))
    flags = blocks_module.decomposition_report(6, 3)["conformance"]
    assert flags["zero_set_matches_tensor"] is True
    assert flags["height_at_most_width"] is False


def test_jobs_give_identical_records():
    names = ["counts", "catalan", "roundtrip"]
    serial = run_checks(names, max_k=5, jobs=1)
    pooled = run_checks(names, max_k=5, jobs=2)

    def strip(report):
        return [{key: r[key] for key in ("check", "max_k", "passed",
                                         "counterexample")}
                for r in report["checks"]]

    assert strip(serial) == strip(pooled)


def _swap_one_member(classes):
    """Two classes trade one member each: sizes and cover still hold."""
    a, b = classes[0], classes[1]
    x, y = min(a.members - {a.canonical}), min(b.members - {b.canonical})
    return [OrbitClass(a.canonical, a.members - {x} | {y}),
            OrbitClass(b.canonical, b.members - {y} | {x})] + classes[2:]


@pytest.mark.parametrize("broken,method", [
    (lambda classes: classes[:-1], "counting"),
    (lambda classes: classes[:-1] + classes[:1], "counting"),
    (_swap_one_member, "oracle"),
])
def test_dihedral_counterexample_names_its_method(monkeypatch, broken,
                                                  method):
    real = verify.enumerate_orbits
    monkeypatch.setattr(verify, "enumerate_orbits",
                        lambda k: broken(real(k)))
    record = run_check("dihedral", 5)
    assert record["passed"] is False
    assert record["counterexample"]["k"] == 2
    assert record["counterexample"]["method"] == method


def test_dihedral_compares_members_past_the_oracle(monkeypatch):
    # at k = 9, past ORACLE_MAX_K, only the counting step can see the swap
    real = verify.enumerate_orbits
    monkeypatch.setattr(verify, "enumerate_orbits", lambda k: (
        _swap_one_member(real(k)) if k == 9 else real(k)))
    assert run_check("dihedral", 9)["counterexample"] == {
        "k": 9, "method": "counting", "word": "0" * 10 + "1" * 9,
        "detail": "the members are not the orbit of the word"}


def _foreign_member(classes):
    """The first class trades its last member for the second's tree word."""
    a, b = classes[0], classes[1]
    row = a._codes.copy()
    row[-1] = int(b.canonical, 2)
    return [OrbitClass._from_codes(a.canonical, row)] + classes[1:]


def _repeated_member(classes):
    """The first class holds its second member twice, its last not at all."""
    a = classes[0]
    row = a._codes.copy()
    row[-1] = row[1]
    return [OrbitClass._from_codes(a.canonical, row)] + classes[1:]


def _swapped_canonicals(classes):
    """Each of the first two classes is named by the other's tree word."""
    a, b = classes[0], classes[1]
    return [OrbitClass._from_codes(b.canonical, a._codes),
            OrbitClass._from_codes(a.canonical, b._codes)
            ] + classes[2:]


@pytest.mark.parametrize("broken,detail", [
    (_foreign_member,
     "member 00101 of the class of 00011 is not a middle word in the "
     "component of 00011"),
    (_repeated_member, "member 00110 of the class of 00011 is repeated"),
    (_swapped_canonicals,
     "member 00011 of the class of 00101 is not a middle word in the "
     "component of 00101"),
])
def test_dihedral_oracle_names_the_offending_word(monkeypatch, broken,
                                                  detail):
    # each breakage keeps the class count, sizes and tree-word canonicals,
    # so only the closure oracle can see it
    real = verify.enumerate_orbits
    monkeypatch.setattr(verify, "enumerate_orbits",
                        lambda k: broken(real(k)))
    assert run_check("dihedral", 5)["counterexample"] == {
        "k": 2, "method": "oracle", "detail": detail}


def _less(cls, word):
    return OrbitClass(cls.canonical, cls.members - {word})


def _more(cls, word):
    return OrbitClass(cls.canonical, cls.members | {word})


def _split(cls):
    """cls as two classes of the same name, one per half of its members."""
    half = sorted(cls.members)[:cls.size // 2]
    return [OrbitClass(cls.canonical, frozenset(half)),
            OrbitClass(cls.canonical, cls.members - set(half))]


@pytest.mark.parametrize("broken,detail", [
    # the counting check rejects each of these first in the dihedral check;
    # the oracle stands alone
    (lambda a, b: [a], "the middle words form 2 components, not 1"),
    (lambda a, b: [a, a], "member 00011 of the class of 00011 is repeated"),
    (lambda a, b: [_less(a, "00110"), b], "middle word 00110 is in no class"),
    (lambda a, b: [_more(a, "00000"), b],
     "member 00000 of the class of 00011 is not a middle word in the "
     "component of 00011"),
    (lambda a, b: [OrbitClass(a.canonical, frozenset()), b],
     "middle word 00011 is in no class"),
    # a canonical word that is no middle word
    (lambda a, b: [a, OrbitClass("11111", b.members)],
     "member 00101 of the class of 11111 is not a middle word in the "
     "component of 11111"),
    # one tree word names two classes, and the other component has none
    (lambda a, b: _split(a), "middle word 00101 is in no class"),
])
def test_closure_oracle_alone_names_each_breakage(broken, detail):
    a, b = enumerate_orbits(2)
    assert verify._closure_error([a, b], 2) is None
    assert verify._closure_error(broken(a, b), 2) == detail


def test_both_dihedral_oracles_read_the_one_middle_word_lister(monkeypatch):
    classes = enumerate_orbits(2)
    real = dihedral._middle_codes
    monkeypatch.setattr(dihedral, "_middle_codes",
                        lambda k: (real(k)[0][1:], real(k)[1]))
    # enumerate_orbits' comparison with the spelled middle words fails ...
    assert run_check("dihedral", 2)["counterexample"] == {
        "k": 2, "method": "generated",
        "detail": "the classes are not the middle words of k = 2"}
    # ... and so does the closure oracle on the real classes: 00011 is gone
    assert verify._closure_error(classes, 2) == (
        "the rotation of 10001 is not a middle word")


def test_dihedral_check_closes_no_orbit_by_search(monkeypatch):
    calls = 0
    real = dihedral.orbit

    def counted(w):
        nonlocal calls
        calls += 1
        return real(w)
    monkeypatch.setattr(dihedral, "orbit", counted)
    monkeypatch.setattr(verify, "orbit", counted, raising=False)
    assert run_check("dihedral")["passed"] is True
    assert calls == 0


def test_dihedral_check_calls_no_scalar_tree_word_test(monkeypatch):
    calls = 0
    real = zippering.is_tree_word

    def counted(w):
        nonlocal calls
        calls += 1
        return real(w)
    for module in (zippering, dihedral, trees, verify, ziptensor):
        monkeypatch.setattr(module, "is_tree_word", counted, raising=False)
    assert run_check("dihedral")["passed"] is True
    assert calls == 0


def test_dihedral_oracle_memory_is_bounded():
    # a (words, 2k+1) bit matrix at k = 8 would push the peak past the bound
    tracemalloc.start()
    try:
        counterexample = verify._dihedral_counterexample(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counterexample is None
    assert peak < 8 * 1024 * 1024



def _corrupt_kernel(monkeypatch, change):
    """The zipper kernel, with change applied to its first T[5,3] batch."""
    real = verify._zipper_cells

    def patched(rows, cols, k, cell_rows, cell_cols):
        for r, c, bits in real(rows, cols, k, cell_rows, cell_cols):
            if (k, rows.shape[1]) == (5, 3) and r[0] == 0:
                bits = bits.copy()
                change(bits)
            yield r, c, bits
    monkeypatch.setattr(verify, "_zipper_cells", patched)


def test_roundtrip_catches_a_wrong_batched_word(monkeypatch):
    def give_pair_0_the_word_of_pair_1(bits):
        bits[0] = bits[1]
    _corrupt_kernel(monkeypatch, give_pair_0_the_word_of_pair_1)
    record = run_check("roundtrip", 6)
    assert record["passed"] is False
    assert record["counterexample"] == {
        "k": 5, "i": 3, "method": "batched",
        "pair": [list(p_set(5, 3)[0]), list(q_set(5, 3)[0])]}


def test_roundtrip_catches_a_malformed_batched_word(monkeypatch):
    def flip_last_symbol(bits):
        bits[2, -1] = 0
    _corrupt_kernel(monkeypatch, flip_last_symbol)
    counterexample = run_check("roundtrip", 6)["counterexample"]
    assert counterexample["method"] == "batched"
    assert (counterexample["k"], counterexample["i"]) == (5, 3)
    assert counterexample["detail"].startswith("row 2:")


def test_roundtrip_oracle_catches_a_wrong_scalar_zipper(monkeypatch):
    real = verify._zip
    monkeypatch.setattr(verify, "_zip",
                        lambda a, b: real(a[::-1], b[::-1]))
    record = run_check("roundtrip", 6)
    assert record["passed"] is False
    # (3,) and (2,) read the same reversed; (2, 1) and (1, 1) do not
    assert record["counterexample"] == {
        "k": 2, "i": 2, "method": "oracle", "pair": [[2, 1], [1, 1]]}


def test_roundtrip_calls_scalar_zipper_only_for_the_oracle(monkeypatch):
    calls = 0
    real = zippering._zip

    def counted(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)
    # the oracle calls the scalar zipper's core on pairs of checked headers
    monkeypatch.setattr(verify, "_zip", counted)
    monkeypatch.setattr(zippering, "_zip", counted)
    assert run_check("roundtrip", 10)["passed"] is True
    # every pair of T[k,1..k] for k <= 8: sum over i of C(k-1,i-1)^2
    oracle_pairs = sum(comb(2 * k - 2, k - 1)
                       for k in range(2, verify.ORACLE_MAX_K + 1))
    assert calls == oracle_pairs == 4706


def test_roundtrip_calls_scalar_decode_only_for_the_oracle(monkeypatch):
    calls = 0
    real = trees.decode

    def counted(w):
        nonlocal calls
        calls += 1
        return real(w)
    monkeypatch.setattr(verify, "decode", counted)
    monkeypatch.setattr(trees, "decode", counted)
    assert run_check("roundtrip", 10)["passed"] is True
    # every k-edge tree word for k <= 8
    oracle_words = sum(catalan(k) for k in range(2, verify.ORACLE_MAX_K + 1))
    assert calls == oracle_words == 2054


def _corrupt_child_counts(monkeypatch, change):
    """The tree kernel, with change applied to its rows for T[5,2]."""
    real = verify._child_count_rows

    def patched(bits):
        counts = real(bits)
        if bits.shape[1] == 11 and len(counts) == narayana(5, 2):
            change(counts)
        return counts
    monkeypatch.setattr(verify, "_child_count_rows", patched)


def test_roundtrip_catches_a_wrong_child_count_row(monkeypatch):
    def give_tree_0_the_counts_of_tree_1(counts):
        counts[0] = counts[1]
    _corrupt_child_counts(monkeypatch, give_tree_0_the_counts_of_tree_1)
    record = run_check("roundtrip", 6)
    assert record["passed"] is False
    # T[5,1] holds the first tree word, T[5,2] the next ten
    assert record["counterexample"] == {
        "k": 5, "method": "trees-batched", "word": tree_words(5)[1]}


def test_roundtrip_catches_a_child_count_row_that_is_no_tree(monkeypatch):
    def add_a_child_to_root_2(counts):
        counts[2, 0] += 1
    _corrupt_child_counts(monkeypatch, add_a_child_to_root_2)
    counterexample = run_check("roundtrip", 6)["counterexample"]
    assert counterexample["method"] == "trees-batched"
    assert counterexample["k"] == 5
    assert counterexample["detail"].startswith("row 2 has")


def test_roundtrip_oracle_catches_a_wrong_scalar_decode(monkeypatch):
    def mirrored(w):  # the mirror image of w's tree
        return trees.decode("0" + comp_reverse(w[1:]))
    monkeypatch.setattr(verify, "decode", mirrored)
    record = run_check("roundtrip", 6)
    assert record["passed"] is False
    # 0001011 is (()()), whose mirror is itself; 0001101 is (())()
    assert record["counterexample"] == {
        "k": 3, "method": "trees-oracle", "word": "0001101"}


def _mirror(bits):
    """Tree-word rows of the mirror-image trees: the tail reversed and
    complemented."""
    return np.concatenate([bits[:, :1], 1 - bits[:, :0:-1]], axis=1)


def test_roundtrip_oracle_catches_a_consistently_wrong_kernel(monkeypatch):
    # both kernel halves read the mirror tree, so they still invert each
    # other: only the comparison with scalar decode can see it
    forward, inverse = verify._child_count_rows, verify._tree_word_rows
    monkeypatch.setattr(verify, "_child_count_rows",
                        lambda bits: forward(_mirror(bits)))
    monkeypatch.setattr(verify, "_tree_word_rows",
                        lambda counts: _mirror(inverse(counts)))
    record = run_check("roundtrip", 6)
    assert record["counterexample"] == {
        "k": 3, "method": "trees-oracle", "word": "0001101"}


def _merge_first_two(groups):
    return [groups[0] + groups[1]] + groups[2:] if len(groups) > 1 else groups


@pytest.mark.parametrize("broken,key", [
    (_merge_first_two, "groups"),            # one group too few
    (lambda groups: groups[::-1], "detail"),  # groups paired with wrong strips
])
def test_strips_check_rejects_a_broken_grouping(monkeypatch, broken, key):
    real = verify._strip_groups
    monkeypatch.setattr(verify, "_strip_groups",
                        lambda index, q, axis: broken(real(index, q, axis)))
    record = run_check("strips", 6)
    assert record["passed"] is False
    assert key in record["counterexample"]


@pytest.mark.parametrize("name,first_k", [
    ("counts", 2), ("catalan", 2), ("narayana", 2), ("zeros", 3),
    ("strips", 2), ("laminar", 3), ("antitranspose", 2), ("dihedral", 2),
    ("roundtrip", 2), ("boundary", 3),
])
def test_run_check_calls_the_row_once_per_k(monkeypatch, name, first_k):
    seen = []

    def spy(k):
        seen.append(k)
    monkeypatch.setitem(verify._CHECKS, name,
                        verify._CHECKS[name]._replace(run=spy))
    record = run_check(name, 6)
    assert record["passed"] is True
    assert seen == list(range(first_k, 7))


def test_run_check_stops_at_the_first_counterexample(monkeypatch):
    seen = []

    def spy(k):
        seen.append(k)
        return {"k": k, "detail": "planted"} if k == 5 else None
    monkeypatch.setitem(verify._CHECKS, "zeros",
                        verify._CHECKS["zeros"]._replace(run=spy))
    record = run_check("zeros", 8)
    assert seen == [3, 4, 5]
    assert record["passed"] is False
    assert record["counterexample"] == {"k": 5, "detail": "planted"}


def test_every_check_passes_at_the_least_bound():
    # zeros, laminar and boundary start at k = 3, so they scan no k here
    report = run_checks(max_k=2)
    assert report["passed"] is True
    assert [r["check"] for r in report["checks"]] == list(CHECK_ORDER)
    assert all(r["counterexample"] is None for r in report["checks"])


def test_strips_check_runs_the_hockey_stick_identity_at_k_2(monkeypatch):
    real = verify.sigma
    monkeypatch.setattr(verify, "sigma",
                        lambda p, q: real(p, q) + ((p, q) == (2, 1)))
    assert run_check("strips", 2)["counterexample"] == {
        "identity": "hockey-stick", "p": 2, "q": 1}


_MODULES = {"verify": verify, "dihedral": dihedral, "trees": trees,
            "blocks": blocks_module}


def _after(change):
    """Plant change(value, *args) on the value a function returns."""
    return lambda real: lambda *args: change(real(*args), *args)


def _at(grid, change):
    """Plant change(value) on the value returned at the arguments grid only."""
    return _after(lambda value, *args: change(value) if args == grid
                  else value)


def _flip(r, c):
    """The tensor with its (r, c) entry flipped."""
    def change(t):
        entries = t.entries.copy()
        entries[r, c] ^= 1
        return Tensor(t.k, t.i, t.rows, t.cols, entries)
    return change


def _swapped_first_rows(index):
    a, b, *rest = index.headers["horizontal"]
    return replace(index, headers={**index.headers,
                                   "horizontal": [b, a] + rest})


def _short_top(layer, index, q, axis):
    """The one strip of the top level q = i-1 loses its last header."""
    if q != len(index.headers[axis][0]) - 1:
        return layer
    return [replace(layer[0], stop=layer[0].stop - 1)]


def _broken_anti_transpose(image, t):
    return _flip(0, 0)(image) if (t.k, t.i) == (4, 2) else image


def _non_tree_canonical(classes, k):
    a, *rest = classes
    return [OrbitClass(min(a.members - {a.canonical}), a.members)] + rest


def _extra_tree_word(mask, codes, k):
    mask = mask.copy()
    mask[np.argmin(mask)] = True
    return mask


def _staircases_at_origin(real):
    return lambda b: real(replace(b, row_start=0, row_stop=b.height,
                                  col_start=0, col_stop=b.width))


def _flat_staircases(real):
    return lambda b: real(replace(b, row_stop=b.row_start + 1))


# plant, check, {name in verify or "module.name": planted(real)}, record
_PLANTS = [
    ("header count", "counts", {"p_set": _at((4, 2), lambda r: r[:-1])},
     {"k": 4, "i": 2, "expected": 3, "rows": 2, "cols": 3}),
    ("row order", "counts", {"p_set": _at((4, 2), lambda r: r[::-1])},
     {"k": 4, "i": 2, "detail": "row order"}),
    ("column order", "counts", {"q_set": _at((4, 2), lambda c: c[::-1])},
     {"k": 4, "i": 2, "detail": "column order"}),
    ("row first part", "counts",
     {"p_set": _at((4, 2), lambda r: r[:-1] + [(1, 4)])},
     {"k": 4, "i": 2, "detail": "row first part < 2"}),
    # both families one header short, and the binomial agreeing with them
    ("header total", "counts",
     {"p_set": _at((4, 2), lambda r: r[:-1]),
      "q_set": _at((4, 2), lambda c: c[:-1]),
      "comb": _at((3, 1), lambda v: v - 1)},
     {"k": 4, "expected": 8, "actual": 7}),
    ("catalan", "catalan",
     {"trees.count_trees_by_length": _at((4, 2), lambda v: v + 1)},
     {"k": 4, "expected": 14, "actual": 15}),
    ("narayana", "narayana",
     {"count_trees_by_length": _at((4, 2), lambda v: v + 1)},
     {"k": 4, "i": 2, "expected": 6, "actual": 7}),
    ("zero cell", "zeros",
     {"blocks.build_tensor": _at((5, 3), _flip(-1, 0))},
     {"k": 5, "i": 3, "cell": [5, 0], "predicted": True}),
    ("overlapping cover", "zeros", {"blocks.staircase": _staircases_at_origin},
     {"k": 5, "i": 3,
      "detail": "overlapping retained staircases in grid (5,3)"}),
    ("short cover", "zeros", {"blocks.staircase": _flat_staircases},
     {"k": 3, "i": 2, "detail":
      "retained staircases do not cover the zero set of grid (3,2)"}),
    ("strip sizes", "strips", {"_strips": _after(
        lambda layer, index, q, axis: layer[:-1] if axis == "vertical"
        else layer)},
     {"k": 2, "i": 2, "q": 1, "detail": "height/width sequences differ"}),
    ("leading header", "strips", {"_index": _at((4, 2), _swapped_first_rows)},
     {"k": 4, "i": 2, "q": 1, "axis": "horizontal", "start": 0,
      "detail": "leading header lacks trailing ones"}),
    ("top strip", "strips", {"_strips": _after(_short_top)},
     {"k": 2, "i": 2, "detail": "top strip size"}),
    ("group sizes", "strips",
     {"_strip_groups": _after(lambda groups, *args: [g[::-1]
                                                     for g in groups])},
     {"k": 4, "i": 3, "q": 1, "outer": [1, 3], "sizes": [2, 1]}),
    ("antitranspose", "antitranspose",
     {"anti_transpose": _after(_broken_anti_transpose)},
     {"k": 4, "i": 2, "partner": 3}),
    # enumerate_orbits' own middle-word oracle refuses its classes
    ("generated", "dihedral",
     {"dihedral.middle_words": _after(lambda words, k: list(words)[1:])},
     {"k": 2, "method": "generated",
      "detail": "the classes are not the middle words of k = 2"}),
    ("canonical", "dihedral",
     {"enumerate_orbits": _after(_non_tree_canonical)},
     {"k": 2, "method": "counting", "word": "00110", "size": 10}),
    ("closure step", "dihedral",
     {"_rotate_codes": _after(lambda image, *args: image ^ 1)},
     {"k": 2, "method": "oracle",
      "detail": "the rotation of 00111 is not a middle word"}),
    ("tree words held", "dihedral",
     {"_tree_codes": _after(_extra_tree_word)},
     {"k": 2, "method": "oracle",
      "detail": "the component of 00011 holds 2 tree words"}),
    ("boundary ones", "boundary", {"build_tensor": _at((4, 1), _flip(0, 0))},
     {"k": 4, "i": 1}),
    ("boundary triangle", "boundary",
     {"build_tensor": _at((5, 2), _flip(-1, 0))},
     {"k": 5, "i": 2}),
]


@pytest.mark.parametrize("name,patches,record", [row[1:] for row in _PLANTS],
                         ids=[row[0] for row in _PLANTS])
def test_each_planted_fault_gives_its_record(monkeypatch, name, patches,
                                             record):
    for target, planted in patches.items():
        module, attr = target.rpartition(".")[::2]
        module = _MODULES[module or "verify"]
        monkeypatch.setattr(module, attr, planted(getattr(module, attr)))
    assert run_check(name, 5)["counterexample"] == record
