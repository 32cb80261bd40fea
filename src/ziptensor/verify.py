"""Invariant suites behind the `verify` and `report` commands.

Each check is one row of `_CHECKS`: a function of one k that returns a
counterexample dict, or None when every claim holds at that k.  `run_check`
owns the one k loop: it scans from the row's first k (3 for `zeros`,
`laminar` and `boundary`, whose k = 2 grids are degenerate; 2 for the rest)
up to max_k, stops at the first counterexample, and passes a scan that finds
none, an empty scan included.  Checks are independent and may run in
separate worker processes; `run_checks` reads their results in selection
order, so the output never depends on scheduling.

Checks call the primitives of the modules they test, not copies: `dihedral`'s
code ops, middle-word lister and tree-word test on codes (`_tree_codes`, the
tree listing's row test), `trees.count_trees`, and the verdicts the report
flags read, `blocks._zero_laws` and `blocks._laminar_failure`.
"""
import time
from collections import namedtuple
from math import comb

import numpy as np

from . import dihedral
from .blocks import (_index, _laminar_failure, _strip_groups, _strips,
                     _zero_laws, anti_transpose, sigma, upper_unitriangular)
from .capacity import (ORACLE_MAX_K, _hold, admit, current, middle_cost,
                       orbit_codes)
from .compositions import p_set, q_set
from .dihedral import (_class_codes, _comp_reverse_codes, _partition_error,
                       _rotate_codes, _tree_codes, enumerate_orbits)
from .errors import DomainError, MalformedWordError, StructureViolationError
from .trees import (_child_count_rows, _tree_word_batches, _tree_word_rows,
                    catalan, count_trees, count_trees_by_length, decode,
                    encode, narayana)
from .zippering import (_unzip_array, _words, _zip, _zipper_cells,
                        build_tensor, unzip)

def _counts_counterexample(k):
    """Header families: sizes C(k-1,i-1), total 2^(k-1), descending order."""
    total = 0
    for i in range(1, k + 1):
        rows, cols = p_set(k, i), q_set(k, i)
        expected = comb(k - 1, i - 1)
        if len(rows) != expected or len(cols) != expected:
            return {"k": k, "i": i, "expected": expected,
                    "rows": len(rows), "cols": len(cols)}
        for name, headers in (("row", rows), ("column", cols)):
            if headers != sorted(set(headers), reverse=True):
                return {"k": k, "i": i, "detail": f"{name} order"}
        if any(a[0] < 2 for a in rows):
            return {"k": k, "i": i, "detail": "row first part < 2"}
        total += len(rows)
    if total != 2 ** (k - 1):
        return {"k": k, "expected": 2 ** (k - 1), "actual": total}
    return None


def _catalan_counterexample(k):
    total = count_trees(k)
    if total != catalan(k):
        return {"k": k, "expected": catalan(k), "actual": total}
    return None


def _narayana_counterexample(k):
    for i in range(1, k + 1):
        actual = count_trees_by_length(k, i)
        if actual != narayana(k, i):
            return {"k": k, "i": i, "expected": narayana(k, i),
                    "actual": actual}
    return None


def _zeros_counterexample(k):
    """The zero set is the union of the block staircases, and the retained
    staircases cover it disjointly, each block no taller than wide."""
    for i in range(2, k):
        try:
            _, owner, cell, tall = _zero_laws(k, i, _index(k, i))
        except StructureViolationError as exc:
            return {"k": k, "i": i, "detail": str(exc)}
        if cell:
            return {"k": k, "i": i, "cell": list(cell),
                    "predicted": bool(owner[cell] >= 0)}
        if tall:
            return {"k": k, "i": i, "detail": f"staircase block "
                    f"{list(tall.rectangle)} is taller than wide"}
    return None


def _strips_counterexample(k):
    """Strip sizes, leading headers and grouping of every (k, i) grid; at
    k = 2 first the hockey-stick identity, which does not depend on k."""
    if k == 2:
        for p in range(1, 13):
            for q in range(1, 13):
                total = sum(sigma(t, q) for t in range(1, p + 1))
                if total != sigma(p, q + 1):
                    return {"identity": "hockey-stick", "p": p, "q": q}
    for i in range(2, k + 1):
        index = _index(k, i)
        per_level = {}
        for q in range(1, i):
            horizontal = _strips(index, q, "horizontal")
            vertical = _strips(index, q, "vertical")
            if [s.size for s in horizontal] != [s.size for s in vertical]:
                return {"k": k, "i": i, "q": q,
                        "detail": "height/width sequences differ"}
            for axis, layer in (("horizontal", horizontal),
                                ("vertical", vertical)):
                headers = index.headers[axis]
                for s in layer:
                    if set(headers[s.start][-q:]) != {1}:
                        return {"k": k, "i": i, "q": q, "axis": axis,
                                "start": s.start,
                                "detail": "leading header lacks trailing ones"}
            per_level[q] = horizontal
        top = per_level[i - 1]
        if len(top) != 1 or top[0].size != comb(k - 1, i - 1):
            return {"k": k, "i": i, "detail": "top strip size"}
        for q in range(1, i - 1):
            outers = per_level[q + 1]
            groups = _strip_groups(index, q, "horizontal")
            if len(groups) != len(outers):
                return {"k": k, "i": i, "q": q, "groups": len(groups),
                        "outer_strips": len(outers)}
            for outer, group in zip(outers, groups):
                if any(s.start < outer.start or s.stop > outer.stop
                       for s in group):
                    return {"k": k, "i": i, "q": q,
                            "outer": [outer.start + 1, outer.stop],
                            "detail": "group leaves its outer strip"}
                inner = [s.size for s in group]
                t = len(inner)
                if inner != [sigma(j, q) for j in range(1, t + 1)] \
                        or sigma(t, q + 1) != outer.size:
                    return {"k": k, "i": i, "q": q,
                            "outer": [outer.start + 1, outer.stop],
                            "sizes": inner}
    return None


def _laminar_counterexample(k):
    """Strip nesting at every k; the pairwise oracle too at small k."""
    for i in range(2, k + 1):
        method = _laminar_failure(k, i, _index(k, i))
        if method:
            return {"k": k, "i": i, "method": method}
    return None


def _antitranspose_counterexample(k):
    tensors = [build_tensor(k, i) for i in range(1, k + 1)]
    for t in tensors:
        if anti_transpose(t) != tensors[k - t.i]:
            return {"k": k, "i": t.i, "partner": k + 1 - t.i}
    return None


def _locate(codes, values):
    """Each value's index in the sorted codes, and whether it is there."""
    at = np.minimum(np.searchsorted(codes, values), len(codes) - 1)
    return at, codes[at] == values


def _components(rotated, reversed_, k):
    """Connected components of the graph joining each index j to rotated[j]
    and to reversed_[j], as the least index of the component of each j.

    Labels start as the indices and only ever fall to a neighbour's label,
    with pointer doubling along `rotated`, until nothing changes.  At that
    point every label is at most those of its two neighbours; `reversed_` is
    an involution and `rotated` a permutation of finite order, so labels are
    constant on each component, and equal to its least index.
    """
    labels = np.arange(len(rotated))
    while True:
        new = np.minimum(labels, labels[reversed_])
        hop = rotated
        for _ in range((2 * k + 1).bit_length()):
            new = np.minimum(new, new[hop])
            hop = hop[hop]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _closure_error(classes, k):
    """Why the classes are not the orbit closures of the middle words of
    order k, or None when they are.

    A brute-force oracle: it closes every middle word under one rotation
    step and complemented reversal by array component labelling, and uses no
    tree listing, cycle lemma or class codes.  Each component must hold
    exactly one tree word, which names every middle word in it.  With as many
    classes as components, the classes are the components when each member
    is a middle word named by its class's canonical word and each middle word
    is listed once: every name then has exactly one class, which holds its
    whole component.
    """
    width = f"0{2 * k + 1}b"
    codes = np.sort(np.concatenate(dihedral._middle_codes(k)))
    steps = []
    for name, image in (("rotation", _rotate_codes(codes, 1, k)),
                        ("complemented reversal",
                         _comp_reverse_codes(codes, k))):
        at, found = _locate(codes, image)
        if not found.all():
            word = format(int(codes[np.argmin(found)]), width)
            return f"the {name} of {word} is not a middle word"
        steps.append(at)
    labels = _components(*steps, k)
    tree = _tree_codes(codes, k)
    roots = np.flatnonzero(labels == np.arange(len(codes)))
    trees_held = np.bincount(labels[tree], minlength=len(codes))[roots]
    if (trees_held != 1).any():
        j = int(np.argmax(trees_held != 1))
        return (f"the component of {format(int(codes[roots[j]]), width)} "
                f"holds {trees_held[j]} tree words")
    if len(roots) != len(classes):
        return (f"the middle words form {len(roots)} components, "
                f"not {len(classes)}")
    # each middle word is named by its component's tree word, as its rank
    tree_codes = codes[tree].tolist()
    tree_of = np.zeros(len(codes), dtype=np.intp)
    tree_of[labels[tree]] = np.arange(len(tree_codes))
    rank = {format(code, width): j for j, code in enumerate(tree_codes)}
    claimed = np.array([rank.get(cls.canonical, -1) for cls in classes])

    members = [cls._codes for cls in classes]
    flat = np.concatenate(members)
    owner = np.repeat(np.arange(len(classes)), [len(m) for m in members])
    at, found = _locate(codes, flat)

    def member(j):
        return (f"member {format(int(flat[j]), width)} of the class of "
                f"{classes[owner[j]].canonical}")
    misnamed = ~found | (tree_of[labels[at]] != claimed[owner])
    if misnamed.any():
        j = int(np.argmax(misnamed))
        return (f"{member(j)} is not a middle word in the component of "
                f"{classes[owner[j]].canonical}")
    listed = np.bincount(at, minlength=len(codes))
    if (listed != 1).any():
        w = int(np.argmax(listed != 1))
        if listed[w]:
            return f"{member(int(np.argmax(at == w)))} is repeated"
        return f"middle word {format(int(codes[w]), width)} is in no class"
    return None


def _dihedral_counterexample(k):
    """Generated classes: a counting partition check at every k, equality
    with the array orbit closure of the middle words up to ORACLE_MAX_K, and
    at every k each class's members equal to its canonical word's orbit."""
    try:
        classes = enumerate_orbits(k)
    except StructureViolationError as exc:
        return {"k": k, "method": "generated", "detail": str(exc)}
    n = 2 * k + 1
    if len(classes) != catalan(k):
        return {"k": k, "method": "counting", "expected": catalan(k),
                "actual": len(classes)}
    canonicals = [cls.canonical for cls in classes]
    codes = _class_codes(canonicals, k)
    # the first column holds the canonical words' codes
    for cls, tree in zip(classes, _tree_codes(codes[:, 0], k).tolist()):
        if cls.size != 2 * n or len(cls.canonical) != n or not tree:
            return {"k": k, "method": "counting", "word": cls.canonical,
                    "size": cls.size}
    error = _partition_error(canonicals, codes, k)
    if error:
        return {"k": k, "method": "counting", "detail": error}
    error = _closure_error(classes, k) if k <= ORACLE_MAX_K else None
    if error:
        return {"k": k, "method": "oracle", "detail": error}
    codes.sort(axis=1)
    members = np.array([cls._codes for cls in classes])
    differ = (members != codes).any(axis=1)
    if differ.any():
        return {"k": k, "method": "counting",
                "word": classes[int(np.argmax(differ))].canonical,
                "detail": "the members are not the orbit of the word"}
    return None


def _roundtrip_counterexample(k):
    """Zippering is a bijection: every header pair zippers and unzips back to
    itself in the array kernel, and in scalar _zip/unzip up to ORACLE_MAX_K.
    Tree words and trees are in bijection: every tree word maps to its child
    counts and back in the batched kernel, and in scalar decode/encode up to
    ORACLE_MAX_K."""
    for i in range(1, k + 1):
        counterexample = _zipper_roundtrip_counterexample(k, i)
        if counterexample:
            return counterexample
    return _tree_roundtrip_counterexample(k)


def _tree_roundtrip_counterexample(k):
    for bits in _tree_word_batches(k):
        counts = _child_count_rows(bits)
        try:
            back = _tree_word_rows(counts)
        except DomainError as exc:
            return {"k": k, "method": "trees-batched", "detail": str(exc)}
        same = (back == bits).all(axis=1)
        if not same.all():
            j = int(np.argmin(same))
            return {"k": k, "method": "trees-batched",
                    "word": _words(bits[j:j + 1])[0]}
        if k > ORACLE_MAX_K:
            continue
        for word, row in zip(_words(bits), counts.tolist()):
            tree = decode(word)
            if tree.child_counts != tuple(row) or encode(tree) != word:
                return {"k": k, "method": "trees-oracle", "word": word}
    return None


def _zipper_roundtrip_counterexample(k, i):
    a_list, b_list = p_set(k, i), q_set(k, i)
    rows = np.asarray(a_list, dtype=np.int64)
    cols = np.asarray(b_list, dtype=np.int64)
    every_pair = np.divmod(np.arange(len(rows) ** 2), len(rows))
    for r, c, bits in _zipper_cells(rows, cols, k, *every_pair):
        try:
            zeros, ones = _unzip_array(bits, i)
        except MalformedWordError as exc:
            return {"k": k, "i": i, "method": "batched", "detail": str(exc)}
        a_rows, b_rows = rows[r], cols[c]
        if not (np.array_equal(zeros, a_rows)
                and np.array_equal(ones, b_rows)):
            j = int(np.argmin((zeros == a_rows).all(axis=1)
                              & (ones == b_rows).all(axis=1)))
            return {"k": k, "i": i, "method": "batched",
                    "pair": [a_rows[j].tolist(), b_rows[j].tolist()]}
        if k > ORACLE_MAX_K:
            continue
        for word, row, col in zip(_words(bits), r.tolist(), c.tolist()):
            a, b = a_list[row], b_list[col]
            w = _zip(a, b)
            if w != word or unzip(w) != (a, b):
                return {"k": k, "i": i, "method": "oracle",
                        "pair": [list(a), list(b)]}
    return None


def _boundary_counterexample(k):
    for i in (1, k):
        if not np.array_equal(build_tensor(k, i).entries, np.ones((1, 1))):
            return {"k": k, "i": i}
    expected = upper_unitriangular(k - 1)
    for i in (2, k - 1):
        if not np.array_equal(build_tensor(k, i).entries, expected):
            return {"k": k, "i": i}
    return None


# default bound, first k, the check at one k (a counterexample or None), and
# cost (entries of its largest array) at a bound
_Check = namedtuple("_Check", "max_k start run cost")
_CHECKS = {
    "counts": _Check(12, 2, _counts_counterexample, middle_cost),
    "catalan": _Check(12, 2, _catalan_counterexample, middle_cost),
    "narayana": _Check(12, 2, _narayana_counterexample, middle_cost),
    "zeros": _Check(10, 3, _zeros_counterexample, middle_cost),
    "strips": _Check(10, 2, _strips_counterexample, middle_cost),
    "laminar": _Check(10, 3, _laminar_counterexample, middle_cost),
    "antitranspose": _Check(10, 2, _antitranspose_counterexample, middle_cost),
    "dihedral": _Check(9, 2, _dihedral_counterexample, orbit_codes),
    "roundtrip": _Check(10, 2, _roundtrip_counterexample, middle_cost),
    "boundary": _Check(10, 3, _boundary_counterexample, middle_cost),
}
DEFAULT_MAX_K = {name: check.max_k for name, check in _CHECKS.items()}
CHECK_ORDER = tuple(_CHECKS)


def _admitted_bounds(names, max_k: int | None, jobs: int = 1) -> list[int]:
    """Each named check's bound, once one or more known checks are named,
    each once, their cost is admitted and jobs is at least 1."""
    valid = ", ".join(CHECK_ORDER)
    if not names:
        raise DomainError(f"no check selected; valid: {valid}")
    for j, name in enumerate(names):
        if name not in _CHECKS:
            raise DomainError(f"unknown check {name!r}; valid: {valid}")
        if name in names[:j]:
            raise DomainError(f"check {name!r} selected more than once")
    if max_k is not None and max_k < 2:
        raise DomainError(f"max_k must be at least 2, got {max_k}")
    bounds = [_CHECKS[name].max_k if max_k is None else max_k
              for name in names]
    for name, bound in zip(names, bounds):
        admit(f"check {name} at max_k = {bound}", _CHECKS[name].cost(bound))
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    return bounds


def run_check(name: str, max_k: int | None = None) -> dict:
    """Run one named check from its first k up to its bound, stopping at the
    first counterexample, and wrap the outcome in a report record."""
    [bound] = _admitted_bounds([name], max_k)
    row = _CHECKS[name]
    start = time.perf_counter()
    counterexample = None
    for k in range(row.start, bound + 1):
        counterexample = row.run(k)
        if counterexample is not None:
            break
    return {
        "check": name,
        "max_k": bound,
        "passed": counterexample is None,
        "counterexample": counterexample,
        "elapsed_seconds": round(time.perf_counter() - start, 3),
    }


def run_checks(names=None, max_k: int | None = None, jobs: int = 1) -> dict:
    """Run the selected suites and aggregate a conformance report."""
    selected = list(names) if names is not None else list(CHECK_ORDER)
    _admitted_bounds(selected, max_k, jobs)
    start = time.perf_counter()
    if jobs > 1 and len(selected) > 1:
        # imported only here, so that importing the package leaves the
        # process-pool machinery unloaded
        from concurrent.futures import ProcessPoolExecutor
        # the workers admit under this process's budget, whatever --jobs is
        with ProcessPoolExecutor(max_workers=jobs, initializer=_hold,
                                 initargs=(current(),)) as pool:
            futures = [pool.submit(run_check, name, max_k)
                       for name in selected]
            records = [f.result() for f in futures]
    else:
        records = [run_check(name, max_k) for name in selected]
    from ziptensor import __version__
    return {
        "tool": "ziptensor",
        "version": __version__,
        "checks": records,
        "passed": all(r["passed"] for r in records),
        "elapsed_seconds": round(time.perf_counter() - start, 3),
    }
