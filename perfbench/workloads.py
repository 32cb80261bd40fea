"""Workload inputs and output checks.

Nothing here imports ziptensor: the inputs come from the seed alone, and the
checks recompute what they expect from closed formulas (math.comb) and from
word operations written out below, so they stay independent of the code under
test.
"""
import json
import random
from math import comb

WORKLOADS = ("verify-default", "grid-report", "tree-words")

# Every interior length at k = 10.  k = 11 is left out because one sweep
# with it takes about 30 s and swings by a third from pass to pass on a
# small shared machine, too few passes for a steady median; k = 12 because
# the O(B^2) laminarity matrices of (12,6) need about 16 GB.
GRIDS = tuple((10, i) for i in range(2, 10))
TREES_K = 12
ORBITS_K = 9
LOOKUP_KS = tuple(range(12, 17))
LOOKUPS_PER_PASS = 5000
# the ten records a default report must hold
CHECK_NAMES = ("counts", "catalan", "narayana", "zeros", "strips", "laminar",
               "antitranspose", "dihedral", "roundtrip", "boundary")


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def narayana(k: int, i: int) -> int:
    return comb(k, i) * comb(k, i - 1) // k


def grid_order(seed: int, index: int) -> list[tuple[int, int]]:
    """The grids in a seeded visiting order."""
    order = list(GRIDS)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def middle_word_sample(seed: int, index: int,
                       count: int = LOOKUPS_PER_PASS) -> list[str]:
    """Uniformly drawn middle words: length 2k+1, weight k or k+1."""
    rng = random.Random(seed * 1_000_003 + index)
    out = []
    for _ in range(count):
        k = rng.choice(LOOKUP_KS)
        n = 2 * k + 1
        ones = set(rng.sample(range(n), rng.choice((k, k + 1))))
        out.append("".join("1" if j in ones else "0" for j in range(n)))
    return out


def expected_ops(workload: str) -> int:
    """Operations one pass attempts; a pass that dies fails all of them."""
    return {"verify-default": len(CHECK_NAMES),
            "grid-report": 2 * len(GRIDS),
            "tree-words": 3}[workload]


def is_dyck_tree_word(w: str) -> bool:
    """0 then a balanced word (0 down, 1 up): height >= 1 after the 0, ends at 1."""
    if len(w) % 2 == 0 or set(w) - {"0", "1"}:
        return False
    height = 0
    for pos, ch in enumerate(w):
        height += 1 if ch == "0" else -1
        if pos >= 1 and height < 1:
            return False
    return height == 1


def comp_reversal(w: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in reversed(w))


def parens_to_word(p: str) -> str:
    return "0" + p.replace("(", "0").replace(")", "1")


def lookup_ok(word: str, parens: str) -> bool:
    """The result codes a tree word lying in word's dihedral orbit."""
    tw = parens_to_word(parens)
    if len(tw) != len(word) or not is_dyck_tree_word(tw):
        return False
    cr = comp_reversal(word)
    return tw in word + word or tw in cr + cr


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


# what a malformed or truncated output file raises in a check
MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


def _guarded(check, *args) -> str | None:
    """check(*args): None if the output is right, else a failure note."""
    try:
        return check(*args)
    except MALFORMED as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def check_pass(workload: str, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few failure notes) for one worker's pass."""
    return _CHECKERS[workload](result)


def _report_records(text):
    """The report's check records by name, or a note on why it fails."""
    doc = json.loads(text)
    checks = doc["checks"]
    if doc.get("passed") is not True:
        return {}, "report passed is not true"
    if len(checks) != len(CHECK_NAMES):
        return {}, f"{len(checks)} records, expected {len(CHECK_NAMES)}"
    return {r["check"]: r for r in checks}, None


def _check_verify(result):
    (op,) = result["ops"]
    text = _read(op["out"])
    records, note = {}, None
    if op["rc"] != 0:
        note = f"report exited {op['rc']!r}"
    elif text is None:
        note = "report file missing"
    else:
        try:
            records, note = _report_records(text)
        except MALFORMED as exc:
            note = f"malformed report: {type(exc).__name__}: {exc}"
    notes = [note] if note else []
    failed = 0
    for name in CHECK_NAMES:
        record = records.get(name)
        if note or record is None or record.get("passed") is not True:
            failed += 1
            notes.append(f"check {name} missing or failed")
    return len(CHECK_NAMES), failed, notes


def _check_strips(k, i, text):
    doc = json.loads(text)
    n = comb(k - 1, i - 1)
    zeros = n * n - narayana(k, i)
    flags = doc.get("conformance", {})
    if not flags or not all(v is True for v in flags.values()):
        return f"({k},{i}) conformance {flags}"
    if (doc.get("k"), doc.get("i"), doc.get("n")) != (k, i, n):
        return f"({k},{i}) header k/i/n mismatch"
    cells = sum(len(st["cells"]) for st in doc.get("staircases", []))
    if cells != zeros:
        return f"({k},{i}) staircases hold {cells} cells, zero count {zeros}"
    return None


def _check_svg(k, i, text):
    n = comb(k - 1, i - 1)
    zeros = n * n - narayana(k, i)
    rects = [line for line in text.splitlines() if line.startswith("<rect ")]
    filled = sum(1 for line in rects if 'fill="none"' not in line)
    if filled != zeros:
        return f"({k},{i}) svg has {filled} zero rects, expected {zeros}"
    if not text.rstrip().endswith("</svg>"):
        return f"({k},{i}) svg truncated"
    return None


def _check_grid(result):
    notes = []
    failed = 0
    for op in result["ops"]:
        k, i = op["grid"]
        text = _read(op["out"]) if op["rc"] == 0 else None
        if text is None:
            note = f"{op['cmd']} ({k},{i}) exited {op['rc']!r}"
        elif op["cmd"] == "strips":
            note = _guarded(_check_strips, k, i, text)
        else:
            note = _guarded(_check_svg, k, i, text)
        if note:
            failed += 1
            notes.append(note)
    attempted = 2 * len(GRIDS)
    if len(result["ops"]) != attempted:
        failed += attempted - len(result["ops"])
        notes.append(f"{len(result['ops'])} grid ops, expected {attempted}")
    return attempted, failed, notes


def _check_trees(text):
    lines = text.splitlines()
    if len(lines) != catalan(TREES_K):
        return f"trees: {len(lines)} lines, Catalan({TREES_K}) = {catalan(TREES_K)}"
    if len(set(lines)) != len(lines):
        return "trees: duplicate shapes"
    bad = next((p for p in lines if len(p) != 2 * TREES_K
                or not is_dyck_tree_word(parens_to_word(p))), None)
    if bad is not None:
        return f"trees: not a {TREES_K}-edge tree: {bad!r}"
    return None


def _check_orbits(text):
    k = ORBITS_K
    doc = json.loads(text)
    orbits = doc.get("orbits", [])
    if doc.get("orbit_count") != catalan(k) or len(orbits) != catalan(k):
        return f"orbits: {doc.get('orbit_count')} orbits, Catalan({k}) = {catalan(k)}"
    canon = [o["canonical"] for o in orbits]
    if len(set(canon)) != len(canon):
        return "orbits: repeated canonical word"
    if any(o["size"] != 2 * (2 * k + 1) for o in orbits):
        return "orbits: an orbit is not of full size"
    if not all(len(w) == 2 * k + 1 and is_dyck_tree_word(w) for w in canon):
        return "orbits: a canonical word is not a tree word"
    return None


def _check_lookups(text):
    lines = text.splitlines()
    if len(lines) != LOOKUPS_PER_PASS:
        return f"lookups: {len(lines)} results, expected {LOOKUPS_PER_PASS}"
    bad = [line for line in lines if not lookup_ok(*line.partition("\t")[::2])]
    if bad:
        return f"lookups: {len(bad)} wrong, first {bad[0]!r}"
    return None


def _check_tree(result):
    """Three operations: the trees and orbits commands and the lookup phase,
    which fails as a whole if any one lookup is wrong."""
    notes = []
    failed = 0
    ops = result["ops"] + [{"cmd": "lookups", "rc": 0,
                            "out": result["lookups"]}]
    for op in ops:
        text = _read(op["out"]) if op["rc"] == 0 else None
        if text is None:
            note = f"{op['cmd']} exited {op['rc']!r} or wrote nothing"
        else:
            note = _guarded(_TREE_CHECKS[op["cmd"]], text)
        if note:
            failed += 1
            notes.append(note)
    failed += 2 - len(result["ops"])
    return 3, failed, notes


_TREE_CHECKS = {"trees": _check_trees, "orbits": _check_orbits,
                "lookups": _check_lookups}

_CHECKERS = {
    "verify-default": _check_verify,
    "grid-report": _check_grid,
    "tree-words": _check_tree,
}
