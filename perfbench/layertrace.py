"""Per-layer tracing of ziptensor, done entirely from outside the package.

`Tracer.install` replaces each listed public function with a wrapper in every
ziptensor module that binds it (the home module, every module that did
`from .x import f`, and the package namespace), and `Tracer.restore` puts the
originals back.  Nothing under src/ is edited.

Spanned functions record one span per call: (name, parent, start, end), where
parent is the index of the span that was open when the call began, or -1.
All spans of one traced pass live in one list, so the pass is their shared
identifier.  A span's self time is its duration minus the durations of its
direct child spans; inclusive time counts only calls not nested in a call of
the same name.

The hot per-word helpers (`rotate`, `comp_reverse`, `is_tree_word`) run
hundreds of thousands of times per pass, often for well under a microsecond,
so a span around each would mostly time the tracer.  They are counted only,
and their time stays in the self time of the spanned caller.
"""
import importlib
import os
import resource
import sys
import time
from collections import Counter, defaultdict

from workloads import CHECK_NAMES

PACKAGE = "ziptensor"

MODULES = ("blocks", "render", "dihedral", "trees", "zippering",
           "compositions", "verify", "cli")


def _laminar(counts, keys, args, result):
    b = len(args[0])
    counts["pairs"] += b * (b - 1) // 2


def _per_grid(counts, keys, args, result):
    keys.add(tuple(args[:2]))


def _blocks(counts, keys, args, result):
    key = tuple(args[:3])
    if key not in keys:
        keys.add(key)
        counts["distinct_blocks"] += len(result)


def _svg(counts, keys, args, result):
    counts["bytes"] += len(result.encode())


def _orbits(counts, keys, args, result):
    counts["orbits"] += len(result)


def _words(counts, keys, args, result):
    counts["words"] += len(result)


def _cells(counts, keys, args, result):
    counts["cells"] += int(result.entries.size)


def _cli_out(counts, keys, args, result):
    argv = list(args[0]) if args else []
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["bytes_written"] += os.path.getsize(path)


# (module, attribute path, hook run on each call's result)
SPANNED = (
    ("blocks", "blocks_laminar", _laminar),
    ("blocks", "predicted_zeros", _per_grid),
    ("blocks", "disjoint_staircases", None),
    ("blocks", "staircase", None),
    ("blocks", "grid_decomposition", None),
    ("blocks", "decomposition_report", None),
    ("blocks", "strips", None),
    ("blocks", "blocks", _blocks),
    ("render", "to_svg", _svg),
    ("dihedral", "enumerate_orbits", _orbits),
    ("dihedral", "orbit", None),
    ("dihedral", "canonical_tree_word", None),
    ("trees", "tree_words", _words),
    ("trees", "decode", None),
    ("trees", "encode", None),
    ("trees", "OrderedTree.to_parens", None),
    ("zippering", "build_tensor", _cells),
    ("zippering", "zipper", None),
    ("compositions", "p_set", _per_grid),
    ("compositions", "q_set", None),
    ("verify", "run_check", None),
    ("cli", "main", _cli_out),
)
COUNTED = (
    ("dihedral", "rotate"),
    ("dihedral", "comp_reverse"),
    ("zippering", "is_tree_word"),
)
# generator functions whose yielded items are counted
ITEMS = (("dihedral", "middle_words"),)
RSS_TRACKED = {"blocks.blocks_laminar"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _resolve(module: str, path: str):
    # import_module, not getattr(ziptensor, module): the package attribute
    # `ziptensor.blocks` is the function blocks(), not the module.
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the wrappers, collects spans and counts, and restores."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, keys = self.counts[name], self.keys[name]
        track_rss = name in RSS_TRACKED
        per_check = name == "verify.run_check"

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[0]}" if per_check else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            rss_before = _maxrss_kb() if track_rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, parent, start, end)
            if track_rss:
                counts["rss_growth_kb"] += _maxrss_kb() - rss_before
            if hook is not None:
                hook(counts, keys, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts[name]

        def wrapper(*args, **kwargs):
            counts["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _items_wrapper(self, name, fn):
        counts = self.counts[name]

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["items"] += 1
                yield item
        return wrapper

    def _patch(self, module, path, make_wrapper):
        owner, attr, original = _resolve(module, path)
        wrapper = make_wrapper(f"{module}.{path}", original)
        if "." in path:  # a method: the class attribute is the only binding
            bindings = [(owner, attr)]
        else:
            bindings = [(mod, name) for mod in self._package_modules()
                        for name, value in list(vars(mod).items())
                        if value is original]
        for target, name in bindings:
            setattr(target, name, wrapper)
            self._patched.append((target, name, original))

    @staticmethod
    def _package_modules():
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, path, hook in SPANNED:
            self._patch(module, path,
                        lambda n, fn, h=hook: self._span_wrapper(n, fn, h))
        for module, path in COUNTED:
            self._patch(module, path, self._count_wrapper)
        for module, path in ITEMS:
            self._patch(module, path, self._items_wrapper)

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that did not return."""
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        stale = [f"{getattr(t, '__name__', t)}.{n}"
                 for t, n, original in self._patched
                 if getattr(t, n) is not original]
        self._patched = []
        return stale

    def metrics(self) -> dict[str, float]:
        return layer_metrics(summarize(self.spans), self.counts, self.keys)


def summarize(spans) -> dict[str, dict]:
    """calls, self_s and incl_s per span name."""
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for index, (name, parent, start, end) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            entry["incl_s"] += end - start
    return dict(stats)


def percentile(values, p: float) -> float:
    """Linear interpolation between the closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, path, _ in SPANNED:
        if (module, path) == ("verify", "run_check"):
            specs += [(f"verify.run_check.{c}.incl_s", "s", "lower")
                      for c in CHECK_NAMES]
            continue
        specs += [(f"{module}.{path}.calls", "count", "lower"),
                  (f"{module}.{path}.self_s", "s", "lower")]
    specs += [(f"{module}.{path}.calls", "count", "lower")
              for module, path in COUNTED]
    specs += [
        ("blocks.blocks_laminar.pairs", "count", "lower"),
        ("blocks.blocks_laminar.rss_growth_mb", "MB", "lower"),
        ("blocks.predicted_zeros.calls_per_grid", "1/grid", "lower"),
        ("blocks.staircase.calls_per_block", "1/block", "lower"),
        ("compositions.p_set.calls_per_grid", "1/grid", "lower"),
        ("render.to_svg.bytes", "B", "lower"),
        ("dihedral.enumerate_orbits.words_scanned", "count", "lower"),
        ("dihedral.enumerate_orbits.orbits", "count", "higher"),
        ("trees.tree_words.words", "count", "higher"),
        ("zippering.build_tensor.cells", "count", "lower"),
        ("cli.main.bytes_written", "B", "lower"),
    ]
    specs += [(f"{module}.self_s", "s", "lower") for module in MODULES]
    specs += [("trace.pass_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


def layer_metrics(summary, counts, keys) -> dict[str, float]:
    """Every per-layer metric except the trace.* pair, from one traced pass.

    Functions the pass never called report 0 calls and 0 seconds.
    """
    out: dict[str, float] = {}
    for module, path, _ in SPANNED:
        name = f"{module}.{path}"
        if name == "verify.run_check":
            for check in CHECK_NAMES:
                stat = summary.get(f"{name}.{check}", {})
                out[f"{name}.{check}.incl_s"] = stat.get("incl_s", 0.0)
            continue
        stat = summary.get(name, {})
        out[f"{name}.calls"] = stat.get("calls", 0)
        out[f"{name}.self_s"] = stat.get("self_s", 0.0)
    for module, path in COUNTED:
        name = f"{module}.{path}"
        out[f"{name}.calls"] = counts[name]["calls"]

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out["blocks.blocks_laminar.pairs"] = counts["blocks.blocks_laminar"]["pairs"]
    out["blocks.blocks_laminar.rss_growth_mb"] = (
        counts["blocks.blocks_laminar"]["rss_growth_kb"] / 1024.0)
    out["blocks.predicted_zeros.calls_per_grid"] = _ratio(
        calls("blocks.predicted_zeros"), len(keys["blocks.predicted_zeros"]))
    out["blocks.staircase.calls_per_block"] = _ratio(
        calls("blocks.staircase"), counts["blocks.blocks"]["distinct_blocks"])
    out["compositions.p_set.calls_per_grid"] = _ratio(
        calls("compositions.p_set"), len(keys["compositions.p_set"]))
    out["render.to_svg.bytes"] = counts["render.to_svg"]["bytes"]
    out["dihedral.enumerate_orbits.words_scanned"] = (
        counts["dihedral.middle_words"]["items"])
    out["dihedral.enumerate_orbits.orbits"] = (
        counts["dihedral.enumerate_orbits"]["orbits"])
    out["trees.tree_words.words"] = counts["trees.tree_words"]["words"]
    out["zippering.build_tensor.cells"] = counts["zippering.build_tensor"]["cells"]
    out["cli.main.bytes_written"] = counts["cli.main"]["bytes_written"]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            stat["self_s"] for name, stat in summary.items()
            if name.split(".", 1)[0] == module)
    return out
