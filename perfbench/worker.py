"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --index J \
        --out-dir DIR [--trace] [--setup-only]

Imports ziptensor (timed as set-up), runs the pass through the package's
public entry points, writes every output under --out-dir and prints one JSON
line: set-up time, per-phase wall times, their sum (pass_s), the operations
attempted, lookup latencies, peak RSS and, with --trace, the per-layer
metrics.  The outputs are checked by the parent process, not here.
"""
import argparse
import importlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import layertrace
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


class Phases:
    """Wall time of each named phase of a pass."""

    def __init__(self):
        self.wall: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall[name] = time.perf_counter() - start


def _cli_call(argv: list[str]):
    cli = sys.modules["ziptensor.cli"]
    try:
        return cli.main(argv)  # looked up per call, so a traced main is used
    except Exception as exc:  # a crash is a failed operation, not a dead pass
        return f"{type(exc).__name__}: {exc}"


def _verify_default(seed, index, out_dir, phase):
    out = os.path.join(out_dir, "report.json")
    with phase("verify_s"):
        rc = _cli_call(["report", "--out", out])
    return {"ops": [{"cmd": "report", "rc": rc, "out": out}]}


def _grid_report(seed, index, out_dir, phase):
    ops = []
    with phase("grid_s"):
        for k, i in workloads.grid_order(seed, index):
            for cmd, argv, ext in (
                    ("strips", ["strips", "-k", str(k), "-i", str(i),
                                "--format", "json"], "json"),
                    ("render", ["render", "-k", str(k), "-i", str(i)], "svg")):
                out = os.path.join(out_dir, f"{cmd}_{k}_{i}.{ext}")
                rc = _cli_call(argv + ["--out", out])
                ops.append({"cmd": cmd, "grid": [k, i], "rc": rc, "out": out})
    return {"ops": ops}


def _tree_words(seed, index, out_dir, phase):
    ops = []
    with phase("enum_s"):
        for cmd, argv in (
                ("trees", ["trees", "-k", str(workloads.TREES_K),
                           "--emit", "parens"]),
                ("orbits", ["orbits", "-k", str(workloads.ORBITS_K)])):
            out = os.path.join(out_dir, f"{cmd}.txt")
            rc = _cli_call(argv + ["--out", out])
            ops.append({"cmd": cmd, "rc": rc, "out": out})

    zt = sys.modules["ziptensor"]
    clock = time.perf_counter
    words = workloads.middle_word_sample(seed, index)
    results, latency_us = [], []
    with phase("lookup_s"):
        for w in words:
            t0 = clock()
            try:
                parens = zt.decode(zt.canonical_tree_word(w)).to_parens()
            except Exception as exc:  # recorded; the check counts it as failed
                parens = f"{type(exc).__name__}: {exc}"
            latency_us.append((clock() - t0) * 1e6)
            results.append(f"{w}\t{parens}")
    path = os.path.join(out_dir, "lookups.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(results) + "\n")
    return {"ops": ops, "lookups": path, "lookup_us": latency_us}


PASSES = {
    "verify-default": _verify_default,
    "grid-report": _grid_report,
    "tree-words": _tree_words,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    zt = importlib.import_module("ziptensor")
    importlib.import_module("ziptensor.cli")
    setup_s = time.perf_counter() - start
    if SRC not in Path(zt.__file__).resolve().parents:
        print(f"ziptensor imported from {zt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    record = {"setup_s": setup_s,
              "numpy": sys.modules["numpy"].__version__}
    if not args.setup_only:
        tracer = layertrace.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        phase = Phases()
        try:
            record.update(PASSES[args.workload](args.seed, args.index,
                                                args.out_dir, phase))
        finally:
            if tracer:
                stale = tracer.restore()
                if stale:
                    print(f"tracer left wrappers on {stale}", file=sys.stderr)
                    return 2
        # the timed phases only: sample drawing and result files are excluded
        record["phases"] = phase.wall
        record["pass_s"] = sum(phase.wall.values())
        record["rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
