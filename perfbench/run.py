"""Benchmark of the ziptensor verifier, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-default, grid-report, tree-words, or all (the three in turn).
Run it from anywhere inside a checkout; it imports ziptensor from the
checkout's src/ and writes only under .perfbench-tmp/ there, which it removes.

Every timed pass runs in a fresh interpreter (worker.py), started one at a
time, because a CLI user pays cold set-up on every invocation and in-process
memoisation must not carry from one pass to the next.  Passes repeat until
the next one would overrun --seconds (at least one runs).  Set-up is the
import time of the package in each pass and in SETUP_PROBES further
interpreters that only import it.

On a shared host other tenants change the speed of the CPU itself, for
minutes at a time, so raw seconds from two runs are not comparable.  The
benchmark therefore times a fixed pure-Python loop (reference_s) right before
and right after every interpreter it starts, and reports setup_s and pass_s
in reference seconds: the median over interpreters of measured time divided
by the bracketing loop time, times REFERENCE_S.  The raw medians are printed
too, as setup_raw_s and pass_raw_s.

--trace 0 prints the end-to-end metrics.  --trace 1
runs one untraced and one traced pass and prints the per-layer metrics of
the traced one, plus the tracing overhead (traced minus untraced pass time).
Every output is checked; the last stdout line is the JSON result.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run has 180 s to exit; keep a margin for cleanup
# what reference_s() takes on the 2-core Xeon VM the bounds were set on; it
# only fixes the scale of reference seconds, near that of real ones
REFERENCE_S = 0.2

END_TO_END = (("setup_s", "s"), ("pass_s", "s"),
              ("peak_rss_mb", "MB"), ("success_rate", "ratio"))


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop; it never touches ziptensor."""
    start = time.perf_counter()
    acc = {}
    for j in range(600_000):
        key = (j * 7919) % 1021
        acc[key] = acc.get(key, 0) + j * j
    "".join(sorted(str(v) for v in acc.values()))
    return time.perf_counter() - start


def _worker(argv: list[str], deadline: float) -> tuple[dict | None, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "worker printed no result"


class Run:
    """One workload's passes, their checks and their aggregate."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.setup: list[tuple[float, float]] = []  # (import s, reference s)
        self.passes: list[dict] = []
        self.last_ref: float | None = None
        self.numpy = None
        self.dir = TMP / f"{workload}-{os.getpid()}"

    def _bracketed(self, argv: list[str]) -> tuple[dict | None, str, float]:
        """A worker run, and the mean reference time right before and after."""
        before = reference_s() if self.last_ref is None else self.last_ref
        record, why = _worker(argv, self.deadline)
        self.last_ref = reference_s()
        return record, why, (before + self.last_ref) / 2

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            record, why, ref = self._bracketed(
                ["--workload", self.workload, "--seed", str(self.seed),
                 "--out-dir", str(self.dir), "--setup-only"])
            if record is None:
                raise RuntimeError(f"set-up probe failed: {why}")
            self.setup.append((record["setup_s"], ref))
            self.numpy = record["numpy"]

    def one_pass(self, traced: bool) -> None:
        index = len(self.passes)
        out_dir = self.dir / f"pass{index}"
        out_dir.mkdir(parents=True)
        try:
            argv = ["--workload", self.workload, "--seed", str(self.seed),
                    "--index", str(index), "--out-dir", str(out_dir)]
            record, why, ref = self._bracketed(
                argv + (["--trace"] if traced else []))
            if record is None:
                attempted = failed = workloads.expected_ops(self.workload)
                notes = [why]
            else:
                attempted, failed, notes = workloads.check_pass(
                    self.workload, record)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += attempted
        self.failed += failed
        self.notes += notes[:5]
        if record is not None:
            record["traced"] = traced
            record["ref_s"] = ref
            self.setup.append((record["setup_s"], ref))
            self.passes.append(record)
        else:
            self.passes.append({"failed": True})

    def timed(self, seconds: float) -> None:
        start = time.monotonic()
        last = 0.0
        while not self.passes or (
                time.monotonic() - start + last <= seconds
                and time.monotonic() + last < self.deadline):
            t0 = time.monotonic()
            self.one_pass(traced=False)
            last = time.monotonic() - t0

    def good(self, traced: bool = False) -> list[dict]:
        return [p for p in self.passes
                if not p.get("failed") and p["traced"] == traced]

    def end_to_end(self) -> dict[str, float]:
        good = self.good()
        if not good:
            raise RuntimeError("no pass completed: " + "; ".join(self.notes))
        return {
            "setup_s": REFERENCE_S * statistics.median(
                s / ref for s, ref in self.setup),
            "pass_s": REFERENCE_S * statistics.median(
                p["pass_s"] / p["ref_s"] for p in good),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in good),
            "success_rate": 1.0 - self.failed / self.attempted,
        }

    def details(self) -> list[tuple[str, float, str]]:
        """The workload's own named metrics, printed but not gated."""
        good = self.good()
        out = [(phase, statistics.median(p["phases"][phase] for p in good), "s")
               for phase in good[0]["phases"]] if good else []
        samples = [us for p in good for us in p.get("lookup_us", ())]
        if samples:
            out += [("lookup_p50_us", layertrace.percentile(samples, 50), "us"),
                    ("lookup_p95_us", layertrace.percentile(samples, 95), "us"),
                    ("lookup_samples", len(samples), "count")]
        out += [("setup_raw_s", statistics.median(s for s, _ in self.setup), "s"),
                ("pass_raw_s", statistics.median(p["pass_s"] for p in good), "s"),
                ("reference_s", statistics.median(p["ref_s"] for p in good), "s"),
                ("passes", len(self.passes), "count"),
                ("error_rate", self.failed / self.attempted, "ratio")]
        return out

    def per_layer(self) -> tuple[dict[str, float], float]:
        untraced, traced = self.good(False), self.good(True)
        if not untraced or not traced:
            raise RuntimeError("traced run incomplete: " + "; ".join(self.notes))
        overhead = traced[0]["pass_s"] - untraced[0]["pass_s"]
        layers = dict(traced[0]["layers"])
        layers["trace.pass_s"] = traced[0]["pass_s"]
        layers["trace.overhead_s"] = overhead
        return layers, overhead


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int, trace: int, numpy: str | None,
                overhead: float | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
        "traced": bool(trace),
        "tracing_overhead_s": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the ziptensor verifier.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ziptensor" / "__init__.py").is_file():
        print(f"error: no ziptensor sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    numpy, overhead = None, None
    try:
        for name in names:
            run = Run(name, args.seed, time.monotonic() + RUN_LIMIT_S)
            run.probe_setup()
            numpy = run.numpy
            if args.trace:
                run.one_pass(traced=False)
                run.one_pass(traced=True)
                values, overhead = run.per_layer()
                units = {n: u for n, u, _ in layertrace.layer_metric_specs()}
                # the traced pass's phases, against which layer shares are read
                for phase, value in run.good(True)[0]["phases"].items():
                    print(f"{name} trace.{phase} {value:.6g} s")
            else:
                run.timed(args.seconds)
                values = run.end_to_end()
                units = dict(END_TO_END)
                for detail, value, unit in run.details():
                    print(f"{name} {detail} {value:.6g} {unit}")
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in values.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
                print(f"{name} {metric} {value:.6g} {units[metric]}")
            for note in run.notes:
                print(f"{name} FAILED {note}", file=sys.stderr)
            attempted += run.attempted
            failed += run.failed
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in names:
            shutil.rmtree(TMP / f"{name}-{os.getpid()}", ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    print("env " + json.dumps(environment(args.seed, args.trace, numpy,
                                          overhead)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
