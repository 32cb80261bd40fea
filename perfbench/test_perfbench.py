"""Tests of the benchmark's own code: arithmetic, sampling, checks, tracer."""
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.append(str(HERE.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert layertrace.percentile([4, 1, 3, 2], 50) == 2.5
    values = list(range(1, 101))
    assert layertrace.percentile(values, 95) == pytest.approx(95.05)
    assert layertrace.percentile(values, 0) == 1
    assert layertrace.percentile(values, 100) == 100
    assert layertrace.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        layertrace.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 5.0, 7.0),
        ("d", 2, 5.5, 6.5),
        ("b", -1, 20.0, 21.0),
    ]
    stats = layertrace.summarize(spans)
    assert stats["a"] == {"calls": 1, "self_s": 5.0, "incl_s": 10.0}
    assert stats["b"] == {"calls": 2, "self_s": 4.0, "incl_s": 4.0}
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    assert stats["d"]["self_s"] == pytest.approx(1.0)
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(10.0 + 1.0)


def test_inclusive_time_counts_a_recursive_name_once():
    spans = [("e", -1, 0.0, 4.0), ("x", 0, 0.5, 1.0), ("e", 1, 1.0, 3.0)]
    stats = layertrace.summarize(spans)
    assert stats["e"]["calls"] == 2
    assert stats["e"]["incl_s"] == 4.0
    assert stats["e"]["self_s"] == pytest.approx(3.5 + 2.0)


def test_waste_ratios_and_absent_layers():
    summary = {"blocks.predicted_zeros": {"calls": 8, "self_s": 1.0,
                                          "incl_s": 1.0},
               "blocks.staircase": {"calls": 31, "self_s": 0.5,
                                    "incl_s": 0.5}}
    counts = defaultdict(Counter)
    counts["blocks.blocks"]["distinct_blocks"] = 5
    keys = defaultdict(set)
    keys["blocks.predicted_zeros"] |= {(10, 4), (11, 4)}
    out = layertrace.layer_metrics(summary, counts, keys)
    assert out["blocks.predicted_zeros.calls_per_grid"] == 4.0
    assert out["blocks.staircase.calls_per_block"] == 6.2
    assert out["compositions.p_set.calls_per_grid"] == 0.0
    assert out["render.to_svg.calls"] == 0
    assert out["blocks.self_s"] == 1.5
    names = {n for n, _, _ in layertrace.layer_metric_specs()}
    assert set(out) | {"trace.pass_s", "trace.overhead_s"} == names


def test_sampler_is_deterministic_and_yields_middle_words():
    first = workloads.middle_word_sample(7, 2, count=300)
    assert first == workloads.middle_word_sample(7, 2, count=300)
    assert first != workloads.middle_word_sample(8, 2, count=300)
    assert first != workloads.middle_word_sample(7, 3, count=300)
    for w in first:
        k = len(w) // 2
        assert len(w) == 2 * k + 1 and k in workloads.LOOKUP_KS
        assert set(w) <= {"0", "1"} and w.count("1") in (k, k + 1)


def test_grid_order_is_a_seeded_permutation():
    order = workloads.grid_order(3, 0)
    assert order == workloads.grid_order(3, 0)
    assert sorted(order) == sorted(workloads.GRIDS)
    assert len(order) == 8  # every interior length at k = 10


def test_lookup_check_accepts_only_orbit_tree_words():
    w = "10100"  # rotation of the tree word 00101, whose parens are "()()"
    assert workloads.lookup_ok(w, "()()")
    assert not workloads.lookup_ok(w, "(())")  # a tree word, other orbit
    assert not workloads.lookup_ok(w, "())(")
    # weight k+1: complemented reversal of 01011 is 00101
    assert workloads.lookup_ok("01011", "()()")


def test_grid_check_counts_each_bad_output(tmp_path):
    k, i = 10, 4
    n = 84
    zeros = n * n - workloads.narayana(k, i)
    good = tmp_path / "s.json"
    good.write_text(json.dumps({
        "k": k, "i": i, "n": n, "conformance": {"x": True},
        "staircases": [{"cells": [[1, 1]] * zeros}]}))
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps({
        "k": k, "i": i, "n": n, "conformance": {"x": False},
        "staircases": [{"cells": [[1, 1]] * zeros}]}))
    ops = [{"cmd": "strips", "grid": [k, i], "rc": 0, "out": str(good)},
           {"cmd": "strips", "grid": [k, i], "rc": 0, "out": str(bad)},
           {"cmd": "render", "grid": [k, i], "rc": 1, "out": str(good)}]
    attempted, failed, notes = workloads.check_pass("grid-report",
                                                    {"ops": ops})
    assert attempted == 2 * len(workloads.GRIDS)
    assert failed == 2 + (attempted - 3)
    assert any("conformance" in note for note in notes)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layertrace.layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    zt = importlib.import_module("ziptensor")
    cli = importlib.import_module("ziptensor.cli")
    blocks_mod = importlib.import_module("ziptensor.blocks")
    originals = {}
    for module, path, *_ in (layertrace.SPANNED + layertrace.COUNTED
                             + layertrace.ITEMS):
        owner, attr, fn = layertrace._resolve(module, path)
        originals[(module, path)] = fn
    modules = layertrace.Tracer._package_modules()
    before = {(m.__name__, name): value for m in modules
              for name, value in vars(m).items()
              if any(value is fn for fn in originals.values())}

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for (mod_name, name), value in before.items():
            assert getattr(sys.modules[mod_name], name) is not value
        out = tmp_path / "s.json"
        assert cli.main(["strips", "-k", "5", "-i", "3", "--format", "json",
                         "--out", str(out)]) == 0
        assert cli.main(["orbits", "-k", "3",
                         "--out", str(tmp_path / "o.json")]) == 0
        assert zt.decode(zt.canonical_tree_word("10100")).to_parens() == "()()"
    finally:
        stale = tracer.restore()
    assert stale == []
    for (mod_name, name), value in before.items():
        assert getattr(sys.modules[mod_name], name) is value
    assert zt.blocks is originals[("blocks", "blocks")]
    assert blocks_mod.blocks is originals[("blocks", "blocks")]
    assert zt.OrderedTree.to_parens is originals[("trees",
                                                  "OrderedTree.to_parens")]

    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.bytes_written"] == (
        out.stat().st_size + (tmp_path / "o.json").stat().st_size)
    assert metrics["blocks.decomposition_report.calls"] == 1
    assert metrics["blocks.blocks_laminar.calls"] == 1
    assert metrics["dihedral.enumerate_orbits.orbits"] == 5
    assert metrics["dihedral.enumerate_orbits.words_scanned"] == 70
    assert metrics["dihedral.canonical_tree_word.calls"] == 1
    assert metrics["dihedral.rotate.calls"] > 0
    assert metrics["blocks.self_s"] > 0


def test_malformed_outputs_fail_their_operation(tmp_path):
    truncated = tmp_path / "t.json"
    truncated.write_text('{"passed": true, "checks": [{"check": "cou')
    listed = tmp_path / "l.json"
    listed.write_text("[1, 2]")
    verify = {"ops": [{"cmd": "report", "rc": 0, "out": str(truncated)}]}
    attempted, failed, notes = workloads.check_pass("verify-default", verify)
    assert (attempted, failed) == (10, 10)
    assert "malformed report" in notes[0]

    ops = [{"cmd": "strips", "grid": [10, 4], "rc": 0, "out": str(truncated)},
           {"cmd": "strips", "grid": [10, 5], "rc": 0, "out": str(listed)}]
    attempted, failed, notes = workloads.check_pass("grid-report",
                                                    {"ops": ops})
    assert failed == attempted
    assert all("malformed output" in note for note in notes[:2])

    (tmp_path / "lookups.tsv").write_text("")
    tree = {"ops": [{"cmd": "trees", "rc": 0, "out": str(tmp_path / "none")},
                    {"cmd": "orbits", "rc": 0, "out": str(truncated)}],
            "lookups": str(tmp_path / "lookups.tsv")}
    assert workloads.check_pass("tree-words", tree)[:2] == (3, 3)


def test_one_wrong_lookup_fails_the_lookup_phase(tmp_path):
    def answer(w):  # any tree word in w's dihedral orbit, as parens
        cr = workloads.comp_reversal(w)
        tw = next(u for v in (w, cr) for j in range(len(v))
                  if workloads.is_dyck_tree_word(u := v[j:] + v[:j]))
        return tw[1:].replace("0", "(").replace("1", ")")

    words = workloads.middle_word_sample(1, 0)
    lines = [f"{w}\t{answer(w)}" for w in words]
    tsv = tmp_path / "lookups.tsv"
    tsv.write_text("\n".join(lines) + "\n")
    tree = {"ops": [], "lookups": str(tsv)}
    assert workloads._check_lookups(tsv.read_text()) is None
    lines[17] = lines[17][:-2] + ")("
    tsv.write_text("\n".join(lines) + "\n")
    attempted, failed, notes = workloads.check_pass("tree-words", tree)
    assert (attempted, failed) == (3, 3)  # two missing commands, one phase
    assert notes[-1].startswith("lookups: 1 wrong")


def test_timed_metrics_are_in_reference_seconds():
    r = run.Run("grid-report", 1, deadline=0.0)
    r.attempted = 16
    # the host runs twice as slow for the second interpreter of each kind
    r.setup = [(0.1, 0.2), (0.2, 0.4), (0.1, 0.2)]
    r.passes = [{"traced": False, "pass_s": s, "ref_s": ref, "rss_mb": 1.0,
                 "phases": {"grid_s": s}} for s, ref in ((2.0, 0.2), (4.0, 0.4))]
    e2e = r.end_to_end()
    assert e2e["setup_s"] == pytest.approx(0.1 * run.REFERENCE_S / 0.2)
    assert e2e["pass_s"] == pytest.approx(2.0 * run.REFERENCE_S / 0.2)
    details = {name: value for name, value, _ in r.details()}
    assert details["pass_raw_s"] == pytest.approx(3.0)
