"""End-to-end command-line behaviour and exit codes."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ziptensor
import ziptensor.cli as cli
import ziptensor.trees as trees
import ziptensor.verify as verify
from ziptensor.cli import main
from ziptensor.trees import tree_words
from ziptensor.zippering import Tensor, build_tensor


def test_gen_digits(capsys):
    assert main(["gen", "-k", "3", "-i", "2"]) == 0
    assert capsys.readouterr().out == "11\n01\n"


def test_gen_bullets(capsys):
    assert main(["gen", "-k", "3", "-i", "2", "--format", "bullets"]) == 0
    assert capsys.readouterr().out == "••\n∘•\n"


def test_gen_json(capsys):
    assert main(["gen", "-k", "4", "-i", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["k"], doc["i"]) == (4, 2)
    assert doc["bits"] == ["111", "011", "001"]


def test_gen_svg_to_file(tmp_path, capsys):
    out = tmp_path / "grid.svg"
    assert main(["gen", "-k", "5", "-i", "3", "--format", "svg",
                 "--out", str(out)]) == 0
    body = out.read_text(encoding="utf-8")
    assert body.startswith("<?xml")
    assert body.count('fill="#CCCCCC"') == 16
    assert capsys.readouterr().out == ""


def test_gen_capacity_exit(capsys):
    assert main(["gen", "-k", "99", "-i", "3"]) == 2
    assert "capped" in capsys.readouterr().err


def test_gen_annotated_is_charged_for_its_characters(capsys):
    # one unit cell, but a word and a header of 2k+1 = 6,000,001 characters
    argv = ["gen", "-k", "3000000", "-i", "1", "--format", "annotated"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "annotated text of T[3000000,1] needs 6000001 entries" in err
    assert main(argv + ["--capacity", "8000000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "3000001|0" + "0" * 3000000 + "1" * 3000000


def test_gen_csv(capsys):
    assert main(["gen", "-k", "3", "-i", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == ",21,12\n31,1,1\n22,0,1\n"


def test_gen_domain_exit(capsys):
    assert main(["gen", "-k", "5", "-i", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit(capsys):
    assert main(["gen", "-k", "3", "-i", "2", "--format", "morse"]) == 2
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


def test_verify_pass_lines(capsys):
    assert main(["verify", "--max-k", "5", "--checks", "catalan,counts"]) == 0
    out = capsys.readouterr().out
    assert "catalan: PASS" in out and "counts: PASS" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "--checks", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("checks,message", [
    (["--checks", ","], "no check selected"),
    (["--checks="], "no check selected"),
    (["--checks", "counts,counts"], "check 'counts' selected more than once"),
])
def test_empty_or_repeated_checks_exit_two(command, checks, message,
                                           tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([command, *checks, "--max-k", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("max_k", ["1", "0", "-2"])
def test_max_k_below_two_exits_two(command, max_k, capsys):
    assert main([command, "--max-k", max_k, "--checks", "counts"]) == 2
    assert "max_k must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(command, jobs, capsys):
    assert main([command, "--max-k", "4", "--checks", "counts,boundary",
                 "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_readme_check_list_is_the_check_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    listed = readme.split("Available checks:", 1)[1].split(". ", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", listed)) == verify.CHECK_ORDER


def test_verify_failure_exits_one(monkeypatch, capsys):
    planted = verify._CHECKS["counts"]._replace(
        run=lambda bound: {"k": 7, "detail": "planted"})
    monkeypatch.setitem(verify._CHECKS, "counts", planted)
    assert main(["verify", "--checks", "counts"]) == 1
    out = capsys.readouterr().out
    assert "counts: FAIL" in out and '"planted"' in out


def test_verify_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--max-k", "4", "--checks", "boundary",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["checks"][0]["check"] == "boundary"


def test_verify_jobs_flag(capsys):
    assert main(["verify", "--max-k", "4", "--checks", "counts,boundary",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.index("counts:") < out.index("boundary:")


def test_report_stdout(capsys):
    assert main(["report", "--max-k", "4", "--checks", "narayana"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "ziptensor"
    assert report["checks"][0]["max_k"] == 4


def test_trees_words_order(capsys):
    assert main(["trees", "-k", "3"]) == 0
    assert capsys.readouterr().out.split() == [
        "0000111", "0001101", "0001011", "0010011", "0010101"]


def test_trees_parens(capsys):
    assert main(["trees", "-k", "3", "--emit", "parens"]) == 0
    assert capsys.readouterr().out.split() == [
        "((()))", "(())()", "(()())", "()(())", "()()()"]


def test_trees_dot(capsys):
    assert main(["trees", "-k", "2", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert "digraph t0 {" in out and "digraph t1 {" in out


@pytest.mark.parametrize("per_write", [1, 3, 4, 100])
def test_trees_listing_is_written_in_batches(per_write, monkeypatch, capsys):
    # 42 words at k = 5: batches that divide it, that do not, and just one
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", per_write)
    assert main(["trees", "-k", "5"]) == 0
    assert capsys.readouterr().out == "\n".join(tree_words(5)) + "\n"
    assert main(["trees", "-k", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_orbits_json(capsys):
    assert main(["orbits", "-k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_count"] == 5
    assert doc["orbits"][0] == {"canonical": "0000111", "size": 14}


def test_orbits_capacity(capsys):
    assert main(["orbits", "-k", "5", "--capacity", "4"]) == 2
    assert "capped" in capsys.readouterr().err
    # past the width of the 64-bit class codes, whatever the capacity
    assert main(["orbits", "-k", "32", "--capacity", "32"]) == 2
    assert "65 bits" in capsys.readouterr().err


def test_orbits_negative_k_exits_two(capsys):
    assert main(["orbits", "-k", "-1"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_trees_negative_k_exits_two(capsys):
    assert main(["trees", "-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 2" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["-k", "1"], "at least 2, got 1"),
    (["-k", "-1"], "at least 2, got -1"),
    (["-k", "6", "--capacity", "5"],
     "tree listing of k = 6 needs 100 entries; capped at 5"),
])
def test_refused_listing_writes_no_file(argv, message, tmp_path, capsys):
    out = tmp_path / "trees.txt"
    assert main(["trees", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_refused_listing_keeps_an_existing_file(tmp_path, capsys):
    out = tmp_path / "trees.txt"
    out.write_text("kept\n")
    assert main(["trees", "-k", "1", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_violation_mid_listing_exits_one(monkeypatch, tmp_path, capsys):
    before = tree_words(5)[:1 + 10]  # the words of T[5,1] and T[5,2]

    # a zero cell of T[5,3] planted as a unit entry
    def fake(k, i):
        t = build_tensor(k, i)
        if (k, i) == (5, 3):
            entries = t.entries.copy()
            entries[t.n - 1, 0] = 1
            t = Tensor(t.k, t.i, t.rows, t.cols, entries)
        return t
    monkeypatch.setattr(trees, "build_tensor", fake)
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 1)
    out = tmp_path / "trees.txt"
    assert main(["trees", "-k", "5", "--out", str(out)]) == 1
    assert "T[5,3]" in capsys.readouterr().err
    # the batches written before the violation stay in the file
    assert out.read_text().split() == before


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    src = str(Path(ziptensor.__file__).parent.parent)
    probe = ("import sys, ziptensor.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k,i,message", [
    ("5", "0", "length i = 0 out of range 1..5"),
    ("5", "-1", "length i = -1 out of range 1..5"),
    ("0", "1", "k must be at least 2, got 0"),
    ("1", "1", "k must be at least 2, got 1"),
])
def test_strips_out_of_domain_exits_two(capsys, k, i, message, fmt):
    assert main(["strips", "-k", k, "-i", i, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_strips_text(capsys):
    assert main(["strips", "-k", "8", "-i", "4"]) == 0
    assert capsys.readouterr().out == (
        "q=1: 1; 1,2; 1,2,3; 1,2,3,4; 1,2,3,4,5\n"
        "q=2: 1,3,6,10,15\n"
        "q=3: 35\n")


def test_strips_json(capsys):
    assert main(["strips", "-k", "5", "-i", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(doc["conformance"].values())
    assert doc["n"] == 6


def test_render_writes_svg(tmp_path):
    out = tmp_path / "g.svg"
    assert main(["render", "-k", "3", "-i", "2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count('fill="#CCCCCC"') == 1


def test_verify_at_the_least_bound_exits_zero(capsys):
    assert main(["verify", "--max-k", "2"]) == 0
    out = capsys.readouterr().out
    assert all(f"{name}: PASS" in out for name in verify.CHECK_ORDER)


@pytest.mark.parametrize("argv", [
    ["gen", "-k", "3", "-i", "2"],
    ["report", "--checks", "counts", "--max-k", "3"],
    ["verify", "--checks", "counts", "--max-k", "3"],
], ids=" ".join)
@pytest.mark.parametrize("where", ["missing-dir/out.txt", "."])
def test_unwritable_out_exits_two(argv, where, tmp_path, capsys):
    out = tmp_path / where  # a path under a missing directory, or a directory
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["trees", "-k", "10"], ["trees", "-k", "3"],
                                  ["verify", "--max-k", "3"]], ids=" ".join)
def test_closed_stdout_exits_two(argv):
    # the read end is closed before the child starts, so every write fails;
    # -k 3 is small enough to fail only at the flush
    src = str(Path(ziptensor.__file__).parent.parent)
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ziptensor.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
            text=True)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr == "error: [Errno 32] Broken pipe\n"
