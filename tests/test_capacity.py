"""The one capacity rule: every operation's cost in array entries against
one budget, refused before anything is allocated."""
import concurrent.futures
import multiprocessing
import os
import time
import tracemalloc
from collections.abc import Mapping
from math import comb
from types import SimpleNamespace

import pytest

import ziptensor.capacity as capacity
from ziptensor.blocks import blocks, grid_decomposition
from ziptensor.capacity import (CEILING, DEFAULT_CAPACITY, admit, binomial,
                                budget, grid_cost, middle_cost, orbit_codes)
from ziptensor.compositions import p_set
from ziptensor.cli import main
from ziptensor.dihedral import enumerate_orbits
from ziptensor.errors import CapacityError
from ziptensor.trees import _tree_word_batches, count_trees
from ziptensor.verify import (CHECK_ORDER, DEFAULT_MAX_K, _admitted_bounds,
                              run_checks)
from ziptensor.zippering import build_tensor

# the largest k each criterion of tests/test_acceptance.py reaches
ACCEPTANCE_MAX_K = {
    "counts": 10,         # 9: p_set and q_set through k = 10
    "catalan": 12,        # 2
    "narayana": 12,       # 3
    "zeros": 10,          # 4
    "strips": 10,         # 6
    "laminar": 10,        # 5: the disjoint cover of every grid to k = 10
    "antitranspose": 10,  # 7
    "dihedral": 8,        # 8
    "roundtrip": 10,      # 9
    "boundary": 10,       # 10
}


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    monkeypatch.delenv("ZIPTENSOR_CAPACITY", raising=False)


def test_default_check_bounds_cover_the_acceptance_gate():
    assert set(ACCEPTANCE_MAX_K) == set(CHECK_ORDER)
    for name in CHECK_ORDER:
        assert DEFAULT_MAX_K[name] >= ACCEPTANCE_MAX_K[name], name
    assert _admitted_bounds(CHECK_ORDER, None) == list(DEFAULT_MAX_K.values())


def test_default_budget_boundaries():
    # tensors and grids: every k <= 14; at k = 15 only i = 7..9 is refused
    assert max(grid_cost(k, i) for k in range(2, 15)
               for i in range(1, k + 1)) == 1716 ** 2 == middle_cost(14)
    refused = [i for i in range(1, 16) if grid_cost(15, i) > DEFAULT_CAPACITY]
    assert refused == [7, 8, 9]
    with pytest.raises(CapacityError, match="T\\[15,7\\]"):
        build_tensor(15, 7)
    assert build_tensor(15, 6).n == 2002
    # tree listings: k <= 14
    assert next(_tree_word_batches(14)).shape[1] == 29
    with pytest.raises(CapacityError, match="tree listing of k = 15"):
        next(_tree_word_batches(15))
    # orbits: k <= 11, 2 C(23, 11) class codes
    admit("orbits of k = 11", orbit_codes(11))
    assert orbit_codes(11) == 2 * comb(23, 11) == 2_704_156
    with pytest.raises(CapacityError, match="orbit enumeration of k = 12"):
        enumerate_orbits(12)


@pytest.mark.parametrize("argv", [
    ["gen", "-k", "31", "-i", "16"],
    ["gen", "-k", "99", "-i", "3"],
    ["gen", "-k", "3000", "-i", "3000"],
    ["strips", "-k", "15", "-i", "8"],
    ["strips", "-k", "15", "-i", "8", "--format", "json"],
    ["render", "-k", "15", "-i", "8"],
    ["render", "-k", "1000", "-i", "999"],
    ["strips", "-k", "1000", "-i", "999", "--format", "json"],
    ["trees", "-k", "15"],
    ["orbits", "-k", "12"],
    ["verify", "--max-k", "15"],
    ["verify", "--max-k", "12", "--checks", "dihedral"],
], ids=" ".join)
def test_refusal_exits_two_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped" in captured.err and str(DEFAULT_CAPACITY) in captured.err
    assert peak < 1024 * 1024


@pytest.mark.parametrize("argv,cost", [
    (["gen", "-k", "6", "-i", "3"], 100),
    (["render", "-k", "6", "-i", "3"], 100),
    (["strips", "-k", "6", "-i", "3"], 100),
    (["strips", "-k", "9", "-i", "4", "--format", "json"], 56 ** 2),
    # near i = k the blocks, 28 strips times 7 in one level, outnumber the
    # 8 ** 2 cells
    (["strips", "-k", "9", "-i", "8", "--format", "json"], 28 * 7),
    (["trees", "-k", "6"], 100),
    (["orbits", "-k", "4"], 2 * comb(9, 4)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_capacity_at_the_cost_admits_and_one_less_refuses(argv, cost, capsys):
    assert main([*argv, "--capacity", str(cost)]) == 0
    capsys.readouterr()
    assert main([*argv, "--capacity", str(cost - 1)]) == 2
    assert f"needs {cost} entries; capped at {cost - 1}" \
        in capsys.readouterr().err


def test_grid_cost_bounds_what_a_decomposition_lists():
    # near i = k the blocks and strip prefix parts outnumber the cells
    for k in range(2, 11):
        for i in range(1, k + 1):
            d = grid_decomposition(k, i)
            listed = [sum(len(blocks(k, i, q)) for q in range(1, i))]
            for axis in ("horizontal", "vertical"):
                listed.append(sum(len(s.prefix) for (q, a), level
                                  in d.strips.items() if a == axis
                                  for s in level))
            assert max(listed) <= grid_cost(k, i), (k, i)
            assert comb(k - 1, i - 1) ** 2 <= grid_cost(k, i) <= middle_cost(k)
    assert grid_cost(1000, 999) > DEFAULT_CAPACITY >= comb(999, 998) ** 2


def test_count_trees_refuses_before_building_a_tensor(monkeypatch):
    monkeypatch.setattr("ziptensor.trees.build_tensor", None)
    with pytest.raises(CapacityError, match="tree census of k = 15"):
        count_trees(15)


def test_refusal_names_the_operation_its_cost_and_the_budget():
    with budget(10), pytest.raises(CapacityError) as info:
        build_tensor(31, 16)
    assert str(info.value).startswith(
        f"tensor T[31,16] needs {comb(30, 15) ** 2} entries; capped at 10")


HUGE = str(10 ** 20)


@pytest.mark.parametrize("argv", [
    ["trees", "-k", "7200"],
    ["verify", "--max-k", "7200"],
    ["gen", "-k", "7200", "-i", "3600"],
    ["trees", "-k", "200000"],
    ["verify", "--max-k", "200000"],
    ["gen", "-k", HUGE, "-i", "1"],
    ["strips", "-k", HUGE, "-i", "1"],
    ["render", "-k", HUGE, "-i", "1"],
    ["trees", "-k", HUGE],
], ids=" ".join)
def test_huge_requests_are_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 200


def test_costs_stop_at_the_ceiling():
    assert binomial(30, 15) == comb(30, 15)
    assert binomial(200, 100) == float("inf") > CEILING
    assert binomial(3, 5) == 0
    assert grid_cost(10 ** 20, 10 ** 19) == float("inf")
    with pytest.raises(CapacityError, match="needs more than"):
        admit("x", orbit_codes(10 ** 6))
    with pytest.raises(CapacityError, match="do not fit int64"):
        p_set(2 ** 70, 1)


def test_one_part_headers_build_no_pool():
    tracemalloc.start()
    try:
        assert p_set(10 ** 6, 1) == [(10 ** 6 + 1,)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_admits_every_check_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr("ziptensor.verify.run_check",
                        lambda name, max_k: ran.append(name))
    # counts is admitted at k = 12, dihedral is not
    with pytest.raises(CapacityError, match="check dihedral at max_k = 12"):
        run_checks(["counts", "dihedral"], max_k=12)
    assert ran == []


def test_pool_workers_admit_under_the_callers_budget(monkeypatch):
    # spawned workers share no memory with this process, and the
    # environment alone would refuse every check inside them
    real = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda **kwargs: real(mp_context=multiprocessing.get_context("spawn"),
                              **kwargs))
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", "1")
    with budget(DEFAULT_CAPACITY):
        report = run_checks(["counts", "boundary"], max_k=4, jobs=2)
    assert report["passed"] is True


def test_budget_none_keeps_the_enclosing_budget():
    with budget(10), budget(None), pytest.raises(CapacityError):
        admit("eleven entries", 11)


class _CountingEnviron(Mapping):
    """The environment as the capacity module sees it, counting its reads of
    ZIPTENSOR_CAPACITY."""

    def __init__(self, environ):
        self.environ, self.reads = environ, 0

    def __getitem__(self, key):
        self.reads += key == "ZIPTENSOR_CAPACITY"
        return self.environ[key]

    def __iter__(self):
        return iter(self.environ)

    def __len__(self):
        return len(self.environ)


def test_a_cli_run_reads_the_environment_budget_once(monkeypatch, tmp_path):
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", str(DEFAULT_CAPACITY))
    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(capacity, "os", SimpleNamespace(environ=environ))
    assert main(["report", "--max-k", "4",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert environ.reads == 1
    # outside any budget block, each admission reads it
    admit("one entry", 1)
    admit("one entry", 1)
    assert environ.reads == 3


def test_a_non_integer_environment_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ZIPTENSOR_CAPACITY", "lots")
    assert main(["report", "--max-k", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: ZIPTENSOR_CAPACITY must be an integer, got 'lots'\n")
