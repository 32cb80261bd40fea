"""Check runner wiring: records, defaults, failure paths, worker pool."""
import pytest

import ziptensor.verify as verify
from ziptensor.dihedral import OrbitClass
from ziptensor.errors import DomainError
from ziptensor.verify import CHECK_ORDER, DEFAULT_MAX_K, run_check, run_checks

RECORD_KEYS = {"check", "max_k", "passed", "counterexample", "elapsed_seconds"}


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
    monkeypatch.setitem(verify._CHECKS, "counts",
                        lambda bound: {"k": 99, "detail": "planted"})
    report = run_checks(["counts", "boundary"], max_k=4)
    assert report["passed"] is False
    failed = report["checks"][0]
    assert failed["passed"] is False
    assert failed["counterexample"] == {"k": 99, "detail": "planted"}
    assert report["checks"][1]["passed"] is True


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
                        lambda k, limit=None: broken(real(k, limit=limit)))
    record = run_check("dihedral", 5)
    assert record["passed"] is False
    assert record["counterexample"]["k"] == 2
    assert record["counterexample"]["method"] == method

