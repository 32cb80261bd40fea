"""Serialization formats and the grid figure."""
import csv
import io
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ziptensor.render as render
from ziptensor.blocks import grid_decomposition, strips
from ziptensor.capacity import budget
from ziptensor.errors import CapacityError, DomainError
from ziptensor.render import (BorderClass, border_class, to_csv, to_json,
                              to_svg, to_text)
from ziptensor.zippering import Tensor, build_tensor

from conftest import GOLDEN_KEYS


def test_digits_32():
    assert to_text(build_tensor(3, 2)) == "11\n01"


@pytest.mark.parametrize("k,i", GOLDEN_KEYS)
def test_digits_match_golden(k, i, golden):
    assert to_text(build_tensor(k, i), "digits") + "\n" == golden(k, i)


def test_bullets_examples():
    assert to_text(build_tensor(3, 2), "bullets") == "••\n∘•"
    row3 = to_text(build_tensor(5, 3), "bullets").splitlines()[2]
    assert row3 == "∘∘•∘••"


def test_annotated_32():
    text = to_text(build_tensor(3, 2), "annotated")
    assert "31|0001101" in text
    assert text.splitlines() == [
        "       |21     |12",
        "31|0001101 0001011",
        "22|------- 0010011",
    ]


def test_annotated_words_sit_under_headers():
    text = to_text(build_tensor(5, 3), "annotated")
    lines = text.splitlines()
    assert lines[0].endswith("|113")
    assert lines[1].startswith("411|")
    assert all(len(line) == len(lines[0]) for line in lines)


@pytest.mark.parametrize("k,i", [(5, 3), (7, 4), (2, 1)])
def test_annotated_admits_its_cells_times_their_width(k, i):
    t = build_tensor(k, i)
    cost = t.n ** 2 * (2 * k + 1)
    with budget(cost):
        to_text(t, "annotated")
    with budget(cost - 1), pytest.raises(CapacityError, match=str(cost)):
        to_text(t, "annotated")


@pytest.mark.parametrize("k,i", [(129, 2), (12, 6)])
def test_annotated_past_the_default_budget_is_refused(k, i):
    with pytest.raises(CapacityError, match="annotated text"):
        to_text(build_tensor(k, i), "annotated")


def test_to_text_rejects_unknown_style():
    with pytest.raises(DomainError):
        to_text(build_tensor(3, 2), "morse")


def test_csv_32():
    assert to_csv(build_tensor(3, 2)) == ",21,12\n31,1,1\n22,0,1\n"


def test_csv_reads_back():
    t = build_tensor(5, 3)
    rows = list(csv.reader(io.StringIO(to_csv(t))))
    assert rows[0][1:] == ["311", "221", "212", "131", "122", "113"]
    assert [r[0] for r in rows[1:]] == ["411", "321", "312", "231", "222", "213"]
    got = np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.uint8)
    assert np.array_equal(got, t.entries)


def test_json_32_exact():
    assert to_json(build_tensor(3, 2)) == (
        '{"k":3,"i":2,"rows":["31","22"],"cols":["21","12"],'
        '"bits":["11","01"]}')


@pytest.mark.parametrize("k,i", [(6, 3), (4, 4), (12, 1)] + [
    (k, i) for k in range(2, 8) for i in range(1, k + 1)
    if (k, i) not in {(6, 3), (4, 4)}])
def test_json_roundtrip(k, i):
    t = build_tensor(k, i)

    def spell(c):
        return ("," if max(c) > 9 else "").join(map(str, c))
    assert json.loads(to_json(t)) == {
        "k": k, "i": i,
        "rows": [spell(a) for a in t.rows],
        "cols": [spell(b) for b in t.cols],
        "bits": ["".join(str(v) for v in row) for row in t.entries.tolist()],
    }


@pytest.fixture(scope="module")
def d84():
    return grid_decomposition(8, 4)


@pytest.mark.parametrize("header,expected", [
    ((3, 3, 1, 1), BorderClass.BLACK),
    ((3, 1, 3, 1), BorderClass.DARK),
    ((3, 1, 2, 2), BorderClass.THIN),
])
def test_border_class_vertical_examples(d84, header, expected):
    assert border_class(d84, "vertical", d84.cols.index(header)) is expected


@pytest.mark.parametrize("header,expected", [
    ((6, 1, 1, 1), BorderClass.BLACK),
    ((5, 1, 1, 2), BorderClass.BLACK),
    ((5, 2, 1, 1), BorderClass.DARK),
    ((5, 1, 2, 1), BorderClass.THIN),
])
def test_border_class_horizontal_examples(d84, header, expected):
    assert border_class(d84, "horizontal", d84.rows.index(header)) is expected


def test_border_class_boundaries_rejected(d84):
    with pytest.raises(DomainError):
        border_class(d84, "vertical", 0)
    with pytest.raises(DomainError):
        border_class(d84, "vertical", 35)
    with pytest.raises(DomainError):
        border_class(d84, "horizontal", 34)
    with pytest.raises(DomainError):
        border_class(d84, "bent", 3)


@pytest.mark.parametrize("k,i", [(6, 3), (8, 4), (7, 5)])
def test_border_classes_mark_strip_boundaries(k, i):
    d = grid_decomposition(k, i)
    one_starts = {s.start for s in strips(k, i, 1, "vertical")}
    two_starts = ({s.start for s in strips(k, i, 2, "vertical")}
                  if i >= 3 else set())
    for c in range(1, d.n):
        cls = border_class(d, "vertical", c)
        assert (cls is BorderClass.BLACK) == (c in two_starts)
        assert (cls is BorderClass.DARK) == (c in one_starts - two_starts)
    hone = {s.stop - 1 for s in strips(k, i, 1, "horizontal")}
    htwo = ({s.stop - 1 for s in strips(k, i, 2, "horizontal")}
            if i >= 3 else set())
    for r in range(d.n - 1):
        cls = border_class(d, "horizontal", r)
        assert (cls is BorderClass.BLACK) == (r in htwo)
        assert (cls is BorderClass.DARK) == (r in hone - htwo)


@pytest.mark.parametrize("k,i,gray", [(5, 3, 16), (3, 2, 1), (8, 4, 735)])
def test_svg_gray_square_counts(k, i, gray):
    svg = to_svg(grid_decomposition(k, i))
    assert svg.count('fill="#CCCCCC"') == gray


def test_svg_is_well_formed_xml():
    svg = to_svg(grid_decomposition(8, 4))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("per_template", [1, 7])
def test_svg_rect_templates_meet_at_their_seams(per_template, monkeypatch):
    # the default fills all of (8, 4)'s zero cells from one template
    svg = to_svg(grid_decomposition(8, 4))
    monkeypatch.setattr(render, "_CELLS_PER_BATCH", per_template)
    assert to_svg(grid_decomposition(8, 4)) == svg


def test_svg_stroke_census_84():
    svg = to_svg(grid_decomposition(8, 4))
    assert svg.count('stroke="#000000"') == 9  # 8 strip edges + frame
    assert svg.count('stroke="#666666" stroke-width="3"') == 20
    assert svg.count('stroke="#666666" stroke-width="1"') == 40
    assert svg.count('text-decoration="underline"') == 30


def test_svg_underlines_53():
    svg = to_svg(grid_decomposition(5, 3))
    # headers ending in two ones underline their first entry, in one: second
    assert svg.count('text-decoration="underline"') == 6


def test_svg_underlines_22_at_its_one_strip_start():
    # i = 2 has no 2-strips, so each header starts only a 1-strip and has
    # its second entry underlined, the column header 11 too
    svg = to_svg(grid_decomposition(2, 2))
    assert ('<tspan>2</tspan><tspan text-decoration="underline">1</tspan>'
            in svg)
    assert ('<tspan x="36" dy="0">1</tspan>'
            '<tspan x="36" dy="12" text-decoration="underline">1</tspan>'
            in svg)


def test_border_class_values_are_strings():
    assert BorderClass.THIN.value == "thin-gray"
    assert BorderClass.DARK.value == "thick-dark-gray"
    assert BorderClass.BLACK.value == "thick-black"


@pytest.mark.parametrize("k,i", [(3, 2), (5, 3), (7, 4)])
def test_text_and_json_ignore_the_memory_order_of_entries(k, i):
    t = build_tensor(k, i)
    fortran = Tensor(k, i, t.rows, t.cols, np.asfortranarray(t.entries))
    assert not fortran.entries.flags.c_contiguous
    for style in ("digits", "bullets"):
        assert to_text(fortran, style) == to_text(t, style)
    assert to_json(fortran) == to_json(t)
