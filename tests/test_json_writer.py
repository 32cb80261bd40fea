"""The CLI's JSON writer against its oracle, json.dumps(indent=2)."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziptensor import render
from ziptensor.blocks import decomposition_report
from ziptensor.dihedral import orbit_summary
from ziptensor.render import _json_pieces
from ziptensor.verify import run_checks


def _json_text(value) -> str:
    return "".join(_json_pieces(value))


def _oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


# '%' is the template's format character; the rest is non-ASCII or needs
# escaping in JSON
_TRICKY = "%sd%%é€\"\\\n\x00😀"
texts = st.text(alphabet=_TRICKY, max_size=6) | st.text(max_size=6)
ints = st.integers(-2 ** 70, 2 ** 70)
scalars = st.none() | st.booleans() | ints | st.floats() | texts
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=30)


@st.composite
def list_column(draw):
    """The strategy of one list column: int lists, or lists of equal-width
    int lists, of one length or of a length drawn per item."""
    m = draw(st.none() | st.integers(0, 3))
    sizes = {"max_size": 2} if m is None else {"min_size": m, "max_size": m}
    if draw(st.booleans()):
        return st.lists(ints, **sizes)
    width = draw(st.integers(0, 3))
    return st.lists(st.lists(ints, min_size=width, max_size=width), **sizes)


@st.composite
def record_lists(draw):
    """Same-key flat records, sometimes with one odd item appended."""
    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        items = draw(st.lists(draw(list_column()), min_size=count,
                              max_size=count))
    else:
        names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
        shape = {name: draw(st.just(scalars) | list_column())
                 for name in names}
        items = [{name: draw(column) for name, column in shape.items()}
                 for _ in range(count)]
    odd = draw(st.sampled_from(("none", "value", "bool")))
    if odd == "value":
        items.append(draw(values))
    elif odd == "bool":
        # the first item with a bool where an int was
        first = json.loads(json.dumps(items[0]))
        lists = [first] if isinstance(first, list) else [
            v for v in first.values() if isinstance(v, list)]
        lists += [inner for lst in lists for inner in lst
                  if isinstance(inner, list)]
        lists = [lst for lst in lists if lst and not isinstance(lst[0], list)]
        if lists:
            lst = draw(st.sampled_from(lists))
            lst[draw(st.integers(0, len(lst) - 1))] = draw(st.booleans())
        items.append(first)
    return items


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps_on_nested_values(value):
    assert _json_text(value) == _oracle(value)


@settings(max_examples=200, deadline=None)
@given(record_lists(), st.booleans())
def test_writer_matches_json_dumps_on_record_lists(items, wrap):
    value = {"items": items, "n": len(items)} if wrap else items
    assert _json_text(value) == _oracle(value)


PITFALLS = [
    [{"a%s": 1, "%": [2, 3]}, {"a%s": 4, "%": [5, 6]}],  # '%' in keys
    [{"a": "%s"}, {"a": "100%"}, {"a": "%d%%"}],         # '%' in strings
    [[1, 2], [3, True]],                                 # bool in an int list
    [{"a": [1, False]}, {"a": [2, 3]}],
    [{"a": True, "b": None}, {"a": 1, "b": 2.5}],        # mixed scalar columns
    [[], []],
    [{}, {}],
    [{"é": "ü"}, {"é": "€"}],
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
]


@pytest.mark.parametrize("value", PITFALLS)
def test_writer_pitfalls(value):
    assert _json_text(value) == _oracle(value)


@pytest.mark.parametrize("value", PITFALLS)
def test_writer_pitfalls_as_a_record_value(value):
    # a list under a key reaches the record templates; a top-level list is
    # handed to json whole
    value = {"items": value}
    assert _json_text(value) == _oracle(value)


def test_writer_matches_json_dumps_on_a_verify_report():
    report = run_checks(max_k=4)
    assert _json_text(report) == _oracle(report)


def test_writer_matches_json_dumps_on_an_orbit_census():
    summary = orbit_summary(6)
    assert _json_text(summary) == _oracle(summary)


def test_writer_matches_json_dumps_on_a_decomposition_report():
    report = decomposition_report(8, 4)
    assert _json_text(report) == _oracle(report)


def _holds_a_list(value) -> bool:
    if isinstance(value, dict):
        return any(map(_holds_a_list, value.values()))
    return isinstance(value, (list, tuple))


@pytest.mark.parametrize("make", [
    lambda: decomposition_report(10, 5),
    lambda: orbit_summary(9),
    lambda: run_checks(max_k=4),
], ids=["decomposition-report", "orbit-census", "verify-report"])
def test_templates_fill_every_list_of_a_report(make, monkeypatch):
    # json's indented encoder writes the same bytes, only slower, so the
    # comparison with the oracle cannot tell which path wrote a list
    value = make()
    assert value.get("passed", True)
    assert any(isinstance(v, list) and v for v in value.values())
    given_to_json = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        given_to_json.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    text = _json_text(value)
    monkeypatch.undo()
    assert not [obj for obj in given_to_json if _holds_a_list(obj)]
    assert text == _oracle(value)


@pytest.mark.parametrize("value", [
    {"records": [{1: 2}, {1: 3}]},                     # an int record key
    {"records": [{"a": {"b": 1}}, {"a": {"b": 2}}]},   # a nested record
    {"records": [[1, 2], [3, 4]], "pairs": [(1, 2)]},  # bare lists, a tuple
    [{"a": 1}, {"a": 2}],                              # a top-level list
    {1: [{"a": 1}]},                                   # a top-level int key
])
def test_writer_hands_what_no_template_fills_to_json(value):
    assert _json_text(value) == _oracle(value)


_PAIR, _CELLS = [1, 2], [[1, 1], [1, 2], [2, 2]]


@pytest.mark.parametrize("value", [
    # one list object in every record of a column, as block ranges are
    {"blocks": [{"q": 1, "rows": _PAIR, "cols": [3, 4]},
                {"q": 1, "rows": _PAIR, "cols": [5, 6]},
                {"q": 2, "rows": [7, 8], "cols": [5, 6]}]},
    # one list object in two columns of a record, and across records
    {"ranges": [{"rows": _PAIR, "cols": _PAIR}, {"rows": [3], "cols": _PAIR}]},
    # one nested list object, and its rows, in two columns
    {"staircases": [{"cells": _CELLS, "corner": _CELLS[0]},
                    {"cells": _CELLS, "corner": _CELLS[1]},
                    {"cells": [], "corner": _CELLS[2]}]},
], ids=["one-column", "across-columns", "nested"])
def test_writer_spells_shared_lists_as_json_does(value):
    assert _json_text(value) == _oracle(value)


def _long_record_lists():
    cells = [[r, c] for r in range(1, 4) for c in range(1, 5)]
    return [
        {"staircases": [{"q": 1, "cells": cells},
                        {"q": 2, "cells": [[1, 1]]}]},
        # the long list first, last, shared, and flat
        {"staircases": [{"cells": cells, "q": 1}, {"cells": cells, "q": 2}]},
        {"ranges": [{"first": 1, "run": list(range(20))}] * 3},
    ]


@pytest.mark.parametrize("per_piece", [1, 3, 7, 12, 100])
def test_writer_fills_a_list_longer_than_the_chunk_in_pieces(per_piece,
                                                             monkeypatch):
    monkeypatch.setattr(render, "_CELLS_PER_BATCH", per_piece)
    for value in _long_record_lists():
        pieces = list(_json_pieces(value))
        assert "".join(pieces) == _oracle(value)
        if per_piece < 12:  # every list of 12 or 20 items is long
            # no piece opens more lists than one chunk of cells and its own
            assert max(piece.count("[") for piece in pieces) <= per_piece + 1


def test_writer_fills_a_list_longer_than_the_real_chunk_in_pieces():
    long = render._CELLS_PER_BATCH * 2 + 5
    value = {"staircases": [{"q": 1, "cells": [[j, j] for j in range(long)]},
                            {"q": 2, "cells": [[1, 1]]}]}
    pieces = _json_pieces(value)
    assert not isinstance(pieces, list)  # made as they are written
    pieces = list(pieces)
    assert "".join(pieces) == _oracle(value)
    assert max(piece.count("[") for piece in pieces) <= (
        render._CELLS_PER_BATCH + 1)
