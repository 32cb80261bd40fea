"""Text, CSV, JSON, and SVG serialization of tensors and grid decompositions.

Only the text formats are bit-exact contracts; SVG is presentational but
keeps fixed colors so diffs stay meaningful.  Nothing here reads a format
back: `T[k,i]` is fixed by k and i, so its document is `build_tensor(k, i)`.
The CLI's indented JSON (reports and censuses) is written by
`_json_pieces`, byte for byte as `json.dumps(..., indent=2)`: the long
record lists at the top level are joined from the text of their values,
each distinct nested list checked and spelled once, and json writes the
rest.  JSON and SVG are made piece by piece as they are written.
"""
import csv
import io
import json
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .blocks import AXES, GridDecomposition
from .capacity import admit
from .compositions import format_composition
from .errors import DomainError
from .zippering import (_CELLS_PER_BATCH, Tensor, _text, _words,
                        _zipper_unit_cells)

ZERO_FILL = "#CCCCCC"
GRAY_STROKE = "#666666"
BLACK_STROKE = "#000000"
# the side of one grid cell in the SVG figure, in pixels
CELL = 20
# one zero cell's rect, at x and y
_ZERO_RECT = (f'<rect x="%s" y="%s" width="{CELL}" height="{CELL}" '
              f'fill="{ZERO_FILL}"/>')


class BorderClass(str, Enum):
    THIN = "thin-gray"
    DARK = "thick-dark-gray"
    BLACK = "thick-black"


def to_text(t: Tensor, style: str = "digits") -> str:
    """Render a tensor as digits, bullet glyphs, or labeled zipper words."""
    if style == "digits":
        return _text(t.entries)[:-1]
    if style == "bullets":
        # str.translate would map to these glyphs a character at a time
        return _text(t.entries)[:-1].replace("0", "∘").replace("1", "•")
    if style == "annotated":
        return _annotated(t)
    raise DomainError(f"unknown text style {style!r}")


def _annotated(t: Tensor) -> str:
    width = 2 * t.k + 1
    # every cell prints a word or a dash run of 2k+1 characters
    admit(f"annotated text of T[{t.k},{t.i}]", t.n ** 2 * width)
    labels = [format_composition(a) for a in t.rows]
    label_w = max(len(s) for s in labels)
    header = " " * (label_w + 1) + " ".join(
        ("|" + format_composition(b)).rjust(width) for b in t.cols)
    # the unit cells' words, in the row-major order the rows below use
    words = iter([w for _, _, bits in _zipper_unit_cells(t)
                  for w in _words(bits)])
    lines = [header]
    for label, row in zip(labels, t.entries):
        cells = [next(words) if v else "-" * width for v in row]
        lines.append(label.rjust(label_w) + "|" + " ".join(cells))
    return "\n".join(lines)


def to_csv(t: Tensor) -> str:
    """Entries with row headers in the first column, column headers on top."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [format_composition(b) for b in t.cols])
    for a, row in zip(t.rows, t.entries):
        writer.writerow([format_composition(a)] + [int(v) for v in row])
    return buf.getvalue()


def to_json(t: Tensor) -> str:
    doc = {
        "k": t.k,
        "i": t.i,
        "rows": [format_composition(a) for a in t.rows],
        "cols": [format_composition(b) for b in t.cols],
        "bits": _words(t.entries),
    }
    return json.dumps(doc, separators=(",", ":"))


def _marks(d: GridDecomposition, axis: str) -> list[BorderClass]:
    """Per header position on one axis: BLACK at a 2-strip start, DARK at
    any other 1-strip start, else THIN."""
    marks = [BorderClass.THIN] * d.n
    for q, mark in ((1, BorderClass.DARK), (2, BorderClass.BLACK)):
        for s in d.strips.get((q, axis), ()):
            marks[s.start] = mark
    return marks


def border_class(d: GridDecomposition, axis: str, index: int) -> BorderClass:
    """Class of one interior grid segment.

    Vertical segments sit left of column `index` (1..n-1) and horizontal
    segments below row `index` (0..n-2).  A segment is black where a 2-strip
    starts after it, dark gray where only a 1-strip does, and thin gray
    elsewhere.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    after = index if axis == "vertical" else index + 1
    if not 1 <= after <= d.n - 1:
        raise DomainError(f"{axis} segment index {index} is not interior")
    return _marks(d, axis)[after]


# the header entry underlined at a 2-strip start and at a 1-strip start
_UNDERLINE = {BorderClass.BLACK: 0, BorderClass.DARK: 1}
_STROKES = {
    BorderClass.THIN: (GRAY_STROKE, 1),
    BorderClass.DARK: (GRAY_STROKE, 3),
    BorderClass.BLACK: (BLACK_STROKE, 3),
}


def _header_tspans(header, mark: BorderClass, x: int | None = None) -> str:
    multi = any(part > 9 for part in header)
    out = []
    for idx, part in enumerate(header):
        text = str(part) + ("," if multi and idx < len(header) - 1 else "")
        attrs = ""
        if x is not None:
            attrs = f' x="{x}" dy="{12 if idx else 0}"'
        if idx == _UNDERLINE.get(mark):
            attrs += ' text-decoration="underline"'
        out.append(f"<tspan{attrs}>{text}</tspan>")
    return "".join(out)


def to_svg(d: GridDecomposition) -> str:
    """One unit square per entry, gray for zeros, strokes per border class."""
    return "".join(_svg_lines(d))


def _svg_lines(d: GridDecomposition) -> Iterator[str]:
    """`to_svg`'s lines, each but the first after its line break, made as
    they are written; the zero-cell rects _CELLS_PER_BATCH per piece."""
    n = d.n
    label_w = max(len(format_composition(a)) for a in d.rows)
    left = 8 * label_w + 10
    top = 12 * d.i + 8
    width = left + n * CELL + 10
    height = top + n * CELL + 10
    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield (f'\n<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="monospace" font-size="11">')
    # (x, y) of each zero cell, in row-major order
    corners = np.argwhere(d.zero_mask)[:, ::-1] * CELL + (left, top)
    for start in range(0, len(corners), _CELLS_PER_BATCH):
        chunk = corners[start:start + _CELLS_PER_BATCH]
        yield ("\n" + _ZERO_RECT) * len(chunk) % tuple(chunk.ravel().tolist())
    row_marks, col_marks = _marks(d, "horizontal"), _marks(d, "vertical")
    for c in range(1, n):
        color, w = _STROKES[col_marks[c]]
        x = left + c * CELL
        yield (f'\n<line x1="{x}" y1="{top}" x2="{x}" y2="{top + n * CELL}" '
               f'stroke="{color}" stroke-width="{w}"/>')
    for r in range(n - 1):
        color, w = _STROKES[row_marks[r + 1]]
        y = top + (r + 1) * CELL
        yield (f'\n<line x1="{left}" y1="{y}" x2="{left + n * CELL}" '
               f'y2="{y}" stroke="{color}" stroke-width="{w}"/>')
    yield (f'\n<rect x="{left}" y="{top}" width="{n * CELL}" '
           f'height="{n * CELL}" fill="none" stroke="{BLACK_STROKE}" '
           f'stroke-width="3"/>')
    for r, (header, mark) in enumerate(zip(d.rows, row_marks)):
        y = top + r * CELL + CELL // 2 + 4
        yield (f'\n<text x="{left - 4}" y="{y}" text-anchor="end">'
               f"{_header_tspans(header, mark)}</text>")
    for c, (header, mark) in enumerate(zip(d.cols, col_marks)):
        x = left + c * CELL + CELL // 2
        yield (f'\n<text x="{x}" y="12" text-anchor="middle">'
               f"{_header_tspans(header, mark, x=x)}</text>")
    yield "\n</svg>"


_ENCODE = json.JSONEncoder().encode  # C-accelerated for scalars
_SCALARS = {str, int, float, bool, type(None)}
# records per piece: as fast as 4,096 on the k = 10 reports, and 1 MiB less
# tracemalloc peak for `strips -k 11 -i 6 --format json` (9.6 MiB)
_RUN_ITEMS = 256


def _json_pieces(obj) -> Iterator[str]:
    """The pieces of json.dumps(obj, indent=2) + "\n", byte for byte, made
    as they are written, so that no list holds the whole text.

    With `indent`, json falls back to its pure-Python encoder, so
    `_records` writes the long record lists, the values of a top-level dict
    with string keys; json writes the rest.
    """
    if not (isinstance(obj, dict) and obj
            and all(isinstance(key, str) for key in obj)):
        yield json.dumps(obj, indent=2)
        yield "\n"
        return
    sep = "{\n  "
    for key, value in obj.items():
        yield sep + _ENCODE(key) + ": "
        records = isinstance(value, list) and value and _records(value, "\n  ")
        yield from records or [
            json.dumps(value, indent=2).replace("\n", "\n  ")]
        sep = ",\n  "
    yield "\n}\n"


def _list_template(m: int, indent: str, item: str = "%s") -> str:
    """A list of m copies of item, at the level whose line break and
    indentation is indent."""
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join([item] * m) + indent + "]"
            if m else "[]")


def _list_pieces(lst: list, indent: str, spell) -> Iterator[str]:
    """The text that spell gives a long list at indent, _CELLS_PER_BATCH
    elements per piece."""
    sep = "["
    for start in range(0, len(lst), _CELLS_PER_BATCH):
        text = spell(lst[start:start + _CELLS_PER_BATCH])
        yield sep + text[1:-len(indent) - 1]  # the chunk without brackets
        sep = ","
    yield indent + "]"


def _spelled(column: list, indent: str, long: set[int]) -> Iterator | None:
    """The text of each list of a record column at indent; None unless the
    lists hold ints only, or int lists of one width only.

    A list longer than _CELLS_PER_BATCH is left as the function that makes
    its pieces, and its position is added to long.  Records may share a
    list (a level's block records share their run ranges), so each
    distinct list is checked and spelled once; only a column that shares
    lists holds its texts until it is written.
    """
    ids = list(map(id, column))
    lists = dict(zip(ids, column))
    entries = list(chain.from_iterable(lists.values()))
    # type(x) is int: bool is an int subclass but encodes as true/false
    types = set(map(type, entries))
    if types <= {int}:
        element = "%s"
    elif (types == {list} and len(width := set(map(len, entries))) == 1
          and set(map(type, chain.from_iterable(entries))) <= {int}):
        element = _list_template(width.pop(), indent + "  ")
    else:
        return None
    if max(map(len, lists.values())) > _CELLS_PER_BATCH:
        long.update(pos for pos, lst in enumerate(column)
                    if len(lst) > _CELLS_PER_BATCH)

    flat = element == "%s"
    # lists of one length often come in runs: rows and cols are pairs
    template = lru_cache(1)(lambda m: _list_template(m, indent, element))

    def spell(lst):
        if len(lst) > _CELLS_PER_BATCH:
            return partial(_list_pieces, lst, indent, spell)
        return template(len(lst)) % tuple(lst if flat else
                                          chain.from_iterable(lst))
    if len(lists) == len(column):
        return map(spell, column)
    texts = {key: spell(lst) for key, lst in lists.items()}
    return map(texts.__getitem__, ids)


def _records(items: list, indent: str) -> Iterator[str] | None:
    """The pieces of the list items, at the level whose line break and
    indentation is indent, if it is a list of flat records; None if it is
    not one.

    A flat record is a dict with string keys whose values are scalars, int
    lists or lists of equal-width int lists.  The records share their keys
    in order, and a column of nested lists its width.  Each record is
    joined from its keys and the text of its values, _RUN_ITEMS records per
    piece, but a record that holds a list longer than _CELLS_PER_BATCH is
    written part by part.
    """
    first = items[0]
    if (set(map(type, items)) != {dict} or not first
            or set(map(type, first)) != {str}
            or len(set(map(tuple, items))) != 1):
        return None
    inner, field = indent + "  ", indent + "    "
    parts, long = [], set()
    for sep, key in zip(chain("{", repeat(",")), first):
        column = list(map(itemgetter(key), items))
        types = set(map(type, column))
        if types <= _SCALARS:
            values = map(str if types == {int} else _ENCODE, column)
        elif types != {list} or not (values := _spelled(column, field, long)):
            return None
        parts += (repeat(sep + field + _ENCODE(key) + ": "), values)
    parts.append(repeat(inner + "}"))
    return _joined(zip(*parts), sorted(long) + [len(items)], indent)


def _joined(rows, stops: list[int], indent: str) -> Iterator[str]:
    """The records whose text parts rows holds, _RUN_ITEMS per piece; each
    record at a stop but the last is written part by part, a long list's
    parts a chunk at a time."""
    inner = indent + "  "
    sep, done = "[" + inner, 0
    for stop in stops:
        for start in range(done, stop, _RUN_ITEMS):
            batch = islice(rows, min(_RUN_ITEMS, stop - start))
            yield sep + ("," + inner).join(map("".join, batch))
            sep = "," + inner
        if stop < stops[-1]:
            yield sep
            for part in next(rows):
                yield from (part,) if type(part) is str else part()
            sep = "," + inner
        done = stop + 1
    yield indent + "]"
