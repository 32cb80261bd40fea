"""Text, CSV, JSON, and SVG serialization of tensors and grid decompositions.

Only the text formats are bit-exact contracts; SVG is presentational but
keeps fixed colors so diffs stay meaningful.  Nothing here reads a format
back: `T[k,i]` is fixed by k and i, so its document is `build_tensor(k, i)`.
The CLI's indented JSON (reports and censuses) is written by
`_json_pieces`, byte for byte as `json.dumps(..., indent=2)`: `%` templates
fill the long record lists at the top level, and json writes the rest.
"""
import csv
import io
import json
from enum import Enum
from itertools import chain, groupby, islice, repeat
from operator import itemgetter

import numpy as np

from .blocks import AXES, GridDecomposition
from .capacity import admit
from .compositions import format_composition
from .errors import DomainError
from .zippering import _CELLS_PER_BATCH, Tensor, _words, _zipper_unit_cells

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
        return "\n".join(_words(t.entries))
    if style == "bullets":
        return "\n".join(_words(t.entries, "∘•"))
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
    return "\n".join(_svg_lines(d))


def _svg_lines(d: GridDecomposition) -> list[str]:
    """`to_svg`'s lines, zero-cell rects in blocks, to write one by one."""
    n = d.n
    label_w = max(len(format_composition(a)) for a in d.rows)
    left = 8 * label_w + 10
    top = 12 * d.i + 8
    width = left + n * CELL + 10
    height = top + n * CELL + 10
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
    ]
    # (x, y) of each zero cell, in row-major order
    corners = np.argwhere(d.zero_mask)[:, ::-1] * CELL + (left, top)
    for start in range(0, len(corners), _CELLS_PER_BATCH):
        chunk = corners[start:start + _CELLS_PER_BATCH]
        parts.append("\n".join([_ZERO_RECT] * len(chunk))
                     % tuple(chunk.ravel().tolist()))
    row_marks, col_marks = _marks(d, "horizontal"), _marks(d, "vertical")
    for c in range(1, n):
        color, w = _STROKES[col_marks[c]]
        x = left + c * CELL
        parts.append(f'<line x1="{x}" y1="{top}" x2="{x}" y2="{top + n * CELL}" '
                     f'stroke="{color}" stroke-width="{w}"/>')
    for r in range(n - 1):
        color, w = _STROKES[row_marks[r + 1]]
        y = top + (r + 1) * CELL
        parts.append(f'<line x1="{left}" y1="{y}" x2="{left + n * CELL}" '
                     f'y2="{y}" stroke="{color}" stroke-width="{w}"/>')
    parts.append(f'<rect x="{left}" y="{top}" width="{n * CELL}" '
                 f'height="{n * CELL}" fill="none" stroke="{BLACK_STROKE}" '
                 f'stroke-width="3"/>')
    for r, (header, mark) in enumerate(zip(d.rows, row_marks)):
        y = top + r * CELL + CELL // 2 + 4
        parts.append(f'<text x="{left - 4}" y="{y}" text-anchor="end">'
                     f"{_header_tspans(header, mark)}</text>")
    for c, (header, mark) in enumerate(zip(d.cols, col_marks)):
        x = left + c * CELL + CELL // 2
        parts.append(f'<text x="{x}" y="12" text-anchor="middle">'
                     f"{_header_tspans(header, mark, x=x)}</text>")
    parts.append("</svg>")
    return parts


_ENCODE = json.JSONEncoder().encode  # C-accelerated for scalars
_SCALARS = {str, int, float, bool, type(None)}
# same-shape records are filled from one template at most this many at a time
_RUN_ITEMS = 256


def _json_pieces(obj) -> list[str]:
    """The pieces of json.dumps(obj, indent=2) + "\n", byte for byte.

    With `indent`, json falls back to its pure-Python encoder, so templates
    (`_records`) fill the long record lists, the values of a top-level dict
    with string keys; json writes the rest.  The pieces are written one by
    one, so the whole text is never held as one string.
    """
    if not (isinstance(obj, dict) and obj
            and all(isinstance(key, str) for key in obj)):
        return [json.dumps(obj, indent=2), "\n"]
    pieces: list[str] = []
    sep = "{\n  "
    for key, value in obj.items():
        pieces.append(sep + _ENCODE(key) + ": ")
        if not (isinstance(value, list) and value
                and _records(value, "\n  ", pieces)):
            pieces.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    pieces.append("\n}\n")
    return pieces


def _list_template(m: int, indent: str, item: str = "%s") -> str:
    """A list of m copies of item, at the level whose line break and
    indentation is indent."""
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join([item] * m) + indent + "]"
            if m else "[]")


def _records(items: list, indent: str, out: list[str]) -> bool:
    """Append the list items, at the level whose line break and indentation
    is indent, to out if it is a list of flat records; False if it is not
    one, with nothing appended.

    A flat record is a dict with string keys whose values are scalars, int
    lists or lists of equal-width int lists.  The records share their keys
    in order, and a column of nested lists its width, but list lengths may
    differ from item to item.  Each run of items with the same list lengths
    is filled, _RUN_ITEMS at a time, from one `%` template of that shape and
    one flat tuple of the values: ints as they are, other scalars encoded.
    Keys are the only text inside a template, so only they have their `%`
    escaped.
    """
    first = items[0]
    if (set(map(type, items)) != {dict} or not first
            or set(map(type, first)) != {str}
            or len(set(map(tuple, items))) != 1):
        return False
    keys = [_ENCODE(key).replace("%", "%%") for key in first]
    columns = [list(map(itemgetter(key), items)) for key in first]
    inner, field = indent + "  ", indent + "    "
    # per column: an iterator of each item's values in order; per list
    # column the template of one element (an int, or a list of `width`
    # ints) and an iterator of each item's length
    values, elements, lengths = [], [], []
    for column in columns:
        types = set(map(type, column))
        if types <= _SCALARS:
            values.append(zip(column if types == {int} else
                              map(_ENCODE, column)))
            elements.append(None)
            continue
        if types != {list}:
            return False
        # type(x) is int: bool is an int subclass but encodes as true/false
        types = set(map(type, chain.from_iterable(column)))
        if types <= {int}:
            values.append(iter(column))
            elements.append("%s")
        elif types == {list}:
            width = set(map(len, chain.from_iterable(column)))
            if len(width) != 1 or set(map(type, chain.from_iterable(
                    chain.from_iterable(column)))) - {int}:
                return False
            values.append(map(chain.from_iterable, column))
            elements.append(_list_template(width.pop(), field + "  "))
        else:
            return False
        lengths.append(map(len, column))

    sep = "[" + inner
    for shape, run in groupby(zip(*lengths) if lengths
                              else repeat((), len(items))):
        count = sum(1 for _ in run)
        lens = iter(shape)
        parts = [_list_template(next(lens), field, e) if e else "%s"
                 for e in elements]
        item = ("{" + field + ("," + field).join(
            key + ": " + part for key, part in zip(keys, parts)) + inner + "}")
        for done in range(0, count, _RUN_ITEMS):
            m = min(_RUN_ITEMS, count - done)
            row = zip(*(islice(it, m) for it in values))
            out.append(sep)
            out.append(("," + inner).join([item] * m) % tuple(
                chain.from_iterable(chain.from_iterable(row))))
            sep = "," + inner
    out.append(indent + "]")
    return True
