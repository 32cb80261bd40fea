"""Text, CSV, JSON, and SVG serialization of tensors and grid decompositions.

Only the text formats are bit-exact contracts; SVG is presentational but
keeps fixed colors so diffs stay meaningful.
"""
import csv
import io
import json
from enum import Enum

import numpy as np

from .blocks import AXES, GridDecomposition
from .capacity import binomial
from .compositions import (format_composition, p_set, parse_composition,
                           q_set)
from .errors import CapacityError, DomainError, ParseError
from .zippering import Tensor, _words, _zipper_unit_cells

ZERO_FILL = "#CCCCCC"
GRAY_STROKE = "#666666"
BLACK_STROKE = "#000000"
# the side of one grid cell in the SVG figure, in pixels
CELL = 20


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


def parse_digits(text: str) -> np.ndarray:
    """Inverse of the digits style (entries only, headers not recoverable)."""
    lines = text.splitlines()
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("empty digit matrix")
    width = len(lines[0])
    rows = []
    for r, line in enumerate(lines, start=1):
        if len(line) != width:
            raise ParseError(f"row {r}: expected {width} digits, got {len(line)}")
        for c, ch in enumerate(line, start=1):
            if ch not in "01":
                raise ParseError(f"row {r}, column {c}: invalid digit {ch!r}")
        rows.append([int(ch) for ch in line])
    return np.asarray(rows, dtype=np.uint8)


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


def from_json(s: str) -> Tensor:
    try:
        doc = json.loads(s)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or too long an int
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    for key, kind in (("k", int), ("i", int), ("rows", list),
                      ("cols", list), ("bits", list)):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise ParseError(f"key {key!r}: expected {kind.__name__}")
    rows = [_parse_header(s, "rows", idx, doc["i"])
            for idx, s in enumerate(doc["rows"])]
    cols = [_parse_header(s, "cols", idx, doc["i"])
            for idx, s in enumerate(doc["cols"])]
    _check_headers(doc["k"], doc["i"], rows, cols)
    bits = doc["bits"]
    if len(bits) != len(rows):
        raise ParseError(f"bits: expected {len(rows)} rows, got {len(bits)}")
    entries = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for r, line in enumerate(bits):
        if not isinstance(line, str) or len(line) != len(cols):
            raise ParseError(f"bits[{r}]: expected a {len(cols)}-digit string")
        for c, ch in enumerate(line):
            if ch not in "01":
                raise ParseError(f"bits[{r}][{c}]: invalid digit {ch!r}")
            entries[r, c] = ch == "1"
    return Tensor(doc["k"], doc["i"], rows, cols, entries)


def _check_headers(k: int, i: int, rows: list, cols: list) -> None:
    """Raise ParseError unless rows and cols are the headers of T[k,i]."""
    grid = f"T[{k},{i}]"
    try:
        # counted first, so that a short document builds no long header list
        if len(rows) != binomial(k - 1, i - 1):
            raise ParseError(f"rows: {len(rows)} headers, not those of {grid}")
        expected = p_set(k, i), q_set(k, i)
    except (CapacityError, DomainError) as exc:
        raise ParseError(f"{grid}: {exc}") from exc
    for field, parsed, headers in zip(("rows", "cols"), (rows, cols),
                                      expected):
        if parsed != headers:
            raise ParseError(f"{field}: not the headers of {grid}")


def _parse_header(s, field: str, idx: int, parts: int):
    if not isinstance(s, str):
        raise ParseError(f"{field}[{idx}]: expected a string")
    try:
        return parse_composition(s, parts=parts)
    except ParseError as exc:
        raise ParseError(f"{field}[{idx}]: {exc}") from exc


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
    for r, c in np.argwhere(d.zero_mask).tolist():
        parts.append(f'<rect x="{left + c * CELL}" y="{top + r * CELL}" '
                     f'width="{CELL}" height="{CELL}" fill="{ZERO_FILL}"/>')
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
    return "\n".join(parts)
