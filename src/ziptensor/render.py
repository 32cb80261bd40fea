"""Text, CSV, JSON, and SVG serialization of tensors and grid decompositions.

Only the text formats are bit-exact contracts; SVG is presentational but
keeps fixed colors so diffs stay meaningful.  Nothing here reads a format
back: `T[k,i]` is fixed by k and i, so its document is `build_tensor(k, i)`.
"""
import csv
import io
import json
from enum import Enum

import numpy as np

from .blocks import AXES, GridDecomposition
from .capacity import admit
from .compositions import format_composition
from .errors import DomainError
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
