"""Command-line surface: generation, verification, rendering, reports.

Exit codes: 0 success / all checks pass, 1 a verification check failed,
2 usage, domain, or capacity errors, or output that cannot be written.
"""
import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from .blocks import (_index, _strip_groups, decomposition_report,
                     grid_decomposition)
from .capacity import DEFAULT_CAPACITY, budget
from .dihedral import orbit_summary
from .errors import (CapacityError, DomainError, MalformedWordError,
                     ParseError, StructureViolationError)
from .render import to_csv, to_json, to_svg, to_text
from .trees import (OrderedTree, _child_count_rows, _tree_word_batches,
                    to_dot)
from .verify import CHECK_ORDER, run_checks
from .zippering import _words, build_tensor

FORMATS = ("digits", "bullets", "annotated", "csv", "json", "svg")
# streamed listings are written this many lines per write
_LINES_PER_WRITE = 4096


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write one text, or the pieces of one in order, to out or stdout.

    The first piece is made before out is opened, so that a listing refused
    at its start leaves no file behind.
    """
    pieces = iter((text,) if isinstance(text, str) else text)
    first = next(pieces, "")
    if out is None:
        sys.stdout.write(first)
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(first)
            fh.writelines(pieces)


_ENCODE = json.JSONEncoder().encode  # C-accelerated for scalars
_SCALARS = {str, int, float, bool, type(None)}


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2) + "\n", byte for byte.

    With `indent`, json falls back to its pure-Python encoder.  This writer
    recurses over dicts and lists, encodes scalars with the C encoder, and
    fills each list of same-shape flat records from one template.
    """
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, indent: str) -> str:
    """obj rendered at the level whose line break and indentation is indent."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            _key(key) + ": " + _dumps(value, inner)
            for key, value in obj.items()) + indent + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _records(obj, inner)
        if body is None:
            body = ("," + inner).join(_dumps(item, inner) for item in obj)
        return "[" + inner + body + indent + "]"
    return _ENCODE(obj)


def _key(key) -> str:
    # json turns int, float, bool and None keys into their encoded text
    return _ENCODE(key if isinstance(key, str) else _ENCODE(key))


def _int_list(m: int, indent: str) -> str:
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join(["%s"] * m) + indent + "]"
            if m else "[]")


def _records(items, indent: str) -> str | None:
    """The body of a list of flat records of one shape, or None.

    A flat record is an int list, or a dict whose values are scalars or int
    lists; one shape means the same keys in the same order and the same list
    lengths.  One `%` template, built from the first item, is filled from
    one flat tuple of every item's values: ints as they are, other scalars
    encoded.  Keys are the only text inside the template, so only they
    have their `%` escaped.
    """
    kinds = set(map(type, items))
    if kinds == {list}:
        keys, columns, inner = None, [items], indent
    elif kinds == {dict} and items[0] and len(set(map(tuple, items))) == 1:
        keys = [_key(key).replace("%", "%%") for key in items[0]]
        columns = list(zip(*map(dict.values, items)))
        inner = indent + "  "  # a dict's values sit one level inside it
    else:
        return None
    parts, slots = [], []
    for column in columns:
        types = set(map(type, column))
        if types == {list}:
            lengths = set(map(len, column))
            # type(x) is int: bool is an int subclass but encodes as true/false
            if (len(lengths) != 1
                    or set(map(type, chain.from_iterable(column))) - {int}):
                return None
            parts.append(_int_list(lengths.pop(), inner))
            slots.extend(zip(*column))
        elif types <= _SCALARS:
            parts.append("%s")
            slots.append(column if types == {int} else
                         list(map(_ENCODE, column)))
        else:
            return None
    if keys is None:
        template = parts[0]
    else:
        template = ("{" + inner + ("," + inner).join(
            key + ": " + part for key, part in zip(keys, parts))
            + indent + "}")
    return (("," + indent).join([template] * len(items))
            % tuple(chain.from_iterable(zip(*slots))))


def _cmd_gen(args) -> int:
    if args.format == "svg":
        text = to_svg(grid_decomposition(args.k, args.i)) + "\n"
    elif args.format == "csv":
        text = to_csv(build_tensor(args.k, args.i))
    elif args.format == "json":
        text = to_json(build_tensor(args.k, args.i)) + "\n"
    else:
        text = to_text(build_tensor(args.k, args.i), args.format) + "\n"
    _emit(text, args.out)
    return 0


def _checks_arg(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _cmd_verify(args) -> int:
    """A line per check for verify; the JSON report for report or --out."""
    report = run_checks(_checks_arg(args.checks), max_k=args.max_k,
                        jobs=args.jobs)
    for record in report["checks"] if args.command == "verify" else ():
        if record["passed"]:
            line = (f"{record['check']}: PASS (max_k={record['max_k']}, "
                    f"{record['elapsed_seconds']}s)")
        else:
            line = (f"{record['check']}: FAIL (max_k={record['max_k']}, "
                    f"counterexample={json.dumps(record['counterexample'])})")
        print(line)
    if args.out or args.command == "report":
        _emit(_json_text(report), args.out)
    return 0 if report["passed"] else 1


def _line_batches(lines: Iterable[str]) -> Iterator[str]:
    """The text "\n".join(lines) + "\n" in pieces of _LINES_PER_WRITE lines.

    The first piece is yielded even when there are no lines.
    """
    it = iter(lines)
    batch = list(islice(it, _LINES_PER_WRITE))
    yield "\n".join(batch) + "\n"
    while batch := list(islice(it, _LINES_PER_WRITE)):
        yield "\n".join(batch) + "\n"


def _cmd_trees(args) -> int:
    batches = _tree_word_batches(args.k)
    if args.emit == "words":
        lines = chain.from_iterable(map(_words, batches))
    elif args.emit == "parens":
        # every row is a checked tree word, so its tail is the parens code
        lines = chain.from_iterable(_words(bits[:, 1:], "()")
                                    for bits in batches)
    else:
        counts = chain.from_iterable(_child_count_rows(bits).tolist()
                                     for bits in batches)
        lines = (to_dot(OrderedTree(tuple(row)), name=f"t{idx}")
                 for idx, row in enumerate(counts))
    _emit(_line_batches(lines), args.out)
    return 0


def _cmd_orbits(args) -> int:
    _emit(_json_text(orbit_summary(args.k)), args.out)
    return 0


def _strip_profile(k: int, i: int) -> str:
    index = _index(k, i)  # checks k and i, as the json format does
    return "\n".join(
        f"q={q}: " + "; ".join(",".join(str(s.size) for s in group)
                              for group in _strip_groups(index, q, "vertical"))
        for q in range(1, i))


def _cmd_strips(args) -> int:
    if args.format == "json":
        _emit(_json_text(decomposition_report(args.k, args.i)), args.out)
    else:
        _emit(_strip_profile(args.k, args.i) + "\n", args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ziptensor",
        description="Composition-zippering tensors, their tree decodings, "
                    "and the block/staircase verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_out(p):
        p.add_argument("--out", help="write output to this file")
        return p

    def sized(name, summary, with_i=True):
        p = with_out(sub.add_parser(name, help=summary))
        p.add_argument("-k", type=int, required=True)
        if with_i:
            p.add_argument("-i", type=int, required=True)
        p.add_argument("--capacity", type=int, help=(
            "budget in array entries per operation; grid (k,i) costs at "
            "least its C(k-1,i-1)^2 cells "
            f"(default: ZIPTENSOR_CAPACITY, else {DEFAULT_CAPACITY})"))
        return p

    p = sized("gen", "emit one tensor")
    p.add_argument("--format", choices=FORMATS, default="digits")
    p.set_defaults(func=_cmd_gen)

    for name in ("verify", "report"):
        p = with_out(sub.add_parser(
            name, help="run invariant checks"
                 if name == "verify" else "emit a JSON conformance report"))
        p.add_argument("--max-k", type=int, default=None)
        p.add_argument("--checks",
                       help=f"comma-separated subset of: {', '.join(CHECK_ORDER)}")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=_cmd_verify)

    p = sized("trees", "list k-edge ordered trees", with_i=False)
    p.add_argument("--emit", choices=("words", "parens", "dot"),
                   default="words")
    p.set_defaults(func=_cmd_trees)

    p = sized("orbits", "dihedral classes as JSON", with_i=False)
    p.set_defaults(func=_cmd_orbits)

    p = sized("strips", "strip width profile")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_strips)

    p = sized("render", "SVG grid figure")
    p.set_defaults(func=_cmd_gen, format="svg")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # one -k rule and one budget for all but verify and report
        if getattr(args, "k", 2) < 2:
            raise DomainError(f"edge count k must be at least 2, got {args.k}")
        with budget(getattr(args, "capacity", None)):
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (CapacityError, DomainError, MalformedWordError, OSError,
            ParseError) as exc:
        if isinstance(exc, BrokenPipeError):
            # as the Python signal docs do, so that exit's flush is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
