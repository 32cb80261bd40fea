"""Command-line surface: generation, verification, rendering, reports.

Exit codes: 0 success / all checks pass, 1 a verification check failed,
2 usage, domain, or capacity errors, or output that cannot be written.
The parser is built once per process; outputs stream to --out or stdout.
"""
import argparse
import json
import os
import sys
from collections.abc import Iterable
from contextlib import AbstractContextManager, nullcontext
from functools import cache
from itertools import chain
from typing import TextIO

from .blocks import (_index, _strip_groups, decomposition_report,
                     grid_decomposition)
from .capacity import DEFAULT_CAPACITY, budget
from .compositions import _check_range
from .dihedral import orbit_summary
from .errors import StructureViolationError, ZiptensorError
from .render import _json_pieces, _svg_lines, to_csv, to_json, to_text
from .trees import (OrderedTree, _child_count_rows, _tree_word_batches,
                    to_dot)
from .verify import CHECK_ORDER, _admitted_bounds, run_checks
from .zippering import _text, build_tensor

FORMATS = ("digits", "bullets", "annotated", "csv", "json", "svg")


def _opened(out: str | None) -> AbstractContextManager[TextIO]:
    """out opened for writing, or stdout, left open, when out is None."""
    if out is None:
        return nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="\n")


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write one text, or the pieces of one in order, to out or stdout.

    The first piece is made before out is opened, so that a listing refused
    at its start leaves no file behind.
    """
    pieces = iter((text,) if isinstance(text, str) else text)
    first = next(pieces, "")
    with _opened(out) as fh:
        fh.write(first)
        fh.writelines(pieces)


def _cmd_gen(args) -> int:
    if args.format == "svg":
        text = chain(_svg_lines(grid_decomposition(args.k, args.i)), ["\n"])
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
    """A line per check for verify; the JSON report for report or --out.

    The selection, its cost and --jobs are admitted, and the report's file
    opened, before any check runs: a refused run leaves no file, and an
    unwritable --out costs no check.
    """
    names = _checks_arg(args.checks)
    _admitted_bounds(CHECK_ORDER if names is None else names, args.max_k,
                     args.jobs)
    writes = args.out or args.command == "report"
    with _opened(args.out) if writes else nullcontext() as fh:
        report = run_checks(names, max_k=args.max_k, jobs=args.jobs)
        for record in report["checks"] if args.command == "verify" else ():
            if record["passed"]:
                line = (f"{record['check']}: PASS (max_k={record['max_k']}, "
                        f"{record['elapsed_seconds']}s)")
            else:
                line = (f"{record['check']}: FAIL (max_k={record['max_k']}, "
                        f"counterexample="
                        f"{json.dumps(record['counterexample'])})")
            print(line)
        if fh:
            fh.writelines(_json_pieces(report))
    return 0 if report["passed"] else 1


def _cmd_trees(args) -> int:
    batches = _tree_word_batches(args.k)
    if args.emit == "words":
        text = map(_text, batches)
    elif args.emit == "parens":
        # every row is a checked tree word, so its tail is the parens code
        text = (_text(bits[:, 1:], "()") for bits in batches)
    else:
        counts = chain.from_iterable(_child_count_rows(bits).tolist()
                                     for bits in batches)
        # one piece per graph; the file object buffers them
        text = (to_dot(OrderedTree._trusted(tuple(row)), name=f"t{idx}")
                + "\n" for idx, row in enumerate(counts))
    _emit(text, args.out)
    return 0


def _cmd_orbits(args) -> int:
    _emit(_json_pieces(orbit_summary(args.k)), args.out)
    return 0


def _strip_profile(k: int, i: int) -> str:
    index = _index(k, i)  # checks k and i, as the json format does
    return "\n".join(
        f"q={q}: " + "; ".join(",".join(str(s.size) for s in group)
                              for group in _strip_groups(index, q, "vertical"))
        for q in range(1, i))


def _cmd_strips(args) -> int:
    if args.format == "json":
        _emit(_json_pieces(decomposition_report(args.k, args.i)), args.out)
    else:
        _emit(_strip_profile(args.k, args.i) + "\n", args.out)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once; each command names its handler."""
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
    p.set_defaults(handler="_cmd_gen")

    for name in ("verify", "report"):
        p = with_out(sub.add_parser(
            name, help="run invariant checks"
                 if name == "verify" else "emit a JSON conformance report"))
        p.add_argument("--max-k", type=int, default=None)
        p.add_argument("--checks",
                       help=f"comma-separated subset of: {', '.join(CHECK_ORDER)}")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(handler="_cmd_verify")

    p = sized("trees", "list k-edge ordered trees", with_i=False)
    p.add_argument("--emit", choices=("words", "parens", "dot"),
                   default="words")
    p.set_defaults(handler="_cmd_trees")

    p = sized("orbits", "dihedral classes as JSON", with_i=False)
    p.set_defaults(handler="_cmd_orbits")

    p = sized("strips", "strip width profile")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler="_cmd_strips")

    p = sized("render", "SVG grid figure")
    p.set_defaults(handler="_cmd_gen", format="svg")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # one -k rule and one budget for all but verify and report
        _check_range(getattr(args, "k", 2), 1)
        with budget(getattr(args, "capacity", None)):
            # by name, so that a handler bound after the build is the one run
            code = globals()[args.handler](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 1
    except (ZiptensorError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # as the Python signal docs do, so that exit's flush is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
