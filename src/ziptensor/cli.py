"""Command-line surface: generation, verification, rendering, reports.

Exit codes: 0 success / all checks pass, 1 a verification check failed,
2 usage, domain, or capacity errors.
"""
import argparse
import json
import sys

from .blocks import decomposition_report, grid_decomposition, strip_groups
from .dihedral import enumerate_orbits, orbit_summary
from .errors import (CapacityError, DomainError, MalformedWordError,
                     ParseError, StructureViolationError)
from .render import to_csv, to_json, to_svg, to_text
from .trees import _BITS_TO_PARENS, decode, to_dot, tree_words
from .verify import CHECK_ORDER, run_checks
from .zippering import build_tensor

FORMATS = ("digits", "bullets", "annotated", "csv", "json", "svg")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    t = build_tensor(args.k, args.i, limit=args.capacity)
    if args.format == "csv":
        text = to_csv(t)
    elif args.format == "json":
        text = to_json(t) + "\n"
    elif args.format == "svg":
        text = to_svg(grid_decomposition(args.k, args.i), t) + "\n"
    else:
        text = to_text(t, args.format) + "\n"
    _emit(text, args.out)
    return 0


def _checks_arg(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _cmd_verify(args) -> int:
    report = run_checks(_checks_arg(args.checks), max_k=args.max_k,
                        jobs=args.jobs)
    for record in report["checks"]:
        if record["passed"]:
            line = (f"{record['check']}: PASS (max_k={record['max_k']}, "
                    f"{record['elapsed_seconds']}s)")
        else:
            line = (f"{record['check']}: FAIL (max_k={record['max_k']}, "
                    f"counterexample={json.dumps(record['counterexample'])})")
        print(line)
    if args.out:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _cmd_report(args) -> int:
    report = run_checks(_checks_arg(args.checks), max_k=args.max_k,
                        jobs=args.jobs)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _cmd_trees(args) -> int:
    words = tree_words(args.k, limit=args.capacity)
    if args.emit == "words":
        lines = words
    elif args.emit == "parens":
        # tree_words has checked every word, so its tail is the parens code
        lines = [w[1:].translate(_BITS_TO_PARENS) for w in words]
    else:
        lines = [to_dot(decode(w), name=f"t{idx}")
                 for idx, w in enumerate(words)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_orbits(args) -> int:
    summary = orbit_summary(args.k, enumerate_orbits(args.k,
                                                     limit=args.capacity))
    _emit(json.dumps(summary, indent=2) + "\n", args.out)
    return 0


def _strip_profile(k: int, i: int) -> str:
    return "\n".join(
        f"q={q}: " + "; ".join(",".join(str(s.size) for s in group)
                              for group in strip_groups(k, i, q, "vertical"))
        for q in range(1, i))


def _cmd_strips(args) -> int:
    if args.format == "json":
        _emit(json.dumps(decomposition_report(args.k, args.i), indent=2)
              + "\n", args.out)
    else:
        _emit(_strip_profile(args.k, args.i) + "\n", args.out)
    return 0


def _cmd_render(args) -> int:
    t = build_tensor(args.k, args.i, limit=args.capacity)
    _emit(to_svg(grid_decomposition(args.k, args.i), t) + "\n", args.out)
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

    p = with_out(sub.add_parser("gen", help="emit one tensor"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="digits")
    p.add_argument("--capacity", type=int, help="raise the k guard")
    p.set_defaults(func=_cmd_gen)

    for name, func in (("verify", _cmd_verify), ("report", _cmd_report)):
        p = with_out(sub.add_parser(
            name, help="run invariant checks"
                 if name == "verify" else "emit a JSON conformance report"))
        p.add_argument("--max-k", type=int, default=None)
        p.add_argument("--checks",
                       help=f"comma-separated subset of: {', '.join(CHECK_ORDER)}")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=func)

    p = with_out(sub.add_parser("trees", help="list k-edge ordered trees"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--emit", choices=("words", "parens", "dot"),
                   default="words")
    p.add_argument("--capacity", type=int)
    p.set_defaults(func=_cmd_trees)

    p = with_out(sub.add_parser("orbits", help="dihedral classes as JSON"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--capacity", type=int)
    p.set_defaults(func=_cmd_orbits)

    p = with_out(sub.add_parser("strips", help="strip width profile"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_strips)

    p = with_out(sub.add_parser("render", help="SVG grid figure"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--capacity", type=int)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapacityError, DomainError, MalformedWordError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
