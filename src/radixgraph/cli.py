"""Command line front end.

Subcommands: expand, census, graph, trace, sweep. Exit codes: 0 success,
2 unparseable input, 3 domain/validation error, 4 capacity cap exceeded,
5 sweep found a mismatch.
"""

from __future__ import annotations

import re
import sys

import argparse

from .errors import CapacityError, ParseError, ValidationError
from .expansion import Fraction, expand, period_digits, period_digits_reversed, run_oracle_sweep
from .export import (
    ExportOptions,
    census_table,
    cycle_table,
    format_expansion,
    graph_to_dot,
    graph_to_json,
    trace_table,
)
from .graph import MATERIALIZATION_CAP, GraphParams, build_graph, census

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4
EXIT_MISMATCH = 5

_FRACTION_RE = re.compile(r"^(\d+)/(\d+)$")


def _parse_fraction(text: str) -> Fraction:
    m = _FRACTION_RE.match(text)
    if not m:
        raise ParseError(f"expected a fraction K/M with nonnegative integers, got {text!r}")
    try:
        k, d = int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise ParseError(f"fraction too long to read ({len(text)} characters): {exc}") from None
    return Fraction(k, d)


def cmd_expand(args: argparse.Namespace) -> int:
    f = _parse_fraction(args.fraction)
    result, red = expand(f, args.base)
    print(format_expansion(result, ascii_style=args.ascii))
    if args.trace:
        line = (
            f"reduction: shift={red.shift} integer={red.integer_part}"
            f" preperiod_value={red.preperiod_value}"
            f" tail={red.tail_numerator}/{red.tail_denominator}"
        )
        if red.multiplier is not None:
            line += f" multiplier={red.multiplier} n={red.graph_n}"
        print(line)
        walk = red.period_trace
        if walk is not None:
            print(f"period trace of {walk.start}/{walk.params.modulus}:")
            print(trace_table(walk), end="")
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    rows = census(GraphParams(args.base, args.n))
    print(census_table(rows, args.base), end="")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    graph = build_graph(GraphParams(args.base, args.n), cap=args.max_modulus)
    options = ExportOptions(
        label_base="base" if args.labels == "base" else "decimal",
        highlight=args.highlight,
    )
    if args.format == "dot":
        print(graph_to_dot(graph, options), end="")
    elif args.format == "json":
        print(graph_to_json(graph, options), end="")
    else:
        print(cycle_table(graph), end="")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    params = GraphParams(args.base, args.n)
    walk = period_digits_reversed if args.reverse else period_digits
    print(trace_table(walk(args.k, params)), end="")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        bases = tuple(int(b) for b in args.bases.split(","))
    except ValueError:
        raise ParseError(f"expected a comma separated base list, got {args.bases!r}") from None
    result = run_oracle_sweep(args.max_m, bases)
    if result.ok:
        print(f"{result.cases} cases, 0 mismatches")
        return EXIT_OK
    mis = result.mismatch
    print(f"{result.cases} cases, mismatch at {mis.numerator}/{mis.denominator} base {mis.base}:")
    print(f"  pipeline: {format_expansion(mis.expanded, ascii_style=True)}")
    print(f"  oracle:   {format_expansion(mis.oracle, ascii_style=True)}")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radixgraph",
        description="Repeating radix expansions via multiply-by-B residue graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a fraction K/M in a base")
    p.add_argument("fraction", help="fraction in the form K/M")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--trace", action="store_true", help="also print the reduction and remainder walk")
    p.add_argument("--ascii", action="store_true", help="ascii period notation 0.4(2497)_12")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("census", help="cycle census of the graph mod base*n - 1")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=10)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("graph", help="materialize the graph mod base*n - 1")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--format", choices=("dot", "json", "table"), default="dot")
    p.add_argument("--labels", choices=("dec", "base"), default="dec")
    p.add_argument("--highlight", type=int, default=None, help="vertex to mark in the output")
    p.add_argument("--max-modulus", type=int, default=MATERIALIZATION_CAP, help="vertex cap (default %(default)s)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("trace", help="remainder walk of vertex K in the graph mod base*n - 1")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--reverse", action="store_true", help="walk backwards, digits right to left")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="compare the pipeline against long division")
    p.add_argument("max_m", type=int)
    p.add_argument("--bases", default="10", help="comma separated bases, e.g. 2,10,12")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
