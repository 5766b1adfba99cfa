"""Command-line surface.

Subcommands: map, unmap, table, verify, refined, render.  Exit codes: 0
on success, 1 on a verification failure, 2 on usage or parse errors and
on a number too large to process.
Every subcommand is a builder plus one of two handlers: ``build`` makes
its text (`_cmd_text`) or its report (`_cmd_report`) from the arguments.
The argument parser is built once per process, on the first call of
`build_parser`, and every later `main` call reuses it.  Importing this
module loads only what `map` and `unmap` use: the report layer
(`harness`, and `json` with it) is imported by the builders of `table`,
`verify`, `refined` and `render` and by `_cmd_report`, when they run.
"""

from __future__ import annotations

import argparse
import sys

from .bijection import schmidt_to_two_color, two_color_to_schmidt
from .textform import FORMATS, format_partition, format_two_color, parse_partition, parse_two_color


def _harness():
    # The report layer, imported on first use.  The builders look its
    # functions up when called, so a rebinding of one is seen.
    from . import harness

    return harness


def _cmd_text(args: argparse.Namespace) -> int:
    text = args.build(args)
    if text:
        print(text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = args.build(args)
    out = _harness().format_report(report, args.format)
    print(out)
    # a failing report whose output does not end with its summary gives it on stderr
    if not report.ok and not out.endswith(report.summary):
        print(report.summary, file=sys.stderr)
    return 0 if report.ok else 1


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """Return the process's one parser, building it on the first call.

    It is built then and not at import, so importing the module stays
    cheap.  Callers share it, so treat it as read-only: `parse_args`
    makes a fresh namespace each time and leaves the parser unchanged.
    `main` calls this on every call, so a wrapper put over it still sees
    one call per `main` call.
    """
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="schmidt",
        description="Two-color partitions, Schmidt partitions, and the map between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("map", help="map a colored partition, e.g. 2r+1g")
    cmd.add_argument("colored")
    cmd.set_defaults(
        func=_cmd_text,
        build=lambda a: format_partition(two_color_to_schmidt(parse_two_color(a.colored))),
    )

    cmd = sub.add_parser("unmap", help="invert the map on a plain partition, e.g. 3+2")
    cmd.add_argument("partition")
    cmd.set_defaults(
        func=_cmd_text,
        build=lambda a: format_two_color(schmidt_to_two_color(parse_partition(a.partition))),
    )

    cmd = sub.add_parser("table", help="print the full correspondence at one weight")
    cmd.add_argument("--n", type=int, required=True)
    cmd.set_defaults(func=_cmd_text, build=lambda a: _harness().table_text(a.n))

    cmd = sub.add_parser("verify", help="compare counts and run round trips")
    cmd.add_argument("--max-n", type=int, default=20)
    cmd.add_argument("--roundtrip-cutoff", type=int, default=12)
    cmd.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    cmd.set_defaults(
        func=_cmd_report, build=lambda a: _harness().verify_report(a.max_n, a.roundtrip_cutoff)
    )

    cmd = sub.add_parser("refined", help="run the four-parameter refinement grid")
    cmd.add_argument("--max-n", type=int, default=8)
    cmd.add_argument("--max-r", type=int, default=3)
    cmd.add_argument("--max-l", type=int, default=3)
    cmd.add_argument("--max-p", type=int, default=3)
    cmd.add_argument("--max-q", type=int, default=3)
    cmd.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    cmd.set_defaults(
        func=_cmd_report,
        build=lambda a: _harness().refined_report(a.max_n, a.max_r, a.max_l, a.max_p, a.max_q),
    )

    cmd = sub.add_parser("render", help="show every intermediate of the forward map")
    cmd.add_argument("colored")
    cmd.set_defaults(func=_cmd_text, build=lambda a: _harness().render_text(a.colored))

    _parser = parser
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # parse errors and the library's bound checks
        message = str(exc)
    except OverflowError as exc:  # a number too large for a size or an index
        message = f"number too large to process: {exc}"
    except MemoryError:
        message = "input too large to process: out of memory"
    # printed once the handler has ended, so the failed work is freed first
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
