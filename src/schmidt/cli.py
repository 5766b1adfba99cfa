"""Command-line surface.

Subcommands: map, unmap, table, verify, refined, render.  Exit codes: 0
on success, 1 on a verification failure, 2 on usage or parse errors, on
a number too large to process and on a failed write, whether or not the
error line can be written to stderr; 141 on a closed pipe.
Every subcommand is a builder plus one of two handlers: ``build`` makes
its lines (`_cmd_text`) or its report (`_cmd_report`, which writes the
lines of `harness.format_report`) from the arguments, and the handler
prints each line as it comes.
The argument parser is built once per process, on the first call of
`build_parser`, and every later `main` call reuses it.  An argv of just
`map`, `unmap` or `render` and an operand that does not start with "-"
has nothing to parse, so `main` hands the operand straight to that
subcommand's builder.  Any other argv that names a subcommand is parsed
by that subcommand's parser alone; the top-level parser only prints help
or a usage error.  Both routes run in `main`'s one ``try``, so they share
exit codes and messages.  Importing this module loads only what `map`
and `unmap` use: the report layer (`harness`, and `json` with it) is
imported by the builders of `table`, `verify`, `refined` and `render` and
by `_cmd_report`, when they run.
The builders of `table`, `verify`, `refined` and `render` first count
their work and, through `_refuse`, refuse more than `ENTRY_LIMIT` objects
(`table`, `verify`, `refined`), grid cells (`refined`) or diagram cells
(`render`), or `TABLE_LIMIT` additions for `verify`'s count tables.
So every check has run before the first line is written.
"""

from __future__ import annotations

import argparse
import re
import sys

from .bijection import schmidt_to_two_color, two_color_to_schmidt
from .partitions import count_two_color
from .textform import FORMATS, format_partition, format_two_color, parse_partition, parse_two_color


def _harness():
    # The report layer, imported on first use.  The builders look its
    # functions up when called, so a rebinding of one is seen.
    from . import harness

    return harness


def _cmd_text(args: argparse.Namespace) -> int:
    for line in args.build(args):
        print(line)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = args.build(args)
    for line in _harness().format_report(report, args.format):
        print(line)
    # text ends with the summary; the other formats give a failing one on stderr
    if not report.ok and args.format != "text":
        print(report.summary, file=sys.stderr)
    return 0 if report.ok else 1


def integer(text: str) -> int:
    """Type of the integer options: ASCII digits after an optional "-"; not "+3" or "1_0"."""
    if re.fullmatch(r"-?[0-9]+", text, re.ASCII) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


# Most objects a table, verify or refined run may enumerate, and most
# cells a refined grid or a render may hold.  table and verify stream the
# objects they enumerate, so for them the limit bounds time, not memory:
# the largest table allowed, --n 27 (240,840 objects), takes 2.4-2.5 s at
# 16 MB max RSS, and verify at the largest cutoff allowed, 21, takes
# 5.5-7.2 s at 15 MB.  The slowest grid, --max-n 21 --max-r 21 --max-l 1
# --max-p 21 --max-q 26 (240,786 cells), takes 2.6-2.7 s as text and
# 6.3-7.1 s as JSON at 53 MB; the largest, 250,000 cells, 6 s as JSON at
# 74 MB (CPython 3.11, one core of a shared 2-vCPU machine).
ENTRY_LIMIT = 250_000
# Most additions verify's O(max_n²) tables, the Schmidt DP and the series,
# may take.  The largest run allowed, --max-n 5000, takes 3.9-4.0 s at 16.4 MB (same machine).
TABLE_LIMIT = 25_000_000


def _refuse(work: str, count: int, limit: int) -> None:
    """Raise the one-line refusal when ``count`` passes ``limit``; ``work``
    says what would be done, with one field for the count.

    A count of more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``) is written as a power of ten it
    reaches.
    """
    if count > limit:
        try:
            shown = f"{count:,}"
        except ValueError:
            shown = f"at least 10^{sys.get_int_max_str_digits()}"
        raise ValueError(f"{work.format(shown)}; the limit is {limit:,}")


def _check_cost(command: str, first: int, last: int, sides: int) -> None:
    """Refuse to enumerate ``sides`` sides of each weight first..last when
    that is more than `ENTRY_LIMIT` objects.

    Each side of weight n has t(n) objects, and t increases, so ``sides``
    times t(n) for any n <= last is a lower bound.  Counting stops at the
    first weight where the running total or that bound passes the limit;
    t grows without bound, so at a limit of 250,000 that is by weight 28
    however large ``last`` is.  An empty range is left to the library.
    """
    total = 0
    for n in range(1, last + 1):
        t = sides * count_two_color(n)
        total += t if n >= first else 0
        more = "" if n == last else "more than "
        _refuse(f"{command} would enumerate {more}{{}} objects", max(total, t), ENTRY_LIMIT)


def _table(a: argparse.Namespace):
    _check_cost("table", a.n, a.n, sides=1)
    return _harness().table_lines(a.n)


def _verify(a: argparse.Namespace):
    # both sides of each weight up to the cutoff are enumerated, and the count
    # tables take max_n² additions; a nonpositive max_n is left to the library
    _check_cost("verify", 1, min(a.max_n, a.roundtrip_cutoff), sides=2)
    _refuse("verify would build its count tables in {} additions", max(a.max_n, 0) ** 2, TABLE_LIMIT)
    return _harness().verify_report(a.max_n, a.roundtrip_cutoff)


def _refined(a: argparse.Namespace):
    _check_cost("refined", 1, a.max_n, sides=2)
    bounds = (a.max_n, a.max_r, a.max_l, a.max_p, a.max_q)
    # one record per weight and cell; a bound the library rejects is left to it
    cells = a.max_n * a.max_r * a.max_l * a.max_p * a.max_q if min(bounds) >= 1 else 0
    _refuse("refined would report {} cells", cells, ENTRY_LIMIT)
    return _harness().refined_report(*bounds)


def _render(a: argparse.Namespace) -> list[str]:
    # the diagram of a weight-w pair with m = max(#red, #green) holds the
    # parts plus a staircase on each side plus the diagonal: w + m² cells
    two_color = parse_two_color(a.operand)
    m = max(two_color.num_red, two_color.num_green)
    _refuse("render would draw {} cells", two_color.weight + m * m, ENTRY_LIMIT)
    return _harness().render_text(two_color, a.operand)


_parser: argparse.ArgumentParser | None = None
_commands: dict[str, argparse.ArgumentParser] = {}  # argparse's own, by name
# The subcommands whose only argument is the positional ``operand``.
_OPERAND_COMMANDS = frozenset({"map", "unmap", "render"})


def build_parser() -> argparse.ArgumentParser:
    """Return the process's one parser, building it on the first call.

    It is built then and not at import, so importing the module stays
    cheap.  Callers share it, so treat it as read-only: `parse_args`
    makes a fresh namespace each time and leaves the parser unchanged.
    `main` calls this on every call, so a wrapper put over it still sees
    one call per `main` call.  `main` finds each subcommand's parser in
    argparse's own map of them by name.  The positional argument of
    `map`, `unmap` and `render` is stored as ``operand`` (shown as
    ``colored`` or ``partition``), so that when `main` skips the parser
    for ``[command, operand]`` it builds the same namespace from the
    subcommand's defaults.
    """
    global _parser, _commands
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="schmidt",
        description="Two-color partitions, Schmidt partitions, and the map between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("map", help="map a colored partition, e.g. 2r+1g")
    cmd.add_argument("operand", metavar="colored")
    cmd.set_defaults(
        func=_cmd_text,
        build=lambda a: [format_partition(two_color_to_schmidt(parse_two_color(a.operand)))],
    )

    cmd = sub.add_parser("unmap", help="invert the map on a plain partition, e.g. 3+2")
    cmd.add_argument("operand", metavar="partition")
    cmd.set_defaults(
        func=_cmd_text,
        build=lambda a: [format_two_color(schmidt_to_two_color(parse_partition(a.operand)))],
    )

    cmd = sub.add_parser("table", help="print the full correspondence at one weight")
    cmd.add_argument("--n", type=integer, required=True)
    cmd.set_defaults(func=_cmd_text, build=_table)

    cmd = sub.add_parser("verify", help="compare counts and run round trips")
    cmd.add_argument("--max-n", type=integer, default=20)
    cmd.add_argument("--roundtrip-cutoff", type=integer, default=12)
    cmd.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    cmd.set_defaults(func=_cmd_report, build=_verify)

    cmd = sub.add_parser("refined", help="run the four-parameter refinement grid")
    cmd.add_argument("--max-n", type=integer, default=8)
    cmd.add_argument("--max-r", type=integer, default=3)
    cmd.add_argument("--max-l", type=integer, default=3)
    cmd.add_argument("--max-p", type=integer, default=3)
    cmd.add_argument("--max-q", type=integer, default=3)
    cmd.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    cmd.set_defaults(func=_cmd_report, build=_refined)

    cmd = sub.add_parser("render", help="show every intermediate of the forward map")
    cmd.add_argument("operand", metavar="colored")
    cmd.set_defaults(func=_cmd_text, build=_render)

    _parser, _commands = parser, sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _commands.get(argv[0]) if argv else None
    try:
        if len(argv) == 2 and argv[0] in _OPERAND_COMMANDS and not argv[1].startswith("-"):
            # Nothing to parse: this is the namespace the subcommand's parser
            # would make, found through its public defaults.
            build, func = command.get_default("build"), command.get_default("func")
            args = argparse.Namespace(operand=argv[1], func=func, build=build)
        else:
            # A subcommand's parser parses its own arguments; through the
            # top-level parser, whose subparsers action calls it, argv would
            # be parsed twice.
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        code = args.func(args)
        # A failed write raises here, inside the try, and not at exit.  A
        # flush that fails drops what stdout held, so the one at exit passes.
        sys.stdout.flush()
        return code
    except ValueError as exc:  # parse errors and the library's bound checks
        message = str(exc)
    except OverflowError as exc:  # a number too large for a size or an index
        message = f"number too large to process: {exc}"
    except MemoryError:
        message = "input too large to process: out of memory"
    except BrokenPipeError:  # the reader of stdout has gone: stop silently, as SIGPIPE would
        return 141
    except OSError as exc:  # stdout cannot be written
        message = f"cannot write output: {exc}"
    # printed once the handler has ended, so the failed work is freed first
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # stderr cannot be written either; the exit code still tells
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
