"""Command-line surface.

Subcommands: map, unmap, table, verify, refined, render.  Exit codes: 0
on success, 1 on a verification failure, 2 on usage or parse errors.
The argument parser is built once per process, on the first call of
`build_parser`, and every later `main` call reuses it.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .bijection import (
    add_staircase,
    hook_decompose,
    hooks_to_schmidt,
    pad_colors,
    render_two_modular,
    schmidt_to_two_color,
    two_color_to_schmidt,
    wright_build,
)
from .textform import (
    format_partition,
    format_two_color,
    parse_partition,
    parse_two_color,
)


def _cmd_map(args: argparse.Namespace) -> int:
    image = two_color_to_schmidt(parse_two_color(args.colored))
    print(format_partition(image))
    return 0


def _cmd_unmap(args: argparse.Namespace) -> int:
    preimage = schmidt_to_two_color(parse_partition(args.partition))
    print(format_two_color(preimage))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    text = harness.table_text(args.n)
    if text:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = harness.verify_report(args.max_n, args.roundtrip_cutoff)
    renderers = {
        "text": harness.verify_text,
        "csv": harness.verify_csv,
        "json": harness.verify_json,
    }
    print(renderers[args.format](report))
    if not report.ok and args.format != "text":
        print(f"FAIL: {report.witness}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_refined(args: argparse.Namespace) -> int:
    report = harness.refined_report(
        args.max_n, args.max_r, args.max_l, args.max_p, args.max_q
    )
    renderers = {
        "text": harness.refined_text,
        "csv": harness.refined_csv,
        "json": harness.refined_json,
    }
    print(renderers[args.format](report))
    return 0 if report.ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    two_color = parse_two_color(args.colored)
    lines = [
        f"input: {args.colored}",
        f"red: {format_partition(two_color.red)}",
        f"green: {format_partition(two_color.green)}",
    ]
    if two_color.weight == 0:
        lines.append("schmidt: 0")
    else:
        pair = add_staircase(pad_colors(two_color))
        shape = wright_build(pair)
        hooks = hook_decompose(shape)
        lines.append(f"arms: {' '.join(str(x) for x in pair.arms)}")
        lines.append(f"legs: {' '.join(str(x) for x in pair.legs)}")
        lines.append(f"shape: {' '.join(str(x) for x in shape)}")
        lines.append("diagram:")
        lines.append(render_two_modular(shape))
        lines.append(f"hooks: {' '.join(str(x) for x in hooks)}")
        lines.append(f"schmidt: {format_partition(hooks_to_schmidt(hooks))}")
    print("\n".join(lines))
    return 0


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
    cmd.set_defaults(func=_cmd_map)

    cmd = sub.add_parser("unmap", help="invert the map on a plain partition, e.g. 3+2")
    cmd.add_argument("partition")
    cmd.set_defaults(func=_cmd_unmap)

    cmd = sub.add_parser("table", help="print the full correspondence at one weight")
    cmd.add_argument("--n", type=int, required=True)
    cmd.set_defaults(func=_cmd_table)

    cmd = sub.add_parser("verify", help="compare counts and run round trips")
    cmd.add_argument("--max-n", type=int, default=20)
    cmd.add_argument("--roundtrip-cutoff", type=int, default=12)
    cmd.add_argument("--format", choices=("text", "csv", "json"), default="text")
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("refined", help="run the four-parameter refinement grid")
    cmd.add_argument("--max-n", type=int, default=8)
    cmd.add_argument("--max-r", type=int, default=3)
    cmd.add_argument("--max-l", type=int, default=3)
    cmd.add_argument("--max-p", type=int, default=3)
    cmd.add_argument("--max-q", type=int, default=3)
    cmd.add_argument("--format", choices=("text", "csv", "json"), default="text")
    cmd.set_defaults(func=_cmd_refined)

    cmd = sub.add_parser("render", help="show every intermediate of the forward map")
    cmd.add_argument("colored")
    cmd.set_defaults(func=_cmd_render)

    _parser = parser
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # parse errors and the library's bound checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
