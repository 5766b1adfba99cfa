"""Text grammars for plain and colored partitions.

Plain partitions join their parts with "+", for example "3+2+1"; the
empty partition is written "0".  The written sequence must already be
weakly decreasing.  Colored partitions attach "r" or "g" to every part,
for example "2r+1g"; the parts may appear in any order and are read as a
pair of multisets.  A part longer than the interpreter converts
(``sys.get_int_max_str_digits()``, 4,300 digits by default) is a syntax
error that gives its length.  Canonical emission lists parts by size,
largest first, with red before green on equal sizes.  `FORMATS` names the
formats a report is written in; it lives here, with the other text forms,
so that the command line can list them without loading the report layer.
"""

from __future__ import annotations

import re

from .partitions import Parts, TwoColorPartition, _unchecked, as_partition

__all__ = [
    "PartitionSyntaxError",
    "format_partition",
    "format_two_color",
    "parse_partition",
    "parse_two_color",
]

_COLORED_PART = re.compile(r"(\d+)([rg])\Z")
FORMATS = ("text", "csv", "json")  # report formats; the first is the default


class PartitionSyntaxError(ValueError):
    """Input text does not conform to the partition grammar."""


def parse_partition(text: str) -> Parts:
    """Parse the plain grammar; rejects non-monotone sequences."""
    if text == "0":
        return ()
    parts = []
    for token in text.split("+"):
        if not token.isdecimal():
            raise PartitionSyntaxError(f"bad part {token!r} in {text!r}")
        try:
            parts.append(int(token))
        except ValueError:  # past sys.get_int_max_str_digits(); its message is for programs
            raise PartitionSyntaxError(f"part too long: {len(token):,} digits") from None
    try:
        return as_partition(parts)
    except ValueError as exc:
        raise PartitionSyntaxError(str(exc)) from None


def format_partition(p: Parts) -> str:
    """Emit the plain grammar; the empty partition becomes "0"."""
    p = as_partition(p)
    return "+".join(str(x) for x in p) if p else "0"


def parse_two_color(text: str) -> TwoColorPartition:
    """Parse the colored grammar into a two-color partition."""
    if text == "0":
        return _unchecked(TwoColorPartition, (), ())
    red, green = [], []
    for token in text.split("+"):
        match = _COLORED_PART.match(token)
        if match is None:
            raise PartitionSyntaxError(f"bad colored part {token!r} in {text!r}")
        digits = match.group(1)
        try:
            size = int(digits)
        except ValueError:  # as in parse_partition
            raise PartitionSyntaxError(f"part too long: {len(digits):,} digits") from None
        if size < 1:
            raise PartitionSyntaxError(f"colored parts must be positive: {token!r}")
        (red if match.group(2) == "r" else green).append(size)
    # every size is positive, and sorting makes each color a partition
    return _unchecked(
        TwoColorPartition, tuple(sorted(red, reverse=True)), tuple(sorted(green, reverse=True))
    )


def format_two_color(two_color: TwoColorPartition) -> str:
    """Emit the canonical colored form; the empty partition becomes "0"."""
    return "+".join([f"{-s}{'rg'[c]}" for s, c in two_color.sort_key()]) or "0"
