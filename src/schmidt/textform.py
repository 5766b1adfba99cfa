"""Text grammars for plain and colored partitions.

Plain partitions join their parts with "+", for example "3+2+1", and must
be written weakly decreasing; the empty partition is written "0".
Colored partitions attach "r" or "g" to every part, for example "2r+1g";
the parts may appear in any order and are read as a pair of multisets.
Canonical emission lists parts by size, largest first, red before green
on equal sizes.  Both grammars read a part's digits with `_read_part` and
join written parts with `_write_parts`.  A part longer than the
interpreter converts (``sys.get_int_max_str_digits()``, 4,300 digits by
default) is a syntax error that gives its length, and writing one is a
ValueError.  `FORMATS` names the report formats; it lives here so that
the command line can list them without loading the report layer.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from .partitions import Parts, TwoColorPartition, _unchecked, as_partition

__all__ = [
    "PartitionSyntaxError",
    "format_partition",
    "format_two_color",
    "parse_partition",
    "parse_two_color",
]

FORMATS = ("text", "csv", "json")  # report formats; the first is the default


class PartitionSyntaxError(ValueError):
    """Input text does not conform to the partition grammar."""


def _read_part(digits: str, token: str, text: str, kind: str = "part") -> int:
    """The number `digits` spell; unless all are decimal, `token` is a bad `kind` of `text`."""
    if digits.isdecimal():
        try:
            return int(digits)
        except ValueError:  # past sys.get_int_max_str_digits(); its message is for programs
            raise PartitionSyntaxError(f"part too long: {len(digits):,} digits") from None
    raise PartitionSyntaxError(f"bad {kind} {token!r} in {text!r}")


def _write_parts(parts: Iterable[str]) -> str:
    """Join the parts' texts with "+", or give "0"; pass them lazily, so a bad one fails here."""
    try:
        return "+".join(parts) or "0"
    except ValueError:  # a part past sys.get_int_max_str_digits(), as in _read_part
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"part too long to write: more than {limit:,} digits") from None


def parse_partition(text: str) -> Parts:
    """Parse the plain grammar; rejects non-monotone sequences."""
    parts = []
    for token in text.split("+") if text != "0" else ():  # "0" has no parts
        parts.append(_read_part(token, token, text))
    try:
        return as_partition(parts)
    except ValueError as exc:
        raise PartitionSyntaxError(str(exc)) from None


def format_partition(p: Parts) -> str:
    """Emit the plain grammar; the empty partition becomes "0"."""
    return _write_parts(map(str, as_partition(p)))


def parse_two_color(text: str) -> TwoColorPartition:
    """Parse the colored grammar into a two-color partition."""
    red, green = [], []
    for token in text.split("+") if text != "0" else ():  # "0" has no parts
        color = token[-1:]  # without a color letter there are no digits to read
        size = _read_part(token[:-1] if color in ("r", "g") else "", token, text, "colored part")
        if size < 1:
            raise PartitionSyntaxError(f"colored parts must be positive: {token!r}")
        (red if color == "r" else green).append(size)
    # every size is positive, and sorting makes each color a partition
    return _unchecked(
        TwoColorPartition, tuple(sorted(red, reverse=True)), tuple(sorted(green, reverse=True))
    )


def format_two_color(two_color: TwoColorPartition) -> str:
    """Emit the canonical colored form; the empty partition becomes "0"."""
    return _write_parts(f"{-s}{'rg'[c]}" for s, c in two_color.sort_key())
