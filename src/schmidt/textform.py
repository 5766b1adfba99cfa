"""Text grammars for plain and colored partitions.

Plain partitions join their parts with "+", for example "3+2+1"; the
empty partition is written "0".  The written sequence must already be
weakly decreasing.  Colored partitions attach "r" or "g" to every part,
for example "2r+1g"; the parts may appear in any order and are read as a
pair of multisets.  Canonical emission lists parts by size, largest
first, with red before green on equal sizes.  `FORMATS` names the
formats a report is written in; it lives here, with the other text forms,
so that the command line can list them without loading the report layer.
"""

from __future__ import annotations

import re

from .partitions import Parts, TwoColorPartition, _unchecked, as_partition

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
        parts.append(int(token))
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
        size = int(match.group(1))
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


def two_color_to_dict(two_color: TwoColorPartition) -> dict[str, list[int]]:
    """Structured form: {"red": [...], "green": [...]}, parts descending."""
    return {"red": list(two_color.red), "green": list(two_color.green)}


def two_color_from_dict(data: dict[str, list[int]]) -> TwoColorPartition:
    """Inverse of `two_color_to_dict`.

    Anything but a dict, unknown keys, a color that is not a list or tuple,
    and a part that is not a plain ``int`` (``bool`` included) are rejected.
    """
    if not isinstance(data, dict):
        raise PartitionSyntaxError(f"expected a dict of colors: {data!r}")
    extra = set(data) - {"red", "green"}
    if extra:
        raise PartitionSyntaxError(f"unexpected keys: {sorted(extra)}")
    red, green = data.get("red", ()), data.get("green", ())
    for color, parts in (("red", red), ("green", green)):
        if not isinstance(parts, (list, tuple)) or any(type(x) is not int for x in parts):
            raise PartitionSyntaxError(f"{color} must be a list of integers: {parts!r}")
    try:
        return TwoColorPartition(tuple(red), tuple(green))
    except ValueError as exc:
        raise PartitionSyntaxError(str(exc)) from None
