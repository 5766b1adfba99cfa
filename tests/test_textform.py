import sys

import pytest

from schmidt.partitions import TwoColorPartition
from schmidt.textform import (
    PartitionSyntaxError,
    format_partition,
    format_two_color,
    parse_partition,
    parse_two_color,
)


@pytest.mark.parametrize(
    "text,parts",
    [("0", ()), ("3", (3,)), ("3+2+1", (3, 2, 1)), ("2+2+1+1", (2, 2, 1, 1))],
)
def test_plain_round_trip(text, parts):
    assert parse_partition(text) == parts
    assert format_partition(parts) == text


# "²" is a digit to str.isdigit but not a decimal that int() reads
@pytest.mark.parametrize("bad", ["", "1+2", "3+", "a", "3 + 2", "1+0", "-1", "²", "3+²"])
def test_plain_rejects(bad):
    with pytest.raises(PartitionSyntaxError):
        parse_partition(bad)


@pytest.mark.parametrize(
    "text,red,green",
    [
        ("0", (), ()),
        ("3r", (3,), ()),
        ("2r+1g", (2,), (1,)),
        ("3g+2g+1g+1r+1r", (1, 1), (3, 2, 1)),
    ],
)
def test_colored_parse(text, red, green):
    assert parse_two_color(text) == TwoColorPartition(red, green)


def test_colored_parse_is_order_insensitive():
    assert parse_two_color("1g+2r+1r") == parse_two_color("2r+1r+1g")


@pytest.mark.parametrize("bad", ["", "2x", "r2", "2r+", "0r", "2r 1g"])
def test_colored_rejects(bad):
    with pytest.raises(PartitionSyntaxError):
        parse_two_color(bad)


def test_a_part_past_the_digit_limit_is_too_long(digit_limit):
    digits = "9" * digit_limit
    assert parse_partition(digits) == (int(digits),)
    assert parse_two_color(f"1r+{digits}g") == TwoColorPartition((1,), (int(digits),))
    for parse, text in [(parse_partition, "1+" + digits + "9"), (parse_two_color, f"1r+{digits}9g")]:
        with pytest.raises(PartitionSyntaxError) as error:
            parse(text)
        assert str(error.value) == f"part too long: {digit_limit + 1} digits"


def test_writing_a_part_past_the_digit_limit_is_a_value_error(digit_limit):
    assert format_partition((10**digit_limit - 1, 1)) == "9" * digit_limit + "+1"
    assert format_two_color(TwoColorPartition((10**digit_limit - 1,), ())) == "9" * digit_limit + "r"
    too_long = 10**digit_limit
    cases = [(format_partition, (too_long, 1)), (format_two_color, TwoColorPartition((too_long,), ()))]
    for write, value in cases:
        with pytest.raises(ValueError, match=f"^part too long to write: more than {digit_limit} digits$"):
            write(value)


def reads(parse, text):
    try:
        parse(text)
    except PartitionSyntaxError:
        return False
    return True


def test_both_grammars_read_the_same_digits():
    # whichever set of digits the grammars take, they take the same one
    numeric = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isnumeric()]
    disagree = [
        c for c in numeric if reads(parse_partition, "9" + c) != reads(parse_two_color, f"9{c}g")
    ]
    assert disagree == []


def test_canonical_emission_breaks_ties_red_first():
    tc = TwoColorPartition((1, 1), (3, 2, 1))
    assert format_two_color(tc) == "3g+2g+1r+1r+1g"
    assert format_two_color(TwoColorPartition((), ())) == "0"
    assert format_two_color(TwoColorPartition((2, 1), ())) == "2r+1r"


def test_colored_round_trip_canonical():
    for text in ["0", "3r", "2g+1r", "3g+2g+1r+1r+1g", "1r+1r+1g"]:
        assert format_two_color(parse_two_color(text)) == text

