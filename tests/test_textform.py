import pytest

from schmidt.partitions import TwoColorPartition
from schmidt.textform import (
    PartitionSyntaxError,
    format_partition,
    format_two_color,
    parse_partition,
    parse_two_color,
    two_color_from_dict,
    two_color_to_dict,
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


def test_canonical_emission_breaks_ties_red_first():
    tc = TwoColorPartition((1, 1), (3, 2, 1))
    assert format_two_color(tc) == "3g+2g+1r+1r+1g"
    assert format_two_color(TwoColorPartition((), ())) == "0"
    assert format_two_color(TwoColorPartition((2, 1), ())) == "2r+1r"


def test_colored_round_trip_canonical():
    for text in ["0", "3r", "2g+1r", "3g+2g+1r+1r+1g", "1r+1r+1g"]:
        assert format_two_color(parse_two_color(text)) == text


def test_structured_form():
    tc = TwoColorPartition((2, 1), (3,))
    data = two_color_to_dict(tc)
    assert data == {"red": [2, 1], "green": [3]}
    assert two_color_from_dict(data) == tc
    assert two_color_from_dict({"green": [1]}) == TwoColorPartition((), (1,))


def test_structured_form_rejects():
    with pytest.raises(PartitionSyntaxError):
        two_color_from_dict({"red": [1], "blue": [2]})
    with pytest.raises(PartitionSyntaxError):
        two_color_from_dict({"red": [1, 2]})


@pytest.mark.parametrize(
    "data",
    [
        {"red": [2.5]},
        {"red": [True]},
        {"red": "12"},
        {"red": None},
        {"green": (1, 1.0)},
        [],
        None,
        "red",
        [("red", [1])],
    ],
)
def test_structured_form_rejects_malformed_data(data):
    with pytest.raises(PartitionSyntaxError):
        two_color_from_dict(data)
