"""Every value a step builds without its constructor's checks, against them.

The steps build their outputs with ``partitions._unchecked``, relying on
invariants their docstrings prove.  Here each such output is rebuilt
through the public, checking constructor, which is the slow oracle the
unchecked build replaces.
"""

import dataclasses
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

import schmidt.bijection
import schmidt.partitions
from schmidt.bijection import (
    hook_compose,
    remove_staircase,
    schmidt_to_hooks,
    schmidt_to_two_color,
    trace_forward,
    two_color_to_schmidt,
    wright_build,
    wright_split,
)
from schmidt.partitions import (
    RefinedQuery,
    TwoColorPartition,
    enumerate_schmidt,
    enumerate_two_color,
    enumerate_two_color_refined,
)
from schmidt.textform import format_two_color, parse_two_color

MAX_WEIGHT = 12


def assert_as_checked(value):
    """``value`` equals, and hashes like, its rebuild by the checking constructor."""
    names = [f.name for f in dataclasses.fields(value)]
    fields = [getattr(value, name) for name in names]
    assert [type(field) for field in fields] == [tuple] * len(names), value
    rebuilt = type(value)(*fields)
    assert rebuilt == value
    assert hash(rebuilt) == hash(value)


def inner_pairs(monkeypatch):
    # the pairs that hook_compose hands to wright_build
    pairs = []

    def capture(pair):
        pairs.append(pair)
        return wright_build(pair)

    monkeypatch.setattr(schmidt.bijection, "wright_build", capture)
    return pairs


def check_forward_steps(tc):
    assert_as_checked(tc)
    padded, pair, shape, _, _ = trace_forward(tc)
    assert_as_checked(padded)
    assert_as_checked(pair)
    assert_as_checked(wright_split(shape))
    assert_as_checked(parse_two_color(format_two_color(tc)))


def check_inverse_steps(partition, pairs):
    del pairs[:]
    split = wright_split(hook_compose(schmidt_to_hooks(partition)))
    assert_as_checked(split)
    assert pairs == [split]
    assert_as_checked(pairs[0])
    assert_as_checked(remove_staircase(split))


@pytest.mark.parametrize("n", range(1, MAX_WEIGHT + 1))
def test_unchecked_builds_pass_the_checks_exhaustively(monkeypatch, n):
    for tc in enumerate_two_color(n):
        check_forward_steps(tc)
    pairs = inner_pairs(monkeypatch)
    for partition in enumerate_schmidt(n):
        check_inverse_steps(partition, pairs)


def test_refined_cells_pass_the_checks():
    for n in range(1, MAX_WEIGHT + 1):
        for r in range(1, 4):
            for l in range(1, 4):
                for p in range(1, 5):
                    for q in range(1, 5):
                        query = RefinedQuery(n=n, r=r, l=l, p=p, q=q)
                        for tc in enumerate_two_color_refined(query):
                            assert_as_checked(tc)


def test_parsed_two_colors_pass_the_checks():
    assert_as_checked(parse_two_color("0"))
    assert_as_checked(parse_two_color("1g+3r+2g+3r+1r"))
    assert parse_two_color("1g+3r+2g+3r+1r") == TwoColorPartition((3, 3, 1), (2, 1))


big_partitions = st.lists(st.integers(1, 10**4), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
big_two_colors = (
    st.tuples(big_partitions, big_partitions)
    .map(lambda rg: TwoColorPartition(*rg))
    .filter(lambda tc: tc.weight > 0)
)


@given(big_two_colors)
def test_unchecked_forward_builds_with_large_parts(tc):
    check_forward_steps(tc)


@given(big_partitions.filter(bool))
def test_unchecked_inverse_builds_with_large_parts(partition):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_inverse_steps(partition, inner_pairs(monkeypatch))


def count_calls(monkeypatch, original):
    """Count calls of ``original`` under every name it has in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "schmidt":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_a_round_trip_checks_only_its_raw_tuples(monkeypatch):
    # the forward map checks the shape it conjugates; the inverse checks
    # its input partition and the shape it splits.  Everything else is
    # built from values already proved.
    tc = TwoColorPartition((3, 1), (2, 2, 1))
    count_checks = count_calls(monkeypatch, schmidt.bijection._check_counts)
    partition_checks = count_calls(monkeypatch, schmidt.partitions.as_partition)
    assert schmidt_to_two_color(two_color_to_schmidt(tc)) == tc
    assert (len(count_checks), len(partition_checks)) == (0, 3)
